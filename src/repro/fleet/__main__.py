"""CLI: replay a skewed-popularity QP stream through the fleet.

Builds ``--structures`` distinct problem structures across the
benchmark families, draws ``--requests`` arrivals from a Zipf-skewed
popularity distribution over them (numeric data perturbed per request,
sparsity identical — the paper's repeated-structure serving scenario),
commissions ``--nodes`` accelerators for the most popular structures
and replays the stream under the chosen placement policy.

Examples::

    python -m repro.fleet --nodes 4 --policy match
    python -m repro.fleet --policy round-robin --seed 7
    python -m repro.fleet --compare --report-json fleet_report.json
    python -m repro.fleet --arrival closed --clients 8
    python -m repro.fleet --autoscale --nodes 2 --structures 4
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from ..problems import FAMILIES, generate, perturb_numeric, suite_sizes
from ..solver import OSQPSettings
from .admission import AdmissionController
from .autoscale import Autoscaler
from .router import POLICIES
from .service import FleetService

DEFAULT_FAMILIES = "control,lasso"


def build_workload(families: list[str], structures: int, requests: int,
                   scale: float, skew: float, seed: int):
    """Zipf-skewed request stream over ``structures`` templates.

    Returns ``(templates, problems)`` with templates ordered most
    popular first — the fleet commissions nodes for the head of that
    ranking.
    """
    rng = np.random.default_rng(seed)
    per_family = structures // len(families) + 1
    templates = []
    for index in range(structures):
        family = families[index % len(families)]
        sizes = suite_sizes(family, per_family, scale)
        template = generate(family, sizes[index // len(families)],
                            seed=seed + index)
        template.name = f"{family}[{index:02d}]"
        templates.append(template)
    weights = np.arange(1, structures + 1, dtype=float) ** -skew
    weights /= weights.sum()
    picks = rng.choice(structures, size=requests, p=weights)
    problems = [perturb_numeric(templates[pick],
                                seed=int(rng.integers(2 ** 31)))
                for pick in picks]
    return templates, problems


def run_replay(args, policy: str, templates, problems) -> FleetService:
    """One fleet, one policy, one full replay of ``problems``."""
    settings = OSQPSettings(eps_abs=args.eps, eps_rel=args.eps)
    admission = AdmissionController(
        rate=args.admission_rate,
        max_queue_depth=args.max_queue_depth)
    autoscaler = None
    if args.autoscale:
        autoscaler = Autoscaler(build_cost_cycles=args.build_cost,
                                build_seconds=args.build_seconds,
                                max_nodes=args.max_nodes)
    fleet = FleetService(policy=policy, c=args.c, settings=settings,
                         admission=admission, autoscaler=autoscaler,
                         spill_servers=args.spill_servers,
                         queue_weight=args.queue_weight,
                         seed=args.seed, backend=args.backend)
    for index in range(args.nodes):
        fleet.commission(templates[index % len(templates)])
    if args.arrival == "open":
        fleet.replay_open(problems, rate=args.rate, seed=args.seed)
    else:
        fleet.replay_closed(problems, clients=args.clients,
                            think_seconds=args.think)
    return fleet


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Replay a skewed-popularity QP stream through a "
                    "multi-accelerator fleet.")
    parser.add_argument("--nodes", type=int, default=4,
                        help="accelerators commissioned up front, pinned "
                             "to the most popular structures")
    parser.add_argument("--policy", choices=POLICIES, default="match")
    parser.add_argument("--compare", action="store_true",
                        help="replay the same stream under every policy "
                             "and print the comparison")
    parser.add_argument("--families", default=DEFAULT_FAMILIES,
                        help="comma-separated families "
                             f"(default {DEFAULT_FAMILIES}; "
                             f"available: {','.join(sorted(FAMILIES))})")
    parser.add_argument("--structures", type=int, default=4,
                        help="distinct problem structures in the stream")
    parser.add_argument("--requests", type=int, default=64,
                        help="total arrivals in the replay")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="size multiplier on the suite instances")
    parser.add_argument("--skew", type=float, default=1.5,
                        help="Zipf exponent of structure popularity")
    parser.add_argument("--arrival", choices=("open", "closed"),
                        default="open")
    parser.add_argument("--rate", type=float, default=2000.0,
                        help="open-loop arrival rate "
                             "(requests per simulated second)")
    parser.add_argument("--clients", type=int, default=4,
                        help="closed-loop concurrent clients")
    parser.add_argument("--think", type=float, default=0.0,
                        help="closed-loop think time (simulated seconds)")
    parser.add_argument("--queue-weight", type=float, default=1.0,
                        help="backlog discount of the match-score router")
    parser.add_argument("--admission-rate", type=float, default=None,
                        help="token-bucket admission rate (default: off)")
    parser.add_argument("--max-queue-depth", type=int, default=None,
                        help="spill to the reference lane beyond this "
                             "per-node backlog (default: off)")
    parser.add_argument("--spill-servers", type=int, default=1)
    parser.add_argument("--autoscale", action="store_true",
                        help="commission architectures for structures "
                             "whose mismatch traffic pays the build cost")
    parser.add_argument("--build-cost", type=float, default=2e6,
                        help="autoscaler break-even in projected cycles")
    parser.add_argument("--build-seconds", type=float, default=0.01,
                        help="simulated bitstream-build latency")
    parser.add_argument("--max-nodes", type=int, default=8)
    parser.add_argument("--c", type=int, default=None,
                        help="datapath width (default: auto by nnz)")
    parser.add_argument("--backend", choices=("interpret", "compiled"),
                        default="compiled",
                        help="accelerator execution backend "
                             "(default compiled)")
    parser.add_argument("--metrics-format",
                        choices=("plain", "prometheus"), default="plain",
                        help="render metrics human-readable (plain) or in "
                             "Prometheus text exposition format")
    parser.add_argument("--report-json", default=None,
                        help="write the fleet report(s) to this JSON file")
    parser.add_argument("--eps", type=float, default=1e-3,
                        help="solver eps_abs/eps_rel")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    families = [f.strip() for f in args.families.split(",") if f.strip()]
    unknown = sorted(set(families) - set(FAMILIES))
    if unknown:
        parser.error(f"unknown families {', '.join(unknown)} "
                     f"(available: {','.join(sorted(FAMILIES))})")
    templates, problems = build_workload(
        families, args.structures, args.requests, args.scale, args.skew,
        args.seed)
    print(f"workload: {len(problems)} requests over "
          f"{len(templates)} structures "
          f"(zipf skew {args.skew}, {args.arrival}-loop arrivals, "
          f"seed {args.seed})")

    policies = list(POLICIES) if args.compare else [args.policy]
    reports = {}
    exit_code = 0
    for policy in policies:
        t0 = time.perf_counter()
        fleet = run_replay(args, policy, templates, problems)
        elapsed = time.perf_counter() - t0
        report = fleet.fleet_report()
        reports[policy] = report
        print(f"\n=== policy: {policy} "
              f"(replayed in {elapsed:.2f} s wall) ===")
        print(fleet.render_report())
        if not args.compare:
            print("\nmetrics:")
            if args.metrics_format == "prometheus":
                print(fleet.metrics.render_prometheus(), end="")
            else:
                print(fleet.metrics.render())
        served = report["requests"] - report["shed"]
        if report["converged"] < served:
            exit_code = 1

    if args.compare and "match" in reports:
        match = reports["match"]
        print("\n=== comparison (same stream, same seed) ===")
        for policy, report in reports.items():
            if policy == "match":
                continue
            dthr = (match["eta_weighted_throughput"]
                    - report["eta_weighted_throughput"])
            dp95 = (report["latency_seconds"]["p95"]
                    - match["latency_seconds"]["p95"])
            print(f"match vs {policy}: "
                  f"eta-throughput {dthr:+.1f} eta/s, "
                  f"p95 latency {dp95 * 1e3:+.3f} ms "
                  f"(positive = match wins)")

    if args.report_json:
        payload = reports if args.compare else reports[policies[0]]
        with open(args.report_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"\nreport written to {args.report_json}")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
