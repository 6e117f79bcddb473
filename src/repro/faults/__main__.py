"""CLI: chaos replay — a skewed QP stream under a deterministic
fault plan, asserting the end-to-end resilience SLOs.

Up to three stages share one workload (the fleet CLI's Zipf-skewed
stream):

1. **serving chaos** — every request through a serial-mode
   :class:`~repro.serving.SolverService` with datapath bit-flips and
   artifact poisoning armed; the service detects, retries and
   degrades, and the CLI independently re-checks every returned
   solution against the KKT conditions.
2. **fleet chaos** — the same stream replayed through a
   :class:`~repro.fleet.FleetService` with node-stall faults: nodes
   crash mid-service, in-flight work is requeued, circuit breakers
   steer traffic, and exhausted requests degrade to the spill lane.
3. **sharded chaos** (``--shards N``) — the stream through a
   :class:`~repro.serving.ShardedSolverService` of N worker
   *processes* with the process-level vocabulary armed:
   ``worker-crash`` (SIGKILL mid-flight), ``worker-stall``
   (heartbeat silence, tier-resolved by the supervisor) and
   ``shm-corrupt`` (checksummed shared-memory segment corrupted in
   place, quarantined + rebuilt, never served). The supervisor
   restarts, the front door requeues/degrades, and the same SLO
   gates apply.

The serving/fleet report sections contain only deterministic
quantities (counts and simulated-clock values, never wall-clock
times), so identical seeds produce byte-identical reports — including
across the two execution backends (``--both-backends`` asserts
exactly that). The sharded section gates on the same availability +
zero-silent-corruption SLOs; its supervision counters (restarts,
requeues) are reported but not byte-stable, since crash timing
decides how many innocent-bystander lanes die with a shard.

SLO gates (exit code 1 on violation):

* availability — answered / submitted — at least ``--min-availability``
  in every stage;
* **zero silent wrong answers**: every converged, non-degraded
  solution must satisfy the KKT re-check.

Examples::

    python -m repro.faults --seed 0 --requests 200
    python -m repro.faults --requests 64 --both-backends
    python -m repro.faults --requests 32 --skip-fleet --shards 2 \\
        --worker-crashes 2 --shm-corrupts 1
    python -m repro.faults --report chaos_report.json
"""

from __future__ import annotations

import argparse
import json
import time

from ..fleet import AdmissionController, FleetService
from ..fleet.__main__ import DEFAULT_FAMILIES, build_workload
from ..problems import FAMILIES
from ..serving import ShardedSolverService, SolverService
from ..solver import OSQPSettings
from .detect import solution_ok
from .plan import FaultPlan
from .policy import ResiliencePolicy


def serving_chaos(args, problems, backend: str) -> dict:
    """One serial-mode serving replay under the plan; returns the
    deterministic report section."""
    plan = FaultPlan.generate(
        args.seed, len(problems), mac_rate=args.mac_rate,
        hbm_rate=args.hbm_rate, cvb_rate=args.cvb_rate,
        persistent_rate=args.persistent_rate, poisons=args.poisons,
        stalls=0)
    settings = OSQPSettings(eps_abs=args.eps, eps_rel=args.eps)
    resilience = ResiliencePolicy(
        max_retries=args.max_retries, backoff_base_seconds=0.0,
        seed=args.seed)
    answered = failed = silent = 0
    with SolverService(mode="serial", settings=settings, c=args.c,
                       backend=backend, fault_plan=plan,
                       resilience=resilience) as service:
        ids = [service.submit(p) for p in problems]
        for request_id, problem in zip(ids, problems):
            try:
                result = service.result(request_id)
            except Exception:
                failed += 1
                continue
            answered += 1
            if (result.converged and not result.record.degraded
                    and not solution_ok(
                        problem, result.x, result.y, result.z,
                        eps_abs=settings.eps_abs,
                        eps_rel=settings.eps_rel,
                        factor=args.check_factor)):
                silent += 1
        records = service.records()
        counters = service.metrics_snapshot()["counters"]
    return {
        "backend": backend,
        "plan": plan.count_by_kind(),
        "requests": len(problems),
        "answered": answered,
        "failed": failed,
        "availability": answered / len(problems) if problems else 1.0,
        "silent_wrong": silent,
        "degraded": sum(r.degraded for r in records),
        "retries": sum(r.retries for r in records),
        "rollbacks": sum(r.rollbacks for r in records),
        "faults_injected": sum(r.faults_injected for r in records),
        "converged": sum(r.converged for r in records),
        "counters": {name: value for name, value in counters.items()
                     if name.startswith("serving_")},
    }


def fleet_chaos(args, templates, problems, backend: str) -> dict:
    """Calibrated fleet replay with node-stall chaos; returns the
    deterministic report section."""
    horizon = len(problems) / args.rate
    plan = FaultPlan.generate(
        args.seed + 1, len(problems), mac_rate=args.mac_rate,
        hbm_rate=args.hbm_rate, cvb_rate=args.cvb_rate,
        persistent_rate=args.persistent_rate, poisons=0,
        stalls=args.stalls, nodes=args.nodes, horizon=horizon,
        stall_duration=args.stall_duration)
    settings = OSQPSettings(eps_abs=args.eps, eps_rel=args.eps)
    silent = 0
    with FleetService(policy="match", c=args.c, settings=settings,
                      admission=AdmissionController(),
                      seed=args.seed, backend=backend,
                      fault_plan=plan) as fleet:
        for index in range(args.nodes):
            fleet.commission(templates[index % len(templates)])
        ids = fleet.replay_open(problems, rate=args.rate,
                                seed=args.seed)
        for request_id, problem in zip(ids, problems):
            result = fleet.result(request_id)
            record = result.record
            # Calibrated repeats reuse the calibration solve of a
            # *different* numeric instance — only dedicated numeric
            # solves can be KKT-checked against their own problem.
            if (record.converged and record.lane == "node"
                    and not record.calibrated
                    and not solution_ok(
                        problem, result.x, result.y, result.z,
                        eps_abs=settings.eps_abs,
                        eps_rel=settings.eps_rel,
                        factor=args.check_factor)):
                silent += 1
        report = fleet.fleet_report()
    answered = report["requests"] - report["shed"]
    degraded = sum(r.degraded for r in fleet.records())
    return {
        "backend": backend,
        "plan": plan.count_by_kind(),
        "requests": report["requests"],
        "answered": answered,
        "availability": (answered / report["requests"]
                         if report["requests"] else 1.0),
        "silent_wrong": silent,
        "completed": report["completed"],
        "spilled": report["spilled"],
        "shed": report["shed"],
        "converged": report["converged"],
        "degraded": degraded,
        "faults": report["faults"],
    }


def sharded_chaos(args, problems) -> dict:
    """Process-sharded replay under the process-level vocabulary:
    worker crashes (SIGKILL), worker stalls (heartbeat silence) and
    shared-memory corruption — supervised restart, requeue/degrade,
    checksum quarantine. Returns the report section."""
    plan = FaultPlan.generate(
        args.seed + 2, len(problems),
        mac_rate=0.0, hbm_rate=0.0, cvb_rate=0.0, poisons=0, stalls=0,
        worker_crashes=args.worker_crashes,
        worker_stalls=args.worker_stalls,
        shm_corrupts=args.shm_corrupts,
        worker_stall_seconds=args.worker_stall_seconds)
    settings = OSQPSettings(eps_abs=args.eps, eps_rel=args.eps)
    resilience = ResiliencePolicy(
        max_retries=args.max_retries, backoff_base_seconds=0.0,
        seed=args.seed)
    answered = failed = silent = 0
    with ShardedSolverService(
            shards=args.shards, settings=settings, c=args.c,
            backend=args.backend, fault_plan=plan,
            resilience=resilience,
            soft_timeout=args.soft_timeout,
            hard_timeout=args.hard_timeout,
            restart_backoff_base=0.02) as service:
        rids = [service.submit(p) for p in problems]
        for rid, problem in zip(rids, problems):
            try:
                result = service.result(rid, timeout=300)
            except Exception:
                failed += 1
                continue
            answered += 1
            if (result.converged and not result.record.degraded
                    and not solution_ok(
                        problem, result.x, result.y, result.z,
                        eps_abs=settings.eps_abs,
                        eps_rel=settings.eps_rel,
                        factor=args.check_factor)):
                silent += 1
        records = service.records()
        stats = service.stats()
        counters = service.metrics_snapshot()["counters"]

    def family_total(prefix: str) -> float:
        return sum(v for k, v in counters.items()
                   if k.split("{", 1)[0] == prefix)

    return {
        "shards": args.shards,
        "plan": plan.count_by_kind(),
        "requests": len(problems),
        "answered": answered,
        "failed": failed,
        "availability": answered / len(problems) if problems else 1.0,
        "silent_wrong": silent,
        "degraded": sum(r.degraded for r in records),
        "restarts": sum(stats["supervisor"]["restarts"]),
        "heartbeat_misses": sum(stats["supervisor"]["heartbeat_misses"]),
        "requeues": int(family_total("serving_shard_requeues_total")),
        "shm_corrupts_injected": int(
            family_total("serving_shm_corrupt_injected_total")),
        "shm_checksum_failures": int(
            family_total("serving_shm_checksum_failures_total")),
        "shm_quarantines": stats["store"]["quarantines"],
        "converged": sum(r.converged for r in records),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Chaos replay: a skewed QP stream under a "
                    "deterministic fault plan, gated on availability "
                    "and zero-silent-corruption SLOs.")
    parser.add_argument("--requests", type=int, default=64,
                        help="total requests per stage")
    parser.add_argument("--structures", type=int, default=4)
    parser.add_argument("--families", default=DEFAULT_FAMILIES,
                        help="comma-separated families "
                             f"(available: {','.join(sorted(FAMILIES))})")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="size multiplier on the suite instances")
    parser.add_argument("--skew", type=float, default=1.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--backend", choices=("interpret", "compiled"),
                        default="compiled")
    parser.add_argument("--both-backends", action="store_true",
                        help="run the serving stage on both backends "
                             "and require byte-identical reports")
    parser.add_argument("--skip-fleet", action="store_true",
                        help="serving stage only")
    # fault plan shape
    parser.add_argument("--mac-rate", type=float, default=0.05,
                        help="per-request probability of a MAC-tree flip")
    parser.add_argument("--hbm-rate", type=float, default=0.03)
    parser.add_argument("--cvb-rate", type=float, default=0.02)
    parser.add_argument("--persistent-rate", type=float, default=0.1,
                        help="fraction of datapath faults that fire on "
                             "every retry, not just the first attempt")
    parser.add_argument("--poisons", type=int, default=2,
                        help="artifact poisonings in the serving stage")
    parser.add_argument("--stalls", type=int, default=2,
                        help="node stalls in the fleet stage")
    parser.add_argument("--stall-duration", type=float, default=0.05,
                        help="simulated node outage length (seconds)")
    # sharded stage (process-level vocabulary)
    parser.add_argument("--shards", type=int, default=0,
                        help="run the sharded chaos stage with this "
                             "many worker processes (0 = skip)")
    parser.add_argument("--worker-crashes", type=int, default=2,
                        help="scheduled worker SIGKILLs (sharded stage)")
    parser.add_argument("--worker-stalls", type=int, default=1,
                        help="scheduled worker heartbeat stalls")
    parser.add_argument("--shm-corrupts", type=int, default=1,
                        help="scheduled shared-memory corruptions")
    parser.add_argument("--worker-stall-seconds", type=float,
                        default=0.5,
                        help="worker stall length; between the soft "
                             "and hard timeouts it recovers "
                             "cooperatively, past hard it is killed")
    parser.add_argument("--soft-timeout", type=float, default=0.25,
                        help="shard heartbeat soft timeout (seconds)")
    parser.add_argument("--hard-timeout", type=float, default=2.0,
                        help="shard heartbeat hard timeout (seconds)")
    # resilience + fleet knobs
    parser.add_argument("--max-retries", type=int, default=2)
    parser.add_argument("--check-factor", type=float, default=100.0,
                        help="KKT re-check slack over solver tolerance")
    parser.add_argument("--nodes", type=int, default=2)
    parser.add_argument("--rate", type=float, default=2000.0,
                        help="fleet open-loop arrival rate")
    parser.add_argument("--c", type=int, default=None)
    parser.add_argument("--eps", type=float, default=1e-3)
    # SLOs + output
    parser.add_argument("--min-availability", type=float, default=0.99)
    parser.add_argument("--report", default=None,
                        help="write the chaos report to this JSON file")
    args = parser.parse_args(argv)

    families = [f.strip() for f in args.families.split(",") if f.strip()]
    unknown = sorted(set(families) - set(FAMILIES))
    if unknown:
        parser.error(f"unknown families {', '.join(unknown)} "
                     f"(available: {','.join(sorted(FAMILIES))})")
    templates, problems = build_workload(
        families, args.structures, args.requests, args.scale, args.skew,
        args.seed)
    print(f"chaos workload: {len(problems)} requests over "
          f"{len(templates)} structures (seed {args.seed})")

    report: dict = {"seed": args.seed, "requests": args.requests}
    backends = (["interpret", "compiled"] if args.both_backends
                else [args.backend])
    serving_reports = {}
    for backend in backends:
        t0 = time.perf_counter()
        serving_reports[backend] = serving_chaos(args, problems, backend)
        elapsed = time.perf_counter() - t0
        s = serving_reports[backend]
        print(f"\n=== serving chaos [{backend}] "
              f"({elapsed:.2f} s wall) ===")
        print(f"availability           : {s['availability']:.2%} "
              f"({s['answered']}/{s['requests']} answered)")
        print(f"faults injected        : {s['faults_injected']} "
              f"(plan: {s['plan']})")
        print(f"retries / rollbacks    : {s['retries']} / "
              f"{s['rollbacks']}")
        print(f"degraded answers       : {s['degraded']}")
        print(f"silent wrong answers   : {s['silent_wrong']}")
    report["serving"] = serving_reports[backends[-1]]

    backends_identical = True
    if args.both_backends:
        lhs, rhs = (dict(serving_reports[b], backend="") for b in backends)
        backends_identical = lhs == rhs
        report["backends_identical"] = backends_identical
        print(f"\nbackend report identity: "
              f"{'OK' if backends_identical else 'MISMATCH'}")

    if not args.skip_fleet:
        t0 = time.perf_counter()
        fleet_section = fleet_chaos(args, templates, problems,
                                    args.backend)
        elapsed = time.perf_counter() - t0
        report["fleet"] = fleet_section
        f = fleet_section
        print(f"\n=== fleet chaos [{args.backend}] "
              f"({elapsed:.2f} s wall) ===")
        print(f"availability           : {f['availability']:.2%} "
              f"({f['answered']}/{f['requests']} answered)")
        print(f"lanes                  : {f['completed']} node, "
              f"{f['spilled']} spilled, {f['shed']} shed")
        print(f"node failures          : "
              f"{f['faults']['node_failures']} "
              f"({f['faults']['requeues']} requeues, "
              f"{f['faults']['breaker_opens']} breaker opens)")
        print(f"degraded answers       : {f['degraded']}")
        print(f"silent wrong answers   : {f['silent_wrong']}")

    if args.shards > 0:
        t0 = time.perf_counter()
        sharded_section = sharded_chaos(args, problems)
        elapsed = time.perf_counter() - t0
        report["sharded"] = sharded_section
        d = sharded_section
        print(f"\n=== sharded chaos [{args.shards} shards, "
              f"{args.backend}] ({elapsed:.2f} s wall) ===")
        print(f"availability           : {d['availability']:.2%} "
              f"({d['answered']}/{d['requests']} answered)")
        print(f"plan                   : {d['plan']}")
        print(f"shard restarts         : {d['restarts']} "
              f"({d['requeues']} requeues, "
              f"{d['heartbeat_misses']} heartbeat misses)")
        print(f"shm checksum failures  : {d['shm_checksum_failures']} "
              f"({d['shm_quarantines']} quarantined + rebuilt)")
        print(f"degraded answers       : {d['degraded']}")
        print(f"silent wrong answers   : {d['silent_wrong']}")

    # -- SLO gates -----------------------------------------------------
    violations = []
    for name in [k for k in ("serving", "fleet", "sharded")
                 if k in report]:
        section = report[name]
        if section["availability"] < args.min_availability:
            violations.append(
                f"{name} availability {section['availability']:.2%} "
                f"< {args.min_availability:.2%}")
        if section["silent_wrong"]:
            violations.append(
                f"{name} returned {section['silent_wrong']} silent "
                f"wrong answer(s)")
    sharded = report.get("sharded")
    if sharded and sharded["shm_checksum_failures"] < \
            sharded["shm_corrupts_injected"]:
        # Every injected segment corruption must be *detected* by a
        # reader checksum — an undetected one is a served lie waiting
        # to happen.
        violations.append(
            f"sharded detected only {sharded['shm_checksum_failures']} "
            f"of {sharded['shm_corrupts_injected']} injected shm "
            "corruption(s)")
    if not backends_identical:
        violations.append("serving chaos reports differ across backends")
    report["slo"] = {"min_availability": args.min_availability,
                     "violations": violations}

    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"\nreport written to {args.report}")

    if violations:
        print("\nSLO VIOLATIONS:")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    print("\nall SLOs met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
