"""CLI demo: replay a benchmark-suite workload through the service.

Builds a repeated-structure workload (the paper's amortization
scenario): ``--structures`` problems per family from the benchmark
suite, each replayed ``--repeats`` times with perturbed numeric data
but identical sparsity. The whole stream goes through one
:class:`~repro.serving.SolverService`, then the throughput and
amortization report is printed.

Examples::

    python -m repro.serving
    python -m repro.serving --families control,lasso --repeats 10
    python -m repro.serving --workers 4 --cache-path /tmp/arch.json
    python -m repro.serving --cold-policy fallback
    python -m repro.serving --shards 4   # process-sharded front door
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from ..problems import FAMILIES, generate, perturb_numeric, suite_sizes
from ..solver import OSQPSettings
from .service import SolverService
from .sharded import ShardedSolverService

DEFAULT_FAMILIES = "control,lasso,svm"


def build_workload(families: list[str], structures: int, repeats: int,
                   scale: float, seed: int) -> list:
    """``structures`` templates per family, ``repeats`` variants each."""
    rng = np.random.default_rng(seed)
    problems = []
    for family in families:
        sizes = suite_sizes(family, structures, scale)
        for index, size in enumerate(sizes):
            template = generate(family, size, seed=seed + index)
            template.name = f"{family}[{index:02d}]"
            for rep in range(repeats):
                variant = (template if rep == 0 else perturb_numeric(
                    template, seed=int(rng.integers(2 ** 31))))
                problems.append(variant)
    order = rng.permutation(len(problems))
    return [problems[i] for i in order]


def _run_sharded(args, problems, settings) -> int:
    """Replay the workload through the process-sharded front door."""
    t0 = time.perf_counter()
    with ShardedSolverService(shards=args.shards, settings=settings,
                              c=args.c, cache_path=args.cache_path,
                              backend=args.backend) as service:
        results = service.solve_batch(problems)
        elapsed = time.perf_counter() - t0

        converged = sum(r.converged for r in results)
        degraded = sum(r.record.degraded for r in results)
        retried = sum(r.record.retries > 0 for r in results)
        print(f"\nconverged              : {converged}/{len(results)}")
        print(f"wall time              : {elapsed:.2f} s "
              f"({len(results) / elapsed:.1f} solves/s)")
        print(f"retried / degraded     : {retried} / {degraded}")
        stats = service.stats()
        sup = stats["supervisor"]
        print(f"shard restarts         : {sum(sup['restarts'])} "
              f"(states: {', '.join(sup['states'])})")
        store = stats["store"]
        print(f"shm store              : {store['publishes']} publishes, "
              f"{store['segments']} live segments, "
              f"{store['quarantines']} quarantined")
        print("\nmetrics:")
        if args.metrics_format == "prometheus":
            print(service.metrics.render_prometheus(), end="")
        else:
            print(service.metrics.render())
        cache = stats["cache"]
        print(f"\ncache: {cache['size']}/{cache['capacity']} entries, "
              f"{cache['evictions']} evictions, "
              f"{cache['disk_hits']} disk rebuilds")
        if args.cache_path:
            print(f"cache persisted to {args.cache_path}")
    return 0 if converged == len(results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Replay a repeated-structure QP workload through "
                    "the RSQP solver service.")
    parser.add_argument("--families", default=DEFAULT_FAMILIES,
                        help="comma-separated families "
                             f"(default {DEFAULT_FAMILIES}; "
                             f"available: {','.join(sorted(FAMILIES))})")
    parser.add_argument("--structures", type=int, default=2,
                        help="distinct problem structures per family")
    parser.add_argument("--repeats", type=int, default=8,
                        help="numeric variants per structure")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="size multiplier on the suite instances")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--mode", choices=("thread", "serial"),
                        default="thread")
    parser.add_argument("--shards", type=int, default=0,
                        help="run the process-sharded front door with N "
                             "supervised worker shards instead of the "
                             "single-process service (0 = off)")
    parser.add_argument("--c", type=int, default=None,
                        help="datapath width (default: auto by nnz)")
    parser.add_argument("--cache-path", default=None,
                        help="JSON persistence file for the arch cache")
    parser.add_argument("--backend", choices=("interpret", "compiled"),
                        default="compiled",
                        help="accelerator execution backend "
                             "(default compiled)")
    parser.add_argument("--cold-policy", choices=("build", "fallback"),
                        default="build")
    parser.add_argument("--metrics-format", choices=("plain", "prometheus"),
                        default="plain",
                        help="render metrics human-readable (plain) or in "
                             "Prometheus text exposition format")
    parser.add_argument("--eps", type=float, default=1e-3,
                        help="solver eps_abs/eps_rel")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    families = [f.strip() for f in args.families.split(",") if f.strip()]
    unknown = sorted(set(families) - set(FAMILIES))
    if unknown:
        parser.error(f"unknown families {', '.join(unknown)} "
                     f"(available: {','.join(sorted(FAMILIES))})")
    problems = build_workload(families, args.structures, args.repeats,
                              args.scale, args.seed)
    total_nnz = sum(p.nnz for p in problems)
    lane = (f"{args.shards} process shards" if args.shards > 0
            else f"{args.mode} mode, {args.workers} workers")
    print(f"workload: {len(problems)} solves, "
          f"{len(families) * args.structures} structures, "
          f"{total_nnz} total nnz ({lane})")

    settings = OSQPSettings(eps_abs=args.eps, eps_rel=args.eps)
    if args.shards > 0:
        return _run_sharded(args, problems, settings)
    t0 = time.perf_counter()
    with SolverService(c=args.c, settings=settings, workers=args.workers,
                       mode=args.mode, cache_path=args.cache_path,
                       cold_policy=args.cold_policy,
                       backend=args.backend) as service:
        results = service.solve_batch(problems)
        service.drain()  # fallback mode: let background builds finish
        elapsed = time.perf_counter() - t0

        converged = sum(r.converged for r in results)
        print(f"\nconverged              : {converged}/{len(results)}")
        print(f"wall time              : {elapsed:.2f} s "
              f"({len(results) / elapsed:.1f} solves/s)")
        sim = [r.record.simulated_seconds for r in results
               if r.backend == "rsqp"]
        if sim:
            print(f"simulated device time  : {sum(sim) * 1e3:.2f} ms total "
                  f"(mean {np.mean(sim) * 1e6:.0f} us/solve)")
        print()
        print(service.amortization_report())
        print("\nmetrics:")
        if args.metrics_format == "prometheus":
            print(service.metrics.render_prometheus(), end="")
        else:
            print(service.metrics.render())
        cache = service.cache_stats()
        print(f"\ncache: {cache.size}/{cache.capacity} entries, "
              f"{cache.evictions} evictions, "
              f"{cache.disk_hits} disk rebuilds")
        if args.cache_path:
            print(f"cache persisted to {args.cache_path}")
    return 0 if converged == len(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
