"""Run one benchmark workload and print its result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload warm_mix --seed 1 --seconds 10 --trace 0

The program under test is the checkout's own ``src/repro``. Everything
the run writes (the C JIT cache, compiler temporaries, the report and
the trace) goes under ``.bench_build/`` in the checkout. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Exits 2 without
a result line when the checkout holds no program to measure.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
PROGRAM = ROOT / "src" / "repro"


def _arguments(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one closed-loop workload of the service benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up once in this fresh process and print the seconds
    # since the given time.monotonic() reading (see harness.time_set_ups).
    parser.add_argument("--setup-probe", type=float, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return parser, args


def _prepare_environment() -> None:
    """Keep every file the run writes inside the checkout, and numeric
    libraries on the one thread the single client needs."""
    for sub in ("cjit", "tmp", "perfbench"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_JIT_CACHE"] = str(BUILD / "cjit")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    tempfile.tempdir = str(BUILD / "tmp")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv=None) -> int:
    parser, args = _arguments(argv)
    if not (PROGRAM / "__init__.py").is_file():
        print(f"perfbench: no program to measure, {PROGRAM} is missing",
              file=sys.stderr)
        return 2
    _prepare_environment()
    import repro
    if Path(repro.__file__).resolve().parent != PROGRAM.resolve():
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {PROGRAM}", file=sys.stderr)
        return 2
    from perfbench import envelope, harness
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe is not None:
        try:
            setup_s = harness.probe_set_up(workload, args.setup_probe)
        finally:
            workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = envelope.describe(ROOT, args.workload, args.seed, bool(args.trace))
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("envelope " + json.dumps({k: v for k, v in env.items()
                                    if k != "unmeasured"}))
    for gate in env["unmeasured"]:
        print(f"UNMEASURED {gate['gate']}: {gate['reason']}")

    report, rec = harness.run(workload, args.seconds, bool(args.trace))
    report["envelope"] = env
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (BUILD / "perfbench" / f"{stem}.json").write_text(
        json.dumps(report, indent=2))
    if args.trace:
        trace_path = BUILD / "perfbench" / f"{stem}.trace.json"
        rec.write(trace_path, env)
        print(f"trace: {trace_path}")

    print(f"{report['requests']} requests, {report['answers']} answers, "
          f"tail = p{report['tail_percentile']:g}")
    for name, metric in report["metrics"].items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    for reason in report["failures"]:
        print(f"FAILED {reason}")
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
