"""CLI gate: statically verify suite artifacts end to end.

For every problem in the (bounded) benchmark suite this builds the
full serving artifact — customization search, schedules, CVB layouts,
compiled program — and runs every pass in :mod:`repro.verify` over it.
Optionally also verifies the paper's baseline (structure-oblivious)
customization. Exit status 1 when any artifact produces an
ERROR-severity diagnostic, so CI can run this as a gate::

    python -m repro.verify --count 2
    python -m repro.verify --families control,lasso --count 1 --baseline
    python -m repro.verify --c 8 --show info
    python -m repro.verify --codegen --count 2
    python -m repro.verify --codes

``--codegen`` additionally lifts every generated-C unit of each
artifact's program — the one whole-loop tier, for every loop of the
nest, at one lane (a solo machine's unit) and at ``--batch`` lanes —
for the default ADMM program *and* a PDQP build of the same problem,
and runs the effect-IR analyses of :mod:`repro.verify.codegen` over
them. ``--codes`` prints the registered diagnostic-code table and
exits (used by the docs drift test).
"""

from __future__ import annotations

import argparse
import time

from ..customization import baseline_customization
from ..experiments.runner import choose_width
from ..problems import FAMILIES, benchmark_suite
from ..serving.arch_cache import build_artifact
from .artifact import verify_artifact
from .codegen import codegen_report_for_artifact
from .diagnostics import Severity, VerificationReport, diagnostics_table
from .schedule_check import verify_customization

_SHOW = {"error": Severity.ERROR, "warning": Severity.WARNING,
         "info": Severity.INFO}


def _print_report(report: VerificationReport, threshold: Severity) -> None:
    for diag in report.diagnostics:
        if diag.severity >= threshold:
            print(f"  {diag.render()}")


def _width(text: str) -> int:
    """argparse type of a lane count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid lane count {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"lane count must be >= 1, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Statically verify compiler-emitted programs, SpMV "
                    "schedules and CVB layouts for the problem suite.")
    parser.add_argument("--families", default=None,
                        help="comma-separated subset (default: all six; "
                             f"available: {','.join(sorted(FAMILIES))})")
    parser.add_argument("--count", type=int, default=2,
                        help="instances per family (default 2; the full "
                             "suite is 20)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="size multiplier on the suite instances")
    parser.add_argument("--c", type=int, default=None,
                        help="datapath width (default: auto by nnz)")
    parser.add_argument("--baseline", action="store_true",
                        help="also verify the structure-oblivious "
                             "baseline customization per problem")
    parser.add_argument("--show", choices=sorted(_SHOW),
                        default="warning",
                        help="minimum severity to print (default "
                             "warning; errors always count toward the "
                             "exit status)")
    parser.add_argument("--codegen", action="store_true",
                        help="also lift and verify the generated-C tier "
                             "(effect-IR bounds/write-set/equivalence/"
                             "cycle analyses) for ADMM and PDQP builds "
                             "of every suite problem")
    parser.add_argument("--batch", type=_width, default=2,
                        help="second lane count --codegen lifts every "
                             "loop at, besides 1 (the solo unit); "
                             "default 2, and 1 lifts width 1 only")
    parser.add_argument("--codes", action="store_true",
                        help="print the diagnostic-code table and exit")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    if args.codes:
        print(diagnostics_table())
        return 0

    families = None
    if args.families:
        families = [f.strip() for f in args.families.split(",")
                    if f.strip()]
        unknown = sorted(set(families) - set(FAMILIES))
        if unknown:
            parser.error(f"unknown families {', '.join(unknown)} "
                         f"(available: {','.join(sorted(FAMILIES))})")

    threshold = _SHOW[args.show]
    entries = list(benchmark_suite(scale=args.scale, seed=args.seed,
                                   families=families, count=args.count))
    print(f"verifying {len(entries)} suite artifact(s)"
          f"{' + baselines' if args.baseline else ''} ...")
    t0 = time.perf_counter()
    total_errors = total_warnings = 0
    for entry in entries:
        c = args.c if args.c is not None else choose_width(entry.problem.nnz)
        artifact = build_artifact(entry.problem, c)
        report = verify_artifact(artifact)
        if args.baseline:
            base = baseline_customization(entry.problem, c)
            report.extend(verify_customization(base))
        if args.codegen:
            report.extend(codegen_report_for_artifact(
                artifact, entry.problem, batch=args.batch))
            pdqp = build_artifact(entry.problem, c, algorithm="pdqp")
            report.extend(codegen_report_for_artifact(
                pdqp, entry.problem, batch=args.batch))
        n_err, n_warn = len(report.errors), len(report.warnings)
        total_errors += n_err
        total_warnings += n_warn
        status = "FAIL" if n_err else "ok"
        arch = artifact.customization.architecture
        print(f"{entry.name:<16s} C={c:<3d} arch={arch} "
              f"eta={artifact.customization.eta:.3f} "
              f"[{status}: {n_err} error(s), {n_warn} warning(s)]")
        _print_report(report, threshold)
    elapsed = time.perf_counter() - t0
    print(f"\n{len(entries)} artifact(s) verified in {elapsed:.1f} s: "
          f"{total_errors} error(s), {total_warnings} warning(s)")
    return 1 if total_errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
