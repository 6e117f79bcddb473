"""Interpreter-vs-compiled solve throughput on the standard suite.

The compiled backend's contract is *same bits, same cycle counts,
faster wall clock*: per-solve Python dispatch (one ``isinstance`` walk
and ``stats.charge`` per instruction in the interpreter) collapses into
bound closures and one generated C function per loop. This benchmark
measures full accelerator solves — lowering and kernel compilation are
warmed up first and amortize across the serving-style repeat pattern —
asserts the contract held bit for bit, asserts >= 5x speedup on the
PCG-dominated cases, and writes ``BENCH_SIM.json`` at the repo root so
future PRs have a perf trajectory.

Respects ``REPRO_BENCH_COUNT`` / ``REPRO_BENCH_SCALE`` (see conftest).
"""

import json
import pathlib
import time

import numpy as np

from conftest import bench_count, bench_scale, host_info, print_rows

from repro.customization import customize_problem
from repro.hw.accelerator import RSQPAccelerator
from repro.problems import generate

REPORT_PATH = pathlib.Path(__file__).resolve().parent.parent \
    / "BENCH_SIM.json"

#: (family, size): the suite's small-to-mid instances. Sizes scale with
#: REPRO_BENCH_SCALE; count with REPRO_BENCH_COUNT (max 6 families).
CASES = [("control", 8), ("eqqp", 40), ("huber", 40), ("lasso", 30),
         ("portfolio", 40), ("svm", 24)]

#: Cases whose runtime is dominated by PCG inner iterations — the loop
#: the compiled backend exists to accelerate. The >= 5x floor applies
#: here; sparser-iteration cases may fall below it (see docs/PERF.md).
PCG_DOMINATED = ("control", "eqqp", "huber")

SPEEDUP_FLOOR = 5.0

#: Timed solves per case and backend, after one warm-up solve.
REPEATS = 2


def _solve(problem, cust, backend, repeats):
    acc = RSQPAccelerator(problem, customization=cust, backend=backend)
    result = acc.run()  # warm-up: lowering + C loop compile amortized
    t0 = time.perf_counter()
    for _ in range(repeats):
        acc = RSQPAccelerator(problem, customization=cust,
                              backend=backend)
        result = acc.run()
    elapsed = (time.perf_counter() - t0) / repeats
    return result, acc.machine.stats, elapsed


def test_sim_backend_speedup(benchmark):
    count = max(1, min(bench_count(), len(CASES)))
    scale = bench_scale()
    cases = [(fam, max(4, int(size * scale)))
             for fam, size in CASES[:count]]
    # Keep every PCG-dominated family in reduced runs: the assertion
    # below is the point of the benchmark.
    covered = {fam for fam, _ in cases}
    for fam in PCG_DOMINATED:
        if fam not in covered:
            size = dict(CASES)[fam]
            cases.append((fam, max(4, int(size * scale))))

    rows = []
    for family, size in cases:
        problem = generate(family, size, seed=0)
        cust = customize_problem(problem, 16)
        ri, si, ti = _solve(problem, cust, "interpret", REPEATS)
        rc, sc, tc = _solve(problem, cust, "compiled", REPEATS)

        # The contract, not just a sanity check: same bits, same cycles.
        assert np.array_equal(ri.x, rc.x), (family, size)
        assert np.array_equal(ri.y, rc.y), (family, size)
        assert np.array_equal(ri.z, rc.z), (family, size)
        assert ri.total_cycles == rc.total_cycles, (family, size)
        assert si.by_class == sc.by_class, (family, size)

        rows.append({
            "family": family, "size": size,
            "pcg_iterations": ri.pcg_iterations,
            "interpret_ms": round(ti * 1e3, 3),
            "compiled_ms": round(tc * 1e3, 3),
            "speedup": round(ti / tc, 2),
            "pcg_dominated": family in PCG_DOMINATED,
        })

    print_rows("Simulation backends: solve throughput", rows)

    floor_rows = [r for r in rows if r["pcg_dominated"]]
    assert floor_rows, "no PCG-dominated case measured"
    for row in floor_rows:
        assert row["speedup"] >= SPEEDUP_FLOOR, row
    assert all(r["speedup"] > 1.0 for r in rows)

    # One stable number for pytest-benchmark trend lines: the hot
    # compiled solve of the first PCG-dominated case.
    family, size = floor_rows[0]["family"], floor_rows[0]["size"]
    problem = generate(family, size, seed=0)
    cust = customize_problem(problem, 16)
    RSQPAccelerator(problem, customization=cust,
                    backend="compiled").run()  # warm

    def hot_solve():
        return RSQPAccelerator(problem, customization=cust,
                               backend="compiled").run()
    benchmark(hot_solve)

    payload = {
        "host": host_info(),
        "repeats": REPEATS,
        "speedup_floor": SPEEDUP_FLOOR,
        "pcg_dominated_families": list(PCG_DOMINATED),
        "bench_count": count,
        "bench_scale": scale,
        "cases": rows,
        "min_pcg_dominated_speedup": min(r["speedup"]
                                         for r in floor_rows),
        "geomean_speedup": round(float(np.exp(np.mean(
            [np.log(r["speedup"]) for r in rows]))), 2),
    }
    REPORT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
