"""Counting rules shared by every workload.

Percentiles use the nearest-rank definition, and a tail percentile is
only reported where at least :data:`TAIL_BEYOND` samples lie beyond
it. The two metric tables are the vocabulary of the result line;
``test_perfbench.py`` checks them against ``BENCHMARK.json``.
"""

from __future__ import annotations

import math
import re
import statistics

#: Instruction classes of ``repro.hw.ExecutionStats.by_class``.
CYCLE_CLASSES = ("DataTransfer", "VectorOp", "VecDup", "SpMV", "ScalarOp",
                 "Control")

#: End-to-end metrics, printed with ``--trace 0``: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_rps": "1/s",
    "sim_time_us": "us",
    "sim_energy_uj": "uJ",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

#: Per-layer metrics, printed with ``--trace 1``: name -> unit.
PER_LAYER = {
    "serving.fingerprint_us": "us",
    "solver.select_us": "us",
    "serving.cache_lookup_us": "us",
    "serving.cache_hit_ratio": "ratio",
    "qp.ruiz_ms": "ms",
    "hw.bind_ms": "ms",
    "hw.run_ms": "ms",
    "hw.host_ns_per_cycle": "ns",
    "hw.instructions": "count",
    **{f"hw.cycles.{name}": "cycles" for name in CYCLE_CLASSES},
    "solver.outer_iterations": "count",
    "solver.pcg_iterations": "count",
    "solver.pdqp_restarts": "count",
    "hw.model_gap_cycles": "cycles",
    "serving.session_update_ms": "ms",
    "serving.session_resolve_ms": "ms",
    "batch.width_mean": "lanes",
    "batch.bind_ms": "ms",
    "batch.run_ms": "ms",
    "batch.lockstep_speedup": "x",
    "batch.lane_fallbacks": "count",
    "customization.search_ms": "ms",
    "customization.eta": "ratio",
    "hw.compile_ms": "ms",
    "verify.artifact_ms": "ms",
    "serving.unattributed_ms": "ms",
    "bench.trace_overhead_pct": "%",
}

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def valid_name(name: str) -> bool:
    return _NAME.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return _UNIT.fullmatch(unit) is not None


def nearest_rank(n: int, pct: float) -> int:
    """1-based rank of the ``pct`` percentile among ``n`` sorted samples."""
    if n < 1:
        raise ValueError("a percentile needs at least one sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {pct}")
    # round() first: 95 / 100 * 200 is 190.00000000000003 in binary.
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples rank above the ``pct`` percentile."""
    return n - nearest_rank(n, pct)


def min_samples(pct: float) -> int:
    """Fewest samples that leave :data:`TAIL_BEYOND` beyond ``pct``."""
    n = TAIL_BEYOND + 1
    while samples_beyond(n, pct) < TAIL_BEYOND:
        n += 1
    return n


def percentile(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), pct) - 1]


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


class Ledger:
    """Attempted answers and the ones that failed, each counted once.

    An answer fails when its request raised, it did not converge, it
    was degraded to the reference tier, or it failed any correctness
    check. An answer that fails several checks is still one failure.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: dict[int, list[str]] = {}

    def attempt(self) -> int:
        """Register one answer the client waits for; returns its id."""
        self.attempted += 1
        return self.attempted - 1

    def fail(self, answer_id: int, reason: str) -> None:
        if not 0 <= answer_id < self.attempted:
            raise ValueError(f"answer {answer_id} was never attempted")
        self.reasons.setdefault(answer_id, []).append(reason)

    @property
    def failed(self) -> int:
        return len(self.reasons)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def ok_ratio(self) -> float:
        return 1.0 - self.failed_ratio

    def first_reasons(self, limit: int = 5) -> list[str]:
        return [f"answer {aid}: {'; '.join(reasons)}"
                for aid, reasons in sorted(self.reasons.items())[:limit]]
