"""Tests of the benchmark's own code: the tail-percentile rule, failure
counting, metric names against ``BENCHMARK.json``, spans, host-speed
scaling and seed determinism.

Run from the repository root with ``PYTHONPATH=src python -m pytest
perfbench``.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from perfbench import calibrate, stats
from perfbench.spans import REQUEST, SpanRecorder

ROOT = Path(__file__).resolve().parent.parent


def test_tail_rule_leaves_ten_samples_beyond():
    assert stats.min_samples(75) == 40
    assert stats.min_samples(90) == 100
    assert stats.min_samples(95) == 200
    assert stats.min_samples(99) == 1000
    assert stats.samples_beyond(200, 95) == 10
    assert stats.samples_beyond(199, 95) < 10


def test_percentile_is_nearest_rank():
    values = list(range(200, 0, -1))
    assert stats.percentile(values, 95) == 190
    assert stats.percentile(values, 50) == 100
    assert stats.percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.nearest_rank(10, 0)


def test_ledger_counts_each_failed_answer_once():
    ledger = stats.Ledger()
    ids = [ledger.attempt() for _ in range(4)]
    ledger.fail(ids[1], "did not converge")
    ledger.fail(ids[1], "failed the KKT re-check")
    ledger.fail(ids[3], "replay differs")
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert ledger.failed_ratio == 0.5 and ledger.ok_ratio == 0.5
    assert ledger.first_reasons(1) == [
        "answer 1: did not converge; failed the KKT re-check"]
    with pytest.raises(ValueError):
        ledger.fail(4, "never attempted")


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    e2e, layers = spec["end_to_end"], spec["per_layer"]
    assert {m["name"]: m["unit"] for m in e2e} == stats.END_TO_END
    assert {m["name"]: m["unit"] for m in layers} == stats.PER_LAYER
    names = [m["name"] for m in e2e + layers + spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(stats.valid_name(name) for name in names)
    assert all(stats.valid_unit(m["unit"]) for m in e2e + layers)
    assert all(m["better"] in ("lower", "higher") for m in e2e + layers)
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in e2e)
    assert all(set(m) == {"name", "unit", "better"} for m in layers)
    bounds = {m["name"]: m["bound"] for m in e2e}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_each_workload_states_its_tail_and_can_support_it():
    workloads = pytest.importorskip("perfbench.workloads")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    assert set(whys) <= set(workloads.WORKLOADS)
    for name, cls in workloads.WORKLOADS.items():
        if name not in whys:
            continue
        stated = re.search(r"tail p(\d+)", whys[name])
        assert stated and float(stated.group(1)) == cls.tail_pct, name
        floor = cls.min_answers.fget(cls)
        assert stats.samples_beyond(floor, cls.tail_pct) >= \
            stats.TAIL_BEYOND, name


def test_spans_nest_and_export_chrome_trace():
    rec = SpanRecorder()
    with rec.span(REQUEST, 0):
        with rec.span("bind", 0):
            pass
        with rec.span("ruiz", 0, probe=True):
            pass
        with rec.span("session_resolve", 0):
            with rec.span("run", 0):
                pass
    with rec.span(REQUEST, -1):
        with rec.span("customize", -1):
            pass
    assert set(rec.stage_ms()) == {"bind", "session_resolve"}
    events = rec.chrome_trace({"seed": 1})["traceEvents"]
    assert [e["name"] for e in events] == [
        REQUEST, "bind", "ruiz", "session_resolve", "run", REQUEST,
        "customize"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert events[4]["args"]["parent"] == events[3]["args"]["span_id"]
    with pytest.raises(ValueError):
        with rec.span("not-a-stage", 0):
            pass


def test_speed_factor_reads_the_samples_around_an_index():
    speed = calibrate.Speedometer(every=0.0)
    speed.samples = [1e-3, 1e-3, 2e-3, 2e-3, 2e-3, 4e-3, 4e-3]
    ref = calibrate.REFERENCE_S
    assert speed.factor_at(0, half=1) == pytest.approx(ref / 1e-3)
    assert speed.factor_at(3, half=1) == pytest.approx(ref / 2e-3)
    assert speed.factor_at(6, half=1) == pytest.approx(ref / 4e-3)
    assert speed.factor == pytest.approx(ref / 2e-3)
    speed.tick()
    assert len(speed.samples) == 8 and speed.samples[-1] > 0


def test_each_request_is_scaled_by_the_speed_around_it():
    harness = pytest.importorskip("perfbench.harness")

    class Workload:
        tail_pct = 50.0

    window = harness.Window()
    ref = calibrate.REFERENCE_S
    window.speed.samples = [ref] * 3 + [4 * ref] * 3
    # Two bursts of two lanes; the second ran on a host four times slower.
    window.request_latency = [0.010, 0.040]
    window.request_answers = [2, 2]
    window.speed_at = [0, 5]
    setups = [{"raw_s": 2.0, "setup_s": 1.0}, {"raw_s": 3.0, "setup_s": 1.5},
              {"raw_s": 4.0, "setup_s": 2.0}]
    ledger = stats.Ledger()
    for _ in range(4):
        ledger.attempt()
    values, raw = harness.end_to_end(Workload(), setups, window, ledger)
    assert values["latency_p50_ms"] == pytest.approx(10.0)
    assert values["throughput_rps"] == pytest.approx(4 / 0.020)
    assert values["setup_s"] == 1.5 and values["ok_ratio"] == 1.0
    assert raw["latency_p50_ms"] == pytest.approx(25.0)
    assert raw["throughput_rps"] == pytest.approx(4 / 0.050)
    assert raw["setup_s"] == 3.0


def _stream(cls, seed, count):
    workload = cls(seed)
    return [workload.next_request(i) for i in range(count)]


def _digest(requests):
    return [(r.structure, [np.concatenate([p.P.data, p.q, p.A.data,
                                           p.l, p.u]).tobytes()
                           for p in r.problems]) for r in requests]


def test_same_seed_gives_the_same_requests():
    workloads = pytest.importorskip("perfbench.workloads")
    for cls in workloads.WORKLOADS.values():
        first = _digest(_stream(cls, 7, 3))
        assert first == _digest(_stream(cls, 7, 3)), cls.name
        assert first != _digest(_stream(cls, 8, 3)), cls.name
