"""Closed-loop measurement, correctness checks and the two metric tables."""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.faults import ResiliencePolicy, solution_ok
from repro.serving import ArchCache, reference_job

from .calibrate import Speedometer
from .spans import REQUEST, SpanRecorder
from .stats import (CYCLE_CLASSES, END_TO_END, PER_LAYER, Ledger, mean,
                    median, percentile)
from .workloads import SETTINGS, lookup

#: Fresh-process set-ups per invocation; setup_s reports the median.
SETUP_REPEATS = 3
#: The command line a set-up probe runs, before its arguments.
RUN_PY = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]
#: Seconds of window between two host-speed samples.
SPEED_EVERY = 0.02
#: Host-speed samples taken just before and just after each restart.
SPEED_BURST = 5
#: How far a window may run past --seconds to reach its minimum answers.
OVERRUN_S = 60.0
#: Objective gap allowed against the reference solvers: OBJECTIVE_RTOL
#: of max(1, |f_ref|), plus OBJECTIVE_KKT times eps_abs per unit of
#: ||x_ref||_1 + ||y_ref||_1 + ||q||_1. Both sides stop at the service's
#: tolerances, so their objectives may differ by residuals of that size
#: weighted by the iterates, the multipliers and the linear cost.
OBJECTIVE_RTOL = 5e-2
OBJECTIVE_KKT = 10.0
#: The service's own slack for its host-side KKT re-check.
CHECK_FACTOR = ResiliencePolicy().check_factor


@dataclass
class Window:
    """What one closed-loop window observed."""

    request_latency: list = field(default_factory=list)
    #: Answers each request waited for: 1, or the lanes of a burst.
    request_answers: list = field(default_factory=list)
    speed: Speedometer = field(
        default_factory=lambda: Speedometer(SPEED_EVERY))
    #: Per request, the host-speed sample taken nearest after it.
    speed_at: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: (modelled seconds, modelled joules) of the stream's first answers.
    modelled: list = field(default_factory=list)
    widths: list = field(default_factory=list)
    fallbacks: int = 0
    facts: list = field(default_factory=list)
    firsts: dict = field(default_factory=dict)
    kept: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def note(window, ledger, ids, what) -> None:
    """Record the traceback of a failed call against its answers."""
    detail = traceback.format_exc()
    window.errors.append(detail)
    for aid in ids:
        ledger.fail(aid, f"{what}: {detail.strip().splitlines()[-1]}")


def check_answer(ledger, aid, answer, tier) -> None:
    if not answer.converged:
        ledger.fail(aid, "did not converge")
    if answer.backend != "rsqp":
        ledger.fail(aid, "degraded to the reference tier")
    if answer.tier != tier:
        ledger.fail(aid, f"served from tier {answer.tier!r}, "
                         f"expected {tier!r}")
    if not solution_ok(answer.problem, answer.x, answer.y, answer.z,
                       eps_abs=SETTINGS.eps_abs, eps_rel=SETTINGS.eps_rel,
                       factor=CHECK_FACTOR):
        ledger.fail(aid, "failed the KKT re-check")


def replay(workload, request, ids, answers, ledger, rec, window) -> None:
    """Replay one request through the layers and compare bit for bit."""
    try:
        with rec.span(REQUEST, request.index):
            raws, facts = workload.replay(request, rec)
    except Exception:  # a failed replay is a failed answer, not a crash
        note(window, ledger, ids, "replay raised")
        return
    window.facts.extend(facts)
    if len(raws) != len(answers):
        for aid in ids:
            ledger.fail(aid, f"replay returned {len(raws)} lanes, "
                             f"the front door {len(answers)}")
        return
    for aid, answer, raw, fact in zip(ids, answers, raws, facts):
        if not answer.matches(raw):
            ledger.fail(aid, "replay differs from the front-door answer")
        gap = fact.get("hw.model_gap_cycles", 0)
        if gap:
            ledger.fail(aid, f"cycles differ from estimate_cycles by {gap}")


def check_references(ledger, window) -> None:
    """The first answer per structure against the reference solver."""
    for structure, (aid, answer) in window.firsts.items():
        try:
            ref = reference_job(answer.problem, SETTINGS, None,
                                answer.algorithm)
        except Exception:  # reported as this answer's failure
            note(window, ledger, [aid], f"{structure}: reference raised")
            continue
        if not ref.status.is_optimal:
            ledger.fail(aid, f"{structure}: reference solver ended "
                             f"{ref.status.reason}")
            continue
        f_ref = answer.problem.objective(ref.x)
        f_acc = answer.problem.objective(answer.x)
        allowed = (OBJECTIVE_RTOL * max(1.0, abs(f_ref))
                   + OBJECTIVE_KKT * SETTINGS.eps_abs
                   * (np.abs(ref.x).sum() + np.abs(ref.y).sum()
                      + np.abs(answer.problem.q).sum()))
        if abs(f_acc - f_ref) > allowed:
            ledger.fail(aid, f"{structure}: objective {f_acc:.6g} vs "
                             f"reference {f_ref:.6g}")


def replay_setup_builds(workload, rec) -> None:
    """Trace set-up's builds from outside: each structure through a
    missing lookup, customize, compile and verify."""
    cache = ArchCache()
    for i, problem in enumerate(workload.problems.values()):
        rid = -1 - i
        with rec.span(REQUEST, rid):
            lookup(workload.service, cache, problem, rec, rid)


def probe_set_up(workload, launched: float) -> float:
    """Set up in this fresh process. Returns the seconds since
    ``launched``, a ``time.monotonic()`` reading taken before the
    process started."""
    workload.set_up()
    return time.monotonic() - launched


def time_set_ups(name: str, seed: int) -> list:
    """Restart set-ups: each in a fresh process, from before the
    process starts to the first request it could serve. Each is read at
    the host speed this process measures just before and after it, as
    a fresh process's own first kernel runs are slow."""
    probes = []
    for _ in range(SETUP_REPEATS):
        speed = Speedometer(0.0)
        speed.burst(SPEED_BURST)
        launched = time.monotonic()
        done = subprocess.run(
            RUN_PY + ["--workload", name, "--seed", str(seed),
                      "--setup-probe", repr(launched)],
            capture_output=True, text=True, timeout=150, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe exited {done.returncode}:\n"
                               f"{done.stderr[-2000:]}")
        raw = json.loads(done.stdout.splitlines()[-1])["setup_s"]
        speed.burst(SPEED_BURST)
        probes.append({"raw_s": raw, "setup_s": raw * speed.factor})
    return probes


def measure(workload, seconds, trace, ledger, rec):
    """Set up, serve the closed loop, then check answers."""
    # The in-process set-up also fills the C JIT disk cache, so the
    # timed restarts that follow run no compiler.
    workload.set_up()
    setups = [] if trace else time_set_ups(workload.name, workload.seed)
    if trace:
        replay_setup_builds(workload, rec)
    window = Window()
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds + OVERRUN_S or (
                elapsed >= seconds
                and sum(window.request_answers) >= workload.min_answers):
            break
        request = workload.next_request(index)
        index += 1
        ids = [ledger.attempt() for _ in request.problems]
        t0 = time.perf_counter()
        try:
            answers = workload.serve(request)
        except Exception:  # one failed request must not end the run
            answers = None
            note(window, ledger, ids, "front door raised")
        waited = time.perf_counter() - t0
        window.request_latency.append(waited)
        window.request_answers.append(len(ids))
        window.speed.tick()
        window.speed_at.append(len(window.speed.samples) - 1)
        if answers is None:
            continue
        for aid, answer in zip(ids, answers):
            check_answer(ledger, aid, answer, workload.tier)
            window.firsts.setdefault(answer.structure, (aid, answer))
            window.widths.append(answer.batch_width)
            if len(window.modelled) < workload.sim_answers:
                window.modelled.append((answer.sim_seconds,
                                        answer.energy_joules))
        if len(answers) > 1:
            window.fallbacks += sum(a.batch_width < len(answers)
                                    for a in answers)
        if trace:
            replay(workload, request, ids, answers, ledger, rec, window)
        elif len(window.kept) < workload.replay_sample:
            window.kept.append((request, ids, answers))
    window.peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Untraced runs replay a fixed sample after the window, so the check
    # runs on every invocation without costing measured time.
    for request, ids, answers in window.kept:
        replay(workload, request, ids, answers, ledger, SpanRecorder(),
               window)
    check_references(ledger, window)
    return setups, window


def end_to_end(workload, setups, window, ledger) -> tuple:
    """The end-to-end metrics, host timings read at the reference host
    speed measured around each request, and the raw host timings."""
    speed = window.speed
    scaled = [waited * speed.factor_at(i) for waited, i
              in zip(window.request_latency, window.speed_at)]

    def timings(per_request, setup_key):
        # A lane of a burst waits as long as its burst.
        per_answer = [t for t, n in zip(per_request, window.request_answers)
                      for _ in range(n)]
        return {
            "setup_s": median([p[setup_key] for p in setups]),
            "latency_p50_ms": median(per_answer) * 1e3,
            "latency_tail_ms": percentile(per_answer,
                                          workload.tail_pct) * 1e3,
            "throughput_rps": len(per_answer) / sum(per_request),
        }

    values = {
        **timings(scaled, "setup_s"),
        "sim_time_us": mean([t for t, _ in window.modelled]) * 1e6,
        "sim_energy_uj": mean([e for _, e in window.modelled]) * 1e6,
        "peak_rss_mb": window.peak_rss_mb,
        "ok_ratio": ledger.ok_ratio,
    }
    return values, timings(window.request_latency, "raw_s")


def per_layer(rec, window) -> dict:
    def stage(name, **match):
        return median([s.ms for s in rec.named(name, **match)
                       if s.request_id >= 0])

    def build_stage(name, **match):
        # Cold requests build in the window; the other workloads build
        # only during set-up, whose replayed builds stand in.
        spans = rec.named(name, **match)
        served = [s.ms for s in spans if s.request_id >= 0]
        return median(served or [s.ms for s in spans])

    def fact(name, reduce=mean):
        return reduce([f[name] for f in window.facts if name in f])

    hits = [s.args["hit"] for s in rec.named("cache_lookup")
            if s.request_id >= 0]
    untraced = median(window.request_latency) * 1e3
    probes: dict = {}
    for s in rec.spans:
        if s.args.get("probe"):
            probes[s.request_id] = probes.get(s.request_id, 0.0) + s.ms
    traced = median([s.ms - probes.get(s.request_id, 0.0)
                     for s in rec.named(REQUEST) if s.request_id >= 0])
    attributed = sum(median(v) for v in rec.stage_ms().values())
    gaps = [abs(f["hw.model_gap_cycles"]) for f in window.facts
            if "hw.model_gap_cycles" in f]
    return {
        "serving.fingerprint_us": stage("fingerprint") * 1e3,
        "solver.select_us": stage("select") * 1e3,
        "serving.cache_lookup_us": stage("cache_lookup") * 1e3,
        "serving.cache_hit_ratio": mean(hits),
        "qp.ruiz_ms": stage("ruiz"),
        "hw.bind_ms": stage("bind"),
        "hw.run_ms": stage("run"),
        "hw.host_ns_per_cycle": fact("hw.host_ns_per_cycle", median),
        "hw.instructions": fact("hw.instructions"),
        **{f"hw.cycles.{name}": fact(f"hw.cycles.{name}")
           for name in CYCLE_CLASSES},
        "solver.outer_iterations": fact("solver.outer_iterations"),
        "solver.pcg_iterations": fact("solver.pcg_iterations"),
        "solver.pdqp_restarts": fact("solver.pdqp_restarts"),
        "hw.model_gap_cycles": max(gaps, default=0),
        "serving.session_update_ms": stage("session_update"),
        "serving.session_resolve_ms": stage("session_resolve"),
        "batch.width_mean": mean(window.widths),
        "batch.bind_ms": stage("batch_bind"),
        "batch.run_ms": stage("batch_run"),
        "batch.lockstep_speedup": fact("batch.lockstep_speedup"),
        "batch.lane_fallbacks": (window.fallbacks
                                 / max(len(window.request_latency), 1)),
        "customization.search_ms": build_stage("customize"),
        "customization.eta": fact("customization.eta"),
        "hw.compile_ms": build_stage("compile"),
        "verify.artifact_ms": build_stage("verify", subject="artifact"),
        "serving.unattributed_ms": untraced - attributed,
        "bench.trace_overhead_pct": 100.0 * (traced - untraced) / untraced,
    }


def run(workload, seconds: float, trace: bool):
    """One invocation: returns the report and the span recorder."""
    ledger = Ledger()
    rec = SpanRecorder()
    try:
        setups, window = measure(workload, seconds, trace, ledger, rec)
    finally:
        workload.close()
    raw: dict = {}
    if trace:
        values, units = per_layer(rec, window), PER_LAYER
    else:
        (values, raw), units = (end_to_end(workload, setups, window, ledger),
                                END_TO_END)
    if set(values) != set(units):
        raise AssertionError("metric table drifted from the result line")
    report = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "tail_percentile": workload.tail_pct,
        "requests": len(window.request_latency),
        "answers": sum(window.request_answers),
        "host_speed_factor": window.speed.factor,
        "raw_host_timings": raw,
        "setup_probes": setups,
        "failures": ledger.first_reasons(),
        "errors": window.errors[:3],
    }
    return report, rec
