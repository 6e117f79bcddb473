"""Fleet routing and autoscaling economics on a skewed workload.

Two claims behind the fleet layer, both on a deterministic
two-structure stream (Zipf-skewed popularity, closed-loop arrivals,
fixed seed):

* **Routing**: placing each request on the node whose frozen
  architecture best matches its structure (the time-domain match
  score) beats structure-blind round-robin on η-weighted throughput
  and p95 latency — the multi-instance version of the paper's
  customization argument.
* **Autoscaling**: starting from a fleet pinned entirely to the
  popular structure's architecture, the mismatch traffic of the
  unpopular structure pays for a dedicated build, and once it comes
  online the fleet converges to routing (nearly) everything to a
  matching architecture.

The combined results are written to ``fleet_report.json`` (CI uploads
it as an artifact).
"""

import json
import pathlib

from conftest import print_rows

from repro.fleet import Autoscaler, FleetService
from repro.fleet.__main__ import build_workload
from repro.solver import OSQPSettings

SETTINGS = OSQPSettings(eps_abs=1e-3, eps_rel=1e-3, max_iter=4000)
FAMILIES = ["control", "lasso"]
STRUCTURES = 2
REQUESTS = 48
CLIENTS = 4
SEED = 0

REPORT_PATH = pathlib.Path(__file__).resolve().parent.parent \
    / "fleet_report.json"


def _save_report(key: str, payload: dict) -> None:
    """Merge one bench's reports into the shared JSON artifact."""
    merged = {}
    if REPORT_PATH.exists():
        merged = json.loads(REPORT_PATH.read_text())
    merged[key] = payload
    REPORT_PATH.write_text(json.dumps(merged, indent=2, sort_keys=True))


def skewed_stream(seed: int = SEED, skew: float = 1.5):
    return build_workload(FAMILIES, STRUCTURES, REQUESTS, 1.0, skew,
                          seed)


def test_fleet_match_routing_beats_round_robin(benchmark):
    templates, stream = skewed_stream()

    def replay_all():
        reports = {}
        for policy in ("match", "least-loaded", "round-robin"):
            flt = FleetService(policy=policy, settings=SETTINGS, seed=SEED)
            for template in templates:
                flt.commission(template)
            flt.replay_closed(stream, clients=CLIENTS)
            reports[policy] = flt.fleet_report()
        return reports

    reports = benchmark.pedantic(replay_all, iterations=1, rounds=1)
    rows = [{
        "policy": policy,
        "eta_thr_per_s": rep["eta_weighted_throughput"],
        "p50_ms": 1e3 * rep["latency_seconds"]["p50"],
        "p95_ms": 1e3 * rep["latency_seconds"]["p95"],
        "matched_pct": 100.0 * rep["matched_fraction"],
        "makespan_ms": 1e3 * rep["makespan_seconds"],
    } for policy, rep in reports.items()]
    print_rows("Fleet routing: skewed two-structure workload", rows)
    _save_report("routing", reports)

    match, rr = reports["match"], reports["round-robin"]
    for rep in reports.values():
        assert rep["requests"] == REQUESTS
        assert rep["converged"] == REQUESTS - rep["shed"]
    # Structure-aware placement wins the figure of merit outright...
    assert match["eta_weighted_throughput"] > \
        rr["eta_weighted_throughput"]
    # ...and the latency tail, on the very same stream.
    assert match["latency_seconds"]["p95"] < rr["latency_seconds"]["p95"]
    # It does so by actually routing to matching architectures.
    assert match["matched_fraction"] > rr["matched_fraction"]


def test_fleet_autoscaling_converges_to_matching_arch(benchmark):
    # Milder skew so the unpopular structure has enough traffic to pay
    # for its build within the replay.
    templates, stream = skewed_stream(skew=1.2)

    def replay():
        scaler = Autoscaler(build_cost_cycles=5e4, build_seconds=1e-3,
                            max_nodes=4)
        # The whole initial fleet is pinned to the *popular* arch; the
        # unpopular structure starts out 100% mismatched.
        flt = FleetService(policy="match", settings=SETTINGS,
                           autoscaler=scaler, queue_weight=0.0, seed=SEED)
        flt.commission(templates[0])
        flt.commission(templates[0])
        flt.replay_closed(stream, clients=CLIENTS)
        return flt.fleet_report()

    report = benchmark.pedantic(replay, iterations=1, rounds=1)
    print_rows("Fleet autoscaling: mismatch traffic pays for a build", [{
        "requests": report["requests"],
        "builds": len(report["builds"]),
        "matched_pct": 100.0 * report["matched_fraction"],
        "trailing_matched_pct":
            100.0 * report["matched_fraction_trailing"],
        "eta_mean": report["eta"]["mean"],
    }])
    _save_report("autoscale", report)

    assert report["converged"] == report["requests"]
    # The autoscaler commissioned at least one node beyond the two the
    # fleet started with...
    assert len(report["builds"]) >= 3
    # ...and after it comes online the fleet routes >= 90% of the
    # trailing half of the stream to a matching architecture.
    assert report["matched_fraction_trailing"] >= 0.9
