"""`FleetService` — a structure-aware fleet of simulated accelerators.

Where :class:`~repro.serving.SolverService` amortizes one architecture
per structure on a *single* accelerator, the fleet hosts N
:class:`~repro.fleet.events.AcceleratorNode`\\ s, each pinned to a
frozen architecture artifact, and decides — per incoming QP — which
node's architecture it matches best:

1. every submitted problem is fingerprinted
   (:mod:`repro.serving.fingerprint`) and stamped with a simulated
   arrival time,
2. admission control (:mod:`repro.fleet.admission`) rate-limits and
   depth-sheds, diverting overload to a reference-solver spill lane,
3. a placement policy (:mod:`repro.fleet.router`) picks a node — the
   match-score policy scores the paper's ``eta`` of (fingerprint, node
   architecture), memoized per pair,
4. the node serves its FIFO queue; a request's service time is the
   accelerator's own cycle count at the architecture's modeled
   ``f_max``,
5. the autoscaler (:mod:`repro.fleet.autoscale`) watches mismatch
   traffic per structure cluster and commissions freshly customized
   nodes when the projected cycles-saved exceed the build cost.

The submit/result surface mirrors :class:`SolverService`; metrics flow
through :class:`repro.serving.metrics.MetricsRegistry` (bounded
reservoirs by default — fleet traffic is unbounded); and
:meth:`fleet_report` exports utilization, latency percentiles and the
η-weighted throughput the routing policies compete on.

The fleet is a capacity-planning simulator: it numerically solves the
*first* request per (structure, architecture) pair and reuses that
solve's cycle count as the service time for every repeat, because
per-request numerics would dominate wall time without changing the
queueing picture. A repeat therefore carries no solution; callers who
need every answer use :class:`~repro.serving.SolverService` or
:class:`~repro.serving.ShardedSolverService`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..baselines.cpu import cpu_solve_seconds
from ..baselines.workload import workload_from_result
from ..exceptions import (FaultDetectedError, SimulationError,
                          VerificationError)
from ..faults import CircuitBreaker, solution_ok
from ..customization import customize_problem
from ..experiments.runner import choose_width
from ..qp import QProblem
from ..solver import OSQPSettings, available_algorithms, choose_algorithm
from ..serving.arch_cache import ArchCache, build_artifact
from ..serving.fingerprint import StructureFingerprint, fingerprint_problem
from ..serving.metrics import MetricsRegistry
from ..hw.compiled import validate_backend
from ..serving.pool import reference_job, solve_job
from .admission import ACCEPT, SHED, SPILL, AdmissionController
from .autoscale import Autoscaler
from .events import AcceleratorNode, EventQueue, SpillLane
from .router import make_router

__all__ = ["FleetRequest", "FleetRecord", "FleetResult", "FleetService",
           "LANE_NODE", "LANE_SPILL", "LANE_SHED"]

#: Lanes a request can end in.
LANE_NODE = "node"    # served by an accelerator node
LANE_SPILL = "spill"  # diverted to the reference-solver spill lane
LANE_SHED = "shed"    # rejected by admission control (no solve)


@dataclass
class FleetRequest:
    """One in-flight request: problem + fingerprint + arrival time."""

    request_id: int
    problem: QProblem
    fingerprint: StructureFingerprint
    arrival: float
    warm_start: tuple | None = None
    #: Failed node-lane attempts so far (requeues after node crashes or
    #: detected-fault solves); bounded by the service's max_attempts.
    attempts: int = 0
    #: Set when the request was pushed to the spill lane as an explicit
    #: degraded-mode answer after exhausting node attempts.
    degraded: bool = False


@dataclass
class FleetRecord:
    """Accounting for one request, kept for reports and benchmarks."""

    request_id: int
    problem_name: str
    fingerprint_key: str
    lane: str
    arrival: float
    start: float
    finish: float
    node_id: int = -1
    architecture: str = ""
    #: Match score of the request's structure on the serving node's
    #: architecture (0 off the accelerator lanes).
    eta: float = 0.0
    #: Served by the node whose architecture is this structure's own
    #: customized design.
    matched: bool = False
    queue_seconds: float = 0.0
    service_seconds: float = 0.0
    latency_seconds: float = 0.0
    simulated_cycles: int = 0
    admm_iterations: int = 0
    converged: bool = False
    backend: str = ""
    #: Service time reused from the (structure, architecture)
    #: calibration solve rather than a dedicated numeric run.
    calibrated: bool = False
    shed_reason: str = ""
    #: Node-lane attempts that failed before this outcome.
    attempts: int = 0
    #: Answered by the spill lane as an explicit degraded-mode result
    #: after node attempts were exhausted (never a silent wrong answer).
    degraded: bool = False


@dataclass
class FleetResult:
    """Solution plus provenance; ``raw`` is the backend's own result.

    Shed requests carry no solution (``x`` is None, ``converged``
    False) — the record's ``shed_reason`` says why. Calibrated repeats
    (``record.calibrated``) carry no solution either: ``x`` / ``y`` /
    ``z`` / ``raw`` are None, because the service time was reused from
    another request's solve; ``converged`` is that solve's status.
    """

    x: np.ndarray | None
    y: np.ndarray | None
    z: np.ndarray | None
    converged: bool
    backend: str
    record: FleetRecord
    raw: object = field(repr=False, default=None)


class FleetService:
    """Multi-accelerator QP serving with match-score placement.

    Parameters
    ----------
    policy:
        Placement policy: ``"round-robin"``, ``"least-loaded"`` or
        ``"match"`` (see :mod:`repro.fleet.router`).
    c:
        Datapath width for dedicated architectures; ``None`` picks per
        problem by nnz.
    admission:
        An :class:`AdmissionController`; ``None`` admits everything.
    autoscaler:
        An :class:`Autoscaler`; ``None`` keeps the commissioned fleet
        fixed.
    spill_servers:
        Reference-solver servers on the spill lane.
    queue_weight:
        Backlog discount of the match-score router.
    reservoir:
        Bounded histogram reservoir for the metrics registry (``None``
        for exact histograms).
    backend:
        Execution backend of the simulated accelerators:
        ``"compiled"`` (default) or ``"interpret"``; bit-identical
        results either way.
    verify:
        When True (default), a node-bound artifact passes the static
        verification suite (:mod:`repro.verify`) before its first
        solve; a rejected artifact *sheds* the request with reason
        ``verify:<codes>`` (and bumps ``fleet_verify_rejects_total``)
        instead of crashing the event loop.
    fault_plan:
        Deterministic fault schedule (:class:`repro.faults.FaultPlan`).
        Node-stall faults become simulated-clock "node-fail" events
        (in-flight and queued work is requeued elsewhere); hardware
        faults arm injectors on the numeric solves. ``None`` (default)
        disables injection entirely.
    breaker_threshold, breaker_reset_seconds:
        Per-node circuit breaker: consecutive detected failures before
        the node stops receiving traffic, and the simulated-time
        window before a half-open probe. Closed breakers are no-ops,
        so a fault-free fleet is byte-identical to one without them.
    max_attempts:
        Node-lane attempts per request before it degrades to the
        reference spill lane (an explicit degraded-mode answer).
    algorithm:
        Solver algorithm for node-lane solves. ``"admm"`` (default)
        and ``"pdqp"`` pin every solve; ``"auto"`` picks per structure
        via :func:`repro.solver.choose_algorithm`; ``"race"``
        numerically runs *both* algorithms on the first solve of each
        structure and pins the structure to the cycle winner for all
        repeats — the measured, rather than heuristic, form of
        auto-selection. Race calibration solves are plain measurement
        runs: fault injection applies only to already-pinned solves.
    """

    def __init__(self, *, policy: str = "match", c: int | None = None,
                 settings: OSQPSettings | None = None,
                 admission: AdmissionController | None = None,
                 autoscaler: Autoscaler | None = None,
                 spill_servers: int = 1,
                 queue_weight: float = 1.0,
                 cache_capacity: int = 256,
                 reservoir: int | None = 4096,
                 pcg_eps: float = 1e-7,
                 max_pcg_iter: int = 500,
                 seed: int = 0,
                 backend: str = "compiled",
                 verify: bool = True,
                 fault_plan=None,
                 breaker_threshold: int = 3,
                 breaker_reset_seconds: float = 0.05,
                 max_attempts: int = 3,
                 algorithm: str = "admm"):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if (algorithm not in ("auto", "race")
                and algorithm not in available_algorithms()):
            raise ValueError(
                f"algorithm must be 'auto', 'race' or one of "
                f"{available_algorithms()}, got {algorithm!r}")
        self.algorithm = algorithm
        self.backend = validate_backend(backend)
        self.verify = bool(verify)
        self.policy = policy
        self.c = c
        self.settings = settings if settings is not None else OSQPSettings()
        self.admission = (admission if admission is not None
                          else AdmissionController())
        self.autoscaler = autoscaler
        self.queue_weight = float(queue_weight)
        self.pcg_eps = float(pcg_eps)
        self.max_pcg_iter = int(max_pcg_iter)
        self.metrics = MetricsRegistry(default_reservoir=reservoir,
                                       seed=seed)
        self.router = make_router(policy, score_of=self._score_of,
                                  queue_weight=queue_weight)
        self.nodes: list[AcceleratorNode] = []
        self.retired: list[AcceleratorNode] = []
        self.spill = SpillLane(servers=spill_servers)
        self.builds: list[dict] = []
        self.decommissions: list[dict] = []
        self._artifacts = ArchCache(capacity=cache_capacity)
        self._eta: dict[tuple[str, str], float] = {}
        self._rate: dict[tuple[str, str], float] = {}
        self._dedicated: dict[str, str] = {}
        self._dedicated_arch: dict[str, object] = {}
        self._calibration: dict[tuple[str, str], object] = {}
        #: Race-mode outcome per structure: fingerprint key -> the
        #: algorithm whose measured solve took fewer cycles.
        self._race_winners: dict[str, str] = {}
        self._events = EventQueue()
        self._in_flight: dict[int, tuple] = {}
        self._next_request_id = 0
        self._next_node_id = 0
        self._records: dict[int, FleetRecord] = {}
        self._results: dict[int, FleetResult] = {}
        self._feed = None  # closed-loop continuation queue
        self._closed = False
        # -- fault tolerance (repro.faults) ----------------------------
        #: Deterministic fault schedule; node-stall faults become
        #: "node-fail" events on the simulated clock.
        self.fault_plan = fault_plan if fault_plan else None
        self.max_attempts = int(max_attempts)
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_reset_seconds = float(breaker_reset_seconds)
        #: Per-node circuit breakers over the *simulated* clock; a
        #: closed breaker is a no-op, so a fault-free fleet behaves
        #: exactly as before.
        self._breakers: dict[int, CircuitBreaker] = {}
        if self.fault_plan is not None:
            for fault in self.fault_plan.stalls():
                self._events.push(max(fault.time, 0.0), "node-fail",
                                  (fault.node, fault.duration))

    # ------------------------------------------------------------------
    # structure handling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The simulated clock."""
        return self._events.now

    def width_for(self, problem: QProblem) -> int:
        return self.c if self.c is not None else choose_width(problem.nnz)

    def _artifact_key(self, fingerprint: StructureFingerprint,
                      architecture, algorithm: str = "admm") -> str:
        base = (f"{fingerprint.key}:arch={architecture}"
                f":pcg{self.max_pcg_iter}")
        return base if algorithm == "admm" else f"{base}:{algorithm}"

    def _bind(self, problem: QProblem, fingerprint: StructureFingerprint,
              architecture, algorithm: str = "admm"):
        """Artifact of ``architecture`` bound to this structure (memoized)."""
        key = self._artifact_key(fingerprint, architecture, algorithm)
        artifact, _ = self._artifacts.get_or_build(
            key, lambda: build_artifact(
                problem, architecture.c, architecture=architecture,
                fingerprint=fingerprint,
                max_admm_iter=self.settings.max_iter,
                max_pcg_iter=self.max_pcg_iter,
                metrics=self.metrics, metrics_prefix="fleet",
                algorithm=algorithm))
        pair = (fingerprint.key, str(architecture))
        self._eta.setdefault(pair, artifact.customization.eta)
        # Per-iteration service rate of this structure on this
        # architecture: scheduled SpMV cycles at the modeled clock —
        # the time-domain match score the router optimizes.
        cycles = sum(artifact.customization.spmv_cycles.values())
        self._rate.setdefault(
            pair, artifact.fmax_mhz * 1e6 / max(1, cycles))
        return artifact

    def _eta_of(self, request: FleetRequest,
                node: AcceleratorNode) -> float:
        """Match score of a request's structure on a node's architecture.

        Memoized per (fingerprint, architecture) pair — scoring is a
        dict lookup after the first evaluation.
        """
        key = (request.fingerprint.key, node.arch_string)
        if key not in self._eta:
            self._bind(request.problem, request.fingerprint,
                       node.architecture)
        return self._eta[key]

    def _score_of(self, request: FleetRequest,
                  node: AcceleratorNode) -> float:
        """Routing score: the memoized per-iteration service rate."""
        key = (request.fingerprint.key, node.arch_string)
        if key not in self._rate:
            self._bind(request.problem, request.fingerprint,
                       node.architecture)
        return self._rate[key]

    def dedicated_architecture(self, problem: QProblem,
                               fingerprint: StructureFingerprint
                               | None = None):
        """This structure's own customized architecture (memoized search)."""
        c = self.width_for(problem)
        if fingerprint is None:
            fingerprint = fingerprint_problem(problem, c=c)
        arch = self._dedicated_arch.get(fingerprint.key)
        if arch is None:
            custom = customize_problem(problem, c)
            arch = custom.architecture
            self._dedicated_arch[fingerprint.key] = arch
            self._dedicated[fingerprint.key] = str(arch)
            self._eta.setdefault((fingerprint.key, str(arch)), custom.eta)
        return arch

    # ------------------------------------------------------------------
    # fleet membership
    # ------------------------------------------------------------------
    def commission(self, problem: QProblem, *,
                   architecture=None,
                   build_seconds: float = 0.0) -> AcceleratorNode:
        """Add a node pinned to ``problem``'s customized architecture.

        Pass ``architecture`` to pin an explicit design instead (e.g. a
        deliberately generic or baseline fleet for autoscaling studies).
        The node joins the fleet ``build_seconds`` of simulated time
        from now — the bitstream-build latency.
        """
        now = self._events.now
        if architecture is None:
            architecture = self.dedicated_architecture(problem)
        node = AcceleratorNode(self._next_node_id, architecture,
                               commissioned_at=now,
                               available_at=now + build_seconds)
        self._next_node_id += 1
        self.nodes.append(node)
        self.builds.append({
            "time": now, "node_id": node.node_id,
            "architecture": node.arch_string,
            "online_at": node.available_at})
        self.metrics.counter("fleet_builds_total").inc()
        return node

    def decommission(self, node: AcceleratorNode) -> None:
        """Drain a node: it finishes its queue, then leaves the fleet."""
        node.draining = True
        if node.busy_with is None and not node.queue:
            self._retire(node)

    def _retire(self, node: AcceleratorNode) -> None:
        if node not in self.nodes:
            return  # already retired (e.g. by an autoscale tick)
        self.nodes.remove(node)
        self.retired.append(node)
        self.decommissions.append({
            "time": self._events.now, "node_id": node.node_id,
            "architecture": node.arch_string, "served": node.served})
        self.metrics.counter("fleet_decommissions_total").inc()

    # ------------------------------------------------------------------
    # request lifecycle
    # ------------------------------------------------------------------
    def submit(self, problem: QProblem, *, at: float | None = None,
               warm_start: tuple | None = None) -> int:
        """Enqueue one solve arriving at simulated time ``at`` (default:
        now); returns a request id for :meth:`result`."""
        if self._closed:
            raise RuntimeError("fleet is closed")
        request_id = self._next_request_id
        self._next_request_id += 1
        arrival = self._events.now if at is None else float(at)
        fingerprint = fingerprint_problem(problem,
                                          c=self.width_for(problem))
        request = FleetRequest(request_id=request_id, problem=problem,
                               fingerprint=fingerprint, arrival=arrival,
                               warm_start=warm_start)
        self._events.push(arrival, "arrival", request)
        return request_id

    def result(self, request_id: int) -> FleetResult:
        """Advance the simulation until ``request_id`` resolves."""
        while request_id not in self._results and self._events:
            self._step()
        try:
            return self._results[request_id]
        except KeyError:
            raise KeyError(f"unknown request id {request_id}") from None

    def solve(self, problem: QProblem, *, at: float | None = None,
              warm_start: tuple | None = None) -> FleetResult:
        """Synchronous convenience: submit + result."""
        return self.result(self.submit(problem, at=at,
                                       warm_start=warm_start))

    def solve_batch(self, problems, *, warm_starts=None) -> list:
        """Submit a batch, preserve submission order in the results."""
        problems = list(problems)
        if warm_starts is None:
            warm_starts = [None] * len(problems)
        elif len(warm_starts) != len(problems):
            raise ValueError("per-request argument lists must match the "
                             "number of problems")
        ids = [self.submit(p, warm_start=w)
               for p, w in zip(problems, warm_starts)]
        return [self.result(i) for i in ids]

    def drain(self) -> None:
        """Run the simulation until no events remain."""
        while self._events:
            self._step()

    def close(self) -> None:
        self.drain()
        self._closed = True

    def __enter__(self) -> "FleetService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # traffic replay
    # ------------------------------------------------------------------
    def replay_open(self, problems, *, rate: float,
                    seed: int = 0) -> list[int]:
        """Open-loop replay: Poisson arrivals at ``rate`` requests per
        simulated second; runs to completion."""
        if rate <= 0:
            raise ValueError("rate must be positive")
        rng = np.random.default_rng(seed)
        t = self._events.now
        ids = []
        for problem in problems:
            t += float(rng.exponential(1.0 / rate))
            ids.append(self.submit(problem, at=t))
        self.drain()
        return ids

    def replay_closed(self, problems, *, clients: int = 4,
                      think_seconds: float = 0.0) -> list[int]:
        """Closed-loop replay: ``clients`` concurrent clients, each
        submitting its next request when the previous one completes."""
        if clients < 1:
            raise ValueError("clients must be >= 1")
        problems = list(problems)
        from collections import deque
        self._feed = deque(problems[clients:])
        self._think = float(think_seconds)
        ids = [self.submit(p) for p in problems[:clients]]
        count = len(problems)
        self.drain()
        self._feed = None
        # Closed-loop ids are assigned in completion-driven order; the
        # caller correlates through records instead.
        return list(range(ids[0], ids[0] + count)) if ids else []

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def _step(self) -> None:
        event = self._events.pop()
        if event.kind == "arrival":
            self._on_arrival(event.payload)
        elif event.kind == "node-done":
            self._on_node_done(event.payload)
        elif event.kind == "spill-done":
            self._on_spill_done(event.payload)
        elif event.kind == "node-fail":
            self._on_node_fail(event.payload)
        elif event.kind == "node-recover":
            self._on_node_recover(event.payload)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown event kind {event.kind!r}")

    def _on_arrival(self, request: FleetRequest) -> None:
        now = self._events.now
        self.metrics.counter("fleet_requests_total").inc()
        decision = self.admission.decide(now, self.nodes)
        if decision.action == SHED:
            self._finalize_shed(request, decision.reason)
            return
        if decision.action == SPILL:
            self._to_spill(request)
            return
        self._route(request)

    def _route(self, request: FleetRequest) -> None:
        """Place an admitted request on a node, or spill it.

        Shared by fresh arrivals and fault requeues — a requeue goes
        straight back to the router (the request was already admitted
        once; re-charging the token bucket would punish the victim of
        a node crash twice).
        """
        now = self._events.now
        online = sorted((n for n in self.nodes
                         if n.online(now) and self._breaker_allows(n, now)),
                        key=lambda n: n.node_id)
        node = self.router.choose(request, online, now)
        if node is None:
            self._to_spill(request)
            return
        self.metrics.histogram("fleet_queue_depth").observe(
            node.backlog(now))
        node.enqueue(request)
        self._pump(node)

    # -- circuit breakers ----------------------------------------------
    def _breaker(self, node: AcceleratorNode) -> CircuitBreaker:
        breaker = self._breakers.get(node.node_id)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.breaker_threshold,
                reset_seconds=self.breaker_reset_seconds,
                name=f"node{node.node_id}")
            self._breakers[node.node_id] = breaker
        return breaker

    def _breaker_allows(self, node: AcceleratorNode, now: float) -> bool:
        breaker = self._breakers.get(node.node_id)
        return breaker is None or breaker.allows(now)

    def _breaker_failure(self, node: AcceleratorNode, now: float,
                         tripped: bool = False) -> None:
        breaker = self._breaker(node)
        opens = breaker.opens
        if tripped:
            breaker.trip(now)
        else:
            breaker.record_failure(now)
        if breaker.opens > opens:
            self.metrics.counter("fleet_breaker_opens_total").inc(
                breaker.opens - opens)

    # -- node failure / recovery ---------------------------------------
    def _on_node_fail(self, payload) -> None:
        node_id, duration = payload
        now = self._events.now
        node = next((n for n in self.nodes if n.node_id == node_id), None)
        if node is None or not node.online(now):
            return  # never commissioned, retired, or already down
        node.fail(now, duration)
        self.metrics.counter("fleet_node_failures_total").inc()
        # A crash opens the breaker outright: no point probing a node
        # that is known to be offline until it reports healthy again.
        self._breaker_failure(node, now, tripped=True)
        requeue = []
        aborted = node.abort_service(now)
        if aborted is not None:
            self._in_flight.pop(node.node_id, None)
            requeue.append(aborted)
        while node.queue:
            requeue.append(node.queue.popleft())
        self._events.push(node.failed_until, "node-recover",
                          (node, node.failed_until))
        for request in requeue:
            self._requeue(request, node)

    def _on_node_recover(self, payload) -> None:
        node, scheduled_until = payload
        now = self._events.now
        if node.failed_until != scheduled_until:
            return  # a later failure extended the outage; stale event
        node.recover(now)
        self.metrics.counter("fleet_node_recoveries_total").inc()
        # Traffic returns through the breaker's half-open probe, not
        # all at once — the health-check discipline.
        self._pump(node)

    def _requeue(self, request: FleetRequest,
                 node: AcceleratorNode) -> None:
        """Re-place a request whose node attempt failed underneath it."""
        request.attempts += 1
        self.metrics.counter("fleet_requeues_total").inc()
        if request.attempts >= self.max_attempts:
            # Explicit degradation: answer from the reference lane
            # rather than bouncing between sick nodes forever.
            request.degraded = True
            self.metrics.counter("fleet_degraded_total").inc()
            self._to_spill(request)
            return
        self._route(request)

    def _pump(self, node: AcceleratorNode) -> None:
        if node.busy_with is not None or not node.queue:
            return
        now = self._events.now
        if not node.online(now):
            return  # failed with queued work; the crash handler requeues
        request = node.queue.popleft()
        try:
            raw, eta, calibrated = self._node_solve(request, node)
        except VerificationError as exc:
            self.metrics.counter("fleet_verify_rejects_total").inc()
            codes = (",".join(sorted(d.code for d in exc.report.errors))
                     if exc.report is not None else "rejected")
            self._finalize_shed(request, f"verify:{codes}")
            self._pump(node)
            return
        except (FaultDetectedError, SimulationError):
            # The node produced a detected-bad solve: count it against
            # the node's breaker and send the request elsewhere.
            self.metrics.counter("fleet_solve_failures_total").inc()
            self._breaker_failure(node, now)
            self._requeue(request, node)
            self._pump(node)
            return
        finish = node.start_service(now, request, raw.solve_seconds, eta)
        self._in_flight[node.node_id] = (request, raw, eta, calibrated, now)
        self._events.push(finish, "node-done", (node, node.epoch))

    def _algorithm_for(self, request: FleetRequest) -> str | None:
        """Resolve the algorithm for one solve; None = race pending."""
        if self.algorithm == "race":
            return self._race_winners.get(request.fingerprint.key)
        if self.algorithm == "auto":
            return choose_algorithm(request.problem)
        return self.algorithm

    def _race_solve(self, request: FleetRequest, node: AcceleratorNode):
        """First solve of a structure under ``algorithm="race"``.

        Measure every registered algorithm on this (structure,
        architecture) pair, pin the structure to the cycle winner and
        reuse the winner's run as the calibration entry. Unconverged
        contenders are disqualified; if nobody converges the structure
        falls back to ADMM (its run is still the calibrated answer).
        """
        key = (request.fingerprint.key, node.arch_string)
        raws: dict[str, object] = {}
        winner = None
        for algorithm in available_algorithms():
            artifact = self._bind(request.problem, request.fingerprint,
                                  node.architecture, algorithm)
            raw = solve_job(request.problem, artifact, self.settings,
                            request.warm_start, self.pcg_eps,
                            self.backend, verify=self.verify)
            raws[algorithm] = raw
            self.metrics.counter("fleet_race_solves_total").inc()
            if raw.converged and (
                    winner is None
                    or raw.total_cycles < raws[winner].total_cycles):
                winner = algorithm
        if winner is None:
            winner = "admm"
        self._race_winners[request.fingerprint.key] = winner
        self.metrics.counter("fleet_race_total").inc()
        self.metrics.counter(f"fleet_race_winner_{winner}_total").inc()
        self._count_selected(winner)
        best = raws[winner]
        self._calibration[key] = best
        return best, self._eta[key], False

    def _count_selected(self, algorithm: str) -> None:
        self.metrics.counter("fleet_algo_selected_total").inc()
        self.metrics.counter(
            f"fleet_algo_selected_{algorithm}_total").inc()

    def _node_solve(self, request: FleetRequest, node: AcceleratorNode):
        """Run (or reuse) the numeric solve backing a node service."""
        key = (request.fingerprint.key, node.arch_string)
        if key in self._calibration:
            return self._calibration[key], self._eta[key], True
        algorithm = self._algorithm_for(request)
        if algorithm is None:  # race mode, winner not yet measured
            return self._race_solve(request, node)
        self._count_selected(algorithm)
        artifact = self._bind(request.problem, request.fingerprint,
                              node.architecture, algorithm)
        # Hardware fault injection only applies to real numeric solves:
        # the first calibration solve of a pair.
        injector = (self.fault_plan.injector_for(request.request_id,
                                                 request.attempts)
                    if self.fault_plan is not None else None)
        try:
            raw = solve_job(request.problem, artifact, self.settings,
                            request.warm_start, self.pcg_eps, self.backend,
                            verify=self.verify, injector=injector)
        finally:
            if injector is not None and injector.events:
                self.metrics.counter("fleet_faults_injected_total").inc(
                    len(injector.events))
        if raw.rollbacks:
            self.metrics.counter("fleet_fault_rollbacks_total").inc(
                raw.rollbacks)
        if (injector is not None and injector.events and raw.converged
                and not solution_ok(request.problem, raw.x, raw.y, raw.z,
                                    eps_abs=self.settings.eps_abs,
                                    eps_rel=self.settings.eps_rel)):
            self.metrics.counter("fleet_silent_corruption_total").inc()
            raise FaultDetectedError(
                f"request {request.request_id} on node {node.node_id}: "
                "solution failed the host-side KKT re-check",
                events=tuple(injector.events))
        self._calibration[key] = raw
        return raw, self._eta[key], False

    def _on_node_done(self, payload) -> None:
        node, epoch = payload
        now = self._events.now
        if epoch != node.epoch:
            # Completion scheduled before a crash: the request was
            # already aborted and requeued, the work never finished.
            return
        node.finish_service(now)
        breaker = self._breakers.get(node.node_id)
        if breaker is not None:
            breaker.record_success(now)
        request, raw, eta, calibrated, start = self._in_flight.pop(
            node.node_id)
        matched = (self._dedicated.get(request.fingerprint.key)
                   == node.arch_string)
        record = FleetRecord(
            request_id=request.request_id,
            problem_name=request.problem.name,
            fingerprint_key=request.fingerprint.key,
            lane=LANE_NODE, arrival=request.arrival, start=start,
            finish=now, node_id=node.node_id,
            architecture=node.arch_string, eta=eta, matched=matched,
            queue_seconds=start - request.arrival,
            service_seconds=now - start,
            latency_seconds=now - request.arrival,
            simulated_cycles=raw.total_cycles,
            admm_iterations=raw.admm_iterations,
            converged=raw.converged, backend="rsqp",
            calibrated=calibrated, attempts=request.attempts)
        # A calibrated repeat reuses another request's solve: it keeps
        # that solve's service time and status, never its solution.
        x, y, z = (None, None, None) if calibrated else (raw.x, raw.y, raw.z)
        self._finalize(request, record, FleetResult(
            x=x, y=y, z=z, converged=raw.converged, backend="rsqp",
            record=record, raw=None if calibrated else raw))
        if self.autoscaler is not None:
            self.autoscaler.observe(
                now, request.fingerprint.key, request.problem,
                cycles=record.simulated_cycles, eta=eta, matched=matched)
            self._autoscale_tick()
        if node.draining and node.busy_with is None and not node.queue:
            self._retire(node)
        else:
            self._pump(node)

    # ------------------------------------------------------------------
    def _to_spill(self, request: FleetRequest) -> None:
        self.spill.enqueue(request)
        self._pump_spill()

    def _pump_spill(self) -> None:
        now = self._events.now
        while self.spill.has_free_server and self.spill.queue:
            request = self.spill.queue.popleft()
            raw = reference_job(request.problem, self.settings,
                                request.warm_start)
            seconds = cpu_solve_seconds(
                workload_from_result(request.problem, raw))
            finish = self.spill.start_service(now, seconds)
            self._events.push(finish, "spill-done",
                              (request, raw, seconds, now))

    def _on_spill_done(self, payload) -> None:
        now = self._events.now
        request, raw, seconds, start = payload
        self.spill.finish_service()
        converged = raw.status.is_optimal
        record = FleetRecord(
            request_id=request.request_id,
            problem_name=request.problem.name,
            fingerprint_key=request.fingerprint.key,
            lane=LANE_SPILL, arrival=request.arrival, start=start,
            finish=now,
            queue_seconds=start - request.arrival,
            service_seconds=seconds,
            latency_seconds=now - request.arrival,
            admm_iterations=raw.info.iterations,
            converged=converged, backend="reference",
            attempts=request.attempts, degraded=request.degraded)
        self._finalize(request, record, FleetResult(
            x=raw.x, y=raw.y, z=raw.z, converged=converged,
            backend="reference", record=record, raw=raw))
        self._pump_spill()

    def _finalize_shed(self, request: FleetRequest, reason: str) -> None:
        now = self._events.now
        record = FleetRecord(
            request_id=request.request_id,
            problem_name=request.problem.name,
            fingerprint_key=request.fingerprint.key,
            lane=LANE_SHED, arrival=request.arrival, start=now,
            finish=now, backend="none", shed_reason=reason)
        self._finalize(request, record, FleetResult(
            x=None, y=None, z=None, converged=False, backend="none",
            record=record))

    def _finalize(self, request: FleetRequest, record: FleetRecord,
                  result: FleetResult) -> None:
        self._records[request.request_id] = record
        self._results[request.request_id] = result
        m = self.metrics
        if record.lane == LANE_SHED:
            m.counter("fleet_shed_total").inc()
        else:
            m.histogram("fleet_latency_seconds").observe(
                record.latency_seconds)
            m.histogram("fleet_queue_seconds").observe(
                record.queue_seconds)
            m.histogram("fleet_service_seconds").observe(
                record.service_seconds)
            if record.lane == LANE_NODE:
                m.counter("fleet_completed_total").inc()
                m.histogram("fleet_eta").observe(record.eta)
                m.histogram("fleet_simulated_cycles").observe(
                    record.simulated_cycles)
                node = f"fleet_node{record.node_id}"
                m.counter(f"{node}_served_total").inc()
                m.counter(f"{node}_busy_seconds_total").inc(
                    record.service_seconds)
                if not record.matched:
                    m.counter("fleet_mismatch_total").inc()
            else:
                m.counter("fleet_spill_total").inc()
        if not record.converged and record.lane != LANE_SHED:
            m.counter("fleet_unconverged_total").inc()
        if self._feed:
            problem = self._feed.popleft()
            self.submit(problem, at=self._events.now + self._think)

    # ------------------------------------------------------------------
    def _autoscale_tick(self) -> None:
        scaler = self.autoscaler
        for state in scaler.plan():
            active = [n for n in self.nodes if not n.draining]
            if len(active) >= scaler.max_nodes:
                victim = scaler.pick_decommission(active)
                if victim is None:
                    continue
                self.decommission(victim)
            self.commission(state.exemplar,
                            build_seconds=scaler.build_seconds)
            scaler.note_commissioned(state.fingerprint_key)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def records(self) -> list[FleetRecord]:
        return [self._records[i] for i in sorted(self._records)]

    def metrics_snapshot(self) -> dict:
        snap = self.metrics.snapshot()
        snap["artifact_cache"] = self._artifacts.stats().as_dict()
        return snap

    def fleet_report(self) -> dict:
        """Utilization, latency percentiles, η-weighted throughput,
        matched-routing fractions and build events — JSON-friendly."""
        records = self.records()
        served = [r for r in records if r.lane != LANE_SHED]
        node_lane = [r for r in records if r.lane == LANE_NODE]
        makespan = (max(r.finish for r in served)
                    - min(r.arrival for r in served)) if served else 0.0
        latencies = np.array([r.latency_seconds for r in served]) \
            if served else np.zeros(0)
        etas = [r.eta for r in node_lane]
        by_arrival = sorted(node_lane, key=lambda r: (r.arrival,
                                                      r.request_id))
        trailing = by_arrival[len(by_arrival) // 2:]

        def _pct(q):
            return float(np.percentile(latencies, q)) if served else 0.0

        def _matched_fraction(rows):
            return (sum(r.matched for r in rows) / len(rows)
                    if rows else 0.0)

        nodes = [{
            "node_id": n.node_id, "architecture": n.arch_string,
            "served": n.served, "mean_eta": n.mean_eta,
            "utilization": n.utilization(makespan),
            "online_at": n.available_at,
            "retired": retired,
            "failures": n.failures,
            "breaker": (self._breakers[n.node_id].state
                        if n.node_id in self._breakers else "closed"),
        } for n, retired in ([(n, False) for n in self.nodes]
                             + [(n, True) for n in self.retired])]
        counters = self.metrics.snapshot()["counters"]

        def _count(name):
            return int(counters.get(name, 0))

        return {
            "policy": self.policy,
            "algorithm": self.algorithm,
            "race_winners": dict(self._race_winners),
            "requests": len(records),
            "completed": len(node_lane),
            "spilled": sum(r.lane == LANE_SPILL for r in records),
            "shed": sum(r.lane == LANE_SHED for r in records),
            "converged": sum(r.converged for r in served),
            "makespan_seconds": makespan,
            "latency_seconds": {
                "mean": float(latencies.mean()) if served else 0.0,
                "p50": _pct(50), "p95": _pct(95), "p99": _pct(99),
                "max": float(latencies.max()) if served else 0.0,
            },
            "eta": {
                "mean": float(np.mean(etas)) if etas else 0.0,
                "min": float(np.min(etas)) if etas else 0.0,
            },
            #: Match-score-weighted completions per simulated second —
            #: the figure of merit the routing policies compete on.
            "eta_weighted_throughput": (sum(etas) / makespan
                                        if makespan > 0 else 0.0),
            "matched_fraction": _matched_fraction(node_lane),
            "matched_fraction_trailing": _matched_fraction(trailing),
            "builds": list(self.builds),
            "decommissions": list(self.decommissions),
            "nodes": nodes,
            "artifact_cache": self._artifacts.stats().as_dict(),
            "faults": {
                "node_failures": _count("fleet_node_failures_total"),
                "node_recoveries": _count("fleet_node_recoveries_total"),
                "requeues": _count("fleet_requeues_total"),
                "degraded": _count("fleet_degraded_total"),
                "breaker_opens": _count("fleet_breaker_opens_total"),
                "injected": _count("fleet_faults_injected_total"),
                "rollbacks": _count("fleet_fault_rollbacks_total"),
                "silent_corruption": _count(
                    "fleet_silent_corruption_total"),
            },
        }

    def render_report(self) -> str:
        """Human-readable fleet report (the CLI's summary section)."""
        rep = self.fleet_report()
        lat = rep["latency_seconds"]
        lines = [
            f"policy                 : {rep['policy']}",
            f"requests               : {rep['requests']} "
            f"({rep['completed']} on-node, {rep['spilled']} spilled, "
            f"{rep['shed']} shed)",
            f"converged              : {rep['converged']}"
            f"/{rep['requests'] - rep['shed']}",
            f"makespan               : "
            f"{rep['makespan_seconds'] * 1e3:.2f} ms (simulated)",
            f"latency p50/p95/p99    : {lat['p50'] * 1e3:.3f} / "
            f"{lat['p95'] * 1e3:.3f} / {lat['p99'] * 1e3:.3f} ms",
            f"mean match score       : {rep['eta']['mean']:.3f}",
            f"eta-weighted throughput: "
            f"{rep['eta_weighted_throughput']:.1f} eta/s",
            f"routed-to-matching-arch: {rep['matched_fraction']:.1%} "
            f"(trailing half {rep['matched_fraction_trailing']:.1%})",
            f"build events           : {len(rep['builds'])} "
            f"({len(rep['decommissions'])} decommissions)",
        ]
        faults = rep["faults"]
        if any(faults.values()):
            lines.append(
                f"faults                 : "
                f"{faults['node_failures']} node failures, "
                f"{faults['requeues']} requeues, "
                f"{faults['degraded']} degraded, "
                f"{faults['breaker_opens']} breaker opens, "
                f"{faults['injected']} injected")
        for row in rep["nodes"]:
            state = "retired" if row["retired"] else "active"
            lines.append(
                f"  node {row['node_id']} [{state}] {row['architecture']}"
                f"  served={row['served']} util={row['utilization']:.1%}"
                f" mean_eta={row['mean_eta']:.3f}")
        return "\n".join(lines)
