"""The three closed-loop workloads.

A workload owns its seeded inputs, its set-up, the front-door call for
one request (:meth:`Workload.serve`) and the outside-in replay of the
same request through the layers' public functions
(:meth:`Workload.replay`). A request is what the single client waits
for before it sends the next one: one solve, one session step, or one
burst of lanes.

Inputs come only from the :mod:`repro.problems` generators and
``perturb_numeric`` draws seeded from ``--seed``, so one seed always
gives the same request stream.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.batch import BatchAccelerator
from repro.customization import customize_problem
from repro.hw import (PDQPAccelerator, RSQPAccelerator,
                      compile_for_customization,
                      compile_pdqp_for_customization, estimate_resources,
                      fmax_mhz, fpga_power_watts)
from repro.problems import generate, perturb_numeric
from repro.qp import RuizPlan, ruiz_equilibrate
from repro.serving import (ArchArtifact, ArchCache, SolverService,
                           fingerprint_problem)
from repro.serving.session import updated_problem
from repro.solver import OSQPSettings, choose_algorithm, get_algorithm
from repro.verify import ensure_artifact_verified, ensure_batch_verified

from .stats import CYCLE_CLASSES, min_samples

#: The service's default solver settings, shared by every workload.
SETTINGS = OSQPSettings()


def new_service() -> SolverService:
    """The service under test: thread mode, one worker, no process
    pool, so the single client keeps at most two threads busy."""
    return SolverService(settings=SETTINGS, workers=1, mode="thread",
                         algorithm="auto", cold_policy="build")


def settings_for(algorithm: str):
    return get_algorithm(algorithm).coerce_settings(SETTINGS)


def draw(rng) -> int:
    """A perturbation or generator seed from the workload's stream."""
    return int(rng.integers(2**31))


@dataclass
class Request:
    index: int
    structure: str
    problems: list


@dataclass
class Answer:
    """One answer as the client received it."""

    structure: str
    problem: object
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    converged: bool
    backend: str
    tier: str
    algorithm: str
    iterations: int
    cycles: int
    sim_seconds: float
    energy_joules: float
    batch_width: int

    @classmethod
    def of(cls, structure: str, problem, result) -> "Answer":
        record = result.record
        energy = (result.raw.energy_joules if result.backend == "rsqp"
                  else 0.0)
        return cls(structure, problem, result.x, result.y, result.z,
                   result.converged, result.backend, record.tier,
                   record.algorithm, record.admm_iterations,
                   record.simulated_cycles, record.simulated_seconds,
                   energy, record.batch_width)

    def matches(self, raw) -> bool:
        """Bitwise equality with a replayed accelerator result."""
        return (raw is not None
                and self.x.tobytes() == raw.x.tobytes()
                and self.y.tobytes() == raw.y.tobytes()
                and self.z.tobytes() == raw.z.tobytes()
                and self.iterations == raw.admm_iterations
                and self.cycles == raw.total_cycles)


# -- the layers, called one public function at a time ------------------------

def lookup(service, cache, problem, rec, rid):
    """fingerprint, select and cache_lookup as the front door runs them;
    a miss builds the artifact stage by stage."""
    with rec.span("fingerprint", rid):
        c = service.width_for(problem)
        fingerprint = fingerprint_problem(problem, c=c)
    with rec.span("select", rid):
        algorithm = choose_algorithm(problem)
    with rec.span("cache_lookup", rid) as span:
        key = service.cache_key(fingerprint, c, algorithm)
        artifact = cache.get(key)
        span.args["hit"] = artifact is not None
    if artifact is None:
        artifact = build(service, problem, fingerprint, c, algorithm, rec,
                         rid)
        cache.put(key, artifact)
    return artifact


def build(service, problem, fingerprint, c, algorithm, rec, rid):
    """The cold path of ``repro.serving.build_artifact``, one span per
    stage."""
    with rec.span("customize", rid):
        custom = customize_problem(problem, c)
    with rec.span("compile", rid):
        if algorithm == "pdqp":
            compiled = compile_pdqp_for_customization(
                custom, problem.n, problem.m, max_iter=SETTINGS.max_iter)
        else:
            compiled = compile_for_customization(
                custom, problem.n, problem.m,
                max_admm_iter=SETTINGS.max_iter,
                max_pcg_iter=service.max_pcg_iter)
    arch = custom.architecture
    artifact = ArchArtifact(
        fingerprint=fingerprint, c=arch.c, customization=custom.detach(),
        compiled=compiled, max_pcg_iter=service.max_pcg_iter,
        fmax_mhz=fmax_mhz(arch), power_watts=fpga_power_watts(arch),
        resources=estimate_resources(arch), algorithm=algorithm)
    with rec.span("verify", rid, subject="artifact"):
        ensure_artifact_verified(artifact)
    return artifact


def bind(service, artifact, problem, scaling=None):
    """Accelerator construction as ``repro.serving.solve_job`` does it."""
    if artifact.algorithm == "pdqp":
        return PDQPAccelerator(
            problem, customization=artifact.customization,
            settings=settings_for("pdqp"), compiled=artifact.compiled,
            backend=service.backend, verify=False, scaling=scaling)
    return RSQPAccelerator(
        problem, customization=artifact.customization, settings=SETTINGS,
        pcg_eps=service.pcg_eps, max_pcg_iter=artifact.max_pcg_iter,
        compiled=artifact.compiled, backend=service.backend, verify=False,
        scaling=scaling)


def run_facts(accelerator, raw, run_span, artifact) -> dict:
    """Per-answer counters of one solo run, read off its result."""
    if raw.algorithm == "pdqp":
        estimate = accelerator.estimate_cycles(raw.admm_iterations,
                                               restarts=raw.restarts)
    else:
        estimate = accelerator.estimate_cycles(
            raw.admm_iterations, raw.pcg_iterations,
            rho_updates=accelerator.rho_updates)
    facts = {
        "hw.instructions": raw.stats.instructions_executed,
        "solver.outer_iterations": raw.admm_iterations,
        "solver.pcg_iterations": raw.pcg_iterations,
        "solver.pdqp_restarts": raw.restarts,
        "hw.model_gap_cycles": raw.total_cycles - estimate,
        "hw.host_ns_per_cycle": run_span.ns / max(raw.total_cycles, 1),
        "customization.eta": artifact.customization.eta,
    }
    for name in CYCLE_CLASSES:
        facts[f"hw.cycles.{name}"] = raw.stats.by_class.get(name, 0)
    return facts


def replay_solo(service, cache, problem, rec, rid):
    artifact = lookup(service, cache, problem, rec, rid)
    with rec.span("ruiz", rid):
        scaling = ruiz_equilibrate(problem,
                                   settings_for(artifact.algorithm).scaling)
    with rec.span("bind", rid):
        accelerator = bind(service, artifact, problem, scaling)
    with rec.span("run", rid) as span:
        raw = accelerator.run()
    return [raw], [run_facts(accelerator, raw, span, artifact)]


def replay_cache(service, problems) -> ArchCache:
    """A cache holding the service's artifacts under the same keys, so
    replayed lookups hit exactly where the front door's do."""
    cache = ArchCache(capacity=service.cache.capacity)
    for problem in problems:
        c = service.width_for(problem)
        key = service.cache_key(fingerprint_problem(problem, c=c), c,
                                choose_algorithm(problem))
        cache.put(key, service.cache.peek(key))
    return cache


# -- workloads ---------------------------------------------------------------

class Workload:
    """A seeded request stream with its set-up, front door and replay."""

    name = ""
    #: Percentile reported as latency_tail_ms, fixed per workload.
    tail_pct = 95.0
    #: Answers averaged into sim_time_us and sim_energy_uj: a fixed
    #: prefix of the stream, so the modelled metrics depend on the seed
    #: alone.
    sim_answers = 200
    #: Requests replayed after an untraced window.
    replay_sample = 6
    #: Tier every answer must report.
    tier = "hit"
    #: (family, size) of each structure the workload serves.
    structures: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(
            [seed, zlib.crc32(self.name.encode())])
        self.problems = {f"{family}-{size}": generate(family, size, seed=0)
                         for family, size in self.structures}
        self.labels = list(self.problems)
        self.service = None

    @property
    def min_answers(self) -> int:
        return max(min_samples(self.tail_pct), self.sim_answers)

    def set_up(self) -> None:
        raise NotImplementedError

    def next_request(self, index: int) -> Request:
        raise NotImplementedError

    def serve(self, request: Request) -> list:
        raise NotImplementedError

    def replay(self, request: Request, rec) -> tuple:
        raise NotImplementedError

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


class WarmMix(Workload):
    """``solve()`` over six prebuilt structures: every request pays the
    whole warm path, accelerator rebuild included."""

    name = "warm_mix"
    tail_pct = 95.0
    sim_answers = 240
    structures = (("portfolio", 4), ("control", 2), ("eqqp", 40),
                  ("svm", 48), ("huber", 30), ("lasso", 60))

    def __init__(self, seed: int):
        super().__init__(seed)
        self._deck: list = []

    def set_up(self) -> None:
        self.close()
        self.service = new_service()
        for problem in self.problems.values():
            self.service.solve(problem)
        self.cache = replay_cache(self.service, self.problems.values())

    def next_request(self, index: int) -> Request:
        # Shuffled decks: every structure once per len(labels) requests,
        # so the mix, and with it the modelled metrics, barely moves
        # from seed to seed.
        if not self._deck:
            self._deck = [self.labels[i]
                          for i in self.rng.permutation(len(self.labels))]
        label = self._deck.pop()
        problem = perturb_numeric(self.problems[label], seed=draw(self.rng))
        return Request(index, label, [problem])

    def serve(self, request: Request) -> list:
        problem = request.problems[0]
        return [Answer.of(request.structure, problem,
                          self.service.solve(problem))]

    def replay(self, request: Request, rec) -> tuple:
        return replay_solo(self.service, self.cache, request.problems[0],
                           rec, request.index)


class MpcSessions(Workload):
    """``update()`` + ``resolve()`` round robin over resident sessions."""

    name = "mpc_sessions"
    tier = "session"
    tail_pct = 95.0
    sim_answers = 1000
    replay_sample = 30
    structures = (("control", 2), ("portfolio", 4), ("control", 4))
    #: Relative step-to-step drift of the numeric data.
    DRIFT = 0.01

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sessions: list = []
        self.resident: list = []

    def set_up(self) -> None:
        self.close()
        self.service = new_service()
        for problem in self.problems.values():
            session = self.service.open_session(problem, carry_state=True)
            session.resolve()
            self.sessions.append(session)

    def _bind_resident(self) -> None:
        """The replay's own resident accelerators, each brought to the
        state its session's accelerator had after set-up's first
        resolve. Built on first replay, outside the timed set-up."""
        self.resident, self.last, self.plans = [], [], []
        for session, problem in zip(self.sessions, self.problems.values()):
            accelerator = bind(self.service, session.artifact, problem)
            accelerator.machine.stats.reset()
            self.last.append(accelerator.run())
            self.resident.append(accelerator)
            self.plans.append(RuizPlan.for_problem(problem))

    def next_request(self, index: int) -> Request:
        label = self.labels[index % len(self.labels)]
        problem = perturb_numeric(self.problems[label], seed=draw(self.rng),
                                  magnitude=self.DRIFT)
        return Request(index, label, [problem])

    def serve(self, request: Request) -> list:
        session = self.sessions[request.index % len(self.sessions)]
        p = request.problems[0]
        session.update(q=p.q, l=p.l, u=p.u, P_data=p.P.data, A_data=p.A.data)
        result = session.resolve()
        return [Answer.of(request.structure, session.problem, result)]

    def replay(self, request: Request, rec) -> tuple:
        if not self.resident:
            self._bind_resident()
        slot = request.index % len(self.resident)
        accelerator = self.resident[slot]
        p, rid = request.problems[0], request.index
        with rec.span("session_update", rid):
            bound = updated_problem(accelerator.problem, q=p.q, l=p.l, u=p.u,
                                    P_data=p.P.data, A_data=p.A.data)
            accelerator.refresh_numeric(bound, carry_rho=True)
        # refresh_numeric equilibrates inside; this probe times the same
        # Ruiz pass from outside and stays off the stage sum.
        with rec.span("ruiz", rid, probe=True):
            ruiz_equilibrate(bound, SETTINGS.scaling, plan=self.plans[slot])
        with rec.span("session_resolve", rid):
            accelerator.machine.stats.reset()
            last = self.last[slot]
            accelerator.warm_start(x=last.x, y=last.y)
            with rec.span("run", rid) as span:
                raw = accelerator.run()
        self.last[slot] = raw
        return [raw], [run_facts(accelerator, raw, span,
                                 self.sessions[slot].artifact)]

    def close(self) -> None:
        for session in self.sessions:
            session.close()
        self.sessions, self.resident = [], []
        super().close()


class BatchBursts(Workload):
    """``solve_batch()`` bursts of same-structure lanes, alternating
    structures."""

    name = "batch_bursts"
    tail_pct = 90.0
    sim_answers = 640
    replay_sample = 2
    structures = (("eqqp", 40), ("control", 4))
    BURST = 32
    #: Two eqqp bursts per control burst. With equal shares the median
    #: would sit in the gap between the two latency clusters and jump
    #: from run to run; this way p50 lands on eqqp and p90 on control.
    PATTERN = (0, 0, 1)

    def __init__(self, seed: int):
        super().__init__(seed)
        # One warm-up burst per structure during set-up: the batch
        # codegen check and the lane-minor C units run once there.
        self.warmups = {label: [perturb_numeric(problem, seed=k)
                                for k in range(self.BURST)]
                        for label, problem in self.problems.items()}

    def set_up(self) -> None:
        self.close()
        self.service = new_service()
        for label, problem in self.problems.items():
            self.service.solve(problem)
            self.service.solve_batch(self.warmups[label])
        self.cache = replay_cache(self.service, self.problems.values())

    def next_request(self, index: int) -> Request:
        label = self.labels[self.PATTERN[index % len(self.PATTERN)]]
        template = self.problems[label]
        return Request(index, label,
                       [perturb_numeric(template, seed=draw(self.rng))
                        for _ in range(self.BURST)])

    def serve(self, request: Request) -> list:
        results = self.service.solve_batch(request.problems)
        return [Answer.of(request.structure, problem, result)
                for problem, result in zip(request.problems, results)]

    def replay(self, request: Request, rec) -> tuple:
        service, rid, problems = self.service, request.index, request.problems
        artifacts = [lookup(service, self.cache, p, rec, rid)
                     for p in problems]
        artifact = artifacts[0]
        with rec.span("verify", rid, subject="lanes"):
            ensure_batch_verified(artifact, problems)
        with rec.span("batch_bind", rid):
            accelerator = BatchAccelerator(
                problems, artifact.customization,
                settings_for(artifact.algorithm), compiled=artifact.compiled,
                algorithm=artifact.algorithm, pcg_eps=service.pcg_eps,
                max_pcg_iter=artifact.max_pcg_iter)
        with rec.span("batch_run", rid) as span:
            result = accelerator.run()
        wall = result.wall_stats
        # Lane cycles are the analytic count by construction, so the
        # cycle-model gap is measured on solo runs only.
        burst = {"hw.instructions": wall.instructions_executed,
                 "hw.host_ns_per_cycle": span.ns / max(result.wall_cycles, 1),
                 "batch.lockstep_speedup": result.lockstep_speedup,
                 "customization.eta": artifact.customization.eta}
        burst.update({f"hw.cycles.{name}": wall.by_class.get(name, 0)
                      for name in CYCLE_CLASSES})
        facts = []
        for raw in result.results:
            lane = dict(burst)
            if raw is not None:
                lane.update({"solver.outer_iterations": raw.admm_iterations,
                             "solver.pcg_iterations": raw.pcg_iterations,
                             "solver.pdqp_restarts": raw.restarts})
            facts.append(lane)
        return list(result.results), facts


WORKLOADS = {cls.name: cls for cls in (WarmMix, MpcSessions, BatchBursts)}
