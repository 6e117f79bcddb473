"""The one segment driver: solo runs are its one-lane case, batch lanes
are host state only, and the per-lane corruption guard is the solo
guard for every lane."""

import dataclasses

import numpy as np
import pytest

from repro.batch import LANE_DEADLINE, LANE_FAULT, BatchAccelerator
from repro.customization import customize_problem
from repro.exceptions import DeadlineExceededError, FaultDetectedError
from repro.faults import Fault, FaultInjector, RecoveryPolicy
from repro.hw import PDQPAccelerator, RSQPAccelerator, accelerator_class
from repro.hw import machine as machine_module
from repro.hw import pdqp as pdqp_module
from repro.problems import generate, perturb_numeric
from repro.solver import OSQPSettings
from repro.solver.algorithms import get_algorithm


class ScaleOnLoad:
    """A finite fault: the ``count``-th load of HBM vector ``site``
    arrives scaled by ``factor``. It answers the injector hooks both
    backends call, and never makes a value non-finite."""

    def __init__(self, site: str, count: int, factor: float):
        self.site, self.count, self.factor = site, count, factor
        self.loads = 0
        self.events: list = []

    def on_load(self, name, buf):
        if name != self.site:
            return
        self.loads += 1
        if self.loads == self.count:
            buf *= self.factor
            self.events.append({"site": name, "load": self.loads})

    def on_spmv(self, name, buf):
        pass

    def on_cvb(self, name, buf):
        pass


def _pdqp_case():
    """PDQP on control-4 with a purely absolute tolerance: a residual
    scaled up by the fault cannot hide behind ``eps_rel`` times the
    scaled norms, so it diverges past the guard's factor."""
    settings = dataclasses.replace(
        get_algorithm("pdqp").coerce_settings(OSQPSettings()),
        eps_rel=0.0, max_iter=640)
    problem = generate("control", 4, seed=0)
    cust = customize_problem(problem, 8)
    compiled = PDQPAccelerator(problem, customization=cust,
                               settings=settings).compiled
    return problem, cust, settings, compiled


def _diverging():
    # The second load of the anchor x0 is the first restart's reload.
    return ScaleOnLoad("x0", 2, 1e12)


class TestCorruptionParity:
    @pytest.mark.parametrize("backend", ["interpret", "compiled"])
    def test_solo_guard_flags_divergence_alone(self, backend):
        problem, cust, settings, compiled = _pdqp_case()

        def run(recovery):
            return PDQPAccelerator.bind(
                problem, cust, settings, compiled, backend=backend,
                fault_injector=_diverging(), recovery=recovery).run()

        with pytest.raises(FaultDetectedError) as excinfo:
            run(RecoveryPolicy(max_rollbacks=0))
        assert list(excinfo.value.events) == [{"site": "x0", "load": 2}]
        # Without the divergence test the same lane never goes
        # non-finite: the guard above fired on divergence alone.
        result = run(RecoveryPolicy(max_rollbacks=0,
                                    divergence_factor=float("inf")))
        assert result.rollbacks == 0
        assert np.all(np.isfinite(result.x))

    def test_diverging_batch_lane_freezes_as_fault(self):
        problem, cust, settings, compiled = _pdqp_case()
        problems = [perturb_numeric(problem, seed=1), problem]
        batch = BatchAccelerator(problems, cust, settings,
                                 compiled=compiled, algorithm="pdqp",
                                 injectors=[None, _diverging()])
        result = batch.run()
        assert result.lane_errors == [None, LANE_FAULT]
        assert result.results[1] is None
        # The lane froze on divergence: its state stayed finite.
        for name in PDQPAccelerator.state_names:
            assert np.all(np.isfinite(batch.machine.vb[name][:, 1])), name
        # The clean lane is its solo run, bit for bit.
        solo = PDQPAccelerator.bind(problems[0], cust, settings,
                                    compiled).run()
        lane = result.results[0]
        assert lane.x.tobytes() == solo.x.tobytes()
        assert lane.admm_iterations == solo.admm_iterations
        assert lane.total_cycles == solo.total_cycles

    def test_non_finite_batch_lane_still_freezes(self):
        problem = generate("control", 4, seed=0)
        cust = customize_problem(problem, 8)
        compiled = RSQPAccelerator(problem, customization=cust).compiled
        violent = [Fault(kind="hbm-read", op_index=2, element=1, bit=62)]
        with np.errstate(all="ignore"):
            result = BatchAccelerator(
                [problem, perturb_numeric(problem, seed=1)], cust,
                OSQPSettings(), compiled=compiled,
                injectors=[FaultInjector(violent), None]).run()
        assert result.lane_errors == [LANE_FAULT, None]


class TestDeadlines:
    def test_batch_of_expired_lanes_stores_no_answers(self):
        # Every lane misses its deadline before the first segment, so
        # no lane has an answer and the epilogue's stores of x, y and z
        # (which PDQP's prologue never defines) do not run.
        problem, cust, settings, compiled = _pdqp_case()
        result = BatchAccelerator([problem, problem], cust, settings,
                                  compiled=compiled, algorithm="pdqp",
                                  deadline_ats=[0.0, 0.0]).run()
        assert result.lane_errors == [LANE_DEADLINE, LANE_DEADLINE]
        assert result.results == [None, None]

    @pytest.mark.parametrize("backend", ["interpret", "compiled"])
    def test_solo_deadline_raises_before_any_segment(self, backend):
        problem, cust, settings, compiled = _pdqp_case()
        acc = PDQPAccelerator.bind(problem, cust, settings, compiled,
                                   backend=backend, deadline_seconds=0.0)
        with pytest.raises(DeadlineExceededError,
                           match="with 640 iterations to go"):
            acc.run()


class TestLaneConstruction:
    @pytest.mark.parametrize("algorithm,family,size",
                             [("admm", "eqqp", 16), ("pdqp", "control", 4)])
    def test_lanes_are_host_state_only(self, monkeypatch, algorithm,
                                       family, size):
        template = generate(family, size, seed=0)
        cust = customize_problem(template, 8)
        settings = get_algorithm(algorithm).coerce_settings(OSQPSettings())
        compiled = accelerator_class(algorithm)(
            template, customization=cust, settings=settings).compiled
        problems = [perturb_numeric(template, seed=s) for s in range(5)]

        machines = []
        real_init = machine_module.Machine.__init__

        def counting_init(self, *args, **kwargs):
            machines.append(self)
            real_init(self, *args, **kwargs)

        steps = []
        real_steps = pdqp_module.pdqp_initial_steps

        def counting_steps(*args):
            steps.append(args)
            return real_steps(*args)

        monkeypatch.setattr(machine_module.Machine, "__init__",
                            counting_init)
        monkeypatch.setattr(pdqp_module, "pdqp_initial_steps",
                            counting_steps)
        batch = BatchAccelerator(problems, cust, settings,
                                 compiled=compiled, algorithm=algorithm)
        assert machines == []
        # One power-iteration call per load, whatever the width: the
        # numpy twin's, or none when the engine's k_load runs it.
        twin = algorithm == "pdqp" and batch._engine is None
        assert len(steps) == (1 if twin else 0)
        for lane in batch.lanes:
            assert not hasattr(lane, "machine")
            assert lane.restarts == lane.step_updates == 0
        batch.refresh(problems[::-1])
        assert machines == []
        assert len(steps) == (2 if twin else 0)


class TestArmedInjector:
    @pytest.mark.parametrize("backend", ["interpret", "compiled"])
    def test_fault_injector_lives_on_the_machine(self, backend):
        problem = generate("eqqp", 16, seed=0)
        injector = FaultInjector([Fault(kind="mac-flip",
                                        op_index=10 ** 9)])
        acc = RSQPAccelerator(problem, backend=backend,
                              fault_injector=injector)
        assert acc.machine.injectors == [injector]
        assert acc.fault_injector is injector
        acc.fault_injector = None
        assert acc.machine.injectors is None
        assert acc.fault_injector is None
        acc.machine.injectors = [injector]
        assert acc.fault_injector is injector
