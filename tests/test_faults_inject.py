"""FaultInjector: bit-flips, hook addressing, backend parity.

The load-bearing property: armed with the same plan, the interpreter
and the compiled backend fire the identical faults (same events, same
before/after bit patterns) and finish in bit-identical machine state —
the differential-testing contract survives injection.
"""

import numpy as np
import pytest

from repro.exceptions import FaultDetectedError
from repro.faults import (EVERY_ATTEMPT, Fault, FaultInjector, FaultPlan,
                          flip_bit, poison_artifact)
from repro.problems import generate
from repro.serving.arch_cache import build_artifact
from repro.serving.pool import Resident, bind_accelerator, solve_job
from repro.solver import OSQPSettings

SETTINGS = OSQPSettings(eps_abs=1e-3, eps_rel=1e-3)


@pytest.fixture(scope="module")
def bound():
    problem = generate("control", 4, seed=0)
    artifact = build_artifact(problem, 4,
                              max_admm_iter=SETTINGS.max_iter)
    return problem, artifact


class TestFlipBit:
    def test_is_an_involution(self):
        buf = np.array([1.5, -2.25, 3.0])
        before, after = flip_bit(buf, 1, 52)
        assert before == -2.25 and after != before
        flip_bit(buf, 1, 52)
        assert buf[1] == -2.25

    def test_element_reduced_modulo_size(self):
        buf = np.zeros(4)
        flip_bit(buf, 6, 0)                       # 6 % 4 == 2
        assert buf[2] != 0.0
        assert np.count_nonzero(buf) == 1

    def test_empty_buffer_is_a_noop(self):
        buf = np.zeros(0)
        assert flip_bit(buf, 0, 5) == (0.0, 0.0)


class TestInjectorAddressing:
    def test_fires_at_exact_op_index(self):
        inj = FaultInjector([Fault(kind="mac-flip", op_index=2,
                                   element=0, bit=10)])
        buf = np.ones(3)
        inj.on_spmv("a", buf)                     # op 0
        inj.on_spmv("b", buf)                     # op 1
        assert not inj.events and buf[0] == 1.0
        inj.on_spmv("c", buf)                     # op 2: fires
        (event,) = inj.events
        assert event["site"] == "c" and event["op_index"] == 2
        assert buf[0] != 1.0

    def test_channels_count_independently(self):
        inj = FaultInjector([Fault(kind="hbm-read", op_index=0)])
        inj.on_spmv("s", np.ones(2))              # spmv channel: no fire
        assert not inj.events
        inj.on_load("q", np.ones(2))              # load op 0: fires
        assert len(inj.events) == 1
        assert inj.events[0]["channel"] == "load"

    def test_rejects_non_datapath_kinds(self):
        with pytest.raises(ValueError, match="datapath"):
            FaultInjector([Fault(kind="node-stall")])

    def test_truthiness_reflects_armed_sites(self):
        assert not FaultInjector([])
        assert FaultInjector([Fault(kind="cvb-read")])


class TestBackendParity:
    PLAN = FaultPlan(seed=1, faults=(
        Fault(kind="mac-flip", request=0, op_index=3, element=2, bit=40),
        Fault(kind="hbm-read", request=0, op_index=1, element=5, bit=30,
              attempt=EVERY_ATTEMPT),
        Fault(kind="cvb-read", request=0, op_index=4, element=1, bit=20),
    ))

    def run_backend(self, bound, backend):
        problem, artifact = bound
        injector = self.PLAN.injector_for(0, 0)
        result = solve_job(problem, artifact, SETTINGS, verify=False,
                           backend=backend, injector=injector)
        return result, injector.events

    def test_same_plan_same_events_and_bits(self, bound):
        res_i, events_i = self.run_backend(bound, "interpret")
        res_c, events_c = self.run_backend(bound, "compiled")
        assert events_i == events_c
        assert len(events_i) == 3
        np.testing.assert_array_equal(res_i.x, res_c.x)
        np.testing.assert_array_equal(res_i.y, res_c.y)
        np.testing.assert_array_equal(res_i.z, res_c.z)
        assert res_i.admm_iterations == res_c.admm_iterations
        assert res_i.rollbacks == res_c.rollbacks
        assert res_i.fault_events == res_c.fault_events

    def test_result_carries_fault_events(self, bound):
        result, events = self.run_backend(bound, "compiled")
        assert tuple(events) == result.fault_events


class TestPoisonArtifact:
    def test_desyncs_cycles_and_clears_verified(self, bound):
        _, artifact = bound
        import copy
        victim = copy.deepcopy(artifact)
        victim.verified = True
        before = victim.compiled.admm_body_cycles
        event = poison_artifact(victim)
        assert victim.compiled.admm_body_cycles == before + 1
        assert victim.verified is False
        assert event["kind"] == "artifact-poison"
        assert (event["before"], event["after"]) == (before, before + 1)


@pytest.mark.parametrize("backend", ["interpret", "compiled"])
@pytest.mark.parametrize("algorithm", ["admm", "pdqp"])
class TestRearmedResident:
    """A resident machine honours whichever injector is armed for the
    current run — exactly as a freshly built accelerator would — even
    when an earlier run lowered its blocks with no injector or another
    one."""

    PLAN = FaultPlan.generate(seed=7, requests=4, mac_rate=1.0)

    @pytest.fixture
    def setup(self, algorithm):
        problem = generate("portfolio", 4, seed=0)
        return problem, build_artifact(problem, 16, algorithm=algorithm,
                                       max_admm_iter=SETTINGS.max_iter)

    @staticmethod
    def outcome(run, injector):
        try:
            raw = run(injector)
        except FaultDetectedError:
            raw = None
        return repr(injector.events if injector is not None else []), raw

    @staticmethod
    def same_bits(a, b):
        if a is None or b is None:
            return a is b
        return (a.x.tobytes() == b.x.tobytes()
                and a.y.tobytes() == b.y.tobytes()
                and a.z.tobytes() == b.z.tobytes()
                and a.admm_iterations == b.admm_iterations
                and a.total_cycles == b.total_cycles
                and a.rollbacks == b.rollbacks)

    def test_none_a_b_none(self, setup, backend):
        problem, artifact = setup
        resident = Resident(bind_accelerator(problem, artifact, SETTINGS,
                                             backend=backend), artifact)

        def on_resident(injector):
            resident.accelerator.refresh_numeric(problem)
            return resident.run(injector=injector)

        def on_fresh(injector):
            return solve_job(problem, artifact, SETTINGS, verify=False,
                             backend=backend, injector=injector)

        # None, then A, then B, then None again on the same machine:
        # None -> A, A -> B and B -> None transitions.
        for rid in (None, 1, 2, None):
            def injector():
                return (self.PLAN.injector_for(rid, 0)
                        if rid is not None else None)
            events, raw = self.outcome(on_resident, injector())
            fresh_events, fresh_raw = self.outcome(on_fresh, injector())
            assert events == fresh_events, rid
            assert self.same_bits(raw, fresh_raw), rid
            if rid is not None:
                assert fresh_events != "[]"     # the plan really fires
