"""SolverSession invariants and bitwise differentials.

The session contract under test:

* a session binds to one structure — same-pattern numeric updates are
  installed in place, anything structural is rejected loudly;
* ``resolve()`` on a session is **bitwise identical** (solution,
  iteration count, simulated cycle count) to a fresh
  ``SolverService.solve()`` on the same data, for both algorithms and
  both execution backends — the fast path changes cost, never bits;
* warm starts and the adapted penalty parameter carry across
  re-solves, which is what makes the path fast in iterations too;
* session traffic is accounted in the service's records and metrics.
"""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.problems import (generate, generate_lasso, generate_svm,
                            perturb_numeric)
from repro.serving import SolverService
from repro.serving.session import (TIER_SESSION, transpose_order,
                                   updated_problem)
from repro.solver import OSQPSettings

SETTINGS = OSQPSettings(eps_abs=1e-4, eps_rel=1e-4, max_iter=3000)


def service(**kwargs):
    kwargs.setdefault("settings", SETTINGS)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("mode", "serial")
    return SolverService(**kwargs)


def assert_same_solve(a, b):
    """Bitwise identity of two serve results (solution AND accounting)."""
    assert a.x.tobytes() == b.x.tobytes()
    assert a.y.tobytes() == b.y.tobytes()
    assert a.z.tobytes() == b.z.tobytes()
    assert a.converged == b.converged
    assert a.record.admm_iterations == b.record.admm_iterations
    assert a.record.simulated_cycles == b.record.simulated_cycles


class TestUpdatedProblem:
    def test_vector_update_keeps_matrices(self):
        base = generate_lasso(8, seed=0)
        new = updated_problem(base, q=base.q * 2.0)
        assert new.P is base.P and new.A is base.A
        assert np.array_equal(new.q, base.q * 2.0)

    def test_matrix_value_update_keeps_pattern(self):
        base = generate_lasso(8, seed=0)
        new = updated_problem(base, A_data=base.A.data * 0.5)
        assert np.array_equal(new.A.indptr, base.A.indptr)
        assert np.array_equal(new.A.indices, base.A.indices)
        assert np.array_equal(new.A.data, base.A.data * 0.5)

    def test_wrong_lengths_raise(self):
        base = generate_lasso(8, seed=0)
        with pytest.raises(ShapeError):
            updated_problem(base, q=np.ones(base.n + 1))
        with pytest.raises(ShapeError):
            updated_problem(base, P_data=np.ones(base.P.nnz + 3))

    def test_inconsistent_bounds_raise(self):
        base = generate_lasso(8, seed=0)
        with pytest.raises(ShapeError):
            updated_problem(base, l=np.full(base.m, 2.0),
                            u=np.full(base.m, -2.0))

    def test_asymmetric_p_data_raises(self):
        base = generate_lasso(8, seed=0)
        data = base.P.data.copy()
        off_diag = base.P.indices != np.repeat(
            np.arange(base.n), np.diff(base.P.indptr))
        if not off_diag.any():
            pytest.skip("P is diagonal for this generator size")
        data[np.argmax(off_diag)] += 1.0  # breaks P == P'
        with pytest.raises(ShapeError):
            updated_problem(base, P_data=data)


class TestSymmetryCheck:
    """``updated_problem`` tests exact symmetry first and falls back to
    ``allclose`` only when that fails: the accept/reject set is the
    ``allclose`` test's, with or without a session's cached transpose
    order."""

    @staticmethod
    def _pair(base):
        """Positions ``(k, k')`` of one off-diagonal pair P[i,j], P[j,i]."""
        order = transpose_order(base.P)
        rows = np.repeat(np.arange(base.n), np.diff(base.P.indptr))
        k = int(np.argmax(rows != base.P.indices))
        assert rows[k] != base.P.indices[k]
        return k, int(order[k])

    @pytest.mark.parametrize("case", ["exact", "tiny", "beyond", "nan",
                                      "inf", "-inf", "inf-pair-broken"])
    def test_accept_reject_set_unchanged(self, case):
        base = generate("eqqp", 8, seed=0)
        k, kt = self._pair(base)
        data = base.P.data.copy()
        if case == "tiny":
            data[k] += 1e-12
        elif case == "beyond":
            data[k] += 1e-3
        elif case == "nan":
            data[k] = data[kt] = np.nan
        elif case in ("inf", "-inf"):
            data[k] = data[kt] = float(case)
        elif case == "inf-pair-broken":
            data[k], data[kt] = np.inf, -np.inf
        order = transpose_order(base.P)
        reference = np.allclose(data, data[np.argsort(
            base.P.indices, kind="stable")], atol=1e-9)
        expected = {"exact": True, "tiny": True, "beyond": False,
                    "nan": False, "inf": True, "-inf": True,
                    "inf-pair-broken": False}[case]
        assert reference is expected
        for kwargs in ({}, {"p_order": order}):
            if expected:
                new = updated_problem(base, P_data=data, **kwargs)
                assert new.P.data.tobytes() == data.tobytes()
            else:
                with pytest.raises(ShapeError):
                    updated_problem(base, P_data=data, **kwargs)

    def test_session_computes_the_order_once(self, monkeypatch):
        from repro.serving import session as session_module
        calls = []
        order = session_module.transpose_order

        def counting(P):
            calls.append(P)
            return order(P)

        monkeypatch.setattr(session_module, "transpose_order", counting)
        base = generate("eqqp", 8, seed=0)
        with service() as svc, svc.open_session(base) as sess:
            for seed in (1, 2, 3):
                nearby = perturb_numeric(base, seed=seed)
                sess.update(P_data=nearby.P.data, q=nearby.q)
        assert len(calls) == 1


class TestSessionInvariants:
    def test_update_requires_an_argument(self):
        with service() as svc, svc.open_session(
                generate_svm(10, seed=0)) as sess:
            with pytest.raises(ValueError):
                sess.update()

    def test_structure_mismatch_raises(self):
        with service() as svc, svc.open_session(
                generate_svm(10, seed=0)) as sess:
            with pytest.raises(ShapeError):
                sess.update(P_data=np.ones(3))
            with pytest.raises(ShapeError):
                sess.update(q=np.ones(sess.problem.n + 1))

    def test_closed_session_refuses_work(self):
        with service() as svc:
            sess = svc.open_session(generate_svm(10, seed=0))
            sess.close()
            with pytest.raises(RuntimeError):
                sess.resolve()
            with pytest.raises(RuntimeError):
                sess.update(q=np.zeros(10))

    def test_warm_start_carries_across_resolves(self):
        base = generate_lasso(8, seed=3)
        nearby = perturb_numeric(base, seed=9)
        with service() as svc, svc.open_session(base) as sess:
            cold = sess.resolve()
            sess.update(q=nearby.q, l=nearby.l, u=nearby.u)
            warm = sess.resolve()  # auto warm start from `cold`
        assert warm.converged
        assert warm.record.admm_iterations <= cold.record.admm_iterations

    def test_adapted_rho_carries_when_enabled(self):
        base = generate_lasso(8, seed=3)
        with service() as svc:
            with svc.open_session(base, carry_state=True) as sess:
                sess.resolve()
                rho_after = sess._accelerator.rho
                sess.update(q=base.q * 1.01)
                assert sess._accelerator.rho == rho_after
            with svc.open_session(base, carry_state=False) as sess:
                sess.resolve()
                initial = SETTINGS.rho
                sess.update(q=base.q * 1.01)
                # A fresh host setup re-derives rho from the settings.
                assert sess._accelerator.settings.rho == initial

    def test_records_and_metrics_account_sessions(self):
        base = generate_svm(10, seed=1)
        with service() as svc:
            with svc.open_session(base) as sess:
                sess.resolve()
                sess.update(q=base.q * 1.1)
                sess.resolve()
            snap = svc.metrics_snapshot()
            records = svc.records()
        assert snap["counters"]["serving_session_opened_total"] == 1
        assert snap["counters"]["serving_session_updates_total"] == 1
        assert snap["counters"]["serving_session_resolves_total"] == 2
        hist = snap["histograms"][
            'serving_session_resolve_seconds{algorithm="admm"}']
        assert hist["count"] == 2
        session_records = [r for r in records if r.tier == TIER_SESSION]
        assert len(session_records) == 2
        assert all(r.backend == "rsqp" for r in session_records)


@pytest.mark.parametrize("backend", ["compiled", "interpret"])
@pytest.mark.parametrize("algorithm", ["admm", "pdqp"])
class TestSessionBitwise:
    """resolve() must equal a fresh service solve, bit for bit."""

    def test_resolve_equals_fresh_solve(self, backend, algorithm):
        base = generate_lasso(8, seed=0)
        nearby = perturb_numeric(base, seed=7)
        with service(backend=backend, algorithm=algorithm) as svc:
            sess = svc.open_session(base, carry_state=False)
            first = sess.resolve(warm_start=None)
            assert_same_solve(first, svc.solve(base))
            # In-place numeric rebind, then the same differential again.
            sess.update(q=nearby.q, l=nearby.l, u=nearby.u,
                        P_data=nearby.P.data, A_data=nearby.A.data)
            second = sess.resolve(warm_start=None)
            assert_same_solve(second, svc.solve(nearby))
            sess.close()

    def test_resolve_with_mirrored_warm_start(self, backend, algorithm):
        base = generate_lasso(8, seed=1)
        with service(backend=backend, algorithm=algorithm) as svc:
            sess = svc.open_session(base, carry_state=False)
            first = sess.resolve(warm_start=None)
            warm = (first.x.copy(), first.y.copy())
            sess.update(q=base.q * 1.05)
            bumped = updated_problem(base, q=base.q * 1.05)
            again = sess.resolve(warm_start=warm)
            assert_same_solve(again, svc.solve(bumped, warm_start=warm))
            sess.close()


class TestBackendCross:
    """Both backends produce identical session streams."""

    def test_session_stream_backend_invariant(self):
        base = generate_lasso(8, seed=2)
        streams = {}
        for backend in ("compiled", "interpret"):
            with service(backend=backend) as svc:
                with svc.open_session(base) as sess:
                    out = [sess.resolve()]
                    for seed in (5, 6):
                        nearby = perturb_numeric(base, seed=seed)
                        sess.update(q=nearby.q, l=nearby.l, u=nearby.u)
                        out.append(sess.resolve())
                streams[backend] = out
        for a, b in zip(streams["compiled"], streams["interpret"]):
            assert_same_solve(a, b)


class TestBatchSession:
    def test_lane_results_match_solo(self):
        base = generate_lasso(8, seed=0)
        lanes = [base] + [perturb_numeric(base, seed=s) for s in (1, 2)]
        with service() as svc:
            bs = svc.open_batch_session(lanes)
            results = bs.resolve_all()
            for lane_problem, lane_result in zip(lanes, results):
                solo = svc.solve(lane_problem)
                assert lane_result.x.tobytes() == solo.x.tobytes()
                assert lane_result.total_cycles == \
                    solo.record.simulated_cycles
            bs.close()

    def test_lane_update_and_warm_resolve(self):
        base = generate_lasso(8, seed=0)
        lanes = [perturb_numeric(base, seed=s) for s in (1, 2)]
        with service() as svc:
            with svc.open_batch_session(lanes) as bs:
                cold = bs.resolve_all()
                bumped = perturb_numeric(base, seed=3)
                bs.update(1, q=bumped.q, l=bumped.l, u=bumped.u)
                warm = bs.resolve_all()  # auto warm from previous lanes
        assert all(r.converged for r in cold)
        assert all(r.converged for r in warm)
        assert warm[1].admm_iterations <= cold[1].admm_iterations

    def test_mixed_structures_rejected(self):
        with service() as svc:
            with pytest.raises(ValueError):
                svc.open_batch_session([generate_lasso(8, seed=0),
                                        generate_svm(10, seed=0)])


class TestSessionResilience:
    def test_faulty_resolve_still_answers(self):
        from repro.faults import FaultPlan, ResiliencePolicy
        plan = FaultPlan.generate(seed=7, requests=64, mac_rate=0.8,
                                  hbm_rate=0.5, poisons=0, stalls=0)
        base = generate_lasso(8, seed=0)
        with service(fault_plan=plan,
                     resilience=ResiliencePolicy(
                         max_retries=3,
                         backoff_base_seconds=0.0)) as svc:
            with svc.open_session(base) as sess:
                results = [sess.resolve() for _ in range(3)]
        assert all(r.converged for r in results)
        total_faults = sum(r.record.faults_injected for r in results)
        assert total_faults >= 1  # the plan actually fired

    def test_fusion_bypass_while_injector_armed(self):
        """An armed injector must route around the fused loop (the
        interpreter-exact instrumented path) and still match the
        uninjected solve once faults stop firing."""
        from repro.faults import FaultPlan, ResiliencePolicy
        base = generate_lasso(8, seed=4)
        # A plan whose faults all target early requests: later session
        # resolves run uninjected on the same resident accelerator.
        plan = FaultPlan.generate(seed=11, requests=2, mac_rate=0.9,
                                  hbm_rate=0.0, poisons=0, stalls=0)
        with service(fault_plan=plan,
                     resilience=ResiliencePolicy(
                         max_retries=3,
                         backoff_base_seconds=0.0)) as svc:
            with svc.open_session(base, carry_state=False) as sess:
                sess.resolve()          # may be injected
                sess.update(q=base.q)   # reset numerics + rho
                clean = sess.resolve(warm_start=None)
        with service() as svc:
            fresh = svc.solve(base)
        assert_same_solve(clean, fresh)
