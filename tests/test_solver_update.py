"""Tests for parametric problem updates (OSQP's update API)."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.problems import generate
from repro.qp import QProblem
from repro.solver import OSQPSettings, OSQPSolver, PDQPSettings, PDQPSolver
from repro.sparse import CSRMatrix, eye

from helpers import random_dense, random_spd_dense


def make_solver(rng, **kwargs):
    n, m = 8, 10
    p = random_spd_dense(rng, n, 0.4)
    a = random_dense(rng, m, n, 0.5)
    x0 = rng.standard_normal(n)
    slack = np.abs(rng.standard_normal(m)) + 0.2
    prob = QProblem(P=CSRMatrix.from_dense(p), q=rng.standard_normal(n),
                    A=CSRMatrix.from_dense(a), l=a @ x0 - slack,
                    u=a @ x0 + slack)
    return prob, OSQPSolver(prob, OSQPSettings(eps_abs=1e-6, eps_rel=1e-6,
                                               max_iter=8000, **kwargs))


class TestUpdate:
    def test_update_q_changes_solution(self, rng):
        prob, solver = make_solver(rng)
        first = solver.solve()
        assert first.status.is_optimal
        new_q = rng.standard_normal(prob.n) * 3.0
        solver.update(q=new_q)
        second = solver.solve()
        assert second.status.is_optimal
        # Solving fresh with the new q gives the same answer.
        fresh = OSQPSolver(
            QProblem(P=prob.P, q=new_q, A=prob.A, l=prob.l, u=prob.u),
            OSQPSettings(eps_abs=1e-6, eps_rel=1e-6, max_iter=8000)).solve()
        np.testing.assert_allclose(second.x, fresh.x, atol=1e-3)

    def test_update_bounds(self, rng):
        prob, solver = make_solver(rng)
        solver.solve()
        tighter_u = prob.u - 0.05
        solver.update(u=tighter_u)
        result = solver.solve()
        assert result.status.is_optimal
        ax = prob.A.matvec(result.x)
        assert np.all(ax <= tighter_u + 1e-3)

    def test_update_warm_starts(self, rng):
        prob, solver = make_solver(rng)
        cold = solver.solve()
        solver.update(q=prob.q * 1.01)  # tiny perturbation
        warm = solver.solve()
        assert warm.status.is_optimal
        assert warm.info.iterations <= cold.info.iterations

    def test_update_validates_shapes(self, rng):
        prob, solver = make_solver(rng)
        with pytest.raises(ValueError):
            solver.update(q=np.zeros(prob.n + 1))
        with pytest.raises(ValueError):
            solver.update(l=np.zeros(prob.m - 1))

    @pytest.mark.parametrize("solver_type,settings", [
        (OSQPSolver, OSQPSettings), (PDQPSolver, PDQPSettings)],
        ids=["osqp", "pdqp"])
    @pytest.mark.parametrize("bad", ["crossed", "nan_l", "nan_u"])
    def test_update_rejects_invalid_bounds(self, solver_type, settings,
                                           bad):
        # The same checks as serving's updated_problem, and nothing
        # changes before they pass (a NaN bound would otherwise reach
        # the solve as a non-finite iterate).
        prob = generate("control", 2, seed=0)
        solver = solver_type(prob, settings())
        before = [arr.copy() for arr in (prob.q, prob.l, prob.u,
                                         solver.work.q, solver.work.l,
                                         solver.work.u)]
        new_l, new_u = prob.l.copy(), prob.u.copy()
        if bad == "crossed":
            new_l = new_u + 1.0
        elif bad == "nan_l":
            new_l[0] = np.nan
        else:
            new_u[0] = np.nan
        with pytest.raises(ShapeError):
            solver.update(q=prob.q * 2.0, l=new_l, u=new_u)
        after = (prob.q, prob.l, prob.u, solver.work.q, solver.work.l,
                 solver.work.u)
        for old, new in zip(before, after):
            assert old.tobytes() == new.tobytes()
        assert solver.solve().status.is_optimal

    def test_update_bounds_refreshes_rho_pattern(self, rng):
        prob, solver = make_solver(rng)
        old_rho_vec = solver.rho_vec.copy()
        # Turn the first constraint into an equality.
        new_l = prob.l.copy()
        new_u = prob.u.copy()
        new_l[0] = new_u[0]
        solver.update(l=new_l, u=new_u)
        assert solver.rho_vec[0] > old_rho_vec[0]

    def test_update_works_with_ldl_backend(self, rng):
        prob, solver = make_solver(rng, linsys="ldl")
        solver.solve()
        new_l = prob.l.copy()
        new_u = prob.u.copy()
        new_l[0] = new_u[0]
        solver.update(l=new_l, u=new_u)
        result = solver.solve()
        assert result.status.is_optimal
        assert np.isclose(prob.A.matvec(result.x)[0], new_u[0], atol=1e-3)

    def test_update_infinite_bounds_preserved(self, rng):
        prob, solver = make_solver(rng)
        new_u = prob.u.copy()
        new_u[1] = np.inf
        solver.update(u=new_u)
        assert np.isposinf(solver.work.u[1])
        result = solver.solve()
        assert result.status.is_optimal


class TestTimeLimit:
    def test_time_limit_stops_early(self, rng):
        prob, _ = make_solver(rng)
        from repro.solver import SolverStatus, solve
        # Impossible tolerance + ~instant limit -> time-limit status.
        s = OSQPSettings(eps_abs=1e-14, eps_rel=0.0, max_iter=10_000_000,
                         check_termination=1, time_limit=1e-6,
                         adaptive_rho=False)
        res = solve(prob, s)
        assert res.status in (SolverStatus.TIME_LIMIT_REACHED,
                              SolverStatus.SOLVED_INACCURATE)
        assert res.info.iterations < 10_000_000

    def test_zero_time_limit_disables(self, rng):
        prob, solver = make_solver(rng)
        res = solver.solve()
        assert res.status.is_optimal

    def test_negative_time_limit_rejected(self):
        with pytest.raises(ValueError):
            OSQPSettings(time_limit=-1.0)


class TestHistory:
    def test_history_recorded_when_enabled(self, rng):
        prob, _ = make_solver(rng)
        s = OSQPSettings(eps_abs=1e-6, eps_rel=1e-6, max_iter=8000,
                         record_history=True, check_termination=10)
        res = OSQPSolver(prob, s).solve()
        assert res.status.is_optimal
        assert len(res.info.history) >= 1
        iters = [h[0] for h in res.info.history]
        assert iters == sorted(iters)
        # Residuals recorded at the last check match the info fields.
        _, pri, dua, _ = res.info.history[-1]
        assert pri == res.info.pri_res and dua == res.info.dua_res

    def test_history_off_by_default(self, rng):
        prob, solver = make_solver(rng)
        res = solver.solve()
        assert res.info.history == []

    def test_history_shows_residual_decrease(self, rng):
        prob, _ = make_solver(rng)
        s = OSQPSettings(eps_abs=1e-8, eps_rel=1e-8, max_iter=20000,
                         record_history=True, check_termination=25)
        res = OSQPSolver(prob, s).solve()
        if len(res.info.history) >= 3:
            first = res.info.history[0]
            last = res.info.history[-1]
            assert last[1] <= first[1] * 10  # no blow-up
            assert last[2] <= first[2] * 10


class TestScaledTermination:
    def test_scaled_termination_solves(self, rng):
        prob, _ = make_solver(rng)
        s = OSQPSettings(eps_abs=1e-5, eps_rel=1e-5, max_iter=8000,
                         scaled_termination=True)
        res = OSQPSolver(prob, s).solve()
        assert res.status.is_optimal
        # The returned solution is still good in the unscaled problem.
        assert prob.primal_residual(res.x) < 1e-2

    def test_matches_unscaled_solution(self, rng):
        prob, _ = make_solver(rng)
        a = OSQPSolver(prob, OSQPSettings(eps_abs=1e-7, eps_rel=1e-7,
                                          max_iter=20000)).solve()
        b = OSQPSolver(prob, OSQPSettings(eps_abs=1e-7, eps_rel=1e-7,
                                          max_iter=20000,
                                          scaled_termination=True)).solve()
        assert a.status.is_optimal and b.status.is_optimal
        np.testing.assert_allclose(a.x, b.x, atol=1e-3)
