"""Tests for the QProblem container and scaling."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.problems import FAMILIES, generate, perturb_numeric
from repro.qp import (QProblem, RuizPlan, ruiz_equilibrate,
                      ruiz_equilibrate_batch)
from repro.qp.scaling import _ruiz, numpy_ruiz
from repro.sparse import CSRMatrix, eye, kernels

from helpers import edge_case_problem, random_dense, random_spd_dense


def make_problem(rng, n=6, m=4):
    p = random_spd_dense(rng, n, 0.4)
    a = random_dense(rng, m, n, 0.5)
    return QProblem(P=CSRMatrix.from_dense(p), q=rng.standard_normal(n),
                    A=CSRMatrix.from_dense(a),
                    l=-np.abs(rng.standard_normal(m)) - 0.1,
                    u=np.abs(rng.standard_normal(m)) + 0.1)


class TestQProblem:
    def test_dimensions(self, rng):
        prob = make_problem(rng, 6, 4)
        assert prob.n == 6 and prob.m == 4
        assert prob.nnz == prob.P.nnz + prob.A.nnz

    def test_rejects_nonsymmetric_p(self, rng):
        p = CSRMatrix.from_dense([[1.0, 2.0], [0.0, 1.0]])
        a = eye(2)
        with pytest.raises(ShapeError):
            QProblem(P=p, q=np.zeros(2), A=a, l=np.zeros(2), u=np.ones(2))

    def test_rejects_crossed_bounds(self, rng):
        with pytest.raises(ShapeError):
            QProblem(P=eye(2), q=np.zeros(2), A=eye(2),
                     l=np.ones(2), u=np.zeros(2))

    def test_rejects_nan_bounds(self):
        with pytest.raises(ShapeError):
            QProblem(P=eye(1), q=[0.0], A=eye(1), l=[np.nan], u=[1.0])

    def test_rejects_shape_mismatches(self, rng):
        with pytest.raises(ShapeError):
            QProblem(P=eye(2), q=np.zeros(3), A=eye(2),
                     l=np.zeros(2), u=np.ones(2))
        with pytest.raises(ShapeError):
            QProblem(P=eye(2), q=np.zeros(2),
                     A=CSRMatrix.zeros((2, 3)), l=np.zeros(2), u=np.ones(2))
        with pytest.raises(ShapeError):
            QProblem(P=eye(2), q=np.zeros(2), A=eye(2),
                     l=np.zeros(3), u=np.ones(3))

    def test_objective(self, rng):
        prob = make_problem(rng)
        x = rng.standard_normal(prob.n)
        p = prob.P.to_dense()
        expected = 0.5 * x @ p @ x + prob.q @ x
        assert np.isclose(prob.objective(x), expected)

    def test_primal_residual_zero_inside_bounds(self, rng):
        prob = make_problem(rng)
        # x = 0 gives Ax = 0 which lies inside (l < 0 < u by construction).
        assert prob.primal_residual(np.zeros(prob.n)) == 0.0

    def test_primal_residual_detects_violation(self):
        prob = QProblem(P=eye(1), q=[0.0], A=eye(1), l=[0.0], u=[1.0])
        assert np.isclose(prob.primal_residual([2.0]), 1.0)
        assert np.isclose(prob.primal_residual([-0.5]), 0.5)

    def test_equality_mask(self):
        prob = QProblem(P=eye(2), q=np.zeros(2), A=eye(2),
                        l=[1.0, -1.0], u=[1.0, 1.0])
        np.testing.assert_array_equal(prob.equality_mask(), [True, False])

    def test_infinite_bounds_allowed(self):
        prob = QProblem(P=eye(1), q=[0.0], A=eye(1),
                        l=[-np.inf], u=[np.inf])
        assert prob.primal_residual([100.0]) == 0.0

    def test_permute_variables_preserves_objective(self, rng):
        prob = make_problem(rng)
        perm = rng.permutation(prob.n)
        permuted = prob.permute_variables(perm)
        x = rng.standard_normal(prob.n)
        assert np.isclose(permuted.objective(x[perm]), prob.objective(x))

    def test_permute_constraints_preserves_feasibility(self, rng):
        prob = make_problem(rng)
        perm = rng.permutation(prob.m)
        permuted = prob.permute_constraints(perm)
        x = rng.standard_normal(prob.n)
        assert np.isclose(permuted.primal_residual(x),
                          prob.primal_residual(x))


def _lanes(base, count=8):
    """``count`` problems of ``base``'s structure with rescaled values
    (bounds keep their infinities, equality rows stay equalities)."""
    rng = np.random.default_rng(7)
    lanes = [base]
    for _ in range(count - 1):
        p_scale = float(np.exp(rng.standard_normal()))
        row = np.exp(rng.standard_normal(base.m))
        lanes.append(QProblem(
            P=CSRMatrix(base.P.shape, base.P.data * p_scale,
                        base.P.indices, base.P.indptr, check=False),
            q=base.q * rng.uniform(0.5, 2.0, base.n),
            A=CSRMatrix(base.A.shape,
                        base.A.data * rng.uniform(0.5, 2.0, base.A.nnz),
                        base.A.indices, base.A.indptr, check=False),
            l=base.l * row, u=base.u * row))
    return lanes


class TestRuizScaling:
    def test_identity_when_disabled(self, rng):
        prob = make_problem(rng)
        scaling = ruiz_equilibrate(prob, iterations=0)
        np.testing.assert_allclose(scaling.d, 1.0)
        np.testing.assert_allclose(scaling.e, 1.0)
        assert scaling.c == 1.0

    def test_scaled_matrices_are_consistent(self, rng):
        prob = make_problem(rng)
        s = ruiz_equilibrate(prob)
        # P_bar = c D P D
        p_bar = s.c * np.diag(s.d) @ prob.P.to_dense() @ np.diag(s.d)
        np.testing.assert_allclose(s.problem.P.to_dense(), p_bar, atol=1e-12)
        a_bar = np.diag(s.e) @ prob.A.to_dense() @ np.diag(s.d)
        np.testing.assert_allclose(s.problem.A.to_dense(), a_bar, atol=1e-12)
        np.testing.assert_allclose(s.problem.q, s.c * s.d * prob.q)

    def test_equilibration_improves_conditioning(self, rng):
        # Badly scaled problem: huge spread in the matrix entries.
        n = 8
        scales = np.logspace(0, 5, n)
        p = random_spd_dense(rng, n, 0.5)
        p = np.diag(scales) @ p @ np.diag(scales)
        a = random_dense(rng, 5, n, 0.6) * 1e4
        prob = QProblem(P=CSRMatrix.from_dense((p + p.T) / 2),
                        q=np.ones(n), A=CSRMatrix.from_dense(a),
                        l=-np.ones(5), u=np.ones(5))
        s = ruiz_equilibrate(prob)

        def col_norm_spread(p_mat, a_mat):
            stacked = np.vstack([np.hstack([p_mat, a_mat.T]),
                                 np.hstack([a_mat,
                                            np.zeros((a_mat.shape[0],) * 2)])])
            norms = np.abs(stacked).max(axis=0)
            return norms.max() / norms.min()

        before = col_norm_spread(prob.P.to_dense(), prob.A.to_dense())
        after = col_norm_spread(s.problem.P.to_dense(),
                                s.problem.A.to_dense())
        assert after < before
        assert after < 10.0  # equilibrated: column norms within one decade

    def test_unscale_roundtrip(self, rng):
        prob = make_problem(rng)
        s = ruiz_equilibrate(prob)
        x = rng.standard_normal(prob.n)
        y = rng.standard_normal(prob.m)
        z = rng.standard_normal(prob.m)
        np.testing.assert_allclose(s.unscale_x(s.scale_x(x)), x)
        np.testing.assert_allclose(s.unscale_y(s.scale_y(y)), y)
        np.testing.assert_allclose(s.unscale_z(s.scale_z(z)), z)

    def test_infinite_bounds_survive_scaling(self):
        prob = QProblem(P=eye(2), q=np.zeros(2), A=eye(2),
                        l=[-np.inf, 0.0], u=[1.0, np.inf])
        s = ruiz_equilibrate(prob)
        assert np.isneginf(s.problem.l[0])
        assert np.isposinf(s.problem.u[1])
        assert np.isfinite(s.problem.u[0])

    def test_scaled_problem_has_same_solution_set(self, rng):
        # x solves the scaled problem iff D^-1 x solves ... verified via
        # objective equivalence: f_bar(D^-1 x) = c * f(x) for the
        # quadratic part plus matching linear part.
        prob = make_problem(rng)
        s = ruiz_equilibrate(prob)
        x = rng.standard_normal(prob.n)
        x_bar = s.scale_x(x)
        assert np.isclose(s.problem.objective(x_bar),
                          s.c * prob.objective(x))


    # Each lane of a batched Ruiz call is its solo call, bit for bit.
    @pytest.mark.parametrize("case,iterations", [
        ("lasso", 10), ("control", 10), ("edge", 10), ("edge", 1),
        ("control", 0)],
        ids=["lasso", "control", "edge", "edge-1-iteration", "scaling0"])
    def test_lanes_match_solo(self, case, iterations):
        base = (edge_case_problem() if case == "edge"
                else generate(case, 6, seed=0))
        lanes = _lanes(base)
        batched = ruiz_equilibrate_batch(lanes, iterations)[0]
        assert len(batched) == len(lanes)
        for lane, got in zip(lanes, batched):
            _assert_same_scaling(got, ruiz_equilibrate(lane, iterations))

    def test_plan_of_another_structure_raises(self):
        # Same n, m and nnz, rows in another order: the plan's index
        # arrays would scale the wrong entries (or, read by the C
        # kernel, out of bounds for another nnz).
        problem = generate("control", 2, seed=0)
        permuted = problem.permute_constraints(np.arange(problem.m)[::-1])
        assert (permuted.n, permuted.m, permuted.A.nnz) == \
            (problem.n, problem.m, problem.A.nnz)
        plan = RuizPlan.for_problem(problem)
        with pytest.raises(ShapeError, match="sparsity pattern"):
            ruiz_equilibrate(permuted, plan=plan)
        _assert_same_scaling(ruiz_equilibrate(problem, plan=plan),
                             ruiz_equilibrate(problem))


def _assert_same_scaling(got, want):
    """Two scalings agree byte for byte."""
    for name in ("d", "e"):
        assert getattr(got, name).tobytes() == \
            getattr(want, name).tobytes()
    assert repr(got.c) == repr(want.c)
    for name in ("q", "l", "u"):
        assert getattr(got.problem, name).tobytes() == \
            getattr(want.problem, name).tobytes()
    for name in ("P", "A"):
        assert getattr(got.problem, name).data.tobytes() == \
            getattr(want.problem, name).data.tobytes()


def _family_problem(family):
    """A generator family, or the hand-built edge case."""
    if family == "edge":
        return edge_case_problem()
    return generate(family, {"control": 2, "eqqp": 16}.get(family, 6),
                    seed=3)


def _diagonal_problem(n, seed=0):
    """Diagonal ``P`` spanning many decades under a dense ``A``, so
    P's scaled column norms differ in their low bits and the order of
    the cost mean's sum shows."""
    rng = np.random.default_rng(seed)
    diag = np.exp(rng.uniform(-20.0, 20.0, n))
    return QProblem(P=CSRMatrix.from_dense(np.diag(diag)),
                    q=rng.standard_normal(n) * 1e-3,
                    A=CSRMatrix.from_dense(rng.standard_normal((3, n))),
                    l=-np.ones(3), u=np.ones(3))


class TestRuizEngineParity:
    """The engine's ``k_ruiz`` is :func:`numpy_ruiz`, bit for bit.

    Compared on the raw outputs ``(vals, q, de, c)`` and on the
    :class:`Scaling` of :func:`ruiz_equilibrate` with and without the
    engine. Skipped where this process has no C engine (the numpy
    implementation is then the only one).
    """

    @pytest.fixture(autouse=True)
    def _engine(self):
        if kernels.engine() is None:
            pytest.skip("no C engine in this process")

    @staticmethod
    def _assert_same(vals, q, plan, iterations):
        got = _ruiz(vals.copy(), q.copy(), plan, iterations)
        want = numpy_ruiz(vals.copy(), q.copy(), plan, iterations)
        for name, a, b in zip(("vals", "q", "de", "c"), got, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
        return got

    @staticmethod
    def _stacked(problem):
        return np.concatenate([problem.P.data, problem.A.data]), problem.q

    @pytest.mark.parametrize("iterations", [0, 1, 10])
    @pytest.mark.parametrize("family", [*FAMILIES, "edge"])
    def test_families(self, family, iterations, monkeypatch):
        base = _family_problem(family)
        problems = [base] + [perturb_numeric(base, seed=s, magnitude=0.3)
                             for s in range(3)]
        plan = RuizPlan.for_problem(base)
        for problem in problems:
            self._assert_same(*self._stacked(problem), plan, iterations)
        with_engine = [ruiz_equilibrate(pr, iterations, plan=plan)
                       for pr in problems]
        monkeypatch.setattr(kernels, "engine", lambda: None)
        for pr, got in zip(problems, with_engine):
            _assert_same_scaling(got, ruiz_equilibrate(pr, iterations,
                                                       plan=plan))

    @pytest.mark.parametrize("case", [
        "nan_p", "nan_a", "nan_q", "inf_p", "neginf_a", "inf_q",
        "negzero_q", "huge", "tiny"])
    @pytest.mark.parametrize("family", ["lasso", "edge"])
    def test_special_values(self, family, case):
        problem = _family_problem(family)
        vals, q = self._stacked(problem)
        vals, q, nnz_p = vals.copy(), q.copy(), problem.P.nnz
        if case == "nan_p":
            vals[nnz_p // 2] = np.nan
        elif case == "nan_a":
            vals[nnz_p] = np.nan
        elif case == "nan_q":
            q[0] = np.nan
        elif case == "inf_p":
            vals[0] = np.inf
        elif case == "neginf_a":
            vals[-1] = -np.inf
        elif case == "inf_q":
            q[-1] = -np.inf
        elif case == "negzero_q":
            q[:] = -0.0
        elif case == "huge":
            vals, q = vals * 1e300, q * 1e-300
        else:
            vals, q = vals * 1e-300, q * 1e300
        self._assert_same(vals, q, RuizPlan.for_problem(problem), 10)

    @pytest.mark.parametrize("n,m", [(0, 0), (0, 3), (3, 0), (4, 2)],
                             ids=["n0m0", "n0", "m0", "all_zero"])
    def test_degenerate_dimensions(self, n, m, monkeypatch):
        # Empty matrices: every row and column is empty.
        problem = QProblem(P=CSRMatrix.zeros((n, n)), q=np.ones(n),
                           A=CSRMatrix.zeros((m, n)), l=-np.ones(m),
                           u=np.ones(m))
        plan = RuizPlan.for_problem(problem)
        self._assert_same(*self._stacked(problem), plan, 10)
        got = ruiz_equilibrate(problem)
        monkeypatch.setattr(kernels, "engine", lambda: None)
        _assert_same_scaling(got, ruiz_equilibrate(problem))

    @pytest.mark.parametrize("batch", [1, 3, 32])
    @pytest.mark.parametrize("family", ["control", "edge"])
    def test_lanes_are_solo_calls(self, family, batch):
        problem = _family_problem(family)
        plan = RuizPlan.for_problem(problem)
        vals, q = self._stacked(problem)
        rng = np.random.default_rng(batch)
        vals = vals[:, None] * rng.uniform(0.2, 5.0, (vals.size, batch))
        q = q[:, None] * rng.uniform(0.2, 5.0, (q.size, batch))
        got = self._assert_same(vals, q, plan, 10)
        for b in range(batch):
            solo = _ruiz(vals[:, b].copy(), q[:, b].copy(), plan, 10)
            for name, lane, one in zip(("vals", "q", "de", "c"), got,
                                       solo):
                assert lane[..., b].tobytes() == \
                    np.asarray(one).tobytes(), name

    @pytest.mark.parametrize("n", [7, 8, 9, 128, 129, 257])
    def test_pairwise_block_edges(self, n):
        # The cost mean is numpy's pairwise sum: a loop below 8
        # entries, eight accumulators up to 128, a split above.
        problem = _diagonal_problem(n, seed=n)
        plan = RuizPlan.for_problem(problem)
        vals, q = self._stacked(problem)
        for iterations in (1, 10):
            self._assert_same(vals, q, plan, iterations)
        rng = np.random.default_rng(n)
        self._assert_same(
            vals[:, None] * rng.uniform(0.2, 5.0, (vals.size, 3)),
            q[:, None] * rng.uniform(0.2, 5.0, (n, 3)), plan, 10)

    def test_wrong_length_values_raise(self):
        # A C pointer never sees arrays of another length than the plan.
        problem = _family_problem("lasso")
        plan = RuizPlan.for_problem(problem)
        vals, q = self._stacked(problem)
        with pytest.raises(ShapeError):
            _ruiz(vals[:-1].copy(), q.copy(), plan, 10)
        with pytest.raises(ShapeError):
            _ruiz(vals.copy(), q[:-1].copy(), plan, 10)
