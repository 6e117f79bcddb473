"""The host's step data in the kernels' summation order.

PDQP's operator norms come from one lane-minor power-iteration call
(``k_power`` in the engine library, ``numpy_power`` without a
compiler), and the card's load takes ``||q||`` through the sequential
DOT. These tests pin the two implementations to each other, each lane
of a B-lane call to its solo call, the start vectors to their values,
and the load to one ``A'`` gather.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.customization import customize_problem
from repro.hw.card import BatchAccelerator
from repro.hw.pdqp import PDQPAccelerator
from repro.problems import generate, perturb_numeric
from repro.qp import QProblem, RuizPlan
from repro.qp.scaling import lane_minor
from repro.solver import PDQPSettings
from repro.solver.host import (DIV_GUARD, balanced_step,
                               estimate_operator_norms, numpy_power,
                               power_start)
from repro.sparse import CSRMatrix, eye, kernels

WIDTHS = (1, 2, 32)


def _lanes(template: QProblem, width: int, *, zero_a=(), zero_p=()):
    """``(plan, vals, at)`` of ``width`` perturbations of ``template``:
    lanes listed in ``zero_a`` / ``zero_p`` carry zero ``A`` / ``P``
    values (the same pattern), so their passes exit early."""
    plan = RuizPlan.for_problem(template)
    problems = [perturb_numeric(template, seed=s) for s in range(width)]
    vals = lane_minor(problems)[0]
    for b in zero_a:
        vals[plan.nnz_p:, b] = 0.0
    for b in zero_p:
        vals[:plan.nnz_p, b] = 0.0
    return plan, vals, plan.at_values(vals[plan.nnz_p:])


def _bits(norms) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in norms)


class TestPowerIteration:
    @pytest.mark.skipif(kernels.engine() is None,
                        reason="needs the C engine library")
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("family,size", [("lasso", 6), ("control", 4),
                                             ("svm", 10)])
    def test_k_power_equals_numpy_twin(self, family, size, width):
        plan, vals, at = _lanes(generate(family, size, seed=0), width,
                                zero_a=(1,) if width > 1 else (),
                                zero_p=(width - 1,) if width > 2 else ())
        engine = estimate_operator_norms(plan, vals, at)
        twin = numpy_power(plan, vals, at, 50)
        assert _bits(engine) == _bits(twin)

    @pytest.mark.parametrize("width", WIDTHS[1:])
    def test_lane_is_the_solo_call(self, width):
        # Early-exit lanes (zero A, zero P) stop while the rest run on,
        # and every lane matches the one-lane call on its own values.
        zero_a, zero_p = (0,), (width - 1,)
        plan, vals, at = _lanes(generate("lasso", 6, seed=1), width,
                                zero_a=zero_a, zero_p=zero_p)
        norm_a, lam_p = estimate_operator_norms(plan, vals, at)
        for b in range(width):
            solo = estimate_operator_norms(
                plan, vals[:, b:b + 1].copy(), at[:, b:b + 1].copy())
            assert _bits((norm_a[b:b + 1], lam_p[b:b + 1])) == _bits(solo)
        assert norm_a[0] == 0.0 and lam_p[width - 1] == 0.0
        assert np.all(norm_a[1:] > 0.0) and np.all(lam_p[:-1] > 0.0)

    def test_without_constraints_the_a_pass_is_skipped(self):
        problem = QProblem(P=eye(3), q=np.ones(3),
                           A=CSRMatrix.zeros((0, 3)), l=np.zeros(0),
                           u=np.zeros(0))
        plan = RuizPlan.for_problem(problem)
        vals = np.repeat(problem.P.data[:, None], 3, axis=1)
        vals[:, 1] *= 2.0
        norm_a, lam_p = estimate_operator_norms(plan, vals,
                                                np.zeros((0, 3)))
        assert norm_a.tolist() == [0.0, 0.0, 0.0]
        assert lam_p.tolist() == [1.0, 2.0, 1.0]
        for b in range(3):
            solo = estimate_operator_norms(plan, vals[:, b:b + 1].copy(),
                                           np.zeros((0, 1)))
            assert _bits((norm_a[b:b + 1], lam_p[b:b + 1])) == _bits(solo)

    def test_start_vectors_are_pinned(self):
        # default_rng(0).standard_normal: the A pass's n draws, then
        # the P pass's. NumPy does not promise Generator streams across
        # versions (NEP 19); this pin makes a stream change fail here
        # instead of silently moving every PDQP step size.
        first = [0.1257302210933933, -0.1321048632913019,
                 0.6404226504432821, 0.10490011715303971]
        p = CSRMatrix.from_dense([[1.0, 0.0], [0.0, 2.0]])
        with_rows = RuizPlan.for_problem(QProblem(
            P=p, q=np.zeros(2), A=CSRMatrix.from_dense([[1.0, 1.0]]),
            l=np.zeros(1), u=np.ones(1)))
        start_a, start_p = power_start(with_rows)
        assert start_a.tolist() + start_p.tolist() == first
        assert power_start(with_rows)[0] is start_a  # drawn once per plan
        no_rows = RuizPlan.for_problem(QProblem(
            P=p, q=np.zeros(2), A=CSRMatrix.zeros((0, 2)), l=np.zeros(0),
            u=np.zeros(0)))
        assert power_start(no_rows)[1].tolist() == first[:2]


def _old_balanced_step(step, rp, rdual, npz, nd_all, lo, hi):
    """The numpy-scalar form ``balanced_step`` replaced."""
    pri_norm = max(npz, DIV_GUARD)
    dua_norm = max(nd_all, DIV_GUARD)
    with np.errstate(all="ignore"):
        estimate = step * np.sqrt((rp / pri_norm)
                                  / max(rdual / dua_norm, DIV_GUARD))
        return float(np.clip(estimate, lo, hi))


def test_balanced_step_matches_numpy_form():
    lo, hi = 1e-6, 1e6
    tiny = 5e-324
    specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, tiny, -tiny,
                2.2e-308, 1e-15, 1.0, -1.0, 3.5, 1e300, lo, hi,
                math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)]
    cases = 0
    for step in (0.1, 1.0, lo, hi, math.nan, math.inf, 0.0, -0.0, tiny):
        for rp in specials:
            for rdual in specials:
                for npz, nd_all in ((1.0, 1.0), (rp, rdual),
                                    (tiny, math.nan), (math.inf, 0.0)):
                    args = (step, rp, rdual, npz, nd_all, lo, hi)
                    assert repr(balanced_step(*args)) == \
                        repr(_old_balanced_step(*args)), args
                    cases += 1
    assert cases > 10_000
    # The clip edges themselves, and an estimate landing on them.
    assert balanced_step(lo, 1.0, 1.0, 1.0, 1.0, lo, hi) == lo
    assert balanced_step(hi, 1.0, 1.0, 1.0, 1.0, lo, hi) == hi


class TestLoad:
    @pytest.mark.parametrize("width", [1, 32])
    def test_one_a_transpose_gather_per_load(self, width, monkeypatch):
        template = generate("control", 4, seed=0)
        cust = customize_problem(template, 8)
        problems = [perturb_numeric(template, seed=s) for s in range(width)]
        if width == 1:
            card = PDQPAccelerator(template, cust, PDQPSettings())
        else:
            compiled = PDQPAccelerator(template, cust,
                                       PDQPSettings()).compiled
            card = BatchAccelerator(problems, cust, PDQPSettings(),
                                    compiled=compiled, algorithm="pdqp")
        calls = []
        gather = RuizPlan.at_values

        def counted(plan, a_vals):
            calls.append(np.shape(a_vals))
            return gather(plan, a_vals)

        monkeypatch.setattr(RuizPlan, "at_values", counted)
        if width == 1:
            card.refresh_numeric(problems[0])
        else:
            card.refresh(problems)
        assert len(calls) == 1

    @pytest.mark.parametrize("backend", ["compiled", "interpret"])
    @pytest.mark.parametrize("algorithm", ["admm", "pdqp"])
    def test_rollback_rewrites_the_loads_nq(self, backend, algorithm):
        from repro.hw import accelerator_class
        problem = generate("svm", 10, seed=0)
        acc = accelerator_class(algorithm)(problem, backend=backend)
        loaded = acc.machine.scalar_lanes("nq").copy()
        # The sequential sum, written out.
        total = 0.0
        for value in acc.work.q.tolist():
            total += value * value
        assert loaded.tolist() == [math.sqrt(total)]
        acc.machine.set_scalar_lane("nq", 0, 0.0)
        acc._download()
        assert acc.machine.scalar_lanes("nq").tobytes() == loaded.tobytes()

    def test_batch_lane_download_rewrites_nq(self):
        template = generate("eqqp", 16, seed=0)
        cust = customize_problem(template, 8)
        compiled = PDQPAccelerator(template, cust, PDQPSettings()).compiled
        card = BatchAccelerator(
            [perturb_numeric(template, seed=s) for s in range(4)], cust,
            PDQPSettings(), compiled=compiled, algorithm="pdqp")
        loaded = card.machine.scalar_lanes("nq").copy()
        card.machine.set_scalar("nq", 0.0)
        for b, lane in enumerate(card.lanes):
            lane._download(card.machine, b)
        assert card.machine.scalar_lanes("nq").tobytes() == loaded.tobytes()
