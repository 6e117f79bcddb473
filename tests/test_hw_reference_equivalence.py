"""Cross-validation: the compiled instruction stream vs the reference
software implementations, iterate by iterate."""

import numpy as np
import pytest

from repro.hw import RSQPAccelerator
from repro.linalg import JacobiPreconditioner, pcg
from repro.problems import generate_svm
from repro.qp import ReducedKKTOperator
from repro.solver import OSQPSettings, OSQPSolver


class TestPCGEquivalence:
    def test_machine_pcg_matches_reference_pcg(self):
        """One ADMM iteration's inner solve, bit-compared.

        The accelerator's first PCG solve starts from the same state as
        the reference indirect backend (zero iterates, same rho/sigma,
        same preconditioner), so the solutions must agree to solver
        tolerance.
        """
        prob = generate_svm(12, seed=5)
        settings = OSQPSettings(eps_abs=1e-4, eps_rel=1e-4, max_iter=1,
                                check_termination=1, adaptive_rho=False,
                                scaling=10)
        # Reference: one ADMM iteration with the indirect backend.
        ref_solver = OSQPSolver(prob, settings)
        work = ref_solver.work
        op = ReducedKKTOperator(work.P, work.A, settings.sigma,
                                ref_solver.rho_vec)
        rhs = op.rhs(np.zeros(work.n), work.q, np.zeros(work.m),
                     np.zeros(work.m))
        ref = pcg(op, rhs, x0=np.zeros(work.n),
                  preconditioner=JacobiPreconditioner(op.diagonal()),
                  eps=1e-7, max_iter=500)
        assert ref.converged

        # Accelerator: run exactly one ADMM iteration; xt holds the
        # machine's PCG solution for the same subproblem.
        acc = RSQPAccelerator(prob, settings=OSQPSettings(
            eps_abs=1e-4, eps_rel=1e-4, max_iter=1, adaptive_rho=False),
            pcg_eps=1e-7)
        acc.run()
        # The compiled machine is one lane: xt is its (n, 1) column.
        machine_xt = acc.machine.vb["xt"][:, 0]
        np.testing.assert_allclose(machine_xt, ref.x, atol=1e-5)

    def test_full_solve_iterate_counts_comparable(self):
        prob = generate_svm(12, seed=6)
        settings = OSQPSettings(eps_abs=1e-4, eps_rel=1e-4, max_iter=3000,
                                adaptive_rho=False)
        ref = OSQPSolver(prob, settings).solve()
        acc = RSQPAccelerator(prob, settings=settings).run()
        assert ref.status.is_optimal and acc.converged
        # Termination norms differ (inf vs 2), but the iteration counts
        # stay within a small factor of each other.
        ratio = acc.admm_iterations / max(ref.info.iterations, 1)
        assert 0.3 < ratio < 3.0
