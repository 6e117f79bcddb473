"""WorkerPool across serial/thread modes: job correctness,
crash propagation through futures, and shutdown semantics."""

import operator

import numpy as np
import pytest

from repro.problems import generate_svm
from repro.serving import WorkerPool
from repro.serving.arch_cache import build_artifact
from repro.serving.pool import reference_job, solve_job
from repro.solver import OSQPSettings

SETTINGS = OSQPSettings(eps_abs=1e-4, eps_rel=1e-4, max_iter=3000)

MODES = ("serial", "thread")


def _square(x):
    return x * x


def _boom():
    raise RuntimeError("worker exploded")


@pytest.fixture(scope="module")
def svm_setup():
    problem = generate_svm(10, seed=0)
    artifact = build_artifact(problem, 16)
    return problem, artifact


class TestModes:
    @pytest.mark.parametrize("mode", MODES)
    def test_plain_function_round_trip(self, mode):
        with WorkerPool(workers=2, mode=mode) as pool:
            futures = [pool.submit(_square, i) for i in range(8)]
            assert [f.result(timeout=60) for f in futures] == \
                [i * i for i in range(8)]

    @pytest.mark.parametrize("mode", MODES)
    def test_solve_job_all_modes(self, mode, svm_setup):
        problem, artifact = svm_setup
        with WorkerPool(workers=2, mode=mode) as pool:
            result = pool.submit(solve_job, problem, artifact,
                                 SETTINGS).result(timeout=120)
        assert result.converged
        assert problem.primal_residual(result.x) < 1e-2

    def test_reference_job_matches_solve_job(self, svm_setup):
        problem, artifact = svm_setup
        with WorkerPool(workers=1, mode="serial") as pool:
            acc = pool.submit(solve_job, problem, artifact,
                              SETTINGS).result()
            ref = pool.submit(reference_job, problem, SETTINGS).result()
        assert ref.status.is_optimal
        assert np.isclose(problem.objective(acc.x), ref.info.obj_val,
                          rtol=1e-2, atol=1e-3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            WorkerPool(mode="fiber")
        with pytest.raises(ValueError):
            WorkerPool(workers=0)


class TestCrashPropagation:
    @pytest.mark.parametrize("mode", MODES)
    def test_exception_surfaces_via_future(self, mode):
        with WorkerPool(workers=1, mode=mode) as pool:
            future = pool.submit(_boom)
            with pytest.raises(RuntimeError, match="worker exploded"):
                future.result(timeout=60)

    @pytest.mark.parametrize("mode", MODES)
    def test_picklable_builtin_crash(self, mode):
        with WorkerPool(workers=1, mode=mode) as pool:
            future = pool.submit(operator.truediv, 1, 0)
            with pytest.raises(ZeroDivisionError):
                future.result(timeout=60)

    @pytest.mark.parametrize("mode", MODES)
    def test_pool_survives_a_crash(self, mode):
        with WorkerPool(workers=1, mode=mode) as pool:
            with pytest.raises(ZeroDivisionError):
                pool.submit(operator.truediv, 1, 0).result(timeout=60)
            assert pool.submit(_square, 3).result(timeout=60) == 9


class TestShutdown:
    @pytest.mark.parametrize("mode", MODES)
    def test_close_is_idempotent(self, mode):
        pool = WorkerPool(workers=1, mode=mode)
        pool.shutdown()
        pool.shutdown()  # second call is a no-op
        pool.shutdown(wait=False)

    @pytest.mark.parametrize("mode", MODES)
    def test_submit_after_shutdown_raises(self, mode):
        pool = WorkerPool(workers=1, mode=mode)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.submit(_square, 1)

    def test_context_manager_shuts_down(self):
        with WorkerPool(workers=1, mode="serial") as pool:
            pass
        with pytest.raises(RuntimeError):
            pool.submit(_square, 1)

    @pytest.mark.parametrize("mode", ("serial", "thread"))
    def test_pending_work_completes_on_shutdown(self, mode):
        pool = WorkerPool(workers=1, mode=mode)
        futures = [pool.submit(_square, i) for i in range(4)]
        pool.shutdown(wait=True)
        assert [f.result() for f in futures] == [0, 1, 4, 9]


class TestHardShutdown:
    @pytest.mark.parametrize("mode", ("thread",))
    def test_cancel_pending_leaves_no_unresolved_futures(self, mode):
        import time as _time

        with WorkerPool(workers=1, mode=mode) as warm:
            warm.submit(_square, 1).result(timeout=60)
        pool = WorkerPool(workers=1, mode=mode)
        blocker = pool.submit(_time.sleep, 0.5)
        queued = [pool.submit(_square, i) for i in range(8)]
        pool.shutdown(wait=True, cancel_pending=True)
        # The running job finishes; every queued one is cancelled —
        # no future is left forever unresolved.
        assert blocker.done()
        for future in queued:
            assert future.done()
        assert any(f.cancelled() for f in queued)

    def test_cancel_pending_on_serial_pool_is_noop(self):
        pool = WorkerPool(workers=1, mode="serial")
        future = pool.submit(_square, 2)
        pool.shutdown(wait=True, cancel_pending=True)
        assert future.result() == 4
