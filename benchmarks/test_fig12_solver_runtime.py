"""Figure 12: absolute solver run time on CPU, GPU and the customized
FPGA per family (lower is better).

Paper shape: FPGA lowest across small/mid sizes; CPU competitive only
on tiny problems; GPU pays a per-iteration floor. The benchmark
measures a full simulated accelerator run (cycle-accurate machine).
"""

from conftest import print_rows

from repro.experiments import fig12_solver_runtime
from repro.hw import RSQPAccelerator
from repro.problems import generate
from repro.solver import OSQPSettings


def test_fig12_solver_runtime(suite_records, benchmark):
    prob = generate("svm", 10, seed=0)
    settings = OSQPSettings(max_iter=2000)
    acc = RSQPAccelerator(prob, settings=settings)
    fresh = RSQPAccelerator(prob, settings=settings).run()
    rounds = []

    def run_accelerator():
        # A fresh solve per round: refresh reloads the problem with the
        # cold-start step size and zeroes the accounting.
        acc.refresh(prob)
        result = acc.run()
        rounds.append((result.admm_iterations, result.total_cycles))
        return result

    result = benchmark(run_accelerator)
    assert result.converged
    assert rounds
    assert set(rounds) == {(fresh.admm_iterations, fresh.total_cycles)}

    rows = fig12_solver_runtime(suite_records)
    print_rows("Figure 12: solver run time (seconds)", rows)
    # FPGA-with-customization is the fastest backend on this suite.
    faster = [row for row in rows
              if row["customization_s"] < row["mkl_s"]
              and row["customization_s"] < row["cuda_s"]]
    assert len(faster) >= 0.8 * len(rows)
