"""A request's answer does not depend on whether its host has a compiler.

The same ADMM and PDQP ``solve()`` requests, one B=4 ``solve_batch``
and one session ``update`` + ``resolve`` (a refresh carrying the
adapted rho) run in two fresh interpreters, one with ``REPRO_JIT=0``
(numpy kernels) and one with ``REPRO_JIT=1`` (C kernels). Every SpMV
and DOT goes through :mod:`repro.sparse.kernels` in one summation
order and Ruiz scaling runs the engine's ``k_ruiz`` or its numpy
twin, so the answers must match byte for byte, with the same
iteration and cycle counts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = r"""
import hashlib, json, sys
from repro.problems import generate
from repro.problems.perturb import perturb_numeric
from repro.serving import SolverService

def digest(res):
    return {"x": hashlib.sha256(res.x.tobytes()).hexdigest(),
            "y": hashlib.sha256(res.y.tobytes()).hexdigest(),
            "z": hashlib.sha256(res.z.tobytes()).hexdigest(),
            "converged": bool(res.converged),
            "iterations": res.record.admm_iterations,
            "cycles": res.record.simulated_cycles}

out = {}
for algorithm, family, size in (("admm", "eqqp", 20), ("pdqp", "lasso", 10)):
    with SolverService(mode="serial", workers=1, c=8,
                       algorithm=algorithm) as service:
        out[algorithm] = digest(service.solve(generate(family, size, seed=0)))
base = generate("svm", 8, seed=0)
batch = [perturb_numeric(base, seed=s) for s in range(4)]
with SolverService(mode="serial", workers=1, c=8, algorithm="admm",
                   max_batch=4) as service:
    out["batch"] = [digest(r) for r in service.solve_batch(batch)]
base = generate("control", 2, seed=0)
nearby = perturb_numeric(base, seed=1)
with SolverService(mode="serial", workers=1, c=8,
                   algorithm="admm") as service:
    session = service.open_session(base)
    first = digest(session.resolve())
    session.update(q=nearby.q, l=nearby.l, u=nearby.u,
                   P_data=nearby.P.data, A_data=nearby.A.data)
    out["session"] = [first, digest(session.resolve())]
    session.close()
json.dump(out, sys.stdout)
"""


def run(jit: str, cache: Path) -> dict:
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, REPRO_JIT=jit, REPRO_JIT_CACHE=str(cache),
               PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=600,
                          check=True)
    return json.loads(done.stdout)


def test_answers_identical_with_and_without_jit(tmp_path):
    without = run("0", tmp_path / "cache")
    with_jit = run("1", tmp_path / "cache")
    assert without == with_jit
    assert len(with_jit["batch"]) == 4
    assert len(with_jit["session"]) == 2
    assert all(entry["converged"] for entry in
               [with_jit["admm"], with_jit["pdqp"], *with_jit["batch"],
                *with_jit["session"]])
