"""The card's host load: the engine's one ``k_load`` call against its
numpy twin, byte for byte.

A card bound with the C layer loads through ``k_load``; the same card
bound without it loads through the numpy sequence (Ruiz, bound scaling,
the ``A'`` gather, the step data and the download image). Every value
block, HBM buffer and register the load writes, and every lane's
scaling and step state, must come out identical at every width, for
both algorithms, cold and with carried steps, on structures with
infinite, equal and free bounds, empty rows and columns, missing
diagonal entries, no constraint entries at all and signed zeros.
"""

import os

import numpy as np
import pytest

from repro.batch import BatchAccelerator
from repro.customization import customize_problem
from repro.hw import accelerator_class
from repro.problems import generate, perturb_numeric
from repro.qp import QProblem
from repro.solver import OSQPSettings
from repro.solver.algorithms import get_algorithm
from repro.sparse import CSRMatrix, kernels

from helpers import edge_case_problem

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_JIT") == "0",
    reason="REPRO_JIT=0 runs the numpy twin only")

WIDTHS = (1, 2, 3, 8, 32)


def _signed_zeros():
    """An empty A row and an empty column, P without the diagonal
    entries of x1 and x3, -0.0 in P, A and q, an equality row, free
    rows and one-sided rows."""
    p = CSRMatrix.from_dense([[2.0, 1.0, 0.0, 0.0, 0.0],
                              [1.0, 0.0, 0.0, 0.0, 0.0],
                              [0.0, 0.0, 3.0, 0.0, 0.0],
                              [0.0, 0.0, 0.0, 0.0, 0.0],
                              [0.0, 0.0, 0.0, 0.0, 0.5]])
    p.data[1] = p.data[2] = -0.0
    a = CSRMatrix.from_dense([[1.0, 2.0, 0.0, 0.0, 0.0],
                              [0.0, 0.0, 0.0, 0.0, 0.0],
                              [0.0, 0.0, 4.0, 0.0, 0.0],
                              [1.0, 0.0, 0.0, 0.0, -1.0],
                              [0.0, 3.0, 0.0, 0.0, 0.0],
                              [0.0, 0.0, 0.0, 0.0, 1.0]])
    a.data[3] = -0.0
    return QProblem(P=p, q=np.array([1.0, -0.0, 0.0, 2.0, -1.0]), A=a,
                    l=np.array([1.0, -np.inf, -np.inf, -1.0, -2.0,
                                -np.inf]),
                    u=np.array([1.0, np.inf, 3.0, np.inf, 2.0, np.inf]))


def _no_constraint_entries():
    """Zero-nnz A: every row is empty (and free, one-sided or fixed)."""
    return QProblem(P=CSRMatrix.from_dense([[1.0, 0.5], [0.5, 2.0]]),
                    q=np.array([1.0, -1.0]), A=CSRMatrix.zeros((3, 2)),
                    l=np.array([-np.inf, 0.0, -1.0]),
                    u=np.array([np.inf, 0.0, np.inf]))


STRUCTURES = {
    "control-4": lambda: generate("control", 4, seed=0),
    "portfolio-4": lambda: generate("portfolio", 4, seed=0),
    "lasso-10": lambda: generate("lasso", 10, seed=0),
    "edge": edge_case_problem,
    "signed-zeros": _signed_zeros,
    "zero-nnz-A": _no_constraint_entries,
}

_BUILT: dict = {}


def _structure(name: str, algorithm: str):
    """``(template, customization, settings, compiled)``, built once."""
    key = (name, algorithm)
    if key not in _BUILT:
        template = STRUCTURES[name]()
        cust = customize_problem(template, 8)
        settings = get_algorithm(algorithm).coerce_settings(OSQPSettings())
        compiled = accelerator_class(algorithm)(
            template, customization=cust, settings=settings).compiled
        _BUILT[key] = template, cust, settings, compiled
    return _BUILT[key]


def _lanes(template, width: int) -> list:
    return [template] + [perturb_numeric(template, seed=s, magnitude=0.3)
                         for s in range(1, width)]


def _state(card) -> dict:
    """Every byte the load writes: the machine's value blocks, HBM
    buffers and registers, and each lane's scaling and step state."""
    machine = card.machine
    out = {f"matrix {name}": resource.kernel.val.tobytes()
           for name, resource in machine.matrices.items()}
    out.update({f"hbm {name}": buf.tobytes()
                for name, buf in machine.hbm.items()})
    out.update({f"register {name}": np.asarray(buf).tobytes()
                for name, buf in machine.scalars.items()})
    for b, lane in enumerate(card.lanes):
        scaling, work = lane.scaling, lane.work
        assert work is scaling.problem and lane.problem is not None
        for name, values in (("d", scaling.d), ("e", scaling.e),
                             ("q", work.q), ("l", work.l), ("u", work.u),
                             ("P", work.P.data), ("A", work.A.data)):
            out[f"lane {b} {name}"] = np.asarray(values).tobytes()
        out[f"lane {b} c"] = repr(scaling.c)
        for name in ("rho", "omega", "norm_a", "lam_p", "tau", "sigma"):
            if hasattr(lane, name):
                out[f"lane {b} {name}"] = repr(getattr(lane, name))
        if hasattr(lane, "rho_vec"):
            out[f"lane {b} rho_vec"] = np.asarray(lane.rho_vec).tobytes()
        assert lane.restarts == lane.step_updates == 0
    return out


def _loaded(problems, structure, algorithm, carried, monkeypatch, *,
            twin: bool):
    _, cust, settings, compiled = structure
    with monkeypatch.context() as patch:
        if twin:
            patch.setattr(kernels, "engine", lambda: None)
        card = BatchAccelerator(problems, cust, settings, compiled=compiled,
                                algorithm=algorithm)
        if carried is not None:
            card.load(problems, carried=carried)
    assert (card._engine is None) == twin
    return card


@pytest.mark.parametrize("carry", [False, True], ids=["cold", "carried"])
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("algorithm", ["admm", "pdqp"])
@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_engine_load_is_the_twin(name, algorithm, width, carry,
                                 monkeypatch):
    structure = _structure(name, algorithm)
    problems = _lanes(structure[0], width)
    carried = [0.37 * (b + 1) for b in range(width)] if carry else None
    engine = _loaded(problems, structure, algorithm, carried, monkeypatch,
                     twin=False)
    twin = _loaded(problems, structure, algorithm, carried, monkeypatch,
                   twin=True)
    got, want = _state(engine), _state(twin)
    assert sorted(got) == sorted(want)
    assert [key for key in want if got[key] != want[key]] == []
    if carry:
        assert [getattr(lane, lane.step_name)
                for lane in engine.lanes] == carried


@pytest.mark.parametrize("algorithm", ["admm", "pdqp"])
def test_refresh_reloads_every_buffer(algorithm, monkeypatch):
    """A second load over a machine that ran writes the same bytes as a
    fresh card's first: nothing of the run or of the first load leaks
    into the next one."""
    structure = _structure("control-4", algorithm)
    first, second = _lanes(structure[0], 3), _lanes(structure[0], 4)[1:]
    card = _loaded(first, structure, algorithm, None, monkeypatch,
                   twin=False)
    card.run()
    card.refresh(second[::-1])
    fresh = _loaded(second[::-1], structure, algorithm, None, monkeypatch,
                    twin=True)
    got, want = _state(card), _state(fresh)
    # The run added buffers and registers of its own; the load's are
    # the fresh card's.
    assert [key for key in want if got.get(key) != want[key]] == []


def test_lane_state_is_not_the_machine(monkeypatch):
    """A lane's scaled problem is its own memory: a run or a rollback
    writing the card's buffers never moves it."""
    structure = _structure("control-4", "admm")
    card = _loaded(_lanes(structure[0], 2), structure, "admm", None,
                   monkeypatch, twin=False)
    machine, work = card.machine, card.lanes[1].work
    before = work.q.tobytes(), work.l.tobytes(), work.A.data.tobytes()
    machine.hbm["q"][...] = np.nan
    machine.hbm["l"][...] = np.nan
    machine.matrices["A"].kernel.val[...] = np.nan
    assert (work.q.tobytes(), work.l.tobytes(),
            work.A.data.tobytes()) == before
