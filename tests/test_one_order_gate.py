"""One summation order on the host paths that set up and drive the card.

The card's data — step sizes, norms, every register the download
writes — must come out the same on every host, so the host code that
computes it sums only through :mod:`repro.sparse.kernels` (sequential,
left to right from ``+0.0``). This gate parses that code and rejects
the reductions whose order belongs to numpy or to the host's BLAS:
``np.dot`` and its relatives, an array's ``.dot(``, the ``@`` operator,
``np.linalg.norm``, ``np.sum`` / ``.sum(`` and ``np.add.reduce``. The
kernels module's own ``dot`` / ``bind_dot`` are the one order, so a call
through the imported ``kernels`` module is not an array method. An
integer count is order-free; write it as ``np.count_nonzero``.

The allow-list is empty. The reference PCG/LDL and the Ruiz cost mean
are outside this gate's files (see docs/PERF.md).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"
FILES = ("solver/host.py", "hw/card.py", "hw/accelerator.py",
         "hw/pdqp.py", "hw/driver.py")
#: (file, line) of a reduction this gate tolerates, with its reason.
ALLOWED: dict = {}

_NUMPY_CALLS = {("dot",), ("vdot",), ("inner",), ("matmul",), ("sum",),
                ("linalg", "norm"), ("add", "reduce")}
_METHODS = {"dot", "sum"}


def _dotted(node) -> tuple:
    """``np.linalg.norm`` -> ``("np", "linalg", "norm")``; () if the
    expression is not a plain dotted name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ()
    return (node.id,) + tuple(reversed(parts))


def _kernel_modules(tree) -> set:
    """Names the file binds to :mod:`repro.sparse.kernels`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(
                "sparse"):
            names.update(alias.asname or alias.name for alias in node.names
                         if alias.name == "kernels")
    return names


def violations(source: str, filename: str = "<source>") -> list:
    """``(line, what)`` of every out-of-order reduction in ``source``."""
    tree = ast.parse(source, filename)
    kernels = _kernel_modules(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name[:1] in (("np",), ("numpy",)) and name[1:] in _NUMPY_CALLS:
            found.append((node.lineno, ".".join(name)))
        elif (isinstance(node.func, ast.Attribute)
              and node.func.attr in _METHODS
              and name[:1] not in {(k,) for k in kernels}
              and name[:1] not in (("np",), ("numpy",))):
            found.append((node.lineno, f".{node.func.attr}("))
    return sorted(found)


@pytest.mark.parametrize("relpath", FILES)
def test_host_setup_sums_in_the_kernels_order(relpath):
    path = ROOT / relpath
    found = [(line, what) for line, what in violations(
        path.read_text(), str(path)) if (relpath, line) not in ALLOWED]
    assert found == [], (
        f"{relpath}: reductions outside repro.sparse.kernels' order "
        f"(line, call): {found}")


def test_gate_catches_each_form():
    source = """
import numpy as np
from ..sparse import kernels
a = np.dot(x, y)
b = x.dot(y)
c = np.linalg.norm(x)
d = np.sum(x)
e = x.sum(axis=0)
f = np.add.reduce(x)
g = x @ y
h = kernels.dot(x, y)
i = np.count_nonzero(x)
"""
    assert [what for _, what in violations(source)] == [
        "np.dot", ".dot(", "np.linalg.norm", "np.sum", ".sum(",
        "np.add.reduce", "@"]
