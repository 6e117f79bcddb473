"""The one summation order behind every SpMV and DOT.

The RSQP datapath accumulates each SpMV row and each DOT strictly in
sequence from ``+0.0``: ``acc = 0.0; acc += a[k] * b[k]`` left to
right. This module owns that order for the whole package —
:class:`CSRKernel` for sparse matrix-vector products, :func:`dot` and
:func:`bind_dot` for inner products — on 1-D vectors and on lane-minor
``(len, B)`` batches (column ``b`` is lane ``b``). The platform picks
the implementation:

* with a C compiler, the engine library of :mod:`repro.hw.cjit`
  (``k_csr_matvec[_batch]``, ``k_dot[_batch]``);
* without one (``REPRO_JIT=0``, no cffi or no ``cc``), numpy in the
  same order: the products are scattered into a padded-ELL block whose
  first row is zeros, and ``np.cumsum(..., axis=0)[-1]`` runs down the
  padded rows. ``accumulate`` is sequential by definition, the zero
  row plays the C accumulator's initial ``+0.0`` (so an all-``-0.0``
  row sums to ``+0.0`` on both), and a padding ``+0.0`` leaves a sum
  that started at ``+0.0`` unchanged.

The two are bit-identical, so a request gets the same bytes on a host
with or without a compiler. ``np.add.reduce`` (``sum``, ``np.dot``,
BLAS) never appears here: numpy sums a contiguous axis pairwise and
BLAS blocks, either of which would be another order. The numpy path is
public (:meth:`CSRKernel.numpy_apply`, :func:`numpy_dot`) so tests can
pin both implementations in one process.

The same engine also carries the modified Ruiz iteration of
:mod:`repro.qp.scaling` (``k_ruiz``), whose numpy twin is
``repro.qp.scaling.numpy_ruiz``; :func:`engine` is how that module
finds it. Ruiz is the one place the engine does *not* sum in sequence:
its cost mean follows numpy's own pairwise order, because the numpy
implementation it must match is an ``np.add.reduce``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

import numpy as np

from ..exceptions import ShapeError

__all__ = ["CSRKernel", "dot", "bind_dot", "numpy_dot"]


def engine() -> Any:
    """The engine library of :mod:`repro.hw.cjit`, or ``None`` when
    this process runs the numpy implementations."""
    # Imported lazily: repro.hw imports this package.
    from ..hw import cjit
    return cjit.engine()


def _stable(buf: np.ndarray, shape: tuple, what: str) -> None:
    """Reject a buffer a C pointer cannot safely be bound to."""
    if (not isinstance(buf, np.ndarray) or buf.shape != shape
            or buf.dtype != np.float64 or not buf.flags.c_contiguous):
        raise ShapeError(f"{what}: expected a C-contiguous float64 "
                         f"buffer of shape {shape}, got "
                         f"{getattr(buf, 'shape', None)}")


class CSRKernel:
    """SpMV of one CSR pattern in the sequential row order.

    ``data`` is ``(nnz,)`` for one matrix or lane-minor ``(nnz, B)`` for
    B matrices sharing the pattern. Contiguous float64/int64 arrays are
    kept by reference, so values written in place into :attr:`val` are
    seen by the next call and by every closure :meth:`bind` handed out.
    """

    __slots__ = ("shape", "val", "col", "ip", "_engine", "_ptrs",
                 "_ell", "_groups")

    def __init__(self, shape, data, indices, indptr):
        self.shape = (int(shape[0]), int(shape[1]))
        self.val = np.ascontiguousarray(data, dtype=np.float64)
        self.col = np.ascontiguousarray(indices, dtype=np.int64)
        self.ip = np.ascontiguousarray(indptr, dtype=np.int64)
        self._ell = None
        self._groups = None
        self._engine = engine()
        if self._engine is not None:
            buf = self._engine.ffi.from_buffer
            self._ptrs = (buf("double[]", self.val),
                          buf("long[]", self.col), buf("long[]", self.ip))

    def views(self, data, indices, indptr) -> bool:
        """Whether this kernel reads exactly these storage arrays."""
        return (self.val is data and self.col is indices
                and self.ip is indptr)

    def _io_shapes(self) -> tuple[tuple, tuple]:
        m, n = self.shape
        lanes = self.val.shape[1:]
        return (n,) + lanes, (m,) + lanes

    def apply(self, x, out: np.ndarray | None = None) -> np.ndarray:
        """``out = A @ x`` (per lane for a lane-minor kernel)."""
        x_shape, out_shape = self._io_shapes()
        x = np.asarray(x, dtype=np.float64)
        if x.shape != x_shape:
            raise ShapeError(f"matvec: expected input of shape {x_shape}, "
                             f"got {x.shape}")
        if out is None:
            out = np.empty(out_shape)
        self.bind(np.ascontiguousarray(x), out)()
        return out

    def bind(self, x: np.ndarray, out: np.ndarray) -> Callable[[], Any]:
        """Prebound ``out = A @ x`` over long-lived buffers: the C
        pointers are taken once, so each call is one kernel
        invocation."""
        x_shape, out_shape = self._io_shapes()
        _stable(x, x_shape, "matvec input")
        _stable(out, out_shape, "matvec output")
        engine = self._engine
        if engine is None:
            if self.val.ndim == 2 and self.val.shape[1] == 1:
                # One lane: the 1-D sum over column views.
                return partial(self.numpy_apply, x[:, 0], out[:, 0])
            return partial(self.numpy_apply, x, out)
        buf = engine.ffi.from_buffer
        m, n = self.shape
        if self.val.ndim == 1 or self.val.shape[1] == 1:
            # One lane's (len, 1) memory is the 1-D layout.
            return partial(engine.lib.k_csr_matvec, *self._ptrs,
                           buf("double[]", x), buf("double[]", out), m)
        nnz, lanes = self.val.shape
        return partial(engine.lib.k_csr_matvec_batch, *self._ptrs,
                       buf("double[]", x), buf("double[]", out), m, n,
                       nnz, lanes)

    def numpy_apply(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The no-compiler implementation of :meth:`apply`, same bits."""
        slots, depth = self._layout()
        m = self.shape[0]
        val = self.val if x.ndim == self.val.ndim else self.val[:, 0]
        lanes = val.shape[1:]
        block = np.zeros((depth * m,) + lanes)
        block[slots] = val * x[self.col]
        out[...] = np.cumsum(block.reshape((depth, m) + lanes),
                             axis=0)[-1]
        return out

    def _layout(self) -> tuple[np.ndarray, int]:
        """Padded-ELL slot of each stored entry: entry ``p`` of row
        ``r`` lands in row ``p + 1`` (row 0 stays zero) of a
        ``(longest row + 1, m)`` block."""
        if self._ell is None:
            m = self.shape[0]
            lens = np.diff(self.ip)
            rows = np.repeat(np.arange(m), lens)
            pos = np.arange(self.col.size) - np.repeat(self.ip[:-1], lens)
            width = int(lens.max()) if m else 0
            self._ell = ((pos + 1) * m + rows, width + 1)
        return self._ell

    def row_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows in stable length order, and the ``(length, count)``
        pair of each run of equal-length rows, flattened, lengths
        ascending: the walk of the generated one-lane SpMV
        (:mod:`repro.hw.compiled`). Both come from the pattern alone."""
        if self._groups is None:
            lens = np.diff(self.ip)
            order = np.argsort(lens, kind="stable")
            run_lens, counts = np.unique(lens, return_counts=True)
            pairs = np.stack([run_lens, counts], axis=1).reshape(-1)
            self._groups = (np.ascontiguousarray(order, dtype=np.int64),
                            np.ascontiguousarray(pairs, dtype=np.int64))
        return self._groups


def dot(a, b, out: np.ndarray | None = None):
    """Sequential inner product: a float for 1-D operands; for
    lane-minor ``(len, B)`` operands the per-lane sums, written into
    ``out`` (allocated when None) and returned."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.ndim == 2 and out is None:
        out = np.empty(a.shape[1])
    result = bind_dot(a, b, out)()
    return result if a.ndim == 1 else out


def bind_dot(a: np.ndarray, b: np.ndarray,
             out: np.ndarray | None = None) -> Callable[[], Any]:
    """Prebound :func:`dot` over long-lived buffers. For 1-D operands
    the closure returns the float; for lane-minor ones it fills the
    ``(B,)`` buffer ``out``."""
    if a.ndim not in (1, 2):
        raise ShapeError(f"dot: operands must be 1-D or (len, B), got "
                         f"shape {a.shape}")
    _stable(a, a.shape, "dot operand")
    _stable(b, a.shape, "dot operand")
    if a.ndim == 2:
        _stable(out, a.shape[1:], "dot output")
    library = engine()
    if library is None:
        if a.ndim == 2 and a.shape[1] == 1 and out is not None:
            # One lane: the 1-D sum over column views.
            return partial(_numpy_dot_into, a[:, 0], b[:, 0], out)
        return partial(numpy_dot, a, b, out)
    buf = library.ffi.from_buffer
    if a.ndim == 1:
        return partial(library.lib.k_dot, buf("double[]", a),
                       buf("double[]", b), a.shape[0])
    return partial(library.lib.k_dot_batch, buf("double[]", a),
                   buf("double[]", b), a.shape[0], a.shape[1],
                   buf("double[]", out))


def numpy_dot(a: np.ndarray, b: np.ndarray,
              out: np.ndarray | None = None):
    """The no-compiler implementation of :func:`dot`, same bits."""
    terms = np.zeros((a.shape[0] + 1,) + a.shape[1:])
    np.multiply(a, b, out=terms[1:])
    total = np.cumsum(terms, axis=0)[-1]
    if a.ndim == 1:
        return float(total)
    if out is None:
        return total
    out[...] = total
    return out


def _numpy_dot_into(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    out[0] = numpy_dot(a, b)
