"""Effect IR: the statically checkable record of generated C code.

The simulator's one C code generator — the lane-minor whole-loop
builder in :mod:`repro.hw.compiled`, which emits a solo machine's
loops as the one-lane case and a batch machine's at its lane count —
emits an :class:`EffectIR` alongside the source text it generates.
The IR is a per-statement record of *effects*: which buffers each
emitted loop reads and writes, the loop bound it runs over, the scalar
registers/literals it consumes (and through which table token), the
per-element expression text, and the charge-slot and trip-counter
tables the cycle accounting is applied from.

:mod:`repro.verify.codegen` consumes this IR to prove, before a
generated kernel ever runs, that every index stays in bounds, that no
statement observes state the solo interpreter would have ordered
differently, that the loop write-sets the batch snapshot-restore
machinery relies on are sound, that every expression is exactly the
ISA semantics it lowers (no reassociation or contraction — the
property the ``-ffp-contract=off`` bit-exactness contract pins at the
source level), and that the fused-tier cycle charges reconcile with
the static cost model.

The IR is emitted by the same builder methods that append the C text,
so it cannot drift from the source by construction; the *verifier*
recomputes every expectation independently from the ISA instructions.
:data:`EFFECT_IR_VERSION` is not part of the cjit cache key
(:mod:`repro.hw.cjit`): the IR is re-emitted and re-verified in every
process before a unit is compiled or loaded, and the verifier rejects
an IR of another version, so a cached ``.so`` is named by its source,
its flags and the kernel layer alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

__all__ = ["EFFECT_IR_VERSION", "BufferRef", "EffectStatement",
           "EffectIR"]

#: Schema version of the effect IR. Bump whenever the meaning of any
#: field changes; the verifier rejects an IR of any other version.
EFFECT_IR_VERSION = "4"


@dataclass(frozen=True)
class BufferRef:
    """One vector-space operand of an emitted statement.

    ``space`` keys the machine state dicts (``"vb"`` / ``"cvb"`` /
    ``"hbm"`` / ``"scalars"``) plus ``"matrix"`` for streamed matrix
    value blocks. ``length`` is the element count along the vector
    axis (the lane axis of a lane-minor ``(len, B)`` buffer is carried
    by :attr:`EffectIR.batch`, not here).
    """

    space: str
    name: str
    length: int


@dataclass(frozen=True, eq=False)
class EffectStatement:
    """One emitted C statement (loop, kernel block, or scalar line).

    ``index`` names the iteration shape of the emitted code:

    ``"flat"``
        one loop over all ``len * batch`` contiguous elements of
        lane-minor buffers (``bound`` is the flattened count).
    ``"laned"``
        row loop over ``bound`` rows with an inner lane loop of
        ``lane_bound`` lanes.
    ``"gather"``
        the CSR SpMV row-sum (indirect reads through ``index_arrays``):
        a call to the head's row kernel at one lane, an inline
        lane-minor CSR walk at B >= 2.
    ``"reduce"``
        the sequential DOT accumulation into a scalar: its own loop,
        or at one lane one accumulator of its group's loop
        (``group``).
    ``"scalar"``
        a scalar-register statement (no vector loop; ``lane_bound``
        is the lane count).
    ``"control"``
        a Control exit test.
    ``"loop"``
        a nested-loop entry (``bound`` is ``max_iter``; ``text`` is
        the frame's entry and trip head).
    """

    op: str
    index: str
    bound: int
    dst: BufferRef | None = None
    srcs: tuple[BufferRef, ...] = ()
    expr: str = ""
    text: str = ""
    lane_bound: int = 0
    #: Scalar-register reads as ``(register, token)`` pairs, in the
    #: order the emitted declarations bind them (s0 before s1).
    sreg_reads: tuple[tuple[str, str], ...] = ()
    #: Literal scalar operands as ``(value, token)`` pairs.
    lit_reads: tuple[tuple[float, str], ...] = ()
    #: Scalar-register writes as ``(register, token)`` pairs.
    sreg_writes: tuple[tuple[str, str], ...] = ()
    #: ``(L-table slot, value)`` pairs this statement's bounds read.
    len_slots: tuple[tuple[int, int], ...] = ()
    #: Position of the source instruction in the emitted unit's walk.
    instr_index: int = -1
    site: str | None = None
    matrix: str | None = None
    #: ``(rows, cols)`` of the SpMV matrix, when ``index == "gather"``.
    spmv_shape: tuple[int, int] | None = None
    #: int64 index arrays of the gather: ``(col, ip)`` for a lane-minor
    #: CSR walk (B >= 2); ``(col, ip, ro, rl)`` for the one-lane row
    #: kernel, ``ro`` the rows in stable length order and ``rl`` the
    #: flattened ``(length, count)`` pair of each run of equal-length
    #: rows.
    index_arrays: tuple[Any, ...] | None = None
    nnz: int = 0
    #: CT charge slot this statement's cost accrues to.
    charge_slot: int | None = None
    #: Walk positions of the one-lane DOT group this DOT belongs to, in
    #: order (empty for a DOT with a loop of its own, for every other
    #: statement and at B >= 2). The group runs as one loop at its last
    #: member, whose ``text`` carries it; the other members emit no
    #: text at their own positions.
    group: tuple[int, ...] = ()

    def vector_writes(self) -> tuple[tuple[str, str], ...]:
        """``(space, name)`` vector destinations of this statement."""
        if self.dst is None or self.dst.space == "scalars":
            return ()
        return ((self.dst.space, self.dst.name),)


@dataclass(eq=False)
class EffectIR:
    """The full effect record of one generated C unit.

    ``tier`` is ``"loop"``, the one whole-loop tier; ``batch`` is the
    unit's lane count (1 for a solo machine's loops). ``lens`` is the
    runtime ``L`` table the generated code indexes its loop bounds
    from, ``consts`` the ``S`` literal table, ``charges``/``loops`` the
    charge-slot and trip-counter tables, and ``source`` the whole
    generated function.
    """

    tier: str
    batch: int = 1
    version: str = EFFECT_IR_VERSION
    statements: list[EffectStatement] = field(default_factory=list)
    lens: tuple[int, ...] = ()
    consts: tuple[float, ...] = ()
    #: Per-CT-slot ``(cycles, by_class, instructions)``.
    charges: tuple[tuple[int, dict, int], ...] = ()
    #: ``(IT slot, loop name, max_iter)`` per nested loop.
    loops: tuple[tuple[int, str, int], ...] = ()
    source: str = ""

    def writes(self) -> set:
        """Every ``(space, name)`` this unit's statements write."""
        out: set = set()
        for stmt in self.statements:
            out.update(stmt.vector_writes())
            for name, _tok in stmt.sreg_writes:
                out.add(("scalars", name))
        return out

    def digest(self) -> str:
        """Stable fingerprint of the IR (shape, tables and source).

        Covers everything the verifier's analyses read, so one
        verification acceptance can be memoized per digest: two units
        with equal digests are verdict-equivalent.
        """
        h = hashlib.sha256()
        h.update(self.version.encode())
        h.update(self.tier.encode())
        h.update(str(self.batch).encode())
        h.update(repr(self.lens).encode())
        h.update(repr(self.consts).encode())
        h.update(repr([(c, sorted(bc.items()), n)
                       for c, bc, n in self.charges]).encode())
        h.update(repr(self.loops).encode())
        for stmt in self.statements:
            h.update(repr((stmt.op, stmt.index, stmt.bound,
                           stmt.dst, stmt.srcs, stmt.expr, stmt.text,
                           stmt.lane_bound, stmt.sreg_reads,
                           stmt.lit_reads, stmt.sreg_writes,
                           stmt.len_slots, stmt.instr_index,
                           stmt.matrix, stmt.spmv_shape, stmt.nnz,
                           stmt.charge_slot, stmt.group)).encode())
            for arr in stmt.index_arrays or ():
                h.update(arr.tobytes())
        h.update(self.source.encode())
        return h.hexdigest()
