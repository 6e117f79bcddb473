"""Pass 1: static verification of RSQP ISA programs.

The verifier walks the structured program (a straight-line prologue
plus a loop nest, the same shape the interpreter executes) and checks,
without running anything:

* **def-before-use** — every scalar register, vector buffer, and CVB
  bank is written before it is read, starting from the host's download
  contract (which HBM vectors and scalar registers the host provides);
* **ScalarOp arity** — binary ops carry ``src2``, unary ops don't.
  Construction already validates this, but decoded or mutated
  artifacts bypass ``__post_init__``, so the invariant is re-checked
  on the artifact itself;
* **loop-exit reachability** — a ``Control`` must sit inside a loop;
  a loop should contain one (else it can only terminate by exhausting
  ``max_iter``); and the exit condition should be recomputed inside
  the loop body (a loop-invariant condition either fires on iteration
  one or never);
* **unreachable code** — loops with ``max_iter < 1`` never run their
  bodies;
* **fusion RAW hazards** — inside each vector window (a maximal
  straight-line run of two or more vector-engine instructions:
  ``VecDup``, ``SpMV`` and the lane-wise vector ops of
  :data:`_WINDOW_VECTOR_OPS`, broken by any scalar op, transfer,
  ``CLIP``, ``Control`` or loop), an ``SpMV`` must not read a CVB bank
  that is only duplicated *later* in the window: on a first iteration
  the bank is missing (interpreter crash), on later iterations the
  SpMV silently consumes the previous iteration's stale duplicate, on
  every backend alike.

Loop bodies are analyzed against their *first-iteration* entry state,
the conservative choice: anything a later iteration could rely on must
already be defined on the first trip. Definitions that survive a loop
are those made before the loop's first ``Control`` — the earliest
point an iteration can exit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw import accelerator_class
from ..hw.card import MATRICES
from ..hw.isa import (BINARY_SCALAR_OPS, Control, DataTransfer, Loop,
                      Program, ScalarOp, SpMV, VecDup, VectorOp,
                      VectorOpKind)
from .diagnostics import Location, VerificationReport

__all__ = ["ProgramContract", "accelerator_contract", "verify_program"]

#: Required source counts per vector op (the machine indexes srcs).
_VECTOR_ARITY = {
    VectorOpKind.AXPBY: 2,
    VectorOpKind.EWMUL: 2,
    VectorOpKind.CLIP: 3,
    VectorOpKind.DOT: 2,
    VectorOpKind.COPY: 1,
    VectorOpKind.SCALE_ADD: 2,
}

#: Lane-wise vector ops that extend a vector window (see the module
#: docstring); ``CLIP`` ends one.
_WINDOW_VECTOR_OPS = frozenset({
    VectorOpKind.AXPBY, VectorOpKind.EWMUL, VectorOpKind.SCALE_ADD,
    VectorOpKind.COPY, VectorOpKind.DOT,
})


@dataclass(frozen=True)
class ProgramContract:
    """What the host provides before the program starts.

    ``hbm``
        Vector names resident in HBM when execution begins (the host
        download).
    ``scalars``
        Scalar registers the host initializes.
    ``matrices``
        Streamed-matrix names; each owns a CVB bank group and may be
        named by ``SpMV``/``VecDup``.
    """

    hbm: frozenset = frozenset()
    scalars: frozenset = frozenset()
    matrices: frozenset = frozenset()


def contract_for_algorithm(algorithm: str) -> ProgramContract:
    """The download contract declared on ``algorithm``'s accelerator
    class: the vectors its ``_download`` writes to HBM and the scalar
    registers it sets before the program runs."""
    cls = accelerator_class(algorithm)
    return ProgramContract(hbm=cls.download_hbm,
                           scalars=cls.download_scalars,
                           matrices=frozenset(MATRICES))


def accelerator_contract() -> ProgramContract:
    """The download contract of :class:`repro.hw.RSQPAccelerator`."""
    return contract_for_algorithm("admm")


def pdqp_contract() -> ProgramContract:
    """The download contract of :class:`repro.hw.PDQPAccelerator`."""
    return contract_for_algorithm("pdqp")


@dataclass
class _State:
    """Definedness environment at one program point."""

    scalars: set
    vb: set
    cvb: set
    hbm: set

    def copy(self) -> "_State":
        return _State(set(self.scalars), set(self.vb), set(self.cvb),
                      set(self.hbm))

    def vec_defined(self, name: str) -> bool:
        """Matches ``Machine._vector``: VB first, then CVB."""
        return name in self.vb or name in self.cvb


class _ProgramChecker:
    def __init__(self, contract: ProgramContract,
                 artifact: str) -> None:
        self.contract = contract
        self.artifact = artifact
        self.report = VerificationReport(subject=artifact,
                                         passes=["program"])

    # -- helpers --------------------------------------------------------
    def _loc(self, path: str, instr: object = None) -> Location:
        return Location(self.artifact, path,
                        getattr(instr, "site", None))

    def _read_scalar(self, ref: object, state: _State, path: str,
                     instr: object, role: str) -> None:
        if not isinstance(ref, str):
            return  # numeric literal
        if ref not in state.scalars:
            self.report.error(
                "use-before-def",
                f"scalar register {ref!r} read as {role} before any "
                f"definition",
                self._loc(path, instr),
                hint="initialize the register in the host contract or "
                     "with an earlier ScalarOp/DOT")

    def _read_vector(self, name: str, state: _State, path: str,
                     instr: object, role: str) -> None:
        if not state.vec_defined(name):
            self.report.error(
                "use-before-def",
                f"vector buffer {name!r} read as {role} before any "
                f"definition",
                self._loc(path, instr),
                hint="load the vector from HBM or compute it before "
                     "this instruction")

    # -- block walk -----------------------------------------------------
    def check_program(self, program: Program,
                      state: _State) -> VerificationReport:
        self._check_block(program.instructions, state, trail="",
                          loop_depth=0)
        self._scan_vector_windows(program.instructions, trail="")
        return self.report

    def _check_block(self, items: list, state: _State, trail: str,
                     loop_depth: int) -> None:
        for index, item in enumerate(items):
            path = f"{trail}[{index}]"
            if isinstance(item, Loop):
                self._check_loop(item, state, path, loop_depth)
            else:
                self._check_instruction(item, state, path, loop_depth)

    def _check_loop(self, loop: Loop, state: _State, path: str,
                    loop_depth: int) -> None:
        trail = f"{path}.{loop.name}" if loop.name else path
        loc = Location(self.artifact, trail)
        if loop.max_iter < 1:
            self.report.warning(
                "unreachable-code",
                f"loop {loop.name!r} has max_iter={loop.max_iter}; its "
                f"body never executes",
                loc, hint="remove the loop or give it a positive bound")
            return  # body contributes nothing; don't analyze defs
        if not loop.body:
            self.report.warning(
                "empty-loop",
                f"loop {loop.name!r} has an empty body", loc)
            return

        controls = [it for it in loop.body if isinstance(it, Control)]
        if not controls:
            self.report.warning(
                "no-loop-exit",
                f"loop {loop.name!r} contains no Control at its own "
                f"level; it can only terminate by exhausting "
                f"max_iter={loop.max_iter}",
                loc, hint="add a Control exit test to the loop body")
        else:
            body_scalar_defs = _scalar_defs(loop.body)
            for control in controls:
                invariant = (control.reg not in body_scalar_defs
                             and (not isinstance(control.threshold_reg,
                                                 str)
                                  or control.threshold_reg
                                  not in body_scalar_defs))
                if invariant:
                    self.report.warning(
                        "static-exit-condition",
                        f"loop {loop.name!r} exit condition "
                        f"({control.reg!r} < "
                        f"{control.threshold_reg!r}) is never "
                        f"recomputed inside the loop; it either fires "
                        f"on the first iteration or never",
                        self._loc(path, control),
                        hint="recompute the residual register inside "
                             "the loop body")

        # Analyze the body against first-iteration entry state.
        body_state = state.copy()
        # Record defs visible after the earliest possible exit: those
        # made before the first same-level Control.
        guaranteed: _State | None = None
        for index, item in enumerate(loop.body):
            item_path = f"{trail}[{index}]"
            if guaranteed is None and isinstance(item, Control):
                guaranteed = body_state.copy()
            if isinstance(item, Loop):
                self._check_loop(item, body_state, item_path,
                                 loop_depth + 1)
            else:
                self._check_instruction(item, body_state, item_path,
                                        loop_depth + 1)
        if guaranteed is None:
            guaranteed = body_state  # no exit: full body always runs
        state.scalars |= guaranteed.scalars
        state.vb |= guaranteed.vb
        state.cvb |= guaranteed.cvb
        state.hbm |= guaranteed.hbm

    def _check_instruction(self, instr: object, state: _State, path: str,
                           loop_depth: int) -> None:
        if isinstance(instr, ScalarOp):
            self._check_scalar_op(instr, state, path)
        elif isinstance(instr, VectorOp):
            self._check_vector_op(instr, state, path)
        elif isinstance(instr, DataTransfer):
            self._check_transfer(instr, state, path)
        elif isinstance(instr, VecDup):
            self._check_vecdup(instr, state, path)
        elif isinstance(instr, SpMV):
            self._check_spmv(instr, state, path)
        elif isinstance(instr, Control):
            if loop_depth == 0:
                self.report.error(
                    "control-outside-loop",
                    "Control has no enclosing loop to exit",
                    self._loc(path, instr),
                    hint="wrap the exit test in a Loop")
            self._read_scalar(instr.reg, state, path, instr,
                              "exit-test value")
            self._read_scalar(instr.threshold_reg, state, path, instr,
                              "exit-test threshold")
        else:
            self.report.error(
                "unknown-instruction",
                f"unrecognized instruction {instr!r}",
                self._loc(path, instr))

    def _check_scalar_op(self, instr: ScalarOp, state: _State,
                         path: str) -> None:
        if instr.op in BINARY_SCALAR_OPS:
            if instr.src2 is None:
                self.report.error(
                    "scalar-arity",
                    f"binary scalar op {instr.op.value!r} is missing "
                    f"src2",
                    self._loc(path, instr),
                    hint="binary ops (add/sub/mul/div/max) take two "
                         "operands")
        elif instr.src2 is not None:
            self.report.error(
                "scalar-arity",
                f"unary scalar op {instr.op.value!r} carries a spurious "
                f"src2 ({instr.src2!r})",
                self._loc(path, instr),
                hint="unary ops (mov/sqrt) take a single operand")
        self._read_scalar(instr.src1, state, path, instr, "src1")
        if instr.src2 is not None:
            self._read_scalar(instr.src2, state, path, instr, "src2")
        state.scalars.add(instr.dst)

    def _check_vector_op(self, instr: VectorOp, state: _State,
                         path: str) -> None:
        expected = _VECTOR_ARITY.get(instr.op)
        if expected is None:
            self.report.error(
                "unknown-instruction",
                f"unknown vector op {instr.op!r}", self._loc(path, instr))
            return
        if len(instr.srcs) != expected:
            self.report.error(
                "vector-arity",
                f"vector op {instr.op.value!r} takes {expected} "
                f"source(s), got {len(instr.srcs)}",
                self._loc(path, instr))
        if instr.op is VectorOpKind.AXPBY and (instr.alpha is None
                                               or instr.beta is None):
            self.report.error(
                "missing-coefficient",
                "axpby requires both alpha and beta",
                self._loc(path, instr))
        if instr.op is VectorOpKind.SCALE_ADD and instr.alpha is None:
            self.report.error(
                "missing-coefficient",
                "scale_add requires alpha", self._loc(path, instr))
        for src in instr.srcs:
            self._read_vector(src, state, path, instr, "source")
        self._read_scalar(instr.alpha, state, path, instr, "alpha")
        self._read_scalar(instr.beta, state, path, instr, "beta")
        if instr.op is VectorOpKind.DOT:
            state.scalars.add(instr.dst)
        else:
            state.vb.add(instr.dst)

    def _check_transfer(self, instr: DataTransfer, state: _State,
                        path: str) -> None:
        if instr.direction == "load":
            if instr.name not in state.hbm:
                self.report.error(
                    "use-before-def",
                    f"load of HBM vector {instr.name!r} which the host "
                    f"contract does not provide and no store produced",
                    self._loc(path, instr),
                    hint="add the vector to the host download or store "
                         "it first")
            state.vb.add(instr.name)
        elif instr.direction == "store":
            self._read_vector(instr.name, state, path, instr,
                              "store source")
            state.hbm.add(instr.name)
        else:
            self.report.error(
                "bad-transfer-direction",
                f"transfer direction must be 'load' or 'store', got "
                f"{instr.direction!r}",
                self._loc(path, instr))

    def _check_vecdup(self, instr: VecDup, state: _State,
                      path: str) -> None:
        self._read_vector(instr.src, state, path, instr,
                          "duplication source")
        if instr.cvb not in self.contract.matrices:
            self.report.error(
                "unknown-cvb-bank",
                f"VecDup targets CVB bank {instr.cvb!r} but no streamed "
                f"matrix of that name exists (cycle cost is undefined)",
                self._loc(path, instr),
                hint=f"known banks: "
                     f"{sorted(self.contract.matrices)}")
        state.cvb.add(instr.cvb)

    def _check_spmv(self, instr: SpMV, state: _State, path: str) -> None:
        if instr.matrix not in self.contract.matrices:
            self.report.error(
                "unknown-matrix",
                f"SpMV names streamed matrix {instr.matrix!r} which the "
                f"machine does not hold",
                self._loc(path, instr),
                hint=f"known matrices: {sorted(self.contract.matrices)}")
        if instr.src in state.cvb:
            pass
        elif instr.src in state.vb:
            self.report.error(
                "spmv-src-not-in-cvb",
                f"SpMV source {instr.src!r} lives in the vector buffers; "
                f"the SpMV engine reads only CVB banks",
                self._loc(path, instr),
                hint="duplicate the vector into the bank with VecDup "
                     "first")
        else:
            self.report.error(
                "use-before-def",
                f"SpMV source bank {instr.src!r} read before any VecDup "
                f"populated it",
                self._loc(path, instr),
                hint="emit VecDup into the bank before the SpMV")
        state.vb.add(instr.dst)

    # -- vector-window hazard scan --------------------------------------
    def _scan_vector_windows(self, items: list, trail: str) -> None:
        run: list = []  # (index, instr) pairs of the current window
        for index, item in enumerate(items):
            if isinstance(item, Loop):
                self._flush_window(run, trail)
                run = []
                self._scan_vector_windows(
                    item.body,
                    f"{trail}[{index}].{item.name}" if item.name
                    else f"{trail}[{index}]")
            elif self._window_candidate(item):
                run.append((index, item))
            else:
                self._flush_window(run, trail)
                run = []
        self._flush_window(run, trail)

    def _window_candidate(self, instr: object) -> bool:
        """True when ``instr`` extends the current vector window: a
        VecDup, a window vector op, or an SpMV of a contract matrix."""
        if isinstance(instr, VecDup):
            return True
        if isinstance(instr, VectorOp):
            return instr.op in _WINDOW_VECTOR_OPS
        if isinstance(instr, SpMV):
            return instr.matrix in self.contract.matrices
        return False

    def _flush_window(self, run: list, trail: str) -> None:
        if len(run) < 2:
            return  # a hazard needs a VecDup and an SpMV
        dup_positions: dict[str, list[int]] = {}
        for pos, (_, instr) in enumerate(run):
            if isinstance(instr, VecDup):
                dup_positions.setdefault(instr.cvb, []).append(pos)
        for pos, (index, instr) in enumerate(run):
            if not isinstance(instr, SpMV):
                continue
            positions = dup_positions.get(instr.src, [])
            written_before = any(p < pos for p in positions)
            written_after = any(p > pos for p in positions)
            if written_after and not written_before:
                self.report.error(
                    "fusion-raw-hazard",
                    f"SpMV reads CVB bank {instr.src!r} before the "
                    f"VecDup that populates it in the same vector "
                    f"window; the multiply would consume a stale "
                    f"duplicate from a previous iteration (or crash "
                    f"on the first)",
                    self._loc(f"{trail}[{index}]", instr),
                    hint="move the VecDup ahead of the SpMV")

    # ------------------------------------------------------------------


def _scalar_defs(items: list) -> set:
    """All scalar registers written anywhere inside ``items``."""
    defs: set = set()
    for item in items:
        if isinstance(item, Loop):
            defs |= _scalar_defs(item.body)
        elif isinstance(item, ScalarOp):
            defs.add(item.dst)
        elif (isinstance(item, VectorOp)
              and item.op is VectorOpKind.DOT):
            defs.add(item.dst)
    return defs


def verify_program(program: Program,
                   contract: ProgramContract | None = None,
                   *, artifact: str = "program") -> VerificationReport:
    """Statically verify an ISA program against a host contract.

    Returns a :class:`VerificationReport`; the program is safe to
    execute (under this contract) when ``report.ok``.
    """
    if contract is None:
        contract = accelerator_contract()
    checker = _ProgramChecker(contract, artifact)
    state = _State(scalars=set(contract.scalars), vb=set(),
                   cvb=set(), hbm=set(contract.hbm))
    return checker.check_program(program, state)
