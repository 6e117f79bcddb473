"""Lowering first-order QP algorithms to the RSQP ISA.

Two algorithms compile onto the same problem-specific datapaths:

* :func:`compile_osqp_program` — OSQP ADMM (Algorithm 1) with the
  inner PCG loop (Algorithm 2), customized against the implicit
  reduced-KKT operator ``K = P + sigma I + A' rho A``;
* :func:`compile_pdqp_program` — restarted Halpern PDHG
  (:mod:`repro.solver.pdqp`), customized directly against the raw
  ``P`` / ``A`` / ``A'`` structures — no KKT system is ever formed.

Both emit the same shape of program:

* prologue — load problem vectors from HBM, initialize state;
* iteration loop(s) — the algorithm body, ending in an on-chip 2-norm
  termination check and a Control exit;
* epilogue — store ``x``, ``y``, ``z`` back to HBM.

Because every instruction's cycle cost is static (it depends only on
vector lengths, the SpMV schedules and the CVB depths), the compiled
program doubles as an exact analytic cost model:
:meth:`CompiledProgram.estimate_cycles` must equal the machine's
measured cycles for given iteration counts — a property the tests
assert.
"""

from __future__ import annotations

from typing import Dict

from .isa import (Control, DataTransfer, Loop, Program, ScalarOp,
                  ScalarOpKind, SpMV, VecDup, VectorOp, VectorOpKind)

__all__ = ["CompiledProgram", "compile_osqp_program",
           "compile_pdqp_program", "StaticCostContext", "attach_costs"]

#: Loop names used in the machine's iteration statistics.
ADMM_LOOP = "admm"
PCG_LOOP = "pcg"
PDHG_LOOP = "pdhg"


class StaticCostContext:
    """Duck-typed 'machine' exposing just what cycle formulas need."""

    def __init__(self, c: int, lengths: dict, spmv: dict, depths: dict):
        self.c = int(c)
        self._lengths = dict(lengths)
        self._spmv = dict(spmv)
        self._depths = dict(depths)

    def vector_length(self, name: str) -> int:
        return self._lengths[name]

    def spmv_cycles(self, matrix: str) -> int:
        return self._spmv[matrix]

    def cvb_depth(self, matrix: str) -> int:
        return self._depths[matrix]


class CompiledProgram:
    """A lowered program plus its static per-section cycle costs.

    Generic over the algorithm: ``section_cycles`` maps section names
    (``"prologue"``, loop bodies, ``"epilogue"``) to their static cost,
    and ``loop_sections`` maps each loop name to the section holding
    its per-iteration body. The legacy ADMM-era field quartet
    (``prologue_cycles`` / ``admm_body_cycles`` / ``pcg_body_cycles`` /
    ``epilogue_cycles``) remains available as read/write properties
    over that table, so existing callers (fault injection, tests)
    keep working.
    """

    def __init__(self, program: Program, context: StaticCostContext,
                 *, algorithm: str = "admm",
                 loop_sections: Dict[str, str] | None = None,
                 section_cycles: Dict[str, int] | None = None):
        self.program = program
        self.context = context
        self.algorithm = algorithm
        #: loop name -> section name of its per-iteration body.
        self.loop_sections = dict(loop_sections or {
            ADMM_LOOP: "admm_body", PCG_LOOP: "pcg_body"})
        self.section_cycles: Dict[str, int] = dict(section_cycles or {})
        #: section name -> instruction list (set by the compile_* fns).
        self._sections: Dict[str, list] = {}

    # -- legacy per-section fields (read/write views) -------------------
    @property
    def prologue_cycles(self) -> int:
        return self.section_cycles.get("prologue", 0)

    @prologue_cycles.setter
    def prologue_cycles(self, value: int) -> None:
        self.section_cycles["prologue"] = value

    @property
    def admm_body_cycles(self) -> int:
        return self.section_cycles.get("admm_body", 0)

    @admm_body_cycles.setter
    def admm_body_cycles(self, value: int) -> None:
        self.section_cycles["admm_body"] = value

    @property
    def pcg_body_cycles(self) -> int:
        return self.section_cycles.get("pcg_body", 0)

    @pcg_body_cycles.setter
    def pcg_body_cycles(self, value: int) -> None:
        self.section_cycles["pcg_body"] = value

    @property
    def epilogue_cycles(self) -> int:
        return self.section_cycles.get("epilogue", 0)

    @epilogue_cycles.setter
    def epilogue_cycles(self, value: int) -> None:
        self.section_cycles["epilogue"] = value

    @property
    def body_section(self) -> str:
        """The outermost iteration loop's body section name (read off
        the program's top-level Loop through ``loop_sections``)."""
        loop = next(item for item in self.program.instructions
                    if isinstance(item, Loop))
        return self.loop_sections[loop.name]

    # -- cost model -----------------------------------------------------
    def estimate_cycles_for(self, iterations: Dict[str, int]) -> int:
        """Exact cycle count given per-loop trip counts (by loop name)."""
        total = (self.section_cycles.get("prologue", 0)
                 + self.section_cycles.get("epilogue", 0))
        for loop_name, trips in iterations.items():
            section = self.loop_sections[loop_name]
            total += trips * self.section_cycles.get(section, 0)
        return total

    def estimate_cycles(self, admm_iterations: int,
                        pcg_iterations: int) -> int:
        """Exact cycle count for given loop trip counts (ADMM programs).

        Kept for the original two-loop signature; PDQP programs use
        :meth:`estimate_cycles_for` with the ``"pdhg"`` loop name.
        """
        return (self.prologue_cycles
                + admm_iterations * self.admm_body_cycles
                + pcg_iterations * self.pcg_body_cycles
                + self.epilogue_cycles)


def _tag_sites(items: list, section: str) -> None:
    """Label instructions with their generating site (frozen-safe).

    The label names the compiler stage that emitted the instruction so
    verifier diagnostics can point at the *source* of a bad instruction
    rather than only its index in the lowered stream. Instructions that
    already carry a finer-grained site (e.g. from ``k_apply``) keep it.
    """
    for index, item in enumerate(items):
        if isinstance(item, Loop):
            continue  # loop bodies carry their own section labels
        if getattr(item, "site", None) is None:
            object.__setattr__(item, "site",
                               f"compiler.{section}[{index}]")


def _section_cycles(items, context) -> int:
    total = 0
    for item in items:
        if isinstance(item, Loop):
            continue  # inner loops are costed separately
        total += item.cycles(context)
    return total


def _termination_check() -> list:
    """The on-chip termination check ending every iteration of both
    algorithms, on ``ax = A x`` and ``z`` (2-norm residuals):

    prim: ||Ax - z|| <= eps_abs sqrt(m) + eps_rel max(||Ax||, ||z||)
    dual: ||Px + q + A'y|| <= eps_abs sqrt(n)
          + eps_rel max(||Px||, ||A'y||, ||q||)

    It leaves ``rp`` / ``rdual`` / ``npz`` / ``nd_all`` in scalar
    registers for the host's between-segment step.
    """
    sc = ScalarOpKind
    vk = VectorOpKind
    return [
        VectorOp(vk.AXPBY, "rp_vec", ("ax", "z"), alpha=1.0, beta=-1.0),
        VectorOp(vk.DOT, "rp2", ("rp_vec", "rp_vec")),
        VectorOp(vk.DOT, "nax2", ("ax", "ax")),
        VectorOp(vk.DOT, "nz2", ("z", "z")),
        ScalarOp(sc.SQRT, "rp", "rp2"),
        ScalarOp(sc.MAX, "npz2", "nax2", "nz2"),
        ScalarOp(sc.SQRT, "npz", "npz2"),
        ScalarOp(sc.MUL, "eps_p_rel", "eps_rel", "npz"),
        ScalarOp(sc.ADD, "eps_p", "eps_abs_m", "eps_p_rel"),
        ScalarOp(sc.DIV, "ratio_p", "rp", "eps_p"),
        VecDup("x", "P"),
        SpMV("P", "P", "px"),
        VecDup("y", "At"),
        SpMV("At", "At", "aty"),
        VectorOp(vk.AXPBY, "rd_tmp", ("px", "aty"), alpha=1.0, beta=1.0),
        VectorOp(vk.AXPBY, "rd_vec", ("rd_tmp", "q"), alpha=1.0, beta=1.0),
        VectorOp(vk.DOT, "rdual2", ("rd_vec", "rd_vec")),
        VectorOp(vk.DOT, "npx2", ("px", "px")),
        VectorOp(vk.DOT, "naty2", ("aty", "aty")),
        ScalarOp(sc.SQRT, "rdual", "rdual2"),
        ScalarOp(sc.MAX, "nd2", "npx2", "naty2"),
        ScalarOp(sc.SQRT, "nd", "nd2"),
        ScalarOp(sc.MAX, "nd_all", "nd", "nq"),
        ScalarOp(sc.MUL, "eps_d_rel", "eps_rel", "nd_all"),
        ScalarOp(sc.ADD, "eps_d", "eps_abs_n", "eps_d_rel"),
        ScalarOp(sc.DIV, "ratio_d", "rdual", "eps_d"),
        ScalarOp(sc.MAX, "worst", "ratio_p", "ratio_d"),
        Control("worst", "one"),
    ]


def _assemble(algorithm: str, loop: Loop, sections: Dict[str, list],
              loop_sections: Dict[str, str],
              lengths: Dict[str, int]) -> CompiledProgram:
    """Prologue + iteration loop + the shared epilogue, as a program.

    Cost context placeholders; the accelerator fills in real schedule
    numbers. Default zero costs keep the context usable standalone.
    """
    epilogue = [DataTransfer("store", name) for name in ("x", "y", "z")]
    program = Program(sections["prologue"] + [loop] + epilogue)
    context = StaticCostContext(c=1, lengths=lengths,
                                spmv={"P": 0, "A": 0, "At": 0},
                                depths={"P": 0, "A": 0, "At": 0})
    compiled = CompiledProgram(program=program, context=context,
                               algorithm=algorithm,
                               loop_sections=loop_sections)
    compiled._sections = {**sections, "epilogue": epilogue}
    for name, items in compiled._sections.items():
        _tag_sites(items, name)
        compiled.section_cycles[name] = _section_cycles(items, context)
    return compiled


def compile_osqp_program(n: int, m: int, *, max_admm_iter: int,
                         max_pcg_iter: int) -> CompiledProgram:
    """Build the OSQP-on-RSQP instruction stream for an (n, m) problem.

    The host is expected to preload HBM with the scaled problem vectors
    (``q``, ``l``, ``u``, ``rho``, ``rho_inv``, ``minv``, initial ``x``,
    ``z``, ``y``) and the scalar registers (``sigma``, ``alpha_relax``,
    tolerance constants) — see
    :class:`repro.hw.accelerator.RSQPAccelerator`.
    """
    sc = ScalarOpKind
    vk = VectorOpKind

    prologue = []
    for name in ("q", "l", "u", "rho", "rho_inv", "minv", "x", "z", "y"):
        prologue.append(DataTransfer("load", name))
    # Warm-start buffer for PCG and an initial search state.
    prologue.append(VectorOp(vk.COPY, "xt", ("x",)))

    # ---- PCG body (Algorithm 2, one iteration) ------------------------
    def k_apply(src: str, dst: str) -> list:
        """dst = K src = P src + sigma src + A' (rho o (A src))."""
        items = [
            VecDup(src, "P"),
            SpMV("P", "P", "kp_p"),
            VecDup(src, "A"),
            SpMV("A", "A", "kp_a"),
            VectorOp(vk.EWMUL, "kp_ra", ("rho", "kp_a")),
            VecDup("kp_ra", "At"),
            SpMV("At", "At", "kp_at"),
            VectorOp(vk.AXPBY, "kp_tmp", ("kp_p", src),
                     alpha=1.0, beta="sigma"),
            VectorOp(vk.AXPBY, dst, ("kp_tmp", "kp_at"),
                     alpha=1.0, beta=1.0),
        ]
        _tag_sites(items, f"k_apply({src}->{dst})")
        return items

    # The loop-exit Control sits at the *end* of the body so a completed
    # trip always costs the same — that keeps the static cost model
    # exact. Divisions are guarded with max(., tiny) so a converged
    # (zero-residual) state coasts through one final harmless trip
    # instead of dividing 0/0.
    pcg_body = []
    pcg_body += k_apply("p", "kp")
    pcg_body += [
        VectorOp(vk.DOT, "pkp", ("p", "kp")),
        ScalarOp(sc.MAX, "pkp_safe", "pkp", "tiny"),
        ScalarOp(sc.DIV, "lam", "rd", "pkp_safe"),
        VectorOp(vk.SCALE_ADD, "xt", ("xt", "p"), alpha="lam"),
        VectorOp(vk.SCALE_ADD, "r", ("r", "kp"), alpha="lam"),
        VectorOp(vk.DOT, "rn2", ("r", "r")),
        VectorOp(vk.EWMUL, "d", ("minv", "r")),
        VectorOp(vk.DOT, "rd_new", ("r", "d")),
        ScalarOp(sc.MAX, "rd_safe", "rd", "tiny"),
        ScalarOp(sc.DIV, "mu", "rd_new", "rd_safe"),
        ScalarOp(sc.MOV, "rd", "rd_new"),
        VectorOp(vk.AXPBY, "p", ("d", "p"), alpha=-1.0, beta="mu"),
        Control("rn2", "pcg_thresh"),
    ]

    # ---- ADMM body (Algorithm 1, one iteration) ------------------------
    admm_body = []
    # rhs = sigma x - q + A'(rho o z - y)
    admm_body += [
        VectorOp(vk.EWMUL, "rz", ("rho", "z")),
        VectorOp(vk.AXPBY, "rzy", ("rz", "y"), alpha=1.0, beta=-1.0),
        VecDup("rzy", "At"),
        SpMV("At", "At", "atrzy"),
        VectorOp(vk.AXPBY, "sxq", ("x", "q"), alpha="sigma", beta=-1.0),
        VectorOp(vk.AXPBY, "rhs", ("sxq", "atrzy"), alpha=1.0, beta=1.0),
    ]
    # PCG init: r = K xt - rhs; d = minv o r; p = -d; rd = <r, d>;
    # threshold = eps_pcg^2 * <rhs, rhs>.
    admm_body += k_apply("xt", "kx")
    admm_body += [
        VectorOp(vk.AXPBY, "r", ("kx", "rhs"), alpha=1.0, beta=-1.0),
        VectorOp(vk.EWMUL, "d", ("minv", "r")),
        VectorOp(vk.AXPBY, "p", ("d", "d"), alpha=-1.0, beta=0.0),
        VectorOp(vk.DOT, "rd", ("r", "d")),
        VectorOp(vk.DOT, "bb", ("rhs", "rhs")),
        ScalarOp(sc.MUL, "pcg_thresh", "pcg_eps2", "bb"),
        Loop(body=pcg_body, max_iter=max_pcg_iter, name=PCG_LOOP),
    ]
    # z_tilde = A xt
    admm_body += [
        VecDup("xt", "A"),
        SpMV("A", "A", "zt"),
    ]
    # Relaxation, projection, dual update.
    admm_body += [
        VectorOp(vk.AXPBY, "x_new", ("xt", "x"),
                 alpha="alpha_relax", beta="one_m_alpha"),
        VectorOp(vk.AXPBY, "z_relax", ("zt", "z"),
                 alpha="alpha_relax", beta="one_m_alpha"),
        VectorOp(vk.EWMUL, "riy", ("rho_inv", "y")),
        VectorOp(vk.AXPBY, "z_arg", ("z_relax", "riy"),
                 alpha=1.0, beta=1.0),
        VectorOp(vk.CLIP, "z_new", ("z_arg", "l", "u")),
        VectorOp(vk.AXPBY, "dz", ("z_relax", "z_new"),
                 alpha=1.0, beta=-1.0),
        VectorOp(vk.EWMUL, "rdz", ("rho", "dz")),
        VectorOp(vk.AXPBY, "y", ("y", "rdz"), alpha=1.0, beta=1.0),
        VectorOp(vk.COPY, "x", ("x_new",)),
        VectorOp(vk.COPY, "z", ("z_new",)),
    ]
    admm_body += [
        VecDup("x", "A"),
        SpMV("A", "A", "ax"),
    ] + _termination_check()

    return _assemble(
        "admm", Loop(body=admm_body, max_iter=max_admm_iter,
                     name=ADMM_LOOP),
        {"prologue": prologue, "admm_body": admm_body,
         "pcg_body": pcg_body},
        {ADMM_LOOP: "admm_body", PCG_LOOP: "pcg_body"},
        _vector_lengths(n, m))


def compile_pdqp_program(n: int, m: int, *,
                         max_iter: int) -> CompiledProgram:
    """Build the PDQP-on-RSQP instruction stream for an (n, m) problem.

    One Halpern-anchored PDHG iteration per loop trip, built entirely
    from SpMV (on the raw ``P``/``A``/``A'`` structures), AXPBY, CLIP
    and DOT — no KKT operator. The host preloads HBM with the scaled
    vectors (``q``, ``l``, ``u``, iterates ``x``, ``y`` and the Halpern
    anchors ``x0``, ``y0``) and the scalar registers (step sizes
    ``neg_tau``/``sigma``/``sigma_inv``/``neg_sigma``, the Halpern
    counter ``hk``, tolerance constants) — see
    :class:`repro.hw.pdqp.PDQPAccelerator`. Restarts are host-driven
    between loop segments (anchor refresh + ``hk`` reset), mirroring
    how the ADMM accelerator drives rho updates.
    """
    sc = ScalarOpKind
    vk = VectorOpKind

    prologue = []
    for name in ("q", "l", "u", "x", "y", "x0", "y0"):
        prologue.append(DataTransfer("load", name))
    # The loop body maintains px = P x and aty = A' y for the *next*
    # trip (they fall out of the residual evaluation); seed them here.
    prologue += [
        VecDup("x", "P"),
        SpMV("P", "P", "px"),
        VecDup("y", "At"),
        SpMV("At", "At", "aty"),
    ]

    pdhg_body = []
    # Linearized primal step: xp = x - tau (P x + q + A' y).
    pdhg_body += [
        VectorOp(vk.AXPBY, "g_tmp", ("px", "aty"), alpha=1.0, beta=1.0),
        VectorOp(vk.AXPBY, "grad", ("g_tmp", "q"), alpha=1.0, beta=1.0),
        VectorOp(vk.AXPBY, "xp", ("x", "grad"), alpha=1.0, beta="neg_tau"),
        VectorOp(vk.AXPBY, "xb", ("xp", "x"), alpha=2.0, beta=-1.0),
    ]
    # Dual step: y+ = v - sigma clip(v / sigma, l, u), v = y + sigma A xb.
    pdhg_body += [
        VecDup("xb", "A"),
        SpMV("A", "A", "axb"),
        VectorOp(vk.AXPBY, "v", ("y", "axb"), alpha=1.0, beta="sigma"),
        VectorOp(vk.AXPBY, "vs", ("v", "v"), alpha="sigma_inv", beta=0.0),
        VectorOp(vk.CLIP, "zc", ("vs", "l", "u")),
        VectorOp(vk.AXPBY, "yp", ("v", "zc"), alpha=1.0, beta="neg_sigma"),
    ]
    # Halpern anchoring: lam = 1 / hk with hk = k + 2; then
    # (x, y) = lam (x0, y0) + (1 - lam) (x+, y+).
    pdhg_body += [
        ScalarOp(sc.DIV, "lam", "one", "hk"),
        ScalarOp(sc.SUB, "one_m_lam", "one", "lam"),
        ScalarOp(sc.ADD, "hk", "hk", "one"),
        VectorOp(vk.AXPBY, "x", ("x0", "xp"), alpha="lam",
                 beta="one_m_lam"),
        VectorOp(vk.AXPBY, "y", ("y0", "yp"), alpha="lam",
                 beta="one_m_lam"),
    ]
    # Termination check on z = clip(Ax, l, u); its Px / A'y products
    # double as next trip's gradient inputs.
    pdhg_body += [
        VecDup("x", "A"),
        SpMV("A", "A", "ax"),
        VectorOp(vk.CLIP, "z", ("ax", "l", "u")),
    ] + _termination_check()

    return _assemble(
        "pdqp", Loop(body=pdhg_body, max_iter=max_iter, name=PDHG_LOOP),
        {"prologue": prologue, "pdhg_body": pdhg_body},
        {PDHG_LOOP: "pdhg_body"}, _pdqp_vector_lengths(n, m))


def attach_costs(compiled: CompiledProgram, c: int, spmv: dict,
                 depths: dict, n: int, m: int) -> CompiledProgram:
    """Install real cycle costs (from a customization) into the program.

    The vector-length table comes from the program's own context (set
    at compile time, per algorithm); ``n``/``m`` are accepted for
    interface stability and cross-checked against it.
    """
    lengths = compiled.context._lengths
    if lengths.get("q") not in (None, n) or lengths.get("l") not in (None, m):
        raise ValueError(
            f"attach_costs: program was compiled for "
            f"(n={lengths.get('q')}, m={lengths.get('l')}), "
            f"got (n={n}, m={m})")
    context = StaticCostContext(c=c, lengths=lengths,
                                spmv=spmv, depths=depths)
    compiled.context = context
    for name, items in compiled._sections.items():
        compiled.section_cycles[name] = _section_cycles(items, context)
    return compiled


def _vector_lengths(n: int, m: int) -> dict:
    n_vectors = ("q", "x", "xt", "p", "d", "r", "kp", "kx", "kp_p",
                 "kp_at", "kp_tmp", "rhs", "sxq", "atrzy", "x_new", "px",
                 "aty", "rd_tmp", "rd_vec")
    m_vectors = ("l", "u", "rho", "rho_inv", "z", "y", "zt", "kp_a",
                 "kp_ra", "rz", "rzy", "z_relax", "riy", "z_arg", "z_new",
                 "dz", "rdz", "ax", "rp_vec")
    lengths = {name: n for name in n_vectors}
    lengths.update({name: m for name in m_vectors})
    lengths["minv"] = n
    return lengths


def _pdqp_vector_lengths(n: int, m: int) -> dict:
    n_vectors = ("q", "x", "x0", "xp", "xb", "g_tmp", "grad", "px",
                 "aty", "rd_tmp", "rd_vec")
    m_vectors = ("l", "u", "y", "y0", "axb", "v", "vs", "zc", "yp",
                 "ax", "z", "rp_vec")
    lengths: Dict[str, int] = {name: n for name in n_vectors}
    lengths.update({name: m for name in m_vectors})
    return lengths
