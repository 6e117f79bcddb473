"""Optional C kernel layer for the functional simulator (cffi + cc).

The compiled backends (:mod:`repro.hw.compiled`,
:mod:`repro.hw.batched`) lower a whole loop body into a single C
function, so the per-solve hot loop pays one foreign call instead of
one Python dispatch per instruction. This module owns the build
machinery:

* :func:`available` — probe once whether a working C toolchain exists.
* :func:`engine` — the process-wide generic kernel library
  (``k_csr_matvec[_batch]``, ``k_dot[_batch]``), which
  :mod:`repro.sparse.kernels` calls for every SpMV and DOT when it is
  available; ``k_ruiz``, the whole modified Ruiz iteration that
  :mod:`repro.qp.scaling` runs in one call for a solo or a batched
  refresh; and ``k_power``, the power iteration behind PDQP's step
  sizes, which :mod:`repro.solver.host` runs in one call for every
  lane of a load.
* :func:`compile_module` — hash-addressed, disk-cached compilation of
  generated loop sources (same source is compiled at most once per
  cache directory and target, ever; see :func:`module_dir`).

Bit-exactness contract: kernels are compiled with ``-O3
-ffp-contract=off`` (plus ``-march=native`` when the toolchain accepts
it) and no fast-math, so elementwise float64
expressions evaluate exactly like the equivalent numpy ufunc sequence
(IEEE-754 operations are order-free per element, and contraction into
FMA is disabled), and reduction loops stay strictly sequential (the
compiler may not reassociate floating-point addition). The CSR matvec
accumulates each row left to right — the same order as the SpMV
engine's per-chunk MAC accumulation, which makes the machine's SpMV
numerics engine-faithful when the JIT is active; ``k_power`` sums
through the batched matvec and dot themselves. ``k_ruiz`` is the one
exception to sequential sums: its cost mean ports numpy's pairwise
order, because it must match ``np.add.reduce`` in the numpy Ruiz.

Everything degrades gracefully: no compiler, an unwritable cache
directory, or ``REPRO_JIT=0`` in the environment simply means
:func:`available` returns False. Nothing fuses, and
:mod:`repro.sparse.kernels`, :mod:`repro.qp.scaling` and
:mod:`repro.solver.host` run their numpy implementations, which sum in
the same orders, so the bits do not change.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from typing import Any, Sequence

__all__ = ["available", "engine", "compile_module", "CSR_MATVEC_BODY",
           "DOT_BODY", "CODEGEN_VERSION", "cache_dir", "module_dir"]

#: Canonical CSR row-sum loop. Loop codegen embeds this exact shape so
#: an SpMV fused into a loop produces the same bits as the engine
#: library's ``k_csr_matvec`` (sequential accumulation may not be
#: reassociated by the compiler, so the source shape pins the result).
CSR_MATVEC_BODY = """\
    for (long r = 0; r < nrows; ++r) {
        double acc = 0.0;
        for (long k = ip[r]; k < ip[r + 1]; ++k)
            acc += val[k] * x[col[k]];
        y[r] = acc;
    }
"""

#: Canonical dot-product loop (strictly sequential, left to right).
#: Both backends route DOT through ``k_dot`` when the JIT is active, and
#: loop codegen embeds this exact shape (one lane) or its lane-minor
#: form (``k_dot_batch``), so a DOT fused into a loop produces the same
#: bits as the engine library call (and as the numpy fallback of
#: :mod:`repro.sparse.kernels`). A one-lane unit runs a group of DOTs
#: of one length as one loop with one such accumulator per DOT.
DOT_BODY = """\
    double acc = 0.0;
    for (long i = 0; i < n; ++i)
        acc += a[i] * b[i];
"""

# The modified Ruiz iteration of :mod:`repro.qp.scaling` (its numpy
# implementation, ``numpy_ruiz``, is the reference), lane-minor like
# the batched kernels, so ``batch == 1`` is the solo call. Maxima are
# ``np.maximum``/``np.minimum`` written out (a NaN on either side
# wins; C's ``fmax`` would drop it), and ``fmax`` appears only where
# numpy uses ``np.fmax``: the ``||q||_inf`` guard, where a NaN lane
# counts as 0. The cost mean is not a sequential sum: numpy reduces
# each lane's contiguous row of P's column norms with ``np.add.reduce``,
# which is ``0.0 + pairwise(row)`` — below 8 entries a loop from
# ``-0.0``, up to 128 eight accumulators combined in a fixed tree and
# then the tail, above that a split at ``n/2 - (n/2) % 8``.
# ``k_pairwise_sum`` is that order with stride ``batch``.
_RUIZ_SOURCE = """
#include <math.h>

static inline double k_maximum(double a, double b)
{
    return (a >= b || a != a) ? a : b;
}

static inline double k_minimum(double a, double b)
{
    return (a <= b || a != a) ? a : b;
}

static double k_pairwise_sum(const double *a, long n, long stride)
{
    if (n < 8) {
        double res = -0.0;
        for (long i = 0; i < n; ++i)
            res += a[i * stride];
        return res;
    }
    if (n <= 128) {
        double r[8];
        long i;
        for (long j = 0; j < 8; ++j)
            r[j] = a[j * stride];
        for (i = 8; i < n - (n % 8); i += 8)
            for (long j = 0; j < 8; ++j)
                r[j] += a[(i + j) * stride];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                     + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; ++i)
            res += a[i * stride];
        return res;
    }
    long n2 = n / 2;
    n2 -= n2 % 8;
    return k_pairwise_sum(a, n2, stride)
           + k_pairwise_sum(a + n2 * stride, n - n2, stride);
}

/* In place on vals (nnz: P's entries, then A's) and q (n); fills
 * de = [d, e] (n + m) and the cost scale c (one per lane). rid maps an
 * entry to its row factor in de (A's rows offset by n), cid to its
 * column. work holds (2n + m + 1) * batch doubles. */
void k_ruiz(double *vals, double *q, double *de, double *c,
            const long *rid, const long *cid, long n, long m, long nnz_p,
            long nnz, long batch, long iterations, double lo, double hi,
            double *work)
{
    const long nm = (n + m) * batch;
    double * restrict v = vals;
    double * restrict qq = q;
    double * restrict ext = work;
    double * restrict pn = work + nm;
    double * restrict gamma = pn + n * batch;
    for (long i = 0; i < nm; ++i)
        de[i] = 1.0;
    for (long b = 0; b < batch; ++b)
        c[b] = 1.0;
    for (long it = 0; it < iterations; ++it) {
        /* Column infinity norms of [[P, A'], [A, 0]]: the first n
         * columns see P's and A's columns, the last m A's rows. */
        for (long i = 0; i < nm; ++i)
            ext[i] = 0.0;
        for (long k = 0; k < nnz; ++k) {
            const double *vk = v + k * batch;
            double *col = ext + cid[k] * batch;
            for (long b = 0; b < batch; ++b)
                col[b] = k_maximum(col[b], fabs(vk[b]));
            if (k >= nnz_p) {
                double *row = ext + rid[k] * batch;
                for (long b = 0; b < batch; ++b)
                    row[b] = k_maximum(row[b], fabs(vk[b]));
            }
        }
        for (long i = 0; i < nm; ++i) {
            double x = ext[i] == 0.0 ? 1.0 : ext[i];
            ext[i] = 1.0 / sqrt(k_minimum(k_maximum(x, lo), hi));
        }
        for (long k = 0; k < nnz; ++k) {
            double *vk = v + k * batch;
            const double *er = ext + rid[k] * batch;
            const double *ec = ext + cid[k] * batch;
            for (long b = 0; b < batch; ++b)
                vk[b] = (vk[b] * er[b]) * ec[b];
        }
        for (long i = 0; i < n * batch; ++i)
            qq[i] = qq[i] * ext[i];
        for (long i = 0; i < nm; ++i)
            de[i] = de[i] * ext[i];

        /* Cost normalization (OSQP's gamma step) applies to P only. */
        if (!n)
            continue;
        for (long i = 0; i < n * batch; ++i)
            pn[i] = 0.0;
        for (long k = 0; k < nnz_p; ++k) {
            const double *vk = v + k * batch;
            double *col = pn + cid[k] * batch;
            for (long b = 0; b < batch; ++b)
                col[b] = k_maximum(col[b], fabs(vk[b]));
        }
        for (long b = 0; b < batch; ++b) {
            double mean = (0.0 + k_pairwise_sum(pn + b, n, batch)) / n;
            double qmax = 0.0;
            for (long i = 0; i < n; ++i)
                qmax = k_maximum(qmax, fabs(qq[i * batch + b]));
            double d = k_maximum(mean, fmax(qmax, 0.0));
            d = d + (d == 0.0);
            gamma[b] = 1.0 / k_minimum(k_maximum(d, lo), hi);
        }
        for (long k = 0; k < nnz_p; ++k) {
            double *vk = v + k * batch;
            for (long b = 0; b < batch; ++b)
                vk[b] = vk[b] * gamma[b];
        }
        for (long i = 0; i < n; ++i)
            for (long b = 0; b < batch; ++b)
                qq[i * batch + b] = qq[i * batch + b] * gamma[b];
        for (long b = 0; b < batch; ++b)
            c[b] = c[b] * gamma[b];
    }
}
"""

# The power iteration behind PDQP's step sizes (its numpy
# implementation, ``repro.solver.host.numpy_power``, is the reference),
# lane-minor like the batched kernels, so ``batch == 1`` is the solo
# call. Every product is ``k_csr_matvec_batch`` and every norm the
# square root of ``k_dot_batch`` (at one lane the solo ``k_csr_matvec``
# and ``k_dot``, the same bits): the datapath's sequential order, no
# pairwise or BLAS sum. A lane whose iterate vanishes stops (its
# vector is kept) while the others run on, and the pass ends once no
# lane is live, so lane ``b`` is the solo call on lane ``b``'s data.
_POWER_SOURCE = """
#include <stddef.h>

/* The batched matvec and v.v, or at one lane the solo kernels (the
 * same bits, with register accumulators). */
static void k_power_matvec(const double *val, const long *col,
                           const long *ip, const double *x, double *y,
                           long nrows, long batch)
{
    if (batch == 1)
        k_csr_matvec(val, col, ip, x, y, nrows);
    else
        k_csr_matvec_batch(val, col, ip, x, y, nrows, 0, 0, batch);
}

static void k_power_norm2(const double *v, long n, long batch,
                          double *out)
{
    if (batch == 1)
        out[0] = k_dot(v, v, n);
    else
        k_dot_batch(v, v, n, batch, out);
}

/* v <- start in every lane, then up to `iterations` rounds of: a live
 * lane whose norm is <= guard stops; the rest divide by their norm and
 * take v <- F' (F v) (the A pass: F = A, m rows, F' = A') or v <- F v
 * (the P pass: ft == NULL). out[b] = ||v|| of lane b at the end.
 * work holds (2n + 2 + rows) * batch doubles (t only for the A pass). */
static void k_power_pass(const double *fv, const long *f_ip,
                         const long *f_col, long rows, const double *ft,
                         const long *ft_ip, const long *ft_col,
                         const double *start, long n, long batch,
                         long iterations, double guard, double *out,
                         double *work)
{
    double *v = work;
    double *w = v + n * batch;
    double * restrict nv = w + n * batch;
    double * restrict live = nv + batch;
    double * restrict t = live + batch;
    const long len = n * batch;
    for (long i = 0; i < n; ++i)
        for (long b = 0; b < batch; ++b)
            v[i * batch + b] = start[i];
    for (long b = 0; b < batch; ++b)
        live[b] = 1.0;
    long active = batch;
    for (long it = 0; it < iterations; ++it) {
        k_power_norm2(v, n, batch, nv);
        for (long b = 0; b < batch; ++b) {
            nv[b] = sqrt(nv[b]);
            if (live[b] != 0.0 && nv[b] <= guard) {
                live[b] = 0.0;
                --active;
            }
        }
        if (!active)
            break;
        for (long i = 0; i < n; ++i)
            for (long b = 0; b < batch; ++b)
                if (live[b] != 0.0)
                    v[i * batch + b] = v[i * batch + b] / nv[b];
        if (ft) {
            k_power_matvec(fv, f_col, f_ip, v, t, rows, batch);
            k_power_matvec(ft, ft_col, ft_ip, t, w, n, batch);
        } else {
            k_power_matvec(fv, f_col, f_ip, v, w, n, batch);
        }
        if (active == batch) {
            /* Every lane live: the new vector is w. */
            double *swap = v;
            v = w;
            w = swap;
        } else {
            for (long i = 0; i < len; ++i)
                if (live[i % batch] != 0.0)
                    v[i] = w[i];
        }
    }
    k_power_norm2(v, n, batch, out);
    for (long b = 0; b < batch; ++b)
        out[b] = sqrt(out[b]);
}

/* ||A||_2 and lambda_max(P) per lane: vals holds P's entries (nnz_p
 * rows) then A's, at A' values, lane-minor. norm_a is the square root
 * of the A pass's norm (0 without rows or columns), lam_p the P pass's
 * norm (0 without columns). */
void k_power(const double *vals, const double *at, const long *p_ip,
             const long *p_col, const long *a_ip, const long *a_col,
             const long *at_ip, const long *at_col,
             const double *start_a, const double *start_p, long n,
             long m, long nnz_p, long batch, long iterations,
             double guard, double *norm_a, double *lam_p, double *work)
{
    for (long b = 0; b < batch; ++b)
        norm_a[b] = lam_p[b] = 0.0;
    if (m > 0 && n > 0) {
        k_power_pass(vals + nnz_p * batch, a_ip, a_col, m, at, at_ip,
                     at_col, start_a, n, batch, iterations, guard, norm_a,
                     work);
        for (long b = 0; b < batch; ++b)
            norm_a[b] = sqrt(norm_a[b]);
    }
    if (n > 0)
        k_power_pass(vals, p_ip, p_col, n, NULL, NULL, NULL, start_p, n,
                     batch, iterations, guard, lam_p, work);
}
"""

_ENGINE_CDEF = """
void k_csr_matvec(const double *val, const long *col, const long *ip,
                  const double *x, double *y, long nrows);
double k_dot(const double *a, const double *b, long n);
void k_csr_matvec_batch(const double *val, const long *col,
                        const long *ip, const double *x, double *y,
                        long nrows, long ncols, long nnz, long batch);
void k_dot_batch(const double *a, const double *b, long n, long batch,
                 double *out);
void k_ruiz(double *vals, double *q, double *de, double *c,
            const long *rid, const long *cid, long n, long m, long nnz_p,
            long nnz, long batch, long iterations, double lo, double hi,
            double *work);
void k_power(const double *vals, const double *at, const long *p_ip,
             const long *p_col, const long *a_ip, const long *a_col,
             const long *at_ip, const long *at_col,
             const double *start_a, const double *start_p, long n,
             long m, long nnz_p, long batch, long iterations,
             double guard, double *norm_a, double *lam_p, double *work);
"""

# The batched kernels operate on lane-minor buffers — element i of lane
# b lives at [i * batch + b], so the innermost loops run across lanes
# over contiguous memory (auto-vectorizable) while each lane's
# accumulation order stays exactly the solo kernels': the k/i loops
# advance per lane precisely like CSR_MATVEC_BODY / DOT_BODY, and a
# memory-resident float64 accumulator adds identically to a register
# one (no reassociation, no contraction). Lane b of a batched call is
# therefore bit-identical to a solo call on lane b's data.
_ENGINE_SOURCE = """
void k_csr_matvec(const double *val, const long *col, const long *ip,
                  const double *x, double *y, long nrows)
{
%s}

double k_dot(const double *a, const double *b, long n)
{
%s    return acc;
}

void k_csr_matvec_batch(const double *val, const long *col,
                        const long *ip, const double *x, double *y,
                        long nrows, long ncols, long nnz, long batch)
{
    (void)ncols;
    const double * restrict v = val;
    const double * restrict xx = x;
    double * restrict yy = y;
    for (long r = 0; r < nrows; ++r) {
        double * restrict yr = yy + r * batch;
        for (long b = 0; b < batch; ++b)
            yr[b] = 0.0;
        for (long k = ip[r]; k < ip[r + 1]; ++k) {
            const double * restrict vk = v + k * batch;
            const double * restrict xk = xx + col[k] * batch;
            for (long b = 0; b < batch; ++b)
                yr[b] += vk[b] * xk[b];
        }
    }
}

void k_dot_batch(const double *a, const double *b, long n, long batch,
                 double *out)
{
    const double * restrict aa = a;
    const double * restrict bb = b;
    double * restrict oo = out;
    for (long j = 0; j < batch; ++j)
        oo[j] = 0.0;
    for (long i = 0; i < n; ++i) {
        const double * restrict ai = aa + i * batch;
        const double * restrict bi = bb + i * batch;
        for (long j = 0; j < batch; ++j)
            oo[j] += ai[j] * bi[j];
    }
}
%s%s""" % (CSR_MATVEC_BODY, DOT_BODY, _RUIZ_SOURCE, _POWER_SOURCE)

#: Bump when generated-code *semantics* change without the generated
#: source text itself changing (codegen conventions, pointer-table
#: ABI, charge accounting contracts). Part of every module's cache key.
CODEGEN_VERSION = "1"

#: The effect-IR schema version that was hashed into the key below
#: until it left it, kept as a literal so that module names stay what
#: they were. The schema is not part of the key: the IR is re-emitted
#: and re-verified in every process before a unit is compiled or
#: loaded, and the verifier rejects an IR of any other version, so a
#: schema change alone must not rename a module whose source is
#: unchanged.
_FROZEN_IR_KEY = "3"

#: Fingerprint of the kernel layer a generated module may embed or
#: call into. Keying the disk cache on this (not just the generated
#: loop source) means a cached ``.so`` can never be reused after
#: ``k_csr_matvec`` / ``k_dot`` or the codegen contract changes — a
#: stale binary would silently break the bit-exactness guarantee.
_KERNEL_VERSION = hashlib.sha256("\x00".join(
    [CODEGEN_VERSION, _FROZEN_IR_KEY, _ENGINE_CDEF,
     _ENGINE_SOURCE]).encode()).hexdigest()

#: Every module — the engine library and each generated loop — compiles
#: at -O3 plus the host ISA, falling back to the portable flags when the
#: toolchain rejects -march=native, so the lane loops (independent per
#: iteration, `restrict`-qualified) vectorize across lanes at full SIMD
#: width. Bit-exactness is unaffected: no -O level or ISA choice
#: reassociates floating-point reductions without fast-math (and
#: contraction stays off), so the sequential solo loops and each lane's
#: accumulation order produce the same bits as at -O2.
_COMPILE_ARGS = (("-O3", "-ffp-contract=off", "-march=native"),
                 ("-O3", "-ffp-contract=off"))

#: Flags a module family adds to each flag set, tried first; a
#: toolchain that rejects them builds with the plain sets. Generated
#: loop units cap gcc's complete peeling at 4 trips: by default gcc
#: unrolls every loop of at most 16 constant trips before it
#: vectorizes, so a B = 8 or 16 unit's masked lane loops became
#: straight-line scalar code, 2.4-3.3x the instructions, and ran slower
#: than the runtime-width unit did (docs/PERF.md). Units of B <= 4 and
#: of B > 16 compile to the same code with or without the cap. Only the
#: vectorization across lanes changes, never a lane's own operations.
_FAMILY_ARGS = {"loop": ("--param", "max-completely-peel-times=4")}

_state: dict[str, Any] = {"probed": False, "engine": None}


def cache_dir() -> str:
    """Root of the compiled-module cache (``REPRO_JIT_CACHE``); the
    modules sit in its per-target subdirectory (:func:`module_dir`),
    named by a hash of their source."""
    return os.environ.get(
        "REPRO_JIT_CACHE",
        os.path.join(tempfile.gettempdir(), "repro_cjit"))


def target_key() -> str:
    """Fingerprint of the C compiler and of the CPU it builds for.

    A hash of ``cc --version`` and of ``cc -march=native -Q
    --help=target`` (the ISA extensions and tuning ``-march=native``
    resolves to on this host), run once per process. A module built
    with ``-march=native`` may hold instructions that another CPU does
    not have and dies with SIGILL there, which no ``except`` can turn
    into a rebuild, so modules live under a directory named by this
    key (:func:`module_dir`) and a cache directory shared between
    hosts never serves one host's binary to another.
    """
    if "target" not in _state:
        cc = shlex.split(os.environ.get("CC")
                         or sysconfig.get_config_var("CC") or "cc")
        parts = []
        for args in (["--version"],
                     ["-march=native", "-Q", "--help=target"]):
            try:
                done = subprocess.run(cc + args, capture_output=True,
                                      text=True, timeout=60)
                parts.append(done.stdout + done.stderr)
            except (OSError, subprocess.SubprocessError) as exc:
                parts.append(type(exc).__name__)
        _state["target"] = hashlib.sha256(
            "\x00".join(parts).encode()).hexdigest()[:16]
    return _state["target"]


def module_dir() -> str:
    """Directory of this toolchain's and host's compiled modules: the
    :func:`target_key` subdirectory of :func:`cache_dir`."""
    return os.path.join(cache_dir(), f"target_{target_key()}")


def _jit_enabled() -> bool:
    return os.environ.get("REPRO_JIT", "1") != "0"


def compile_module(cdef: str, source: str, tag: str = "k",
                   libraries: Sequence[str] = ()) -> Any:
    """Compile (or load from cache) a cffi module for ``source``.

    Returns the imported module (``.lib`` / ``.ffi`` attributes) or
    ``None`` when the toolchain is unavailable or the build fails under
    every flag set of :data:`_COMPILE_ARGS` (each tried first with the
    ``tag`` family's :data:`_FAMILY_ARGS`). Modules are stateless by
    contract — loop functions receive their pointer tables as
    arguments — so one compiled module is safely shared by every
    executor (and thread) whose generated source matches.
    ``libraries`` adds link libraries (e.g. ``("m",)`` for libm). The
    cache key covers the source, the flags, the libraries, and the
    kernel/codegen version fingerprint, so a stale ``.so`` is never
    reused across kernel-body or codegen-contract changes; the
    directory covers the compiler and the CPU (:func:`module_dir`).
    """
    if not _jit_enabled():
        return None
    try:
        import cffi  # noqa: F401
    except ImportError:
        return None
    extra = _FAMILY_ARGS.get(tag, ())
    flag_sets = [args + extra for args in _COMPILE_ARGS] if extra else []
    for args in flag_sets + list(_COMPILE_ARGS):
        module = _build(cffi, cdef, source, tag, list(args),
                        list(libraries))
        if module is not None:
            return module
    return None


def module_name(cdef: str, source: str, tag: str, compile_args: list,
                libs: list) -> str:
    """The cache name of a module: its family ``tag`` and a hash of the
    kernel layer (:data:`_KERNEL_VERSION`), the cdef, the source, the
    flags and the libraries."""
    digest = hashlib.sha256(("\x00".join(
        [_KERNEL_VERSION, cdef, source] + compile_args + libs
    )).encode()).hexdigest()
    return f"_repro_{tag}_{digest[:16]}"


def _build(cffi: Any, cdef: str, source: str, tag: str,
           compile_args: list, libs: list) -> Any:
    name = module_name(cdef, source, tag, compile_args, libs)
    root = module_dir()
    final = os.path.join(root, name)
    try:
        module = _load(name, final)
        if module is not None:
            return module
        os.makedirs(root, exist_ok=True)
        build = tempfile.mkdtemp(prefix=name + ".build.", dir=root)
        try:
            ffi = cffi.FFI()
            ffi.cdef(cdef)
            ffi.set_source(name, source, extra_compile_args=compile_args,
                           libraries=libs)
            ffi.compile(tmpdir=build, verbose=False)
            try:
                os.rename(build, final)
            except OSError:
                pass  # lost a build race; the winner's copy is fine
        finally:
            if os.path.isdir(build) and build != final:
                shutil.rmtree(build, ignore_errors=True)
        return _load(name, final)
    except Exception:
        return None


def _load(name: str, moddir: str) -> Any:
    if not os.path.isdir(moddir):
        return None
    for entry in sorted(os.listdir(moddir)):
        if entry.startswith(name) and entry.endswith(".so"):
            spec = importlib.util.spec_from_file_location(
                name, os.path.join(moddir, entry))
            if spec is None or spec.loader is None:
                return None
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    return None


def engine() -> Any:
    """The generic kernel library, or ``None`` when JIT is unavailable.

    Probed exactly once per process; a failed probe (missing compiler,
    read-only filesystem, ``REPRO_JIT=0``) pins the process to the
    numpy kernels of :mod:`repro.sparse.kernels` (same bits).
    """
    if not _state["probed"]:
        _state["engine"] = compile_module(_ENGINE_CDEF, _ENGINE_SOURCE,
                                          tag="engine", libraries=("m",))
        _state["probed"] = True
    return _state["engine"]


def available() -> bool:
    return engine() is not None
