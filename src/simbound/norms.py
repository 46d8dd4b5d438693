"""Matrix norms, dual norms, rank-1 dual factorizations, and proximal operators.

Four regularizers are supported on symmetric matrices:

* ``l1``       entrywise L1, ``sum |a_kl|``
* ``fro``      Frobenius
* ``mixed21``  sum over rows of the row Euclidean norm
* ``trace``    sum of singular values (equal to ``sum |eigenvalue|`` by symmetry)

Dual norms accept any finite square matrix: max entry magnitude, Frobenius,
max row Euclidean norm, and the largest singular value respectively.

Every proximal operator is exact over the symmetric subspace: l1, fro and
trace in closed form, mixed21 by a Newton iteration that stops on a
duality-gap certificate (see ``prox``), after up to d = 5 a screen that
solves the rows that die in closed form.  Eigendecompositions go to
LAPACK, except that stage one's float loop takes its 2x2 one in closed
form (``_spectrum_floats``).

Each kind's prox is its own kernel on arrays, held by kind in ``_PROX``;
``prox`` and stage one's array loop (``similarity._train_arrays``) look a
kernel up once per call or fit, so no prox call tests the kind.  Every
prox kernel, on arrays or on the triple, is kernel(b, tau) -> (A, ||A||),
and the trace kernel on arrays decomposes on every call.  Stage one's
float loop (``similarity._train_floats``, written out per sample size m
and norm kind and compiled on the first fit at (m, kind)) holds a 2x2
matrix as the three Python floats (a_00, a_01, a_11), the shape of its
tiny fits, and runs its kind's prox inline.  Every d = 2 prox is stated
once, as a block in ``_PROX_BLOCKS``, which that loop holds and from
which the kernels on the triple (``_prox_fro_triple``,
``_prox_mixed21_triple``) are compiled.  The mixed21 block states only
its range test, its dead-row closed form and its outputs: its Newton
phase is the written-out d = 2 kernel's (``_newton_mixed21_source``),
written in when a loop or kernel that holds it is built.  Only that loop
reuses a spectrum: its trace block keeps the last one in six floats, and
a zero step thresholds it again, since spectral soft-thresholds compose.
``_written`` builds every written-out function, with its text in
``linecache``; an import builds none and writes no source.

Each fro and mixed21 kernel tests the norm or row norms it computes, and
the trace kernel the spectral norm that LAPACK returned (LAPACK scales a
matrix by its own thresholds), against one safe range, and out of it
solves its own problem on B and tau scaled by a power of two
(``_rescaled``).  So every norm and prox obeys
prox(2^k B, 2^k tau) = 2^k prox(B, tau) bit for bit wherever no entry is
subnormal or infinite.
"""

import linecache
import math
from enum import Enum

import numpy as np

from .data import _NONNEGATIVE, _finite_rows, _finite_vector, _is_value_of, _require
from .errors import NumericalError

__all__ = ["NormKind", "norm", "prox", "dual_norm", "dual_norm_rank1", "sym_eigendecomposition"]


class NormKind(str, Enum):
    """Regularizer selector."""

    L1 = "l1"
    FROBENIUS = "fro"
    MIXED21 = "mixed21"
    TRACE = "trace"


_NORM_KIND = (_is_value_of(NormKind), "a norm kind")


def _norm_kind(kind, name="kind"):
    """kind as a NormKind, once it meets _NORM_KIND."""
    return NormKind(_require(name, kind, _NORM_KIND))


def _as_square(b):
    b = _finite_rows("matrix", b)
    if b.shape[0] != b.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {b.shape}")
    if not b.size:
        raise ValueError(f"matrix must be nonempty, got shape {b.shape}")
    return b


def require_symmetric(a):
    """Return A as a float array, raising ValueError unless finite and exactly symmetric."""
    a = _as_square(a)
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    return a


def norm(a, kind):
    """Norm of the symmetric matrix A under the selected regularizer."""
    a = require_symmetric(a)
    kind = _norm_kind(kind)
    # A sum of squares that overflows is detected and recomputed rescaled.
    with np.errstate(over="ignore"):
        return _norm(a, kind)


def _norm(a, kind):
    """``norm`` on an already validated symmetric A."""
    if kind is NormKind.L1:
        return float(np.abs(a).sum())
    if kind is NormKind.FROBENIUS:
        return _fro(a)
    if kind is NormKind.MIXED21:
        return _mixed21(a)
    return _trace(a)


# The safe range.  A norm in [_SAFE_MIN, _SAFE_MAX] comes from sums of
# squares that did not overflow, and the squares that underflowed were too
# small against it to matter.  The mixed21 Newton phase also weighs a live
# row by tau / ||h_i||^3, with ||h_i|| at most twice the row norm of B;
# where the largest row norm is at least _SAFE_MIN and their sum at most
# _SAFE_MAX, the cube stays a normal float for a tau on the scale of B (it
# is one from 2^-340 to 2^340).  The hot path pays one or two compares.
_SAFE_MIN = 2.0 ** -300
_SAFE_MAX = 2.0 ** 300


def _fro(a):
    # What np.linalg.norm computes for a real array (the square root of the
    # dot product of the flat array with itself), without its wrapper.
    flat = a.ravel(order="K")
    value = math.sqrt(flat.dot(flat))
    if _SAFE_MIN <= value <= _SAFE_MAX:
        return value
    return _rescaled(_fro, a)


def _mixed21(a, reduce=np.add.reduce):
    # The sum of the row norms; np.maximum.reduce gives the dual norm.
    value = float(reduce(_row_norms(a)))
    if _SAFE_MIN <= value <= _SAFE_MAX:
        return value
    return _rescaled(lambda scaled: _mixed21(scaled, reduce), a)


def _trace(a):
    # The sum of the eigenvalue magnitudes.
    eigenvalues = _eigh(a)[0]
    if _lapack_in_range(max(-eigenvalues.item(0), eigenvalues.item(-1)), len(a)):
        return float(np.abs(eigenvalues).sum())
    return _rescaled(_trace, a)


def _spectral(b):
    # The largest singular value, as np.linalg.norm(b, 2) computes it.
    value = float(np.linalg.norm(b, 2))
    if _lapack_in_range(value, len(b)):
        return value
    return _rescaled(_spectral, b)


def _lapack_in_range(top, d):
    """Whether LAPACK's answer for a d x d B of spectral norm top keeps its
    bits under powers of two.

    LAPACK scales a matrix by its own thresholds (from about 2^-405 and
    2^460 on), so its answers are exact under 2^k only while max|b_ij|
    stays inside the safe range.  The spectral norm lies in
    [max|b_ij|, d max|b_ij|], so top in [d _SAFE_MIN, _SAFE_MAX] holds it
    there.  The test reads a value LAPACK already returned: no pass over B.
    B = 0 passes, so its prox keeps the zeros it computes.
    """
    return top == 0.0 or d * _SAFE_MIN <= top <= _SAFE_MAX


def _rescaled(kernel, b, tau=None):
    """kernel(b), a norm, or kernel(b, tau), a prox point and its norm,
    solved on B and tau scaled by the power of two near max|b_ij|.

    The kernels are positively homogeneous and scaling by 2^k is exact down
    to subnormals, so this is the answer for B itself.  B is an array, rows
    or a triple, and the point comes back in its form; scaled, its largest
    entry is in [0.5, 1).  tau is capped at len(b) max|b_ij| >= ||B||_F,
    above which the prox is 0 either way; the cap keeps the scaled tau
    finite.  Scaled back as by np.ldexp, a norm beyond the float range is
    inf.  B = 0 is its own prox, and a non-finite B (a diverging stage one)
    comes back as it is, with a non-finite norm.
    """
    form = np.asarray if isinstance(b, np.ndarray) else lambda x: type(b)(x.tolist())
    largest = float(np.abs(b).max())
    if not 0.0 < largest < math.inf:
        return largest if tau is None else (form(np.array(b)), largest)
    exponent = math.frexp(largest)[1]
    scaled = form(np.ldexp(b, -exponent))
    with np.errstate(over="ignore"):
        if tau is None:
            return float(np.ldexp(kernel(scaled), exponent))
        a, total = kernel(scaled, math.ldexp(min(tau, len(b) * largest), -exponent))
        return form(np.ldexp(a, exponent)), float(np.ldexp(total, exponent))


def dual_norm(b, kind):
    """Dual norm of a finite square (not necessarily symmetric) matrix B.

    l1 -> max entry magnitude; mixed21 -> max row Euclidean norm;
    fro -> Frobenius; trace -> spectral norm (largest singular value).
    """
    b = _as_square(b)
    kind = _norm_kind(kind)
    if kind is NormKind.L1:
        return float(np.abs(b).max())
    if kind is NormKind.TRACE:
        return _spectral(b)
    # Sums of squares out of range are detected and recomputed rescaled.
    with np.errstate(over="ignore"):
        return _fro(b) if kind is NormKind.FROBENIUS else _mixed21(b, np.maximum.reduce)


def dual_norm_rank1(v, x, kind):
    """Dual norm of the rank-1 matrix v x^T without forming it.

    Closed forms: l1 -> ||v||_inf ||x||_inf; fro -> ||v|| ||x||;
    mixed21 -> ||v||_inf ||x||; trace -> ||v|| ||x|| (the spectral and
    Frobenius norms agree on rank-1 matrices).
    """
    v = _finite_vector("v", v)
    x = _finite_vector("x", x)
    if v.shape != x.shape:
        raise ValueError(
            f"expected two vectors of equal length, got shapes {v.shape} and {x.shape}"
        )
    v_factor, x_factor = _rank1_factors(_norm_kind(kind))
    # Each factor is homogeneous, so it is computed on its vector scaled by
    # a power of two, with no sum of squares out of range, and scaled back.
    return _rescaled(v_factor, v) * _rescaled(x_factor, x)


def _rank1_factors(kind):
    """The pair (f, g) with dual_norm(v x^T, kind) = f(v) * g(x).

    Both factors take numpy's ``axis`` argument, so ``f(X, axis=1)`` scores
    every row of X in one call.
    """
    if kind is NormKind.L1:
        return _max_abs, _max_abs
    if kind is NormKind.MIXED21:
        return _max_abs, np.linalg.norm
    return np.linalg.norm, np.linalg.norm


def _max_abs(v, axis=None):
    return np.abs(v).max(axis=axis)


def prox(b, tau, kind):
    """Proximal operator: argmin over symmetric A of 0.5*||A - B||_F^2 + tau*||A||.

    B must be symmetric and tau nonnegative and finite.  The output is exactly
    symmetric.  l1, fro and trace are closed forms; mixed21 has none and is
    solved by ``_prox_mixed21`` to a certified duality gap of at most
    ``tau * MIXED21_GAP_RTOL * (||A||_{2,1} + ||B||_{2,1})``.  Strong
    convexity puts the returned A within sqrt(2 * gap) of the exact
    minimizer.  Up to d = 5, where ||(b_ii, 2 b_ij for j != i)|| <= tau for
    a row i, that row of the minimizer is zero: mixed21 sets it exactly and
    solves the rest without it, in closed form where at most one row is
    left (``_screen_mixed21``, and at d = 2 ``_prox_mixed21_triple``).
    """
    b = require_symmetric(b)
    _require("threshold", tau, _NONNEGATIVE)
    kind = _norm_kind(kind)
    # A sum of squares that overflows is detected and recomputed rescaled.
    with np.errstate(over="ignore"):
        return _PROX[kind](b, float(tau))[0]


# The prox kernels, one per kind, on an already validated symmetric B and
# tau >= 0: kernel(b, tau) returns the prox point and its norm, as the
# kernels on the triple do.  At tau = 0 each returns a copy of B and
# ``_norm(b, kind)``.  For fro both the shrink factor and the returned norm
# come from ``_fro``, which rounds as ``norm`` does; l1, mixed21 and trace
# return the value their own computation already produced (shrunk
# magnitudes, row norms, thresholded eigenvalues), which spares trace a
# second eigendecomposition.  B is never written to: stage one's array
# loop hands a zero step's iterate itself to the prox.  ``_PROX``, at the
# end of the module, holds these kernels by kind.


def _prox_l1(b, tau):
    if tau == 0.0:
        return b.copy(), _norm(b, NormKind.L1)
    # |a| is exactly the shrunk magnitudes, so their sum is norm(a).
    shrunk = _shrunk_magnitudes(b, tau)
    a = np.sign(b)
    a *= shrunk
    return a, float(np.add.reduce(shrunk, axis=None))


def _prox_fro(b, tau):
    if tau == 0.0:
        return b.copy(), _norm(b, NormKind.FROBENIUS)
    total = _fro(b)
    if total <= tau:
        return np.zeros_like(b), 0.0
    # A finite total from _fro is exact, and so are the shrink and _fro(a)
    # at any scale; only a norm beyond the float range needs B rescaled.
    if total == math.inf:
        return _rescaled(_prox_fro, b, tau)
    a = b * (1.0 - tau / total)
    return a, _fro(a)


def _prox_trace(b, tau):
    if tau == 0.0:
        return b.copy(), _norm(b, NormKind.TRACE)
    eigenvalues, vectors = _eigh(b)
    if not _lapack_in_range(max(-eigenvalues.item(0), eigenvalues.item(-1)), len(b)):
        return _rescaled(_prox_trace, b, tau)
    shrunk = _shrunk_magnitudes(eigenvalues, tau)
    thresholded = np.sign(eigenvalues)
    thresholded *= shrunk
    product = (vectors * thresholded) @ vectors.T
    a = product + product.T
    a /= 2.0
    return a, float(np.add.reduce(shrunk))


def _shrunk_magnitudes(x, tau):
    # max(|x| - tau, 0), formed in one buffer.
    shrunk = np.abs(x)
    shrunk -= tau
    return np.maximum(shrunk, 0.0, out=shrunk)


# Stage one's d = 2 proxes on floats.  The float loop
# (``similarity._train_floats``, one skeleton written out per sample size
# and kind) holds a symmetric 2x2 matrix as the triple (a_00, a_01, a_11)
# of Python floats, where a NumPy call costs more than the arithmetic,
# and runs its kind's block of ``_PROX_BLOCKS`` inline.  The fro and
# mixed21 kernels on the triple, built from their blocks, return the prox
# triple and its norm; at tau = 0, the triple itself and ``_norm`` of its
# array.  The off-diagonal entry stands for a_01 and a_10: an
# entrywise prox acts on it once and adds its term to the norm twice, in
# index order, and the trace rebuild takes (p_01 + p_10) / 2 for both,
# which rounds as (p_10 + p_01) / 2 does, so each prox rounds as it would
# on the 2x2 matrix entry by entry in index order.  Nonzero entries and
# the norm may differ from the array kernels' in the last bits.  The
# triple is never written to.


def _triple_array(a):
    """The symmetric 2x2 array of the triple (a_00, a_01, a_11)."""
    a_00, a_01, a_11 = a
    return np.array([[a_00, a_01], [a_01, a_11]])


def _spectrum_floats(triple):
    """Eigenvalues, ascending, and eigenvector rows of a triple, flat.

    Returns (x_0, x_1, v_00, v_01, v_10, v_11), with + - * / and
    ``math.sqrt`` only, so the bits do not depend on the interpreter.  One
    Jacobi rotation (Golub & Van Loan, sym.schur2) diagonalizes
    [[a, b], [b, c]]: with zeta = (c - a) / (2b) and
    t = sign(zeta) / (|zeta| + sqrt(1 + zeta^2)), the smaller root of
    t^2 + 2 zeta t - 1 = 0, the eigenvalues are a - t b and c + t b, with
    eigenvectors the columns of [[cs, sn], [-sn, cs]], cs = 1 / sqrt(1 + t^2)
    and sn = t cs.  A zeta^2 that overflows gives t = 0 and the diagonal:
    the exact shift t b, about b^2 / (c - a), is then below 1e-308 |c - a|,
    far under an ulp of the larger diagonal entry.  b = 0 gives the
    diagonal.  A non-finite entry and a 2b or c - a that overflows go to
    ``_eigh``.
    """
    a, b, c = triple
    two_b = 2.0 * b
    diff = c - a
    # Both finite exactly when a, b and c are and neither overflows.
    if -math.inf < two_b < math.inf and -math.inf < diff < math.inf:
        if b == 0.0:
            if c < a:
                return c, a, 0.0, 1.0, 1.0, 0.0
            return a, c, 1.0, 0.0, 0.0, 1.0
        zeta = diff / two_b
        root = math.sqrt(1.0 + zeta * zeta)
        t = 1.0 / (zeta + root) if zeta >= 0.0 else -1.0 / (root - zeta)
        cs = 1.0 / math.sqrt(1.0 + t * t)
        sn = t * cs
        low = a - t * b
        high = c + t * b
        if high < low:
            return high, low, sn, cs, cs, -sn
        return low, high, cs, sn, -sn, cs
    eigenvalues, vectors = _eigh(_triple_array(triple))
    return (*eigenvalues.tolist(), *vectors.ravel().tolist())


# Relative duality-gap tolerance of the mixed21 prox and the step caps of
# its two phases.  A certified gap g bounds the distance to the exact
# minimizer by sqrt(2 g).
MIXED21_GAP_RTOL = 1e-12
_MIXED21_NEWTON_STEPS = 8
_MIXED21_DUAL_STEPS = 200000
# The largest d whose mixed21 Newton phase runs on Python floats, in the
# written-out kernel.  On small matrices a NumPy call costs more than its
# arithmetic.  Per prox, on inputs captured from certify-shaped stage-one
# fits (m = 100, lambda = 0.1; 2-vCPU host, Python 3.11, numpy 2.4; best of
# 5 rounds, three runs), the kernel ran 3.2-3.3x as fast as the array phase
# at d = 5 (14.1-14.4 against 45.2-47.0 us) and 2.2-2.4x at d = 6
# (19.4-20.7 against 44.5-48.5 us); it still won 1.5-1.6x at d = 8 and
# lost at d = 10 (0.8-0.9x), its text growing as d^3.  d = 6 and above
# stay on arrays, which keeps the bits of every mixed21 fit at those d.
_MIXED21_FLOAT_MAX_D = 5


def _row_norms(x):
    # np.add.reduce is what ndarray.sum calls, without its Python wrapper.
    return np.sqrt(np.add.reduce(x * x, axis=1))


def _prox_mixed21(b, tau):
    """Exact mixed21 prox over symmetric matrices: the kernel of ``_PROX``.

    The dual of min 0.5||A - B||^2 + tau ||A||_{2,1} over symmetric A is
    max 0.5||B||^2 - 0.5||B - tau sym(G)||^2 over G whose rows lie in the
    unit ball, and for symmetric A the gap between A and G is
    tau (||A||_{2,1} - <G, A>) + 0.5 ||A - B + tau sym(G)||^2.

    At the minimizer every entry is a harmonic-mean shrink of B,
    A_ij = B_ij 2 s_i s_j / (s_i + s_j), with one scale s_i in [0, 1] per
    row, and s_i = 1 - tau / max(||h_i||, tau) for the rows of
    H = 2 B * s_j / (s_i + s_j).  Newton's method solves these d equations,
    started at the row-group shrink scales of B (what shrink-then-symmetrize
    uses).  Each step moves every row whose target
    1 - tau / max(||h_i||, tau) is positive, a row at s_i = 0 that comes
    back to life included, and sets the rows whose target is 0 to it.
    With G = H / max(||h_i||, tau) and the Newton residual
    r = s - (1 - tau / max(||h||, tau)), the gap of A(s) works out to
    sum_i s_i ||h_i|| max(tau - ||h_i||, 0) + 0.5 ||R||^2 with
    R_ij = B_ij (s_j r_i + s_i r_j) / (s_i + s_j).  R_ij is a convex
    combination of B_ij r_i and B_ij r_j, so 0.5 ||R||^2 is at most
    sum_i r_i^2 ||b_i||^2, and the loop stops once the first sum plus this
    bound is within tolerance.  A(s) is exactly symmetric and exactly zero
    on dead rows.

    When two rows vanish, the split of the dual between them is no longer
    free in this parametrization and Newton may stall; ``_dual_mixed21``
    then takes over from the last evaluated scales s.

    A 2x2 B goes to the triple kernel ``_prox_mixed21_triple``, built from
    the mixed21 block of ``_PROX_BLOCKS``, which stage one's float loop
    also runs, so every d = 2 mixed21 prox is the same: it solves a dead
    row in closed form and otherwise runs the Newton phase of the
    written-out d = 2 kernel inline.  Up to d = ``_MIXED21_FLOAT_MAX_D``
    (5) the Newton phase runs first on Python floats, written out, one
    kernel per d compiled on its first use (``_newton_mixed21_floats``).
    A row whose ||(b_ii, 2 b_ij for j != i)|| is at most tau is dead at
    the minimizer, and the kernel's screen solves the rest without it
    (``_screen_mixed21``).  While no pair is dead, every row of H stays
    above tau and no pivot swaps, which is every prox of the benchmark's
    certify trials, the kernel certifies alone, a row that starts at
    s_i = 0 and comes back to life included; otherwise the array Newton
    loop (``_newton_mixed21_steps``) resumes from its state.  Above d = 5
    the Newton phase runs on arrays from the start
    (``_newton_mixed21_arrays``), whose cost grows more slowly with d.
    The kernel and the array loop round differently: dot products and the
    Newton solve may differ in the last bits.

    Where the row norms of B leave the safe range, which also turns away a
    non-finite row, each Newton phase solves its problem rescaled
    (``_rescaled``).
    """
    if tau == 0.0:
        return b.copy(), _norm(b, NormKind.MIXED21)
    if b.shape[0] == 2:
        (b_00, b_01), (_, b_11) = b.tolist()
        a, total = _prox_mixed21_triple((b_00, b_01, b_11), tau)
        return _triple_array(a), total
    if b.shape[0] <= _MIXED21_FLOAT_MAX_D:
        rows, total = _newton_mixed21_floats(b.tolist(), tau)
        return np.array(rows), total
    return _newton_mixed21_arrays(b, tau)


def _newton_mixed21_arrays(b, tau):
    """The Newton phase of ``_prox_mixed21`` on d x d arrays."""
    b_rows = _row_norms(b)
    scale = np.add.reduce(b_rows)
    if not (_SAFE_MIN <= np.maximum.reduce(b_rows) and scale <= _SAFE_MAX):
        return _rescaled(_newton_mixed21_arrays, b, tau)
    s = 1.0 - tau / np.maximum(b_rows, tau)
    return _newton_mixed21_steps(b, tau, b + b, b_rows, scale, s, _MIXED21_NEWTON_STEPS)


def _newton_mixed21_steps(b, tau, twice_b, b_rows, scale, s, steps):
    """The array Newton loop from the scales s, with steps evaluations
    left, given 2B, the row norms of B and ||B||_{2,1}.

    The array phase runs it from the start scales, and the written-out
    kernels resume it from the state they hand over.  After its last
    evaluation s goes to the dual phase.
    """
    for steps in range(steps, 0, -1):
        pair = s[:, None] + s
        all_live = np.minimum.reduce(s) > 0.0
        if all_live:
            h = twice_b * (s / pair)
        else:
            live = pair > 0.0
            pair = np.where(live, pair, 1.0)
            h = twice_b * np.where(live, s / pair, 0.5)
        n = _row_norms(h)
        clipped = np.maximum(n, tau)
        target = 1.0 - tau / clipped
        residual = s - target
        weighted = residual * b_rows
        gap = float(weighted.dot(weighted))
        if np.minimum.reduce(n) < tau:
            gap += float((s * n).dot(np.maximum(tau - n, 0.0)))
        total = float(s.dot(n))
        if gap <= tau * MIXED21_GAP_RTOL * (total + scale):
            return twice_b * (s[:, None] * s / pair), total
        if steps == 1:
            break
        # d||h_i||/ds_k = (C_ik s_i - [i = k] (C s)_i) / ||h_i|| with
        # C = H * 2B / (s_i + s_j)^2; the diagonal of C cancels.  Rows with
        # ||h_i|| <= tau get a finite stand-in weight; they are not solved for.
        c = h * twice_b / (pair * pair)
        weight = tau / (clipped * clipped * clipped)
        # diag(1 + weight * (C s)) - (weight * s)_i C_ij, entry by entry as
        # that difference rounds: 0 - x off the diagonal, then the diagonal
        # added on.
        jacobian = (weight * s)[:, None] * c
        np.subtract(0.0, jacobian, out=jacobian)
        jacobian.ravel()[:: b.shape[0] + 1] += 1.0 + weight * c.dot(s)
        if np.minimum.reduce(target) > 0.0:
            s = np.minimum(np.maximum(s - np.linalg.solve(jacobian, residual), 0.0), 1.0)
            continue
        # Rows heading to zero take their target; Newton moves the rest,
        # dead rows that come back to life included.
        idx = np.flatnonzero(target > 0.0)
        if idx.size:
            step = np.linalg.solve(jacobian[np.ix_(idx, idx)], residual[idx])
            target[idx] = np.minimum(np.maximum(s[idx] - step, 0.0), 1.0)
        s = target
    return _dual_mixed21(b, tau, s, scale)


def _newton_mixed21_floats(rows, tau):
    """The Newton phase of ``_prox_mixed21`` on Python floats, for small d.

    Takes B as a list of rows and returns A as one.  It runs the kernel
    that ``_written_newton_mixed21`` writes out for d, which certifies on
    its path, screens out dead rows (``_screen_mixed21``), and otherwise
    hands over its state: 2B, the row norms, ||B||_{2,1}, s and the
    evaluations left, from which the array Newton loop
    (``_newton_mixed21_steps``) resumes.  The d = 2 mixed21 block runs
    the same Newton phase inline and, off its path, hands B here.
    """
    state = _written_newton_mixed21(len(rows))(rows, tau, _MIXED21_NEWTON_STEPS)
    if len(state) == 2:
        return state
    twice, b_rows, scale, s, steps = state
    a, total = _newton_mixed21_steps(
        np.array(rows), tau, np.array(twice), np.array(b_rows), scale, np.array(s), steps
    )
    return a.tolist(), total


def _screen_mixed21(rows, tau):
    """The mixed21 prox of B, as rows, and its norm, where a row of B dies.

    Row i is dead at the minimizer whenever ||(b_ii, 2 b_ij for j != i)||,
    its row of H at s_i = 0, is at most tau: with (b_ii, 2 b_ij ...) / tau
    as its dual row, inside the unit ball, the KKT conditions hold at A
    with every such row and column zero and the prox of B without them in
    the rest.  Each norm is the written-out kernel's test, in index order.
    A dead row's entries are zeros with the signs of B's, as the Newton
    output's are.  No row left gives A = 0; one row left is its diagonal
    entry soft-thresholded, as the d = 2 mixed21 block does; more run
    ``_newton_mixed21_floats`` on the smaller block, which screens again.
    """
    span = range(len(rows))
    live = []
    for i in span:
        row = rows[i]
        acc = 0.0
        for j in span:
            x = row[j] if j == i else row[j] + row[j]
            acc += x * x
        if math.sqrt(acc) > tau:
            live.append(i)
    a = [[x * 0.0 for x in row] for row in rows]
    total = 0.0
    if len(live) > 1:
        block, total = _newton_mixed21_floats([[rows[i][j] for j in live] for i in live], tau)
        for i, row in zip(live, block):
            for j, x in zip(live, row):
                a[i][j] = x
    elif live:
        (i,) = live
        b_ii = rows[i][i]
        shrunk = abs(b_ii) - tau
        if shrunk > 0.0:
            a[i][i] = b_ii - tau if b_ii > 0.0 else b_ii + tau
            total = shrunk
    return a, total


# The written-out Newton kernels by d, each compiled on its first use.
_WRITTEN_NEWTON = {}


def _written_newton_mixed21(d):
    """The Newton phase at d, written out: kernel(rows, tau, newton_steps).

    The kernel returns (A as rows, its norm), or hands the array Newton
    loop its state.  It is compiled from ``_newton_mixed21_source(d)`` on
    the first call for d.
    """
    return _written(_WRITTEN_NEWTON, d, _newton_mixed21_source, globals())


# The written-out Newton phase, a block of statements with each
# d-dependent part a field: a run of statements, one per line, or of
# terms.  It reads B's diagonal and its squares, 2B (t), the row norms,
# ||B||_{2,1} as scale, tau, sqrt and the cap newton_steps, and leaves
# certified, with A's entries t_ij u_ij and its norm total, or the
# evaluations left in steps.  Each pass of the loop is one evaluation and
# one Newton step, and steps counts the evaluations left, this one
# included; a cap of 0 leaves steps at 0.
_NEWTON_MIXED21_SKELETON = """\
{start}
{diagonal_numerators}
tolerance = tau * MIXED21_GAP_RTOL
certified = False
steps = 0
for steps in range(newton_steps, 0, -1):
    {pair_sums}
    if not ({all_pairs_live}):
        break
    {h}
    {h_norms}
    if not ({all_above_tau}):
        break
    {residuals}
    {weighted}
    total = {total}
    if {gap} <= tolerance * (total + scale):
        {diagonal_pair_sums}
        {shares}
        certified = True
        break
    if steps == 1:
        steps = 0
        break
    {squared_pair_sums}
    {jacobian}
    {elimination}
    {back_substitution}
    {step}
"""

# The kernel around that block.  A dead row goes to the screen; off its
# path it hands the array Newton loop its state: 2B, the row norms,
# ||B||_{2,1} and s, then the evaluations left.
_NEWTON_MIXED21_FUNCTION = """\
def newton(rows, tau, newton_steps):
    sqrt = math.sqrt
    {unpack} = rows
    {twice}
    {squares}
    {row_norms}
    scale = {scale}
    if not (({in_range}) and scale <= _SAFE_MAX):
        return _rescaled(_newton_mixed21_floats, rows, tau)
    if {any_dead}:
        return _screen_mixed21(rows, tau)
    {newton}
    if certified:
        return [{a}], total
    return {state}, steps
"""


def _newton_mixed21_source(d):
    """Source of ``_newton_mixed21_floats``' kernel at d, written out.

    Each entry of B, 2B (t), H, the Jacobian M and the augmented column e
    is a named local, and so is each pair sum p_ij = s_i + s_j, formed once
    per pair; each h_ij is kept for the Jacobian.  It makes the array
    loop's evaluation and Newton step entry by entry, every sum with + in
    index order, and solves the Newton system by Gaussian elimination.  It
    leaves out what no bit depends on: H's diagonal is B's, exactly in the
    safe range (t_ii (s_i / p_ii) for a live row, t_ii 0.5 for a dead
    one), so b_ii^2 and b_ii t_ii are formed once per prox; sums whose
    terms are never -0.0 start from their first term; and with every row
    above tau the gap term for rows below it is 0.0.

    Right after the range test it screens: where a row's
    ||(b_ii, 2 b_ij for j != i)|| is at most tau (r_i <= tau first, which
    that norm is never below), ``_screen_mixed21`` solves the prox.  Its
    path needs no dead pair (every p_ij > 0 for i != j) and every
    ||h_i|| > tau, which is what makes each target positive, and an
    elimination with no pivot swap, where |m_ik| > |m_kk| for some i > k
    means one.  A row at s_i = 0 comes back to life on it: p_ii takes the
    stand-in 1 in the Jacobian and the output.  Otherwise the kernel
    returns (2B, the row norms, ||B||_{2,1}, s, the evaluations left), and
    ``_newton_mixed21_steps`` evaluates s again and goes on.  After its
    last evaluation it takes no Newton step: it hands over s with no
    evaluation left, which goes to the dual phase.  Row norms out of the
    safe range solve the problem rescaled.  d = 1 differs only in how the
    rows unpack.  The Newton phase is a block of statements, the field
    ``newton`` of ``_newton_mixed21_fields(d)``, which the d = 2 mixed21
    prox block also runs inline (``_prox_block``).
    """
    return _fill_skeleton(_NEWTON_MIXED21_FUNCTION, _newton_mixed21_fields(d))


def _newton_mixed21_fields(d):
    """The fields of the written-out Newton kernel at d, the filled block
    ``newton`` among them."""
    span = range(d)
    full = [(i, j) for i in span for j in span]
    diagonal = [(i, i) for i in span]
    pairs = [(i, j) for i, j in full if i < j]
    off = [(i, j) for i, j in full if i != j]

    def each(template, over, sep=", "):
        # template for each (i, j) in over; {ij} names what (i, j) shares
        # with (j, i).
        return sep.join(
            template.format(i=i, j=j, ij="%d%d" % (min(i, j), max(i, j))) for i, j in over
        )

    def rows(template, brackets="[]"):
        return ", ".join(
            brackets[0] + each(template, [(i, j) for j in span]) + brackets[1] for i in span
        )

    def row_norm(i, name):
        # The root of the row's squares in index order, the diagonal one sq_ii.
        return "sqrt(%s)" % " + ".join(
            "sq%d%d" % (i, i) if j == i else "%s%d%d * %s%d%d" % (name, i, j, name, i, j)
            for j in span
        )

    def m(i, j):
        # Entry (i, j) of the augmented system [M | e].
        return "e%d" % i if j == d else "m%d%d" % (i, j)

    # p_ii = s_i + s_i, and the stand-in 1 for a dead row.
    diagonal_pair_sum = "p{i}{i} = s{i} + s{i}\nif not p{i}{i} > 0.0:\n    p{i}{i} = 1.0"
    # The Jacobian row by row: weight, weight * s_i, C_ij and M_ij.
    jacobian = []
    for i in span:
        others = [(i, j) for j in span if j != i]
        jacobian += [
            each("k{i} = tau / (n{i} * n{i} * n{i})\nv{i} = k{i} * s{i}", [(i, i)]),
            each(diagonal_pair_sum + "\nc{i}{i} = ht{i}{i} / (p{i}{i} * p{i}{i})", [(i, i)]),
            each("c{i}{j} = h{i}{j} * t{i}{j} / q{ij}", others, "\n"),
            "m%d%d = (0.0 - v%d * c%d%d) + (1.0 + k%d * (%s))"
            % (i, i, i, i, i, i, each("c{i}{j} * s{j}", [(i, j) for j in span], " + ")),
            each("m{i}{j} = 0.0 - v{i} * c{i}{j}", others, "\n"),
        ]
    # Elimination, column by column, with no pivot swap.
    elimination = []
    for k in span:
        later = range(k + 1, d)
        if later:
            elimination += [
                "pivot = abs(m%d%d)" % (k, k),
                "if %s:" % " or ".join("abs(m%d%d) > pivot" % (i, k) for i in later),
                "    break",
            ]
        for i in later:
            elimination.append("f%d%d = m%d%d / m%d%d" % (i, k, i, k, k, k))
            elimination += [
                "%s -= f%d%d * %s" % (m(i, j), i, k, m(k, j)) for j in range(k + 1, d + 1)
            ]
    back_substitution = [
        "x%d = (%s) / m%d%d"
        % (k, " - ".join(["e%d" % k] + ["m%d%d * x%d" % (k, j, j) for j in range(k + 1, d)]), k, k)
        for k in reversed(span)
    ]
    fields = {
        "unpack": "(b00,)," if d == 1 else rows("b{i}{j}", "()"),
        "twice": each("t{i}{j} = b{i}{j} + b{i}{j}", full, "\n"),
        "squares": each("sq{i}{i} = b{i}{i} * b{i}{i}", diagonal, "\n"),
        "row_norms": "\n".join("r%d = %s" % (i, row_norm(i, "b")) for i in span),
        "scale": each("r{i}", diagonal, " + "),
        "in_range": each("_SAFE_MIN <= r{i}", diagonal, " or "),
        "any_dead": " or ".join(
            "r%d <= tau and %s <= tau" % (i, row_norm(i, "t")) for i in span
        ),
        "start": each("s{i} = 1.0 - tau / (tau if tau > r{i} else r{i})", diagonal, "\n"),
        "diagonal_numerators": each("ht{i}{i} = b{i}{i} * t{i}{i}", diagonal, "\n"),
        "pair_sums": each("p{i}{j} = s{i} + s{j}", pairs, "\n"),
        "all_pairs_live": each("p{i}{j} > 0.0", pairs, " and ") or "True",
        "h": each("h{i}{j} = t{i}{j} * (s{j} / p{ij})", off, "\n"),
        "h_norms": "\n".join("n%d = %s" % (i, row_norm(i, "h")) for i in span),
        "all_above_tau": each("n{i} > tau", diagonal, " and "),
        "residuals": each("e{i} = s{i} - (1.0 - tau / n{i})", diagonal, "\n"),
        "weighted": each("w{i} = e{i} * r{i}", diagonal, "\n"),
        "total": each("s{i} * n{i}", diagonal, " + "),
        "gap": each("w{i} * w{i}", diagonal, " + "),
        "diagonal_pair_sums": each(diagonal_pair_sum, diagonal, "\n"),
        "shares": each("u{i}{j} = s{i} * s{j} / p{i}{j}", diagonal + pairs, "\n"),
        "a": rows("t{i}{j} * u{ij}"),
        "squared_pair_sums": each("q{i}{j} = p{i}{j} * p{i}{j}", pairs, "\n"),
        "jacobian": "\n".join(jacobian),
        "elimination": "\n".join(elimination),
        "back_substitution": "\n".join(back_substitution),
        "step": each(
            "s{i} -= x{i}\ns{i} = 0.0 if s{i} < 0.0 else 1.0 if s{i} > 1.0 else s{i}",
            diagonal, "\n",
        ),
        "state": "[%s], [%s], scale, [%s]" % (
            rows("t{i}{j}"), each("r{i}", diagonal), each("s{i}", diagonal)
        ),
    }
    fields["newton"] = _fill_skeleton(_NEWTON_MIXED21_SKELETON, fields).rstrip("\n")
    return fields


def _written(cache, key, source, namespace):
    """cache[key], built on the first call for key: the one function that
    the text source(key) defines, compiled and run in namespace.

    namespace is a module's globals, not a copy, so the function reads that
    module's names at each call, and a test that patches one reaches it.
    A build costs milliseconds, which an import would pay for every key, so
    none runs at import.  The text goes into ``linecache`` under its
    compile name, for tracebacks, pdb and ``inspect.getsource``; an entry
    with no mtime survives ``linecache.checkcache``.
    """
    kernel = cache.get(key)
    if kernel is None:
        text = source(key)
        filename = f"<{source.__name__}: {key!r}>"
        linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
        defined = {}
        exec(compile(text, filename, "exec"), namespace, defined)
        (kernel,) = defined.values()
        cache[key] = kernel
    return kernel


def _fill_skeleton(skeleton, fields):
    """The source of a written-out kernel: skeleton with each {field} filled.

    A field may hold several lines; each one after the first takes the
    indent of the skeleton line that names it, so a run of statements, or
    a block, sits where its field stands.  Every written-out source is
    filled with it.
    """
    lines = []
    for line in skeleton.splitlines():
        indent = line[: len(line) - len(line.lstrip())]
        lines.append(line.format(**fields).replace("\n", "\n" + indent))
    return "\n".join(lines) + "\n"


# The two written-out kernels on the triple, by kind, each compiled on its
# first use.
_WRITTEN_TRIPLE = {}


def _prox_fro_triple(a, tau):
    """The d = 2 fro prox on the triple, (A, its norm), which the fro block
    runs rescaled: that block, compiled on the first call."""
    return _written(_WRITTEN_TRIPLE, NormKind.FROBENIUS, _prox_triple_source, globals())(a, tau)


def _prox_mixed21_triple(a, tau):
    """The d = 2 mixed21 prox on the triple, (A, its norm), which
    ``_prox_mixed21`` runs at d = 2 and the mixed21 block runs rescaled:
    that block, compiled on the first call."""
    return _written(_WRITTEN_TRIPLE, NormKind.MIXED21, _prox_triple_source, globals())(a, tau)


def _prox_triple_source(kind):
    """Source of fro's or mixed21's written-out prox kernel on the triple."""
    return _fill_skeleton(_PROX_TRIPLE_SKELETON, {"kind": kind.name, "prox": _prox_block(kind)})


# newton_steps is the mixed21 block's Newton cap, read once per call.
_PROX_TRIPLE_SKELETON = """\
def kernel(a, tau):
    if tau == 0.0:
        return a, _norm(_triple_array(a), NormKind.{kind})
    sqrt = math.sqrt
    newton_steps = _MIXED21_NEWTON_STEPS
    a_00, a_01, a_11 = a
    {prox}
    return (a_00, a_01, a_11), a_norm
"""


def _dual_mixed21(b, tau, s, scale):
    """The dual phase of ``_prox_mixed21``, warm-started at the H of scales s.

    Accelerated projected gradient on the dual (FISTA with gradient restart,
    Beck & Teboulle 2009), iterating in K = skew(G): G <- P_rows(B/tau + K)
    is projected gradient with step 1/tau^2, and momentum is applied to K.
    Its primal point A = B - tau sym(G) is exactly symmetric and has R = 0.
    H = 2B * s_j / (s_i + s_j), 0.5 for a dead pair, is formed as the
    Newton phases form it.  ``scale`` is ||B||_{2,1}.
    """
    pair = s[:, None] + s
    live = pair > 0.0
    h = (b + b) * np.where(live, s / np.where(live, pair, 1.0), 0.5)
    scaled = b / tau
    k = k_prev = (h - b) / tau
    t = 1.0
    for _ in range(_MIXED21_DUAL_STEPS):
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = k + ((t - 1.0) / t_next) * (k - k_prev)
        shifted = scaled + y
        g = shifted / np.maximum(_row_norms(shifted), 1.0)[:, None]
        a = b - (g + g.T) * (0.5 * tau)
        total = float(_row_norms(a).sum())
        if total - float((g * a).sum()) <= MIXED21_GAP_RTOL * (total + scale):
            return a, total
        k_prev, k = k, (g - g.T) * 0.5
        if ((y - k) * (k - k_prev)).sum() > 0.0:
            t_next = 1.0
        t = t_next
    raise NumericalError(
        f"mixed21 prox did not certify its duality gap in {_MIXED21_DUAL_STEPS} dual steps"
    )


def sym_eigendecomposition(a):
    """Eigendecomposition of a symmetric matrix by LAPACK (``np.linalg.eigh``).

    Returns (eigenvalues ascending, eigenvector columns) with
    A = Q diag(w) Q^T.  Raises ValueError on a non-finite or asymmetric
    matrix, and NumericalError if LAPACK reports that it did not converge.
    """
    return _eigh(require_symmetric(a))


def _eigh(a):
    try:
        eigenvalues, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    return eigenvalues, vectors


# The prox kernels by kind: ``prox`` and stage one's array loop look theirs
# up once.
_PROX = {
    NormKind.L1: _prox_l1,
    NormKind.FROBENIUS: _prox_fro,
    NormKind.MIXED21: _prox_mixed21,
    NormKind.TRACE: _prox_trace,
}


def _prox_block(kind):
    """kind's d = 2 prox block (``_PROX_BLOCKS``), with mixed21's Newton
    phase written in at d = 2.  Its text is built on each call, not at
    import: the written-out sources that hold it are built once each."""
    block = _PROX_BLOCKS[kind]
    if kind is NormKind.MIXED21:
        block = _fill_skeleton(block, {"newton": _newton_mixed21_fields(2)["newton"]})
    return block


# The d = 2 proxes at tau > 0 by kind, each stated once: a block that
# reads the triple a_00, a_01, a_11, tau and the local sqrt = math.sqrt,
# sets the triple and a_norm, and reads other names from the module it is
# compiled in.  Trace also keeps the float loop's spectrum locals, and
# mixed21 solves on a copy B of the triple, within the cap newton_steps;
# its Newton phase is a field, {newton}, that ``_prox_block`` fills.  Inline
# in the float loop a block's names are the loop's locals, so a block binds
# none that the loop reads but the triple, a_norm and trace's spectrum.
_PROX_BLOCKS = {
    # sign(x) max(|x| - tau, 0) entry by entry, which makes a negative
    # entry that shrinks to zero -0.0 and is x - tau or x + tau exactly, as
    # ``_prox_l1`` rounds; a NaN takes the else branch and propagates.  The
    # off-diagonal entry adds its term to the norm twice.
    NormKind.L1: """\
a_norm = 0.0
shrunk = abs(a_00) - tau
if shrunk <= 0.0:
    a_00 = -0.0 if a_00 < 0.0 else 0.0
else:
    a_norm += shrunk
    a_00 = a_00 - tau if a_00 > 0.0 else a_00 + tau
shrunk = abs(a_01) - tau
if shrunk <= 0.0:
    a_01 = -0.0 if a_01 < 0.0 else 0.0
else:
    a_norm += shrunk
    a_norm += shrunk
    a_01 = a_01 - tau if a_01 > 0.0 else a_01 + tau
shrunk = abs(a_11) - tau
if shrunk <= 0.0:
    a_11 = -0.0 if a_11 < 0.0 else 0.0
else:
    a_norm += shrunk
    a_11 = a_11 - tau if a_11 > 0.0 else a_11 + tau
""",
    # Each norm is ``_fro``'s sum of squares, in index order.  A square is
    # never -0.0, so the sum needs no 0.0 to start from.  A zero triple
    # gets the zeros of ``_prox_fro``.  The shrunk norm,
    # total - tau >= 2^-53 total > 2^-353, has a normal largest square: it
    # needs no test.  A norm out of the safe range solves the problem
    # rescaled, by ``_prox_fro_triple``.
    NormKind.FROBENIUS: """\
square = a_01 * a_01
total = sqrt(a_00 * a_00 + square + square + a_11 * a_11)
if not _SAFE_MIN <= total <= _SAFE_MAX and (a_00 or a_01 or a_11):
    (a_00, a_01, a_11), a_norm = _rescaled(_prox_fro_triple, (a_00, a_01, a_11), tau)
elif total <= tau:
    a_00 = a_01 = a_11 = a_norm = 0.0
else:
    shrink = 1.0 - tau / total
    a_00 = a_00 * shrink
    a_01 = a_01 * shrink
    a_11 = a_11 * shrink
    square = a_01 * a_01
    a_norm = sqrt(a_00 * a_00 + square + square + a_11 * a_11)
""",
    # Inside the safe range it first solves by cases.  Row i, with partner
    # j, is dead at the minimizer whenever ||(b_ii, 2 b_ij)||, the row of H
    # at s_i = 0, is at most tau (and, while row j lives, only then): the
    # KKT conditions hold at A with row i zero and
    # a_jj = sign(b_jj) max(|b_jj| - tau, 0), with (b_ii, 2 b_ij) / tau as
    # row i's dual row, inside the unit ball.  That A is the exact prox, of
    # norm max(|b_jj| - tau, 0) and duality gap 0; it covers both rows
    # dead, where |b_jj| <= tau.  Its zeros take the signs of B's entries,
    # as the Newton output's do, and the test computes each norm in the
    # Newton phase's sqrt(x*x + y*y) form.  In the benchmark's
    # ``solver_tiny`` fits, 51% of the mixed21 proxes end here.
    #
    # Otherwise it runs the Newton phase of the written-out d = 2 kernel
    # (``_newton_mixed21_source(2)``), which ``_prox_block`` writes in at
    # {newton}: the kernel's operations in their order, on B's entries b_ij
    # and 2B's t_ij, with b_01 = b_10 and t_01 = t_10.  Where it certifies,
    # A is t_ij u_ij and its norm total.  Where it leaves its path, at a
    # dead pair, a row of H at or below tau, a pivot swap or the cap,
    # ``_newton_mixed21_floats`` takes B from the start: its d = 2 kernel
    # leaves the path at the same point, and the array Newton loop goes on
    # from there.  The kernel's screen states the dead-row rule again, for
    # every d up to 5, with the same tests and outputs.
    # Row norms out of the safe range solve the problem rescaled, by
    # ``_prox_mixed21_triple``.
    NormKind.MIXED21: """\
b00, b01, b11 = a_00, a_01, a_11
sq00 = b00 * b00
sq01 = b01 * b01
sq11 = b11 * b11
r0 = sqrt(sq00 + sq01)
r1 = sqrt(sq01 + sq11)
scale = r0 + r1
if not (_SAFE_MIN <= (r0 if r0 > r1 else r1) and scale <= _SAFE_MAX):
    (a_00, a_01, a_11), a_norm = _rescaled(_prox_mixed21_triple, (b00, b01, b11), tau)
else:
    t01 = t10 = b01 + b01
    # A dead row: the partner's diagonal entry soft-thresholded, and
    # zeros with the signs of B's entries.  r_i rounds to at most the
    # norm of the test, so r_i > tau rules row i out without it.
    if r0 <= tau and sqrt(sq00 + t01 * t01) <= tau:
        a_norm = abs(b11) - tau
        a_00 = b00 * 0.0
        a_01 = b01 * 0.0
        if a_norm <= 0.0:
            a_11 = b11 * 0.0
            a_norm = 0.0
        else:
            a_11 = b11 - tau if b11 > 0.0 else b11 + tau
    elif r1 <= tau and sqrt(t01 * t01 + sq11) <= tau:
        a_norm = abs(b00) - tau
        a_01 = b01 * 0.0
        a_11 = b11 * 0.0
        if a_norm <= 0.0:
            a_00 = b00 * 0.0
            a_norm = 0.0
        else:
            a_00 = b00 - tau if b00 > 0.0 else b00 + tau
    else:
        t00 = b00 + b00
        t11 = b11 + b11
        {newton}
        if certified:
            a_00 = t00 * u00
            a_01 = t01 * u01
            a_11 = t11 * u11
            a_norm = total
        else:
            ((a_00, a_01), (_, a_11)), a_norm = _newton_mixed21_floats(
                [[b00, b01], [b01, b11]], tau
            )
""",
    # The spectrum (x_0, x_1, v_00, v_01, v_10, v_11) is the thresholded
    # eigenvalues and the eigenvector rows; a zero step thresholds the one
    # the last prox kept.  An eigenvalue that shrinks to zero is +0.0, and
    # so are its terms.  p_00 = v_00^2 x_0 + v_01^2 x_1 is -0.0 only if
    # both terms are, which needs both x_j < 0 and both terms to round to
    # zero; but a row of V is a unit vector, with an entry of magnitude
    # about 1/sqrt(2) or more, whose term cannot.  So p_00, and p_11 on
    # V's second row, start from their first term.  p_01 starts from 0.0,
    # so neither it nor a_01 = (p_01 + p_10) / 2 is ever -0.0.  Without
    # that add a_01 is -0.0 where V's entries are 0.0 and +-1.0 and both
    # of p_01's terms are -0.0: a diagonal A with both x_j < 0, or an
    # a_01 < 0 so small that zeta^2 overflows (t = +-0.0) with
    # x_0 < 0 < x_1.
    NormKind.TRACE: """\
if decompose:
    x_0, x_1, v_00, v_01, v_10, v_11 = _spectrum_floats((a_00, a_01, a_11))
    decompose = False
a_norm = 0.0
shrunk = abs(x_0) - tau
if shrunk <= 0.0:
    x_0 = 0.0
else:
    a_norm += shrunk
    x_0 = x_0 - tau if x_0 > 0.0 else x_0 + tau
shrunk = abs(x_1) - tau
if shrunk <= 0.0:
    x_1 = 0.0
else:
    a_norm += shrunk
    x_1 = x_1 - tau if x_1 > 0.0 else x_1 + tau
q_00 = v_00 * x_0
q_01 = v_01 * x_1
q_10 = v_10 * x_0
q_11 = v_11 * x_1
p_00 = q_00 * v_00 + q_01 * v_01
p_01 = 0.0 + q_00 * v_10 + q_01 * v_11
p_10 = q_10 * v_00 + q_11 * v_01
p_11 = q_10 * v_10 + q_11 * v_11
a_00 = (p_00 + p_00) / 2.0
a_01 = (p_01 + p_10) / 2.0
a_11 = (p_11 + p_11) / 2.0
""",
}
