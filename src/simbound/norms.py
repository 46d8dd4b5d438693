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
duality-gap certificate (see ``prox``), or at d = 2 in closed form when a
row dies.  Eigendecompositions go to LAPACK, except that stage one's float
loop takes its 2x2 one in closed form (``_spectrum_floats``).

Each kind's prox is its own kernel on arrays, held by kind in ``_PROX``;
``prox`` and stage one's array loop (``similarity._train_arrays``) look a
kernel up once per call or fit, so no prox call tests the kind.  Stage
one's float loop (``similarity._train_floats``, written out per sample
size m and norm kind and compiled on the first fit at (m, kind)) holds a
2x2 matrix as the three Python floats (a_00, a_01, a_11), the shape of
its tiny fits, and runs its kind's prox inline.  The d = 2 mixed21 prox
is stated once, as the block ``_PROX_MIXED21_BLOCK``, which that loop
holds and from which ``_prox_mixed21_triple``, every other 2x2 mixed21
prox, is compiled on its first call.  ``_prox_fro_triple`` solves a fro
prox on the triple out of the safe range.  ``_written`` builds every
written-out function; an import builds none.

Each fro and mixed21 kernel tests the norm or row norms it computes, and
the trace kernel the spectral norm that LAPACK returned (LAPACK scales a
matrix by its own thresholds), against one safe range, and out of it
solves its own problem on B and tau scaled by a power of two
(``_rescaled``).  So every norm and prox obeys
prox(2^k B, 2^k tau) = 2^k prox(B, tau) bit for bit wherever no entry is
subnormal or infinite.
"""

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
    """kernel(b), a norm, or kernel(b, tau)[:2], a prox point and its norm,
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
        a, total = kernel(scaled, math.ldexp(min(tau, len(b) * largest), -exponent))[:2]
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
    minimizer.  At d = 2, where ||(b_ii, 2 b_ij)|| <= tau for a row i, that
    row of the minimizer is zero, and mixed21 returns the exact minimizer in
    closed form (``_prox_mixed21_triple``).
    """
    b = require_symmetric(b)
    _require("threshold", tau, _NONNEGATIVE)
    kind = _norm_kind(kind)
    # A sum of squares that overflows is detected and recomputed rescaled.
    with np.errstate(over="ignore"):
        return _PROX[kind](b, float(tau))[0]


# The prox kernels, one per kind, on an already validated symmetric B and
# tau >= 0: kernel(b, tau, spectrum=None) returns the prox point, its norm,
# and for trace its spectrum: the thresholded eigenvalues and the
# eigenvectors, from which the point was rebuilt (None for the other
# kinds).  At tau = 0 each returns a copy of B, ``_norm(b, kind)`` and the
# spectrum it was given.  For fro both the shrink factor and the returned
# norm come from ``_fro``, which rounds as ``norm`` does; l1, mixed21 and
# trace return the value their own computation already produced (shrunk
# magnitudes, row norms, thresholded eigenvalues), which spares trace a
# second eigendecomposition.
#
# ``spectrum``, if given, is the spectrum that a trace prox returned
# together with B itself.  The trace prox then thresholds it by tau and
# skips the eigendecomposition.  This is the prox of B because spectral
# soft-thresholds compose: thresholding by tau1 and then by tau2 is
# thresholding by tau1 + tau2.  Stage one passes it on every zero step,
# where the prox input is the previous prox output.  The mixed21 prox does
# not compose that way, so it takes no such shortcut.
#
# B and the spectrum are never written to.  ``_PROX``, at the end of the
# module, holds these kernels by kind.


def _prox_l1(b, tau, spectrum=None):
    if tau == 0.0:
        return b.copy(), _norm(b, NormKind.L1), spectrum
    # |a| is exactly the shrunk magnitudes, so their sum is norm(a).
    shrunk = _shrunk_magnitudes(b, tau)
    a = np.sign(b)
    a *= shrunk
    return a, float(np.add.reduce(shrunk, axis=None)), None


def _prox_fro(b, tau, spectrum=None):
    if tau == 0.0:
        return b.copy(), _norm(b, NormKind.FROBENIUS), spectrum
    total = _fro(b)
    if total <= tau:
        return np.zeros_like(b), 0.0, None
    # A finite total from _fro is exact, and so are the shrink and _fro(a)
    # at any scale; only a norm beyond the float range needs B rescaled.
    if total == math.inf:
        return (*_rescaled(_prox_fro, b, tau), None)
    a = b * (1.0 - tau / total)
    return a, _fro(a), None


def _prox_trace(b, tau, spectrum=None):
    if tau == 0.0:
        return b.copy(), _norm(b, NormKind.TRACE), spectrum
    if spectrum is None:
        eigenvalues, vectors = _eigh(b)
        if not _lapack_in_range(max(-eigenvalues.item(0), eigenvalues.item(-1)), len(b)):
            return (*_rescaled(_prox_trace, b, tau), None)
    else:
        # Thresholding a given spectrum calls no LAPACK, so it needs no test.
        eigenvalues, vectors = spectrum
    shrunk = _shrunk_magnitudes(eigenvalues, tau)
    thresholded = np.sign(eigenvalues)
    thresholded *= shrunk
    product = (vectors * thresholded) @ vectors.T
    a = product + product.T
    a /= 2.0
    return a, float(np.add.reduce(shrunk)), (thresholded, vectors)


def _shrunk_magnitudes(x, tau):
    # max(|x| - tau, 0), formed in one buffer.
    shrunk = np.abs(x)
    shrunk -= tau
    return np.maximum(shrunk, 0.0, out=shrunk)


# Stage one's d = 2 proxes on floats.  The float loop
# (``similarity._train_floats``, one skeleton written out per sample size
# and kind) holds a symmetric 2x2 matrix as the triple (a_00, a_01, a_11)
# of Python floats, where a NumPy call costs more than the arithmetic,
# and states the l1, fro and trace proxes inline; its mixed21 prox is
# ``_PROX_MIXED21_BLOCK``, below.  The two kernels on the triple, for fro
# out of the safe range and for every other 2x2 mixed21 prox, take the
# triple and tau and return the prox triple and its norm; at tau = 0, the
# triple itself and ``_norm`` of its array.  The off-diagonal entry
# stands for a_01 and a_10: an entrywise prox acts on it once and adds its
# term to the norm twice, in index order, and the trace rebuild takes
# (p_01 + p_10) / 2 for both, which rounds as (p_10 + p_01) / 2 does, so
# each prox rounds as it would on the 2x2 matrix entry by entry in index
# order.  Nonzero entries and the norm may
# differ from the array kernels' in the last bits.  The triple is never
# written to.


def _triple_array(a):
    """The symmetric 2x2 array of the triple (a_00, a_01, a_11)."""
    a_00, a_01, a_11 = a
    return np.array([[a_00, a_01], [a_01, a_11]])


def _prox_fro_triple(a, tau):
    # Each norm is _fro's sum of squares with += in index order.  A square
    # is never -0.0, so the sum needs no 0.0 to start from.  A zero triple
    # gets the zeros of ``_prox_fro``.  The shrunk norm, total - tau >=
    # 2^-53 total > 2^-353, has a normal largest square: it needs no test.
    if tau == 0.0:
        return a, _norm(_triple_array(a), NormKind.FROBENIUS)
    a_00, a_01, a_11 = a
    square = a_01 * a_01
    total = math.sqrt(a_00 * a_00 + square + square + a_11 * a_11)
    if not _SAFE_MIN <= total <= _SAFE_MAX and (a_00 or a_01 or a_11):
        return _rescaled(_prox_fro_triple, a, tau)
    if total <= tau:
        return (0.0, 0.0, 0.0), 0.0
    factor = 1.0 - tau / total
    a = (a_00 * factor, a_01 * factor, a_11 * factor)
    a_00, a_01, a_11 = a
    square = a_01 * a_01
    return a, math.sqrt(a_00 * a_00 + square + square + a_11 * a_11)


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
# The largest d whose mixed21 Newton phase runs on Python floats.  On small
# matrices a NumPy call costs more than its arithmetic.  Per prox, on inputs
# captured from stage-one fits (2-vCPU host, Python 3.11, numpy 2.4; three
# interleaved runs, best of 7 rounds each), the float phase ran 6.4-6.6x as
# fast as the array phase at d = 2, 2.1-2.2x at d = 4, 1.5-1.6x at d = 5,
# 1.1-1.2x at d = 6 and 0.9x at d = 8.  d = 6 and above stay on arrays:
# float work grows faster with d, and floats lose by d = 8.
_MIXED21_FLOAT_MAX_D = 5


def _row_norms(x):
    # np.add.reduce is what ndarray.sum calls, without its Python wrapper.
    return np.sqrt(np.add.reduce(x * x, axis=1))


def _prox_mixed21(b, tau, spectrum=None):
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
    then takes over from the last H.

    A 2x2 B goes to the triple kernel ``_prox_mixed21_triple``, which
    solves a dead row in closed form and otherwise runs the Newton phase
    written out (``_PROX_MIXED21_BLOCK``, which stage one's float loop
    also runs), so every d = 2 mixed21 prox is the same.  Up to
    d = ``_MIXED21_FLOAT_MAX_D`` (5) the Newton phase runs on Python floats
    (``_newton_mixed21_floats``), above it on arrays
    (``_newton_mixed21_arrays``), whose cost grows more slowly with d.  The
    two round differently: dot products and the Newton solve may differ in
    the last bits.  At d = 3 to 5 the float phase runs written out first,
    one kernel per d compiled on its first use
    (``_newton_mixed21_source``), with the float loops' bits: while every
    row stays live and no pivot swaps, which is every prox of the
    benchmark's certify trials, it certifies alone; otherwise the loops go
    on from its state.

    Where the row norms of B leave the safe range, which also turns away a
    non-finite row, each Newton phase solves its problem rescaled
    (``_rescaled``).
    """
    if tau == 0.0:
        return b.copy(), _norm(b, NormKind.MIXED21), spectrum
    if b.shape[0] == 2:
        (b_00, b_01), (_, b_11) = b.tolist()
        a, total = _prox_mixed21_triple((b_00, b_01, b_11), tau)
        return _triple_array(a), total, None
    if b.shape[0] <= _MIXED21_FLOAT_MAX_D:
        rows, total = _newton_mixed21_floats(b.tolist(), tau)
        return np.array(rows), total, None
    return (*_newton_mixed21_arrays(b, tau), None)


def _newton_mixed21_arrays(b, tau):
    """The Newton phase of ``_prox_mixed21`` on d x d arrays."""
    b_rows = _row_norms(b)
    scale = np.add.reduce(b_rows)
    if not (_SAFE_MIN <= np.maximum.reduce(b_rows) and scale <= _SAFE_MAX):
        return _rescaled(_newton_mixed21_arrays, b, tau)
    twice_b = b + b
    s = 1.0 - tau / np.maximum(b_rows, tau)
    for _ in range(_MIXED21_NEWTON_STEPS):
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
    return _dual_mixed21(b, tau, h, scale)


def _newton_mixed21_floats(rows, tau):
    """The Newton phase of ``_prox_mixed21`` on Python floats, for small d.

    Takes B as a list of rows and returns A as one, with the array phase's
    steps entry by entry and no NumPy call.  Every sum accumulates with +=
    in index order: the built-in sum compensates from Python 3.12 on, which
    would tie the bits to the interpreter.  Dead pairs (s_i = s_j = 0) take
    pair 1, so the output entry (b_ij + b_ij) * (s_i s_j / pair_ij) keeps
    the array phase's signed zeros and is exactly symmetric.

    At d in {3, 4, 5} the kernel that ``_written_newton_mixed21`` writes
    out for d runs first.  It makes these loops' operations on named
    floats while every row stays live and the elimination needs no pivot
    swap, and returns their bits; otherwise it hands over its state (2B,
    the row norms, ||B||_{2,1}, s and the evaluations left), and the loops
    continue from it.  So the loops run d in {1, 2}, what the kernel hands
    over, and the reference that the tests hold the kernel to; the d = 2
    block ``_PROX_MIXED21_BLOCK`` runs them written out too.

    Each evaluation makes one pass over H for its row norms, the gap and
    the total, and keeps no entry of H.  An iterate that does not certify
    forms its Jacobian rows from the same products again, and so, after
    the last step, does the H handed to the dual phase.  The Newton system
    is solved by ``_solve_floats`` instead of LAPACK.  The dual phase runs
    on arrays.  The loops index their lists: in Python 3.11 a zip over a
    few entries costs more.
    """
    sqrt = math.sqrt
    span = range(len(rows))
    if 2 < len(rows) <= _MIXED21_FLOAT_MAX_D:
        state = _written_newton_mixed21(len(rows))(rows, tau, _MIXED21_NEWTON_STEPS)
        if len(state) == 2:
            return state
        twice, b_rows, scale, s, steps = state
    else:
        twice = []
        b_rows = []
        scale = 0.0
        for row in rows:
            twice_i = []
            acc = 0.0
            for x in row:
                twice_i.append(x + x)
                acc += x * x
            twice.append(twice_i)
            norm_i = sqrt(acc)
            b_rows.append(norm_i)
            scale += norm_i
        if not (_SAFE_MIN <= max(b_rows) and scale <= _SAFE_MAX):
            return _rescaled(_newton_mixed21_floats, rows, tau)
        # max(x, tau) is written tau if tau > x else x, NaN included.
        s = []
        for norm_i in b_rows:
            s.append(1.0 - tau / (tau if tau > norm_i else norm_i))
        steps = _MIXED21_NEWTON_STEPS
    evaluated = s
    for _ in range(steps):
        clipped = []
        target = []
        gap = 0.0
        below = 0.0
        total = 0.0
        for i in span:
            s_i = s[i]
            twice_i = twice[i]
            acc = 0.0
            for j in span:
                s_j = s[j]
                p = s_i + s_j
                x = twice_i[j] * (s_j / p) if p > 0.0 else twice_i[j] * 0.5
                acc += x * x
            n_i = sqrt(acc)
            if tau > n_i:
                clipped_i = tau
                below += (s_i * n_i) * (tau - n_i)
            else:
                clipped_i = n_i
            target_i = 1.0 - tau / clipped_i
            weighted = (s_i - target_i) * b_rows[i]
            gap += weighted * weighted
            total += s_i * n_i
            clipped.append(clipped_i)
            target.append(target_i)
        gap += below
        if gap <= tau * MIXED21_GAP_RTOL * (total + scale):
            a = []
            for i in span:
                s_i = s[i]
                twice_i = twice[i]
                a_i = []
                for j in span:
                    s_j = s[j]
                    p = s_i + s_j
                    a_i.append(twice_i[j] * (s_i * s_j / (p if p > 0.0 else 1.0)))
                a.append(a_i)
            return a, total
        # The array phase's Jacobian, restricted to the rows it solves for,
        # with C = H * 2B / pair^2 formed row by row from the same products.
        live = []
        for i in span:
            if target[i] > 0.0:
                live.append(i)
        system = []
        for row in range(len(live)):
            i = live[row]
            s_i = s[i]
            twice_i = twice[i]
            clipped_i = clipped[i]
            weight = tau / (clipped_i * clipped_i * clipped_i)
            weighted_s = weight * s_i
            equation = []
            c_s = 0.0
            for j in span:
                s_j = s[j]
                p = s_i + s_j
                if p > 0.0:
                    x = twice_i[j] * (s_j / p)
                else:
                    p = 1.0
                    x = twice_i[j] * 0.5
                c = x * twice_i[j] / (p * p)
                c_s += c * s_j
                equation.append(0.0 - weighted_s * c)
            if len(live) < len(span):
                equation = [equation[j] for j in live]
            equation[row] += 1.0 + weight * c_s
            equation.append(s_i - target[i])
            system.append(equation)
        step = _solve_floats(system)
        for row in range(len(live)):
            i = live[row]
            x = s[i] - step[row]
            target[i] = 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
        evaluated, s = s, target
    # The H of the last evaluation.
    h = []
    for i in span:
        s_i = evaluated[i]
        twice_i = twice[i]
        h_i = []
        for j in span:
            s_j = evaluated[j]
            p = s_i + s_j
            h_i.append(twice_i[j] * (s_j / p) if p > 0.0 else twice_i[j] * 0.5)
        h.append(h_i)
    a, total = _dual_mixed21(np.array(rows), tau, np.array(h), scale)
    return a.tolist(), total


# The written-out Newton kernels by d, each compiled on its first use.
_WRITTEN_NEWTON = {}


def _written_newton_mixed21(d):
    """The float loops' Newton path at d, written out: kernel(rows, tau, steps).

    The kernel returns (A as rows, its norm) where the loops would, or
    hands the loops its state.  It is compiled from
    ``_newton_mixed21_source(d)`` on the first call for d.
    """
    return _written(_WRITTEN_NEWTON, d, _newton_mixed21_source, globals())


# The written-out kernel with each d-dependent part a field: a run of
# statements, one per line, or of terms.  STATE is what goes to the loops:
# 2B, the row norms, ||B||_{2,1} and s, then the evaluations left.  Each
# pass of the loop is one evaluation and one Newton step, and steps counts
# the evaluations left, this one included.
_NEWTON_MIXED21_SKELETON = """\
def newton(rows, tau, steps):
    sqrt = math.sqrt
    {unpack} = rows
    {twice}
    {squares}
    {row_norms}
    scale = {scale}
    if not (({in_range}) and scale <= _SAFE_MAX):
        return _rescaled(_newton_mixed21_floats, rows, tau)
    {start}
    {diagonal_numerators}
    bound = tau * MIXED21_GAP_RTOL
    for steps in range(steps, 0, -1):
        if not ({all_live}):
            return STATE, steps
        {pair_sums}
        {h}
        {h_norms}
        if not ({all_above_tau}):
            return STATE, steps
        {residuals}
        {weighted}
        total = {total}
        if {gap} <= bound * (total + scale):
            {diagonal_pair_sums}
            {shares}
            return [{a}], total
        if steps == 1:
            break
        {squared_pair_sums}
        {jacobian}
        {elimination}
        {back_substitution}
        {step}
    return STATE, 0
"""


def _newton_mixed21_source(d):
    """Source of ``_newton_mixed21_floats``' Newton path at d, written out.

    Each entry of B, 2B (t), H, the Jacobian M and the augmented column e
    is a named local, and so is each pair sum p_ij = s_i + s_j, formed once
    per pair; each h_ij is kept for the Jacobian.  Every operation is the
    loops' own, in their order, so the kernel returns their bits.  It
    leaves out what no bit depends on, as ``_PROX_MIXED21_BLOCK`` does:
    H's diagonal is B's, exactly in the safe range, so b_ii^2 and
    b_ii t_ii are formed once per prox; sums whose terms are never -0.0
    start from their first term; and with every row above tau the loops'
    gap term for rows below it is 0.0.

    That path is the one where every row is live: it needs every s_i > 0
    and every ||h_i|| > tau, which is what makes each target positive, and
    ``_solve_floats``' elimination with no pivot swap, where
    |m_ik| > |m_kk| for some i > k means one.  Otherwise the kernel returns
    (2B, the row norms, ||B||_{2,1}, s, the evaluations left), and the loops
    evaluate s again and go on.  After its last evaluation it takes no
    Newton step: it hands over s with no evaluation left, and the loops
    hand the H at s to the dual phase.  Row norms out of the safe range
    solve the problem rescaled, as the loops do.
    """
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

    # The Jacobian row by row: weight, weight * s_i, C_ij and M_ij.
    jacobian = []
    for i in span:
        others = [(i, j) for j in span if j != i]
        jacobian += [
            each("k{i} = tau / (n{i} * n{i} * n{i})\nv{i} = k{i} * s{i}", [(i, i)]),
            each("p{i}{i} = s{i} + s{i}\nc{i}{i} = ht{i}{i} / (p{i}{i} * p{i}{i})", [(i, i)]),
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
                "    return STATE, steps",
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
        "unpack": rows("b{i}{j}", "()"),
        "twice": each("t{i}{j} = b{i}{j} + b{i}{j}", full, "\n"),
        "squares": each("sq{i}{i} = b{i}{i} * b{i}{i}", diagonal, "\n"),
        "row_norms": "\n".join("r%d = %s" % (i, row_norm(i, "b")) for i in span),
        "scale": each("r{i}", diagonal, " + "),
        "in_range": each("_SAFE_MIN <= r{i}", diagonal, " or "),
        "start": each("s{i} = 1.0 - tau / (tau if tau > r{i} else r{i})", diagonal, "\n"),
        "diagonal_numerators": each("ht{i}{i} = b{i}{i} * t{i}{i}", diagonal, "\n"),
        "all_live": each("s{i} > 0.0", diagonal, " and "),
        "pair_sums": each("p{i}{j} = s{i} + s{j}", pairs, "\n"),
        "h": each("h{i}{j} = t{i}{j} * (s{j} / p{ij})", off, "\n"),
        "h_norms": "\n".join("n%d = %s" % (i, row_norm(i, "h")) for i in span),
        "all_above_tau": each("n{i} > tau", diagonal, " and "),
        "residuals": each("e{i} = s{i} - (1.0 - tau / n{i})", diagonal, "\n"),
        "weighted": each("w{i} = e{i} * r{i}", diagonal, "\n"),
        "total": each("s{i} * n{i}", diagonal, " + "),
        "gap": each("w{i} * w{i}", diagonal, " + "),
        "diagonal_pair_sums": each("p{i}{i} = s{i} + s{i}", diagonal, "\n"),
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
    }
    state = "[%s], [%s], scale, [%s]" % (
        rows("t{i}{j}"), each("r{i}", diagonal), each("s{i}", diagonal)
    )
    return _fill_skeleton(_NEWTON_MIXED21_SKELETON, fields).replace("STATE", state)


def _written(cache, key, source, namespace):
    """cache[key], built on the first call for key: the one function that
    the text source(key) defines, compiled and run in namespace.

    namespace is a module's globals, not a copy, so the function reads that
    module's names at each call, and a test that patches one reaches it.
    A build costs milliseconds, which an import would pay for every key, so
    none runs at import.  The written-out Newton kernels, the mixed21
    kernel on the triple and stage one's float loops are built here.
    """
    kernel = cache.get(key)
    if kernel is None:
        defined = {}
        code = compile(source(key), f"<{source.__name__}: {key!r}>", "exec")
        exec(code, namespace, defined)
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


# The written-out mixed21 kernel on the triple, under its kind, compiled on
# its first use.
_WRITTEN_TRIPLE = {}


def _prox_mixed21_triple(a, tau):
    """The d = 2 mixed21 prox on the triple: (A, its norm).

    ``_prox_mixed21``, and so ``prox``, runs it at d = 2, and the float
    loop's block solves its rescaled problem with it.  It is
    ``_PROX_MIXED21_BLOCK`` between the tau = 0 rule and the return,
    compiled on the first call (``_prox_triple_source``).
    """
    return _written(_WRITTEN_TRIPLE, NormKind.MIXED21, _prox_triple_source, globals())(a, tau)


def _prox_triple_source(kind):
    """Source of kind's written-out prox kernel on the triple: mixed21's."""
    return _fill_skeleton(_PROX_TRIPLE_SKELETON, {"kind": kind.name, "prox": _PROX_MIXED21_BLOCK})


_PROX_TRIPLE_SKELETON = """\
def kernel(a, tau):
    if tau == 0.0:
        return a, _norm(_triple_array(a), NormKind.{kind})
    sqrt = math.sqrt
    b_00, b_01, b_11 = a
    {prox}
    return (a_00, a_01, a_11), a_norm
"""


# The d = 2 mixed21 prox at tau > 0, stated once: a block of statements
# that reads b_00, b_01, b_11, tau and the local sqrt = math.sqrt, and sets
# a_00, a_01, a_11 and a_norm.  ``_prox_mixed21_triple`` and stage one's
# float loop (``similarity._float_loop_source``) are built from it, each
# compiled in its own module's globals, whose names it reads at each run.
#
# Inside the safe range it first solves by cases.  Row i, with partner j,
# is dead at the minimizer whenever ||(b_ii, 2 b_ij)||, the row of H at
# s_i = 0, is at most tau (and, while row j lives, only then): the KKT
# conditions hold at A with row i zero and
# a_jj = sign(b_jj) max(|b_jj| - tau, 0), with (b_ii, 2 b_ij) / tau as row
# i's dual row, inside the unit ball.  That A is the exact prox, of norm
# max(|b_jj| - tau, 0) and duality gap 0; it covers both rows dead, where
# |b_jj| <= tau.  Its zeros take the signs of B's entries, as the Newton
# output's do, and the test computes each norm in the Newton phase's
# sqrt(x*x + y*y) form.  In the benchmark's ``solver_tiny`` fits, 51% of
# the mixed21 proxes end here.
#
# Otherwise it runs ``_newton_mixed21_floats`` at d = 2, written out: the
# same operations in the same order, with no inner loop, and the Newton
# system of one or two unknowns solved in place by ``_solve_floats``' pivot
# rule (the first largest pivot on a tie).  The off-diagonal entries
# b_01 = b_10 share their products, and the output entries a_01 and a_10
# are one, t_01 (s_0 s_1 / p_01).  The products that a row's Jacobian shares with its
# evaluation are kept, not formed again.  It leaves out what no bit
# depends on.  H's diagonal is B's: with t_ii = b_ii + b_ii, h_ii is
# t_ii (s_i / (s_i + s_i)) for a live row and t_ii 0.5 for a dead one,
# both b_ii exactly in the safe range.  So the block squares b_ii once per
# prox and forms p_ii = s_i + s_i (1 for a dead row) only for the Jacobian
# and the output.  And the sums of squares, row norms, totals and C s hold
# no -0.0 term, so they start from their first term, not from 0.0 as in
# the loops.  With no certificate within ``_MIXED21_NEWTON_STEPS``, the
# ``for`` loop's ``else`` hands the last H to ``_dual_mixed21``, as the
# loops do.  Row norms out of the safe range solve the problem rescaled,
# by ``_prox_mixed21_triple``.
_PROX_MIXED21_BLOCK = """\
sq_00 = b_00 * b_00
sq_01 = b_01 * b_01
sq_11 = b_11 * b_11
r_0 = sqrt(sq_00 + sq_01)
r_1 = sqrt(sq_01 + sq_11)
scale = r_0 + r_1
if not (_SAFE_MIN <= (r_0 if r_0 > r_1 else r_1) and scale <= _SAFE_MAX):
    (a_00, a_01, a_11), a_norm = _rescaled(_prox_mixed21_triple, (b_00, b_01, b_11), tau)
else:
    t_01 = b_01 + b_01
    # A dead row: the partner's diagonal entry soft-thresholded, and
    # zeros with the signs of B's entries.  r_i rounds to at most the
    # norm of the test, so r_i > tau rules row i out without it.
    if r_0 <= tau and sqrt(sq_00 + t_01 * t_01) <= tau:
        a_norm = abs(b_11) - tau
        a_00 = b_00 * 0.0
        a_01 = b_01 * 0.0
        if a_norm <= 0.0:
            a_11 = b_11 * 0.0
            a_norm = 0.0
        else:
            a_11 = b_11 - tau if b_11 > 0.0 else b_11 + tau
    elif r_1 <= tau and sqrt(t_01 * t_01 + sq_11) <= tau:
        a_norm = abs(b_00) - tau
        a_01 = b_01 * 0.0
        a_11 = b_11 * 0.0
        if a_norm <= 0.0:
            a_00 = b_00 * 0.0
            a_norm = 0.0
        else:
            a_00 = b_00 - tau if b_00 > 0.0 else b_00 + tau
    else:
        t_00 = b_00 + b_00
        t_11 = b_11 + b_11
        # h_ii * t_ii, the numerator of C_ii, with h_ii = b_ii (see above).
        ht_00 = b_00 * t_00
        ht_11 = b_11 * t_11
        s_0 = 1.0 - tau / (tau if tau > r_0 else r_0)
        s_1 = 1.0 - tau / (tau if tau > r_1 else r_1)
        # Once per prox: the certificate's product rounds left to right.
        tolerance = tau * MIXED21_GAP_RTOL
        for _ in range(_MIXED21_NEWTON_STEPS):
            # x_01 and x_10 are h_01 and h_10; a dead pair's p_ij becomes 1
            # for the output and the Jacobian.
            p_01 = s_0 + s_1
            if p_01 > 0.0:
                x_01 = t_01 * (s_1 / p_01)
                x_10 = t_01 * (s_0 / p_01)
            else:
                p_01 = 1.0
                x_01 = x_10 = t_01 * 0.5
            n_0 = sqrt(sq_00 + x_01 * x_01)
            n_1 = sqrt(x_10 * x_10 + sq_11)
            below = 0.0
            if tau > n_0:
                clipped_0 = tau
                below += (s_0 * n_0) * (tau - n_0)
            else:
                clipped_0 = n_0
            if tau > n_1:
                clipped_1 = tau
                below += (s_1 * n_1) * (tau - n_1)
            else:
                clipped_1 = n_1
            target_0 = 1.0 - tau / clipped_0
            target_1 = 1.0 - tau / clipped_1
            e_0 = s_0 - target_0
            e_1 = s_1 - target_1
            weighted_0 = e_0 * r_0
            weighted_1 = e_1 * r_1
            gap = weighted_0 * weighted_0 + weighted_1 * weighted_1 + below
            a_norm = s_0 * n_0 + s_1 * n_1
            if gap <= tolerance * (a_norm + scale):
                # s_0 s_1 = s_1 s_0 exactly.
                p_00 = s_0 + s_0
                p_11 = s_1 + s_1
                a_00 = t_00 * (s_0 * s_0 / (p_00 if p_00 > 0.0 else 1.0))
                a_01 = t_01 * (s_0 * s_1 / p_01)
                a_11 = t_11 * (s_1 * s_1 / (p_11 if p_11 > 0.0 else 1.0))
                break
            # The Newton system [M | e] over the live rows, with
            # C_ij = h_ij 2 b_ij / p_ij^2.
            live_0 = target_0 > 0.0
            live_1 = target_1 > 0.0
            # Once per step: c_01 and c_10 divide by the same p_01^2.
            q_01 = p_01 * p_01
            if live_0:
                p_00 = s_0 + s_0
                if not p_00 > 0.0:
                    p_00 = 1.0
                weight = tau / (clipped_0 * clipped_0 * clipped_0)
                weighted_s = weight * s_0
                c_00 = ht_00 / (p_00 * p_00)
                c_01 = x_01 * t_01 / q_01
                # No 0.0 to start from: ht_00 and x_01 t_01 are products of
                # equal-signed factors and s_i is never -0.0.
                c_s = c_00 * s_0 + c_01 * s_1
                m_00 = (0.0 - weighted_s * c_00) + (1.0 + weight * c_s)
                m_01 = 0.0 - weighted_s * c_01
            if live_1:
                p_11 = s_1 + s_1
                if not p_11 > 0.0:
                    p_11 = 1.0
                weight = tau / (clipped_1 * clipped_1 * clipped_1)
                weighted_s = weight * s_1
                c_10 = x_10 * t_01 / q_01
                c_11 = ht_11 / (p_11 * p_11)
                # No 0.0 to start from, as for row 0.
                c_s = c_10 * s_0 + c_11 * s_1
                m_10 = 0.0 - weighted_s * c_10
                m_11 = (0.0 - weighted_s * c_11) + (1.0 + weight * c_s)
            if live_0 and live_1:
                if abs(m_10) > abs(m_00):
                    m_00, m_01, e_0, m_10, m_11, e_1 = m_10, m_11, e_1, m_00, m_01, e_0
                factor = m_10 / m_00
                step_1 = (e_1 - factor * e_0) / (m_11 - factor * m_01)
                step_0 = (e_0 - m_01 * step_1) / m_00
            elif live_0:
                step_0 = e_0 / m_00
            elif live_1:
                step_1 = e_1 / m_11
            # Live rows take the clamped Newton step, dead ones their target.
            if live_0:
                x = s_0 - step_0
                target_0 = 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
            if live_1:
                x = s_1 - step_1
                target_1 = 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
            s_0 = target_0
            s_1 = target_1
        else:
            # No certificate: the dual phase takes over from the last H.
            dual, a_norm = _dual_mixed21(
                np.array([[b_00, b_01], [b_01, b_11]]), tau,
                np.array([[b_00, x_01], [x_10, b_11]]), scale,
            )
            (a_00, a_01), (_, a_11) = dual.tolist()
"""


def _solve_floats(system):
    """Solution of the augmented system [M | r], as a list.

    Gaussian elimination with partial pivoting (the first largest pivot on
    ties), then back substitution; each row is a list of floats and may be
    overwritten.
    """
    size = len(system)
    for k in range(size):
        best = k
        largest = abs(system[k][k])
        for i in range(k + 1, size):
            x = abs(system[i][k])
            if x > largest:
                best = i
                largest = x
        system[k], system[best] = system[best], system[k]
        pivot_row = system[k]
        pivot = pivot_row[k]
        columns = range(k + 1, size + 1)
        for i in range(k + 1, size):
            row = system[i]
            factor = row[k] / pivot
            for j in columns:
                row[j] -= factor * pivot_row[j]
    x = [0.0] * size
    for k in range(size - 1, -1, -1):
        row = system[k]
        acc = row[size]
        for j in range(k + 1, size):
            acc -= row[j] * x[j]
        x[k] = acc / row[k]
    return x


def _dual_mixed21(b, tau, h, scale):
    """The dual phase of ``_prox_mixed21``, warm-started at the Newton phase's H.

    Accelerated projected gradient on the dual (FISTA with gradient restart,
    Beck & Teboulle 2009), iterating in K = skew(G): G <- P_rows(B/tau + K)
    is projected gradient with step 1/tau^2, and momentum is applied to K.
    Its primal point A = B - tau sym(G) is exactly symmetric and has R = 0.
    ``scale`` is ||B||_{2,1}.
    """
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
