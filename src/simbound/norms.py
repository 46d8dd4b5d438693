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
row dies.  Eigendecompositions go to LAPACK, except that the float kernels
take their 2x2 one in closed form.

Each kind's prox is its own kernel, in two sets: ``_PROX`` on arrays, and
``_PROX_FLOATS`` on a 2x2 matrix held as the three Python floats
(a_00, a_01, a_11), the shape of stage one's tiny fits.  Both tables
are keyed by ``NormKind``; ``prox`` and stage one
(``similarity.train_similarity``) look a kernel up once per call or fit, so
no prox call tests the kind.

Each fro and mixed21 kernel tests the norm or row norms it computes, and
each trace kernel on arrays the spectral norm that LAPACK returned (LAPACK
scales a matrix by its own thresholds), against one safe range, and out of
it solves its own problem on B and tau scaled by a power of two
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


# The float kernel set: the prox kernels on a symmetric 2x2 matrix held as
# the triple (a_00, a_01, a_11) of Python floats, the shape of every fit
# that stage one runs on floats.  There a NumPy call costs more than the
# arithmetic.  Each kernel returns the prox point as a triple, its norm,
# and for trace the spectrum as the flat floats (x_0, x_1, v_00, v_01,
# v_10, v_11): the thresholded eigenvalues, then the eigenvector rows; at
# tau = 0, the triple itself and ``_norm`` of its array.  The off-diagonal
# entry stands for a_01 and a_10: an entrywise kernel acts on it once and
# adds its term to the norm twice, in index order, and the trace rebuild
# takes (p_01 + p_10) / 2 for both, which rounds as (p_10 + p_01) / 2
# does, so each kernel rounds as it would on the 2x2 matrix entry by
# entry in index order.  Every sum starts at 0.0, which puts -0.0 where
# the array kernels put it; nonzero entries and the norm may differ from
# theirs in the last bits.  Neither the triple nor the spectrum is written
# to.  ``_PROX_FLOATS``, at the end of the module, holds these kernels by
# kind; the mixed21 one, ``_prox_mixed21_triple``, follows the float Newton
# loops that it writes out.


def _triple_array(a):
    """The symmetric 2x2 array of the triple (a_00, a_01, a_11)."""
    a_00, a_01, a_11 = a
    return np.array([[a_00, a_01], [a_01, a_11]])


def _prox_l1_triple(a, tau, spectrum=None):
    # sign(x) max(|x| - tau, 0) entry by entry, which makes a negative entry
    # that shrinks to zero -0.0 and is x - tau or x + tau exactly, as
    # ``_prox_l1`` rounds.  A NaN takes the else branch and propagates, as
    # np.maximum makes it.
    if tau == 0.0:
        return a, _norm(_triple_array(a), NormKind.L1), spectrum
    a_00, a_01, a_11 = a
    total = 0.0
    shrunk = abs(a_00) - tau
    if shrunk <= 0.0:
        a_00 = -0.0 if a_00 < 0.0 else 0.0
    else:
        total += shrunk
        a_00 = a_00 - tau if a_00 > 0.0 else a_00 + tau
    shrunk = abs(a_01) - tau
    if shrunk <= 0.0:
        a_01 = -0.0 if a_01 < 0.0 else 0.0
    else:
        total += shrunk
        total += shrunk
        a_01 = a_01 - tau if a_01 > 0.0 else a_01 + tau
    shrunk = abs(a_11) - tau
    if shrunk <= 0.0:
        a_11 = -0.0 if a_11 < 0.0 else 0.0
    else:
        total += shrunk
        a_11 = a_11 - tau if a_11 > 0.0 else a_11 + tau
    return (a_00, a_01, a_11), total, None


def _prox_fro_triple(a, tau, spectrum=None):
    # Each norm is _fro's sum of squares with += in index order.  A square
    # is never -0.0, so the sum needs no 0.0 to start from.  A zero triple
    # gets the zeros of ``_prox_fro``.  The shrunk norm, total - tau >=
    # 2^-53 total > 2^-353, has a normal largest square: it needs no test.
    if tau == 0.0:
        return a, _norm(_triple_array(a), NormKind.FROBENIUS), spectrum
    a_00, a_01, a_11 = a
    square = a_01 * a_01
    total = math.sqrt(a_00 * a_00 + square + square + a_11 * a_11)
    if not _SAFE_MIN <= total <= _SAFE_MAX and (a_00 or a_01 or a_11):
        return (*_rescaled(_prox_fro_triple, a, tau), None)
    if total <= tau:
        return (0.0, 0.0, 0.0), 0.0, None
    factor = 1.0 - tau / total
    a = (a_00 * factor, a_01 * factor, a_11 * factor)
    a_00, a_01, a_11 = a
    square = a_01 * a_01
    return a, math.sqrt(a_00 * a_00 + square + square + a_11 * a_11), None


def _prox_trace_triple(a, tau, spectrum=None):
    """The trace prox of the float set.

    Decomposes only when no spectrum is given, by ``_spectrum_floats``, and
    rebuilds A = (P + P^T) / 2 with P = (V * thresholded) V^T from the
    thresholded spectrum, so a finite trace prox makes no NumPy call.
    """
    if tau == 0.0:
        return a, _norm(_triple_array(a), NormKind.TRACE), spectrum
    x_0, x_1, v_00, v_01, v_10, v_11 = _spectrum_floats(a) if spectrum is None else spectrum
    total = 0.0
    shrunk = abs(x_0) - tau
    if shrunk <= 0.0:
        x_0 = -0.0 if x_0 < 0.0 else 0.0
    else:
        total += shrunk
        x_0 = x_0 - tau if x_0 > 0.0 else x_0 + tau
    shrunk = abs(x_1) - tau
    if shrunk <= 0.0:
        x_1 = -0.0 if x_1 < 0.0 else 0.0
    else:
        total += shrunk
        x_1 = x_1 - tau if x_1 > 0.0 else x_1 + tau
    w_00 = v_00 * x_0
    w_01 = v_01 * x_1
    w_10 = v_10 * x_0
    w_11 = v_11 * x_1
    p_00 = 0.0 + w_00 * v_00 + w_01 * v_01
    p_01 = 0.0 + w_00 * v_10 + w_01 * v_11
    p_10 = 0.0 + w_10 * v_00 + w_11 * v_01
    p_11 = 0.0 + w_10 * v_10 + w_11 * v_11
    a = ((p_00 + p_00) / 2.0, (p_01 + p_10) / 2.0, (p_11 + p_11) / 2.0)
    return a, total, (x_0, x_1, v_00, v_01, v_10, v_11)


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

    A 2x2 B goes to the float set's kernel ``_prox_mixed21_triple``, which
    solves a dead row in closed form and otherwise runs the Newton phase
    written out, so every d = 2 mixed21 prox is the same.  Up to
    d = ``_MIXED21_FLOAT_MAX_D`` (5) the Newton phase runs on Python floats
    (``_newton_mixed21_floats``), above it on arrays
    (``_newton_mixed21_arrays``), whose cost grows more slowly with d.  The
    two round differently: dot products and the Newton solve may differ in
    the last bits.

    Where the row norms of B leave the safe range, which also turns away a
    non-finite row, each Newton phase solves its problem rescaled
    (``_rescaled``).
    """
    if tau == 0.0:
        return b.copy(), _norm(b, NormKind.MIXED21), spectrum
    if b.shape[0] == 2:
        (b_00, b_01), (_, b_11) = b.tolist()
        a, total, _ = _prox_mixed21_triple((b_00, b_01, b_11), tau)
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

    Each evaluation makes one pass over H for its row norms, the gap and
    the total, and keeps no entry of H.  An iterate that does not certify
    forms its Jacobian rows from the same products again, and so, after
    the last step, does the H handed to the dual phase.  The Newton system
    is solved by ``_solve_floats`` instead of LAPACK.  The dual phase runs
    on arrays.  The loops index their lists: in Python 3.11 a zip over a
    few entries costs more.

    They run d in {1, 3, 4, 5}; the d = 2 kernel ``_prox_mixed21_triple``
    runs these steps written out.
    """
    sqrt = math.sqrt
    span = range(len(rows))
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
    for _ in range(_MIXED21_NEWTON_STEPS):
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


def _prox_mixed21_triple(a, tau, spectrum=None):
    """The mixed21 prox of every 2x2 matrix: the float set's kernel, which
    ``_prox_mixed21`` also runs at d = 2.

    Inside the safe range it first solves by cases.  Row i, with partner
    j, is dead at the minimizer whenever ||(b_ii, 2 b_ij)||, the row of H
    at s_i = 0, is at most tau (and, while row j lives, only then): the
    KKT conditions hold at A with row i zero and
    a_jj = sign(b_jj) max(|b_jj| - tau, 0), with (b_ii, 2 b_ij) / tau as
    row i's dual row, inside the unit ball.  That A is the exact prox, of
    norm max(|b_jj| - tau, 0) and duality gap 0; it covers both rows dead,
    where |b_jj| <= tau.  Its zeros take the signs of B's entries, as the
    Newton output's do, and the test computes each norm in the Newton
    phase's sqrt(x*x + y*y) form.  In the benchmark's ``solver_tiny``
    fits, 51% of the mixed21 proxes end here.

    Otherwise it runs ``_newton_mixed21_floats`` at d = 2, written out: the
    same operations in the same order, with no inner loop, and the Newton
    system of one or two unknowns solved in place by ``_solve_floats``'
    pivot rule (the first largest pivot on a tie).  The off-diagonal
    entries b_01 = b_10 share their products, and the output entries
    t_01 q_01 and t_10 q_01 are one.  The products that a row's Jacobian
    shares with its evaluation are kept, not formed again.  It leaves out
    what no bit depends on.  H's diagonal is B's: with t_ii = b_ii + b_ii,
    h_ii is t_ii (s_i / (s_i + s_i)) for a live row and t_ii 0.5 for a
    dead one, both b_ii exactly in the safe range.  So the kernel squares
    b_ii once per prox and forms p_ii = s_i + s_i (1 for a dead row) only
    for the Jacobian and the output.  And the sums of squares, row norms
    and totals hold no -0.0 term, so they start from their first term, not
    from 0.0 as in the loops.  With no
    certificate within ``_MIXED21_NEWTON_STEPS``, ``_dual_mixed21`` takes
    over from the last H, as it does from the loops'.  Row norms out of the
    safe range solve this kernel's problem rescaled.
    """
    if tau == 0.0:
        return a, _norm(_triple_array(a), NormKind.MIXED21), spectrum
    sqrt = math.sqrt
    b_00, b_01, b_11 = a
    sq_00 = b_00 * b_00
    sq_01 = b_01 * b_01
    sq_11 = b_11 * b_11
    r_0 = sqrt(sq_00 + sq_01)
    r_1 = sqrt(sq_01 + sq_11)
    scale = r_0 + r_1
    if not (_SAFE_MIN <= (r_0 if r_0 > r_1 else r_1) and scale <= _SAFE_MAX):
        return (*_rescaled(_prox_mixed21_triple, a, tau), None)
    t_01 = b_01 + b_01
    # A dead row: the partner's diagonal entry soft-thresholded, and
    # zeros with the signs of B's entries.  r_i rounds to at most the
    # norm of the test, so r_i > tau rules row i out without it.
    if r_0 <= tau and sqrt(sq_00 + t_01 * t_01) <= tau:
        total = abs(b_11) - tau
        if total <= 0.0:
            return (b_00 * 0.0, b_01 * 0.0, b_11 * 0.0), 0.0, None
        a_11 = b_11 - tau if b_11 > 0.0 else b_11 + tau
        return (b_00 * 0.0, b_01 * 0.0, a_11), total, None
    if r_1 <= tau and sqrt(t_01 * t_01 + sq_11) <= tau:
        total = abs(b_00) - tau
        if total <= 0.0:
            return (b_00 * 0.0, b_01 * 0.0, b_11 * 0.0), 0.0, None
        a_00 = b_00 - tau if b_00 > 0.0 else b_00 + tau
        return (a_00, b_01 * 0.0, b_11 * 0.0), total, None
    t_00 = b_00 + b_00
    t_11 = b_11 + b_11
    # h_ii * t_ii, the numerator of C_ii, with h_ii = b_ii (see above).
    ht_00 = b_00 * t_00
    ht_11 = b_11 * t_11
    s_0 = 1.0 - tau / (tau if tau > r_0 else r_0)
    s_1 = 1.0 - tau / (tau if tau > r_1 else r_1)
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
        total = s_0 * n_0 + s_1 * n_1
        if gap <= tau * MIXED21_GAP_RTOL * (total + scale):
            # s_0 s_1 = s_1 s_0 exactly.
            p_00 = s_0 + s_0
            p_11 = s_1 + s_1
            return (
                t_00 * (s_0 * s_0 / (p_00 if p_00 > 0.0 else 1.0)),
                t_01 * (s_0 * s_1 / p_01),
                t_11 * (s_1 * s_1 / (p_11 if p_11 > 0.0 else 1.0)),
            ), total, None
        # The Newton system [M | e] over the live rows, with
        # C_ij = h_ij 2 b_ij / p_ij^2.
        live_0 = target_0 > 0.0
        live_1 = target_1 > 0.0
        if live_0:
            p_00 = s_0 + s_0
            if not p_00 > 0.0:
                p_00 = 1.0
            weight = tau / (clipped_0 * clipped_0 * clipped_0)
            weighted_s = weight * s_0
            c_00 = ht_00 / (p_00 * p_00)
            c_01 = x_01 * t_01 / (p_01 * p_01)
            c_s = 0.0 + c_00 * s_0 + c_01 * s_1
            m_00 = (0.0 - weighted_s * c_00) + (1.0 + weight * c_s)
            m_01 = 0.0 - weighted_s * c_01
        if live_1:
            p_11 = s_1 + s_1
            if not p_11 > 0.0:
                p_11 = 1.0
            weight = tau / (clipped_1 * clipped_1 * clipped_1)
            weighted_s = weight * s_1
            c_10 = x_10 * t_01 / (p_01 * p_01)
            c_11 = ht_11 / (p_11 * p_11)
            c_s = 0.0 + c_10 * s_0 + c_11 * s_1
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
    # No certificate: the dual phase takes over from the last H.
    a, total = _dual_mixed21(_triple_array(a), tau, np.array([[b_00, x_01], [x_10, b_11]]), scale)
    (a_00, a_01), (_, a_11) = a.tolist()
    return (a_00, a_01, a_11), total, None


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


# The prox kernels by kind: ``prox`` and stage one look theirs up once.
_PROX = {
    NormKind.L1: _prox_l1,
    NormKind.FROBENIUS: _prox_fro,
    NormKind.MIXED21: _prox_mixed21,
    NormKind.TRACE: _prox_trace,
}
_PROX_FLOATS = {
    NormKind.L1: _prox_l1_triple,
    NormKind.FROBENIUS: _prox_fro_triple,
    NormKind.MIXED21: _prox_mixed21_triple,
    NormKind.TRACE: _prox_trace_triple,
}
