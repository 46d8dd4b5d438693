"""Matrix norms, dual norms, rank-1 dual factorizations, and proximal operators.

Four regularizers are supported on symmetric matrices:

* ``l1``       entrywise L1, ``sum |a_kl|``
* ``fro``      Frobenius
* ``mixed21``  sum over rows of the row Euclidean norm
* ``trace``    sum of singular values (equal to ``sum |eigenvalue|`` by symmetry)

Dual norms accept arbitrary square matrices: max entry magnitude, Frobenius,
max row Euclidean norm, and the largest singular value respectively.

Every proximal operator is exact over the symmetric subspace: l1, fro and
trace in closed form, mixed21 by a Newton iteration that stops on a
duality-gap certificate (see ``prox``).  Eigendecompositions go to LAPACK.
"""

import math
from enum import Enum

import numpy as np

from .errors import NumericalError


class NormKind(str, Enum):
    """Regularizer selector."""

    L1 = "l1"
    FROBENIUS = "fro"
    MIXED21 = "mixed21"
    TRACE = "trace"


def _as_square(b):
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {b.shape}")
    return b


def symmetrize(b):
    """Return (B + B^T) / 2, the symmetric part of a square matrix."""
    b = _as_square(b)
    return (b + b.T) / 2.0


def require_symmetric(a):
    """Return A as a float array, raising ValueError unless finite and exactly symmetric."""
    a = _as_square(a)
    if not np.isfinite(a).all():
        raise ValueError("matrix must be finite")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    return a


def norm(a, kind):
    """Norm of the symmetric matrix A under the selected regularizer."""
    return _norm(require_symmetric(a), NormKind(kind))


def _norm(a, kind):
    """``norm`` on an already validated symmetric A."""
    if kind is NormKind.L1:
        return float(np.abs(a).sum())
    if kind is NormKind.FROBENIUS:
        return float(np.linalg.norm(a))
    if kind is NormKind.MIXED21:
        return float(_row_norms(a).sum())
    return float(np.abs(_eigh(a)[0]).sum())


def dual_norm(b, kind):
    """Dual norm of a square (not necessarily symmetric) matrix B.

    l1 -> max entry magnitude; mixed21 -> max row Euclidean norm;
    fro -> Frobenius; trace -> spectral norm (largest singular value).
    """
    b = _as_square(b)
    kind = NormKind(kind)
    if kind is NormKind.L1:
        return float(np.abs(b).max())
    if kind is NormKind.FROBENIUS:
        return float(np.linalg.norm(b))
    if kind is NormKind.MIXED21:
        return float(np.linalg.norm(b, axis=1).max())
    return float(np.linalg.norm(b, 2))


def dual_norm_rank1(v, x, kind):
    """Dual norm of the rank-1 matrix v x^T without forming it.

    Closed forms: l1 -> ||v||_inf ||x||_inf; fro -> ||v|| ||x||;
    mixed21 -> ||v||_inf ||x||; trace -> ||v|| ||x|| (the spectral and
    Frobenius norms agree on rank-1 matrices).
    """
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    if v.ndim != 1 or x.ndim != 1 or v.shape != x.shape:
        raise ValueError(
            f"expected two vectors of equal length, got shapes {v.shape} and {x.shape}"
        )
    v_factor, x_factor = _rank1_factors(NormKind(kind))
    return float(v_factor(v) * x_factor(x))


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
    minimizer.
    """
    b = require_symmetric(b)
    tau = float(tau)
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"threshold must be nonnegative and finite, got {tau}")
    return _prox(b, tau, NormKind(kind))[0]


def _prox(b, tau, kind):
    """``prox`` on an already validated symmetric B and tau >= 0.

    Returns the prox point and its norm.  For fro the norm is computed from
    the point as ``norm`` does; l1, mixed21 and trace return the value their
    own computation already produced (shrunk magnitudes, row norms,
    thresholded eigenvalues), which spares trace a second eigendecomposition.
    """
    if tau == 0.0:
        return b.copy(), _norm(b, kind)
    if kind is NormKind.L1:
        # |a| is exactly the shrunk magnitudes, so their sum is norm(a).
        shrunk = np.maximum(np.abs(b) - tau, 0.0)
        return np.sign(b) * shrunk, float(shrunk.sum())
    if kind is NormKind.FROBENIUS:
        total = np.linalg.norm(b)
        a = np.zeros_like(b) if total <= tau else b * (1.0 - tau / total)
        return a, _norm(a, kind)
    if kind is NormKind.MIXED21:
        return _prox_mixed21(b, tau)
    eigenvalues, vectors = _eigh(b)
    thresholded = np.sign(eigenvalues) * np.maximum(np.abs(eigenvalues) - tau, 0.0)
    return symmetrize((vectors * thresholded) @ vectors.T), float(np.abs(thresholded).sum())


# Relative duality-gap tolerance of the mixed21 prox and the step caps of
# its two phases.  A certified gap g bounds the distance to the exact
# minimizer by sqrt(2 g).
MIXED21_GAP_RTOL = 1e-12
_MIXED21_NEWTON_STEPS = 8
_MIXED21_DUAL_STEPS = 200000


def _row_norms(x):
    return np.sqrt((x * x).sum(axis=1))


def _prox_mixed21(b, tau):
    """Exact mixed21 prox over symmetric matrices, and the norm of the result.

    The dual of min 0.5||A - B||^2 + tau ||A||_{2,1} over symmetric A is
    max 0.5||B||^2 - 0.5||B - tau sym(G)||^2 over G whose rows lie in the
    unit ball, and for symmetric A the gap between A and G is
    tau (||A||_{2,1} - <G, A>) + 0.5 ||A - B + tau sym(G)||^2.

    At the minimizer every entry is a harmonic-mean shrink of B,
    A_ij = B_ij 2 s_i s_j / (s_i + s_j), with one scale s_i in [0, 1] per
    row, and s_i = 1 - tau / max(||h_i||, tau) for the rows of
    H = 2 B * s_j / (s_i + s_j).  Newton's method solves these d equations,
    started at the row-group shrink scales of B (what shrink-then-symmetrize
    uses).  With G = H / max(||h_i||, tau) and the Newton residual
    r = s - (1 - tau / max(||h||, tau)), the gap of A(s) works out to
    sum_i s_i ||h_i|| max(tau - ||h_i||, 0) + 0.5 ||R||^2 with
    R_ij = B_ij (s_j r_i + s_i r_j) / (s_i + s_j).  R_ij is a convex
    combination of B_ij r_i and B_ij r_j, so 0.5 ||R||^2 is at most
    sum_i r_i^2 ||b_i||^2, and the loop stops once the first sum plus this
    bound is within tolerance.  A(s) is exactly symmetric and exactly zero
    on dead rows.

    When two rows vanish, the split of the dual between them is no longer
    free in this parametrization and Newton may stall.  The fallback is
    accelerated projected gradient on the dual (FISTA with gradient restart,
    Beck & Teboulle 2009), warm-started at the last H.  Its primal point
    A = B - tau sym(G) is exactly symmetric and has R = 0.
    """
    b_rows = _row_norms(b)
    scale = b_rows.sum()
    twice_b = b + b
    s = 1.0 - tau / np.maximum(b_rows, tau)
    for _ in range(_MIXED21_NEWTON_STEPS):
        pair = s[:, None] + s
        all_live = s.min() > 0.0
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
        gap = float(weighted @ weighted)
        if n.min() < tau:
            gap += float((s * n) @ np.maximum(tau - n, 0.0))
        total = float(s @ n)
        if gap <= tau * MIXED21_GAP_RTOL * (total + scale):
            return twice_b * (s[:, None] * s / pair), total
        # d||h_i||/ds_k = (C_ik s_i - [i = k] (C s)_i) / ||h_i|| with
        # C = H * 2B / (s_i + s_j)^2; the diagonal of C cancels.  Rows with
        # ||h_i|| <= tau get a finite stand-in weight; they are not solved for.
        c = h * twice_b / (pair * pair)
        weight = tau / (clipped * clipped * clipped)
        jacobian = np.diag(1.0 + weight * (c @ s)) - (weight * s)[:, None] * c
        if all_live and target.min() > 0.0:
            s = np.minimum(np.maximum(s - np.linalg.solve(jacobian, residual), 0.0), 1.0)
            continue
        # Rows at or heading to zero take their target; Newton moves the rest.
        idx = np.flatnonzero((target > 0.0) & (s > 0.0))
        if idx.size:
            step = np.linalg.solve(jacobian[np.ix_(idx, idx)], residual[idx])
            target[idx] = np.minimum(np.maximum(s[idx] - step, 0.0), 1.0)
        s = target

    # Dual iteration in K = skew(G): G <- P_rows(B/tau + K), which is
    # projected gradient with step 1/tau^2; momentum is applied to K.
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
    A = Q diag(w) Q^T.  Raises NumericalError only if LAPACK reports that
    it did not converge; non-finite entries give non-finite eigenvalues
    rather than an error.
    """
    return _eigh(require_symmetric(a))


def _eigh(a):
    try:
        eigenvalues, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    return eigenvalues, vectors
