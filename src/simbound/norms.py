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
duality-gap certificate (see ``prox``).  Eigendecompositions go to LAPACK.

Stage one calls the kernels in two sets: ``_prox`` on arrays, and
``_prox_floats`` on lists of Python floats for small matrices (see
``similarity.train_similarity``).
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
    return float(np.abs(_eigh(a)[0]).sum())


# A norm in [_NORM_MIN, _NORM_MAX] comes from sums of squares that did not
# overflow, and the squares that underflowed were too small against it to
# matter.  Out of that range (or at exactly 0) the kernels compute it again
# on the matrix scaled by a power of two near its largest entry, which is
# exact down to subnormals: the cold path of ``_rescaled_norm`` and
# ``_rescaled_prox_mixed21``.  The hot path pays one scalar compare.
_NORM_MIN = 2.0 ** -400
_NORM_MAX = 2.0 ** 400


def _fro(a):
    # What np.linalg.norm computes for a real array (the square root of the
    # dot product of the flat array with itself), without its wrapper.
    flat = a.ravel(order="K")
    value = math.sqrt(flat.dot(flat))
    if _NORM_MIN <= value <= _NORM_MAX:
        return value
    return _rescaled_norm(_fro, a)


def _mixed21(a, reduce=np.add.reduce):
    # The sum of the row norms; np.maximum.reduce gives the dual norm.
    value = float(reduce(_row_norms(a)))
    if _NORM_MIN <= value <= _NORM_MAX:
        return value
    return _rescaled_norm(lambda scaled: _mixed21(scaled, reduce), a)


def _rescaled_norm(kernel, a):
    """kernel(a) for a norm kernel, computed on A scaled by a power of two.

    A zero A has norm 0; a non-finite one (a diverging stage one) has no
    scale to take out, and its norm is not finite either.
    """
    largest = float(np.abs(a).max())
    if not largest:
        return 0.0
    if not math.isfinite(largest):
        return largest
    exponent = math.frexp(largest)[1]
    return float(np.ldexp(kernel(np.ldexp(a, -exponent)), exponent))


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
        return float(np.linalg.norm(b, 2))
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
    return _rescaled_norm(v_factor, v) * _rescaled_norm(x_factor, x)


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
    _require("threshold", tau, _NONNEGATIVE)
    kind = _norm_kind(kind)
    # A sum of squares that overflows is detected and recomputed rescaled.
    with np.errstate(over="ignore"):
        return _prox(b, float(tau), kind)[0]


def _prox(b, tau, kind, spectrum=None):
    """``prox`` on an already validated symmetric B and tau >= 0.

    Returns the prox point, its norm, and for trace its spectrum: the
    thresholded eigenvalues and the eigenvectors, from which the point was
    rebuilt (None for the other kinds).  For fro both the shrink factor and
    the returned norm come from ``_fro``, which rounds as ``norm`` does; l1,
    mixed21 and trace return the value their own computation already
    produced (shrunk magnitudes, row norms, thresholded eigenvalues), which
    spares trace a second eigendecomposition.

    ``spectrum``, if given, is the spectrum that a trace prox returned
    together with B itself.  The trace prox then thresholds it by tau and
    skips the eigendecomposition.  This is the prox of B because spectral
    soft-thresholds compose: thresholding by tau1 and then by tau2 is
    thresholding by tau1 + tau2.  Stage one passes it on every zero step,
    where the prox input is the previous prox output.  The mixed21 prox
    does not compose that way, so it takes no such shortcut.

    B and the spectrum are never written to.
    """
    if tau == 0.0:
        return b.copy(), _norm(b, kind), spectrum
    if kind is NormKind.L1:
        # |a| is exactly the shrunk magnitudes, so their sum is norm(a).
        shrunk = _shrunk_magnitudes(b, tau)
        a = np.sign(b)
        a *= shrunk
        return a, float(np.add.reduce(shrunk, axis=None)), None
    if kind is NormKind.FROBENIUS:
        total = _fro(b)
        if total <= tau:
            return np.zeros_like(b), 0.0, None
        a = b * (1.0 - tau / total)
        return a, _fro(a), None
    if kind is NormKind.MIXED21:
        return (*_prox_mixed21(b, tau), None)
    eigenvalues, vectors = _eigh(b) if spectrum is None else spectrum
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


def _prox_floats(rows, tau, kind, spectrum=None):
    """``_prox`` on a symmetric matrix held as a list of rows of floats.

    Stage one's float kernel set calls it on small matrices, where a NumPy
    call costs more than its arithmetic.  Returns the prox point as rows,
    its norm, and for trace the spectrum as two lists.  l1 and fro shrink
    entry by entry; trace calls ``_eigh`` only when no spectrum is given
    and rebuilds A from the thresholded spectrum; mixed21 runs
    ``_newton_mixed21_floats``.  Every sum accumulates with += in index
    order, from 0.0, which puts -0.0 where ``_prox`` puts it; nonzero
    entries and the norm may differ from ``_prox`` in the last bits.
    Sums of squares out of the safe range go to the array kernels, which
    rescale.  Neither the rows nor the spectrum are written to.
    """
    if tau == 0.0:
        return rows, _norm(np.array(rows), kind), spectrum
    if kind is NormKind.L1:
        return (*_soft_threshold_floats(rows, tau), None)
    if kind is NormKind.FROBENIUS:
        total = _fro_floats(rows)
        if total <= tau:
            return [[0.0] * len(rows) for _ in rows], 0.0, None
        factor = 1.0 - tau / total
        a = []
        for row in rows:
            a_i = []
            for x in row:
                a_i.append(x * factor)
            a.append(a_i)
        return a, _fro_floats(a), None
    if kind is NormKind.MIXED21:
        return (*_newton_mixed21_floats(rows, tau), None)
    if spectrum is None:
        eigenvalues, vectors = _eigh(np.array(rows))
        spectrum = eigenvalues.tolist(), vectors.tolist()
    eigenvalues, vectors = spectrum
    (thresholded,), total = _soft_threshold_floats((eigenvalues,), tau)
    # P = (vectors * thresholded) @ vectors.T, then A = (P + P^T) / 2.
    span = range(len(vectors))
    product = []
    for v_i in vectors:
        weighted = []
        for k in span:
            weighted.append(v_i[k] * thresholded[k])
        product_i = []
        for v_j in vectors:
            acc = 0.0
            for k in span:
                acc += weighted[k] * v_j[k]
            product_i.append(acc)
        product.append(product_i)
    a = []
    for i in span:
        product_i = product[i]
        a_i = []
        for j in span:
            a_i.append((product_i[j] + product[j][i]) / 2.0)
        a.append(a_i)
    return a, total, (thresholded, vectors)


def _soft_threshold_floats(rows, tau):
    """sign(x) max(|x| - tau, 0) for each entry of rows, and the sum of the
    shrunk magnitudes.

    Rounds as ``_prox`` does: a negative entry that shrinks to zero becomes
    -0.0, and sign(x) (|x| - tau) is x - tau or x + tau exactly.
    """
    total = 0.0
    out = []
    for row in rows:
        out_row = []
        for x in row:
            shrunk = abs(x) - tau
            if shrunk <= 0.0:
                out_row.append(-0.0 if x < 0.0 else 0.0)
            else:
                # A NaN lands here and propagates, as np.maximum makes it.
                total += shrunk
                out_row.append(x - tau if x > 0.0 else x + tau)
        out.append(out_row)
    return out, total


def _fro_floats(rows):
    """``_fro`` on a list of rows, summed with += in index order."""
    acc = 0.0
    for row in rows:
        for x in row:
            acc += x * x
    value = math.sqrt(acc)
    if _NORM_MIN <= value <= _NORM_MAX:
        return value
    return _fro(np.array(rows))


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

    Up to d = ``_MIXED21_FLOAT_MAX_D`` (5) the Newton phase runs on Python
    floats (``_newton_mixed21_floats``), above it on arrays
    (``_newton_mixed21_arrays``), whose cost grows more slowly with d.  The
    two round differently: dot products and the Newton solve may differ in
    the last bits.

    Where ||B||_{2,1} leaves [_NORM_MIN, _NORM_MAX], both phases solve the
    problem rescaled instead (``_rescaled_prox_mixed21``).
    """
    if b.shape[0] <= _MIXED21_FLOAT_MAX_D:
        rows, total = _newton_mixed21_floats(b.tolist(), tau)
        return np.array(rows), total
    return _newton_mixed21_arrays(b, tau)


def _rescaled_prox_mixed21(b, tau):
    """``_newton_mixed21_arrays`` on B and tau scaled by a power of two.

    The prox is homogeneous, prox(c B, c tau) = c prox(B, tau), so this
    is the prox of B, exact down to subnormals.  A tau above d max|b_ij|,
    which bounds every row norm of B, gives A = 0 as the cap on it does,
    and the cap keeps the scaled tau finite.  The prox of B = 0 is B, and
    a non-finite B (a diverging stage one) has a non-finite norm.
    """
    largest = float(np.abs(b).max())
    if not largest:
        return b.copy(), 0.0
    if not math.isfinite(largest):
        return b.copy(), largest
    exponent = math.frexp(largest)[1]
    a, total = _newton_mixed21_arrays(
        np.ldexp(b, -exponent), math.ldexp(min(tau, b.shape[0] * largest), -exponent)
    )
    return np.ldexp(a, exponent), float(np.ldexp(total, exponent))


def _newton_mixed21_arrays(b, tau):
    """The Newton phase of ``_prox_mixed21`` on d x d arrays."""
    b_rows = _row_norms(b)
    scale = np.add.reduce(b_rows)
    if not _NORM_MIN <= scale <= _NORM_MAX:
        return _rescaled_prox_mixed21(b, tau)
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
    is solved by ``_solve_floats`` instead of LAPACK.  The cold paths
    (rescaling, the dual phase) run on arrays.  The loops index their
    lists: in Python 3.11 a zip over a few entries costs more.
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
    if not _NORM_MIN <= scale <= _NORM_MAX:
        a, total = _rescaled_prox_mixed21(np.array(rows), tau)
        return a.tolist(), total
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


def _solve_floats(system):
    """Solution of the augmented system [M | r], as a list.

    Gaussian elimination with partial pivoting (the first largest pivot on
    ties), then back substitution; each row is a list of floats and may be
    overwritten.  One and two unknowns skip the loops, with the same
    operations.
    """
    size = len(system)
    if size == 1:
        pivot, rhs = system[0]
        return [rhs / pivot]
    if size == 2:
        (a, b, r), (c, e, t) = system
        if abs(c) > abs(a):
            a, b, r, c, e, t = c, e, t, a, b, r
        factor = c / a
        e -= factor * b
        t -= factor * r
        x_1 = t / e
        return [(r - b * x_1) / a, x_1]
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
