"""Independent oracles the tests compare the package against.

Everything here is deliberately written without reusing package internals:
naive double loops for the error formulas, finite differences for the
subgradient, batched projected-subgradient minimization for the proximal
operators (with numpy's LAPACK eigendecomposition where an eigenbasis is
needed, not the package's own routine), and pruned exhaustive grid searches
for the tiny-instance optimality checks.
"""

import math

import numpy as np


def naive_similarity_error(a, features, labels, margin):
    """Direct double-loop evaluation of the averaged pairwise hinge."""
    m = features.shape[0]
    total = 0.0
    for i in range(m):
        inner = 0.0
        for j in range(m):
            inner += labels[i] * labels[j] * float(features[i] @ a @ features[j])
        total += max(0.0, 1.0 - inner / (m * margin))
    return total / m


def naive_subgradient(a, features, labels, margin):
    """Double-loop subgradient of the averaged pairwise hinge at a."""
    m, d = features.shape
    g = np.zeros((d, d))
    for i in range(m):
        inner = 0.0
        for j in range(m):
            inner += labels[i] * labels[j] * float(features[i] @ a @ features[j])
        if 1.0 - inner / (m * margin) > 0.0:
            for j in range(m):
                outer = np.outer(features[i], features[j])
                g -= labels[i] * labels[j] * (outer + outer.T) / 2.0
    return g / (m ** 2 * margin)


def naive_separator_value(alpha, anchors, a, x):
    total = 0.0
    for j in range(anchors.shape[0]):
        total += alpha[j] * float(anchors[j] @ a @ x)
    return total


def fd_inner_product(err_fn, a, direction, h=1e-6):
    """Central-difference directional derivative of err_fn at a."""
    return (err_fn(a + h * direction) - err_fn(a - h * direction)) / (2.0 * h)


# ---------------------------------------------------------------------------
# Closed-form proximal operators, written independently of the package.
# mixed21 has no closed form over symmetric matrices; tests compare it with
# prox_oracle instead.

def closed_form_prox(b, tau, kind):
    if kind == "l1":
        return np.where(np.abs(b) > tau, b - tau * np.sign(b), 0.0)
    if kind == "fro":
        total = math.sqrt(float(np.sum(b * b)))
        if total <= tau:
            return np.zeros_like(b)
        return (1.0 - tau / total) * b
    if kind == "trace":
        vals, vecs = np.linalg.eigh((b + b.T) / 2.0)
        shrunk = np.where(np.abs(vals) > tau, vals - tau * np.sign(vals), 0.0)
        out = (vecs * shrunk) @ vecs.T
        return (out + out.T) / 2.0
    raise ValueError(kind)


def _matrix_norm(x, kind):
    if kind == "l1":
        return np.sum(np.abs(x), axis=(-2, -1))
    if kind == "fro":
        return np.sqrt(np.sum(x * x, axis=(-2, -1)))
    if kind == "mixed21":
        return np.sum(np.sqrt(np.sum(x * x, axis=-1)), axis=-1)
    if kind == "trace":
        vals = np.linalg.eigvalsh((x + np.swapaxes(x, -2, -1)) / 2.0)
        return np.sum(np.abs(vals), axis=-1)
    raise ValueError(kind)


def _norm_subgradient(x, kind):
    if kind == "l1":
        return np.sign(x)
    if kind == "fro":
        norms = np.sqrt(np.sum(x * x, axis=(-2, -1), keepdims=True))
        return x / np.maximum(norms, 1e-300)
    if kind == "mixed21":
        rows = np.sqrt(np.sum(x * x, axis=-1, keepdims=True))
        return x / np.maximum(rows, 1e-300)
    raise ValueError(kind)


def prox_objective(x, b, tau, kind):
    """0.5 * ||x - b||_F^2 + tau * ||x||, batched over leading axes."""
    quad = 0.5 * np.sum((x - b) ** 2, axis=(-2, -1))
    return quad + tau * _matrix_norm(x, kind)


def prox_oracle(bs, tau, kind, iters):
    """Projected-subgradient minimizer of the proximal objective.

    Batched over the leading axis of bs, which must hold exactly symmetric
    matrices; tau is a scalar or an array that broadcasts against bs (shape
    (n, 1, 1) for one threshold per input).  Iterates stay in the symmetric
    subspace: the l1 and fro updates keep a symmetric iterate exactly
    symmetric, and the mixed21 update is projected back after each step.
    The step schedule is 2/(k+10), the start is b itself, and the answer is
    the average of the final fifth of the trajectory, which smooths
    subgradient chatter.
    """
    if kind == "trace":
        return _prox_oracle_trace(bs, tau, iters)
    x = bs.copy()
    tail_from = int(iters * 0.8)
    acc = np.zeros_like(bs)
    count = 0
    for k in range(iters):
        step = 2.0 / (k + 10.0)
        grad = (x - bs) + tau * _norm_subgradient(x, kind)
        x = x - step * grad
        if kind == "mixed21":
            x = (x + np.swapaxes(x, -2, -1)) / 2.0
        if k >= tail_from:
            acc += x
            count += 1
    return acc / count


def _prox_oracle_trace(bs, tau, iters):
    """Trace-norm prox oracle, reduced to scalar recursions.

    The iterates of the matrix recursion started at b stay polynomials in b,
    so they share b's eigenbasis (LAPACK's, not the package's) and the whole
    run collapses to independent scalar problems on the eigenvalues:
    minimize 0.5 (s - v)^2 + tau |s| by the same subgradient schedule.  A
    per-input tau of shape (n, 1, 1) drops its last axis to meet the
    eigenvalues, shape (n, d).
    """
    tau = np.asarray(tau, dtype=float)
    if tau.ndim > 0:
        tau = tau[..., 0]
    vals, vecs = np.linalg.eigh((bs + np.swapaxes(bs, -2, -1)) / 2.0)
    s = vals.copy()
    tail_from = int(iters * 0.8)
    acc = np.zeros_like(vals)
    count = 0
    for k in range(iters):
        step = 2.0 / (k + 10.0)
        grad = (s - vals) + tau * np.sign(s)
        s = s - step * grad
        if k >= tail_from:
            acc += s
            count += 1
    s = acc / count
    return np.einsum("...ij,...j,...kj->...ik", vecs, s, vecs)


# ---------------------------------------------------------------------------
# Exhaustive grid searches for the 2x2 similarity problem.

def _norm_abc(a, b, c, kind):
    """Matrix norms of [[a, b], [b, c]] as elementwise array formulas."""
    if kind == "l1":
        return np.abs(a) + 2.0 * np.abs(b) + np.abs(c)
    if kind == "fro":
        return np.sqrt(a * a + 2.0 * b * b + c * c)
    if kind == "mixed21":
        return np.sqrt(a * a + b * b) + np.sqrt(b * b + c * c)
    if kind == "trace":
        half_sum = (a + c) / 2.0
        radius = np.sqrt(((a - c) / 2.0) ** 2 + b * b)
        return np.abs(half_sum + radius) + np.abs(half_sum - radius)
    raise ValueError(kind)


def grid_similarity_oracle(features, labels, lam, margin, kind, step=0.01):
    """Exact minimum of the regularized objective over the 0.01 grid.

    The grid is all symmetric [[a, b], [b, c]] with coordinates on multiples
    of step and norm at most 1/lam.  Exhaustive evaluation is made feasible
    by a coarse-to-fine sweep: coarser passes visit only grid points (their
    steps are multiples of the fine step), so their best value is a valid
    upper bound, and any point with lam * norm above that bound cannot win
    because the hinge term is nonnegative.  The final pass exactly covers
    every fine-grid point that survives the pruning.
    """
    m = features.shape[0]
    w = features.T @ labels
    # Per-example margin is linear in (a, b, c): coeff @ (a, b, c).
    coeff = np.stack(
        [
            labels * features[:, 0] * w[0],
            labels * (features[:, 0] * w[1] + features[:, 1] * w[0]),
            labels * features[:, 1] * w[1],
        ],
        axis=1,
    ) / (m * margin)
    radius = 1.0 / lam
    best = 1.0  # objective at the origin, always a grid point
    for pass_step in (20 * step, 5 * step, step):
        reach = min(radius, best / lam)
        k_max = int(math.floor(reach / pass_step + 1e-9))
        axis = np.arange(-k_max, k_max + 1) * pass_step
        if axis.size == 0:
            continue
        b_grid, c_grid = np.meshgrid(axis, axis, indexing="ij")
        for a_val in axis:
            norms = _norm_abc(a_val, b_grid, c_grid, kind)
            mask = (norms <= radius) & (lam * norms <= best)
            if not np.any(mask):
                continue
            b_sel = b_grid[mask]
            c_sel = c_grid[mask]
            margins = (
                coeff[:, 0][:, None] * a_val
                + coeff[:, 1][:, None] * b_sel[None, :]
                + coeff[:, 2][:, None] * c_sel[None, :]
            )
            hinge = np.mean(np.maximum(0.0, 1.0 - margins), axis=0)
            candidate = float(np.min(hinge + lam * norms[mask]))
            if candidate < best:
                best = candidate
    return best


def grid_separator_oracle(gram, labels, margin, step=0.005):
    """Exhaustive hinge minimum over the L1 ball for three anchors.

    gram[i, j] = K_A(x_j, x_i).  Scans every grid point with coordinates on
    multiples of step and L1 norm at most 1/margin, in planes to bound
    memory.
    """
    m = labels.shape[0]
    if m != 3:
        raise ValueError("oracle is written for exactly three anchors")
    radius = 1.0 / margin
    k_max = int(math.floor(radius / step + 1e-9))
    axis = np.arange(-k_max, k_max + 1) * step
    best = math.inf
    b_grid, c_grid = np.meshgrid(axis, axis, indexing="ij")
    plane_abs = np.abs(b_grid) + np.abs(c_grid)
    for a_val in axis:
        mask = plane_abs <= radius - abs(a_val) + 1e-12
        if not np.any(mask):
            continue
        alphas = np.stack(
            [np.full(int(np.sum(mask)), a_val), b_grid[mask], c_grid[mask]], axis=0
        )
        values = gram @ alphas
        hinge = np.mean(np.maximum(0.0, 1.0 - labels[:, None] * values), axis=0)
        candidate = float(np.min(hinge))
        if candidate < best:
            best = candidate
    return best


def grid_l1_projection_oracle(v, radius, step=0.002):
    """Brute-force nearest grid point in the L1 ball, scanned plane by plane."""
    v = np.asarray(v, dtype=float)
    k_max = int(math.floor(radius / step + 1e-9))
    axis = np.arange(-k_max, k_max + 1) * step
    best = math.inf
    if v.shape[0] == 2:
        b_grid = axis
        for a_val in axis:
            mask = np.abs(b_grid) <= radius - abs(a_val) + 1e-12
            if not np.any(mask):
                continue
            dist_sq = (a_val - v[0]) ** 2 + (b_grid[mask] - v[1]) ** 2
            best = min(best, float(np.min(dist_sq)))
        return math.sqrt(best)
    if v.shape[0] == 3:
        b_grid, c_grid = np.meshgrid(axis, axis, indexing="ij")
        plane_abs = np.abs(b_grid) + np.abs(c_grid)
        plane_sq = (b_grid - v[1]) ** 2 + (c_grid - v[2]) ** 2
        for a_val in axis:
            mask = plane_abs <= radius - abs(a_val) + 1e-12
            if not np.any(mask):
                continue
            dist_sq = (a_val - v[0]) ** 2 + plane_sq[mask]
            best = min(best, float(np.min(dist_sq)))
        return math.sqrt(best)
    raise ValueError("oracle is written for dimensions 2 and 3")


def sample_l1_ball(rng, n, radius):
    """A random point of the solid L1 ball (not uniform; coverage only)."""
    exps = rng.exponential(size=n)
    signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
    scale = radius * rng.uniform() ** (1.0 / n)
    return signs * exps / np.sum(exps) * scale


# ---------------------------------------------------------------------------
# Reference loops for the solvers' fast paths.  Each is the straightforward
# form of the same arithmetic, one step at a time, so the package must match
# it bit for bit.

def reference_l1_projection(v, radius):
    """Sort-based Euclidean projection onto the L1 ball (Duchi et al. 2008)."""
    magnitudes = np.abs(v)
    if magnitudes.sum() <= radius:
        return v.copy()
    u = np.sort(magnitudes)[::-1]
    cumulative = np.cumsum(u)
    counts = np.arange(1, u.shape[0] + 1)
    rho = np.nonzero(u * counts > cumulative - radius)[0][-1]
    theta = (cumulative[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(magnitudes - theta, 0.0)


def reference_separator_alpha(features, labels, a, margin, max_iters, step0):
    """Best iterate of projected subgradient descent on the separator hinge.

    With S the features with row i scaled by y_i, and SA = S A, the margins
    are SA (X^T alpha) and the hinge subgradient is -(X (SA^T active)) / m,
    in that product order; no m x m matrix is formed.  Starts at
    alpha0 = y / (m margin), steps by step0 / sqrt(t) against the
    subgradient, with the 1/m folded into the step factor, projects onto the
    L1 ball of radius 1/margin, and keeps the first iterate of least hinge
    error.  The hinge error is the dot product of the slack with its 0/1
    active mask, over m.
    """
    m = labels.shape[0]
    sa = (labels[:, None] * features) @ a

    def hinge_and_active(alpha):
        slack = 1.0 - sa @ (features.T @ alpha)
        active = (slack > 0.0).astype(float)
        return float(slack @ active / m), active

    alpha = labels / (m * margin)
    best_alpha = alpha
    best_err, active = hinge_and_active(alpha)
    for t in range(1, max_iters + 1):
        product = features @ (sa.T @ active)
        alpha = reference_l1_projection(
            (step0 / (m * math.sqrt(t))) * product + alpha, 1.0 / margin
        )
        err, active = hinge_and_active(alpha)
        if err < best_err:
            best_err = err
            best_alpha = alpha
    return best_alpha


def reference_philox_signs(seed, m):
    """m Rademacher signs from a fresh Philox generator keyed by seed."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.integers(0, 2, size=m).astype(float) * 2.0 - 1.0


def reference_rademacher_empirical(features, labels, kind, mc_draws, seed):
    """Monte-Carlo Rademacher average with draw k's signs from row k of one stream.

    One Philox generator keyed by seed yields the signs of every draw, m at
    a time; the rows are stacked, weighted by the labels and multiplied with
    the features in one product.  Returns (mean, standard error).  The sup over
    the sample is the rank-1 dual norm of v x_ref^T, with x_ref the sample
    point of largest infinity norm (l1) or Euclidean norm (the other kinds).
    """
    m = labels.shape[0]
    if kind == "l1":
        x_ref = features[int(np.argmax(np.max(np.abs(features), axis=1)))]
    else:
        x_ref = features[int(np.argmax(np.linalg.norm(features, axis=1)))]
    rng = np.random.Generator(np.random.Philox(key=seed))
    signs = np.stack([rng.integers(0, 2, size=m) for _ in range(mc_draws)]) * 2.0 - 1.0
    v = (signs * labels) @ features / m
    if kind == "l1":
        values = np.abs(v).max(axis=1) * np.abs(x_ref).max()
    elif kind == "mixed21":
        values = np.abs(v).max(axis=1) * np.linalg.norm(x_ref)
    else:
        values = np.linalg.norm(v, axis=1) * np.linalg.norm(x_ref)
    estimate = float(np.mean(values))
    if mc_draws == 1:
        return estimate, 0.0
    return estimate, float(np.std(values, ddof=1) / math.sqrt(mc_draws))


def _reference_row_norms(x):
    return np.sqrt((x * x).sum(axis=1))


def _reference_norm(a, kind):
    if kind == "l1":
        return float(np.abs(a).sum())
    if kind == "fro":
        return float(np.linalg.norm(a))
    if kind == "mixed21":
        return float(_reference_row_norms(a).sum())
    return float(np.abs(np.linalg.eigh(a)[0]).sum())


def reference_prox(b, tau, kind):
    """Prox point of symmetric b and its norm, one array expression at a time.

    l1 and fro shrink in closed form, trace thresholds the eigenvalues and
    symmetrizes the product, and mixed21 runs ``_reference_prox_mixed21``,
    whose Newton phase works on Python floats up to d = 5.
    """
    if tau == 0.0:
        return b.copy(), _reference_norm(b, kind)
    if kind == "l1":
        shrunk = np.maximum(np.abs(b) - tau, 0.0)
        return np.sign(b) * shrunk, float(shrunk.sum())
    if kind == "fro":
        total = np.linalg.norm(b)
        a = np.zeros_like(b) if total <= tau else b * (1.0 - tau / total)
        return a, _reference_norm(a, kind)
    if kind == "mixed21":
        return _reference_prox_mixed21(b, tau)
    eigenvalues, vectors = np.linalg.eigh(b)
    thresholded = np.sign(eigenvalues) * np.maximum(np.abs(eigenvalues) - tau, 0.0)
    product = (vectors * thresholded) @ vectors.T
    return (product + product.T) / 2.0, float(np.abs(thresholded).sum())


def _reference_prox_mixed21(b, tau, gap_rtol=1e-12, newton_steps=8, dual_steps=200000):
    """Mixed21 prox: Newton on the row scales s, then dual FISTA if it stalls.

    The entries are A_ij = 2 B_ij s_i s_j / (s_i + s_j); Newton solves
    s_i = 1 - tau / max(||h_i||, tau) for H = 2 B * s_j / (s_i + s_j) over
    the rows whose right-hand side (target) is positive, dead rows included,
    sets the others to 0, and stops on the duality-gap bound.  The fallback
    is accelerated projected gradient with gradient restart on the skew part
    of the dual.  Up to d = 5 the rows that the KKT conditions kill are
    screened out first (``_reference_mixed21_screen``), and the Newton phase
    runs on Python floats (``_reference_prox_mixed21_floats``) until it
    leaves the written-out kernel's path; it then resumes on arrays
    (``_reference_newton_arrays``), where every larger d runs.
    """
    if b.shape[0] <= 5:
        screened = _reference_mixed21_screen(b, tau, gap_rtol, newton_steps, dual_steps)
        if screened is not None:
            return screened
        return _reference_prox_mixed21_floats(b, tau, gap_rtol, newton_steps, dual_steps)
    s = 1.0 - tau / np.maximum(_reference_row_norms(b), tau)
    return _reference_newton_arrays(b, tau, s, newton_steps, gap_rtol, dual_steps)


def _reference_newton_arrays(b, tau, s, steps, gap_rtol, dual_steps):
    """The array Newton phase from the scales s, with steps evaluations
    left; after the last one the dual phase starts from H at s."""
    b_rows = _reference_row_norms(b)
    scale = b_rows.sum()
    twice_b = b + b
    for left in range(steps, 0, -1):
        pair = s[:, None] + s
        all_live = s.min() > 0.0
        if all_live:
            h = twice_b * (s / pair)
        else:
            live = pair > 0.0
            pair = np.where(live, pair, 1.0)
            h = twice_b * np.where(live, s / pair, 0.5)
        n = _reference_row_norms(h)
        clipped = np.maximum(n, tau)
        target = 1.0 - tau / clipped
        residual = s - target
        weighted = residual * b_rows
        gap = float(weighted @ weighted)
        if n.min() < tau:
            gap += float((s * n) @ np.maximum(tau - n, 0.0))
        total = float(s @ n)
        if gap <= tau * gap_rtol * (total + scale):
            return twice_b * (s[:, None] * s / pair), total
        if left == 1:
            break
        c = h * twice_b / (pair * pair)
        weight = tau / (clipped * clipped * clipped)
        jacobian = np.diag(1.0 + weight * (c @ s)) - (weight * s)[:, None] * c
        if target.min() > 0.0:
            s = np.minimum(np.maximum(s - np.linalg.solve(jacobian, residual), 0.0), 1.0)
            continue
        idx = np.flatnonzero(target > 0.0)
        if idx.size:
            step = np.linalg.solve(jacobian[np.ix_(idx, idx)], residual[idx])
            target[idx] = np.minimum(np.maximum(s[idx] - step, 0.0), 1.0)
        s = target
    return _reference_dual_mixed21(
        b, tau, reference_dual_start(b, s), scale, gap_rtol, dual_steps
    )


def reference_dual_start(b, s):
    """H = 2B * s_j / (s_i + s_j) at the scales s, 0.5 for a dead pair
    (s_i = s_j = 0): the dual phase's warm start after a Newton phase whose
    last evaluation was at s."""
    live = s[:, None] + s > 0.0
    return (b + b) * np.where(live, s / np.where(live, s[:, None] + s, 1.0), 0.5)


def _reference_mixed21_screen(b, tau, *caps):
    """The mixed21 prox of B with a dead row, and its norm, or None.

    Row i is zero at the minimizer if its row of H at s_i = 0, with
    h_ii = b_ii and h_ij = 2 b_ij, has norm at most tau: then
    (b_ii, 2 b_ij ...) / tau is a dual row in the unit ball, and the KKT
    conditions hold with every such row and column zero and the prox of B
    without them in the rest.  No row left is A = 0; one row left, j,
    gives a_jj = copysign(max(|b_jj| - tau, 0), b_jj); more are the prox
    of the smaller block, under the same caps.  Every other entry is a zero
    with its entry of B's sign.
    """
    rows = b.tolist()
    span = range(len(rows))
    live = [
        i for i in span
        if _float_norm([x if j == i else 2.0 * x for j, x in enumerate(rows[i])]) > tau
    ]
    if len(live) == len(rows):
        return None
    a = np.array([[math.copysign(0.0, x) for x in row] for row in rows])
    total = 0.0
    if len(live) == 1:
        (j,) = live
        total = max(abs(rows[j][j]) - tau, 0.0)
        a[j, j] = math.copysign(total, rows[j][j])
    elif live:
        block, total = _reference_prox_mixed21(b[np.ix_(live, live)], tau, *caps)
        a[np.ix_(live, live)] = block
    return a, total


def _float_dot(x, y):
    total = 0.0
    for x_i, y_i in zip(x, y):
        total += x_i * y_i
    return total


def _float_norm(x):
    return math.sqrt(_float_dot(x, x))


def _reference_solve(matrix, rhs):
    """Gaussian elimination with no pivot swap on lists, or None where
    partial pivoting would swap: some |m_ik| > |m_kk| below the pivot."""
    n = len(rhs)
    matrix = [list(row) for row in matrix]
    rhs = list(rhs)
    for k in range(n):
        if any(abs(matrix[i][k]) > abs(matrix[k][k]) for i in range(k + 1, n)):
            return None
        for i in range(k + 1, n):
            factor = matrix[i][k] / matrix[k][k]
            for j in range(k + 1, n):
                matrix[i][j] -= factor * matrix[k][j]
            rhs[i] -= factor * rhs[k]
    x = [0.0] * n
    for k in reversed(range(n)):
        acc = rhs[k]
        for j in range(k + 1, n):
            acc -= matrix[k][j] * x[j]
        x[k] = acc / matrix[k][k]
    return x


def _reference_prox_mixed21_floats(b, tau, gap_rtol, newton_steps, dual_steps):
    """``_reference_prox_mixed21``'s Newton phase with every entry a Python
    float, on the written-out kernel's path.

    Each array expression of the array form becomes a list comprehension
    over the same operands; sums and dot products accumulate in index order
    with +=, and the Newton system is solved by ``_reference_solve``.  Where
    the kernel leaves its path, at a dead pair (s_i = s_j = 0, i != j), a
    row of H at or below tau, or a pivot swap, the array phase evaluates s
    again with the evaluations left; after the last evaluation it takes s
    with none left, and hands it to the dual phase.
    """
    d = b.shape[0]
    rng = range(d)
    bb = [[float(b[i, j]) for j in rng] for i in rng]
    twice_b = [[bb[i][j] + bb[i][j] for j in rng] for i in rng]
    b_rows = [_float_norm(row) for row in bb]
    scale = 0.0
    for r in b_rows:
        scale += r

    def resume(s, left):
        return _reference_newton_arrays(b, tau, np.array(s), left, gap_rtol, dual_steps)

    s = [1.0 - tau / max(b_rows[i], tau) for i in rng]
    for left in range(newton_steps, 0, -1):
        pair = [[s[i] + s[j] for j in rng] for i in rng]
        if any(not pair[i][j] > 0.0 for i in rng for j in rng if i != j):
            return resume(s, left)
        # Only p_ii = 0, a dead row, takes the stand-in 1 and h_ii = 0.5 t_ii.
        live = [[pair[i][j] > 0.0 for j in rng] for i in rng]
        pair = [[pair[i][j] if live[i][j] else 1.0 for j in rng] for i in rng]
        h = [
            [twice_b[i][j] * (s[j] / pair[i][j] if live[i][j] else 0.5) for j in rng]
            for i in rng
        ]
        n = [_float_norm(row) for row in h]
        if not min(n) > tau:
            return resume(s, left)
        target = [1.0 - tau / n[i] for i in rng]
        residual = [s[i] - target[i] for i in rng]
        weighted = [residual[i] * b_rows[i] for i in rng]
        gap = _float_dot(weighted, weighted)
        total = _float_dot(s, n)
        if gap <= tau * gap_rtol * (total + scale):
            a = [[twice_b[i][j] * (s[i] * s[j] / pair[i][j]) for j in rng] for i in rng]
            return np.array(a), total
        if left == 1:
            return resume(s, 0)
        c = [[h[i][j] * twice_b[i][j] / (pair[i][j] * pair[i][j]) for j in rng] for i in rng]
        weight = [tau / (n[i] * n[i] * n[i]) for i in rng]
        jacobian = [[0.0 - weight[i] * s[i] * c[i][j] for j in rng] for i in rng]
        for i in rng:
            jacobian[i][i] += 1.0 + weight[i] * _float_dot(c[i], s)
        step = _reference_solve(jacobian, residual)
        if step is None:
            return resume(s, left)
        s = [min(max(s[i] - step[i], 0.0), 1.0) for i in rng]
    return resume(s, 0)


def _reference_dual_mixed21(b, tau, h, scale, gap_rtol, dual_steps):
    """The dual FISTA phase of ``_reference_prox_mixed21``, warm-started at h."""
    scaled = b / tau
    k = k_prev = (h - b) / tau
    t = 1.0
    for _ in range(dual_steps):
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = k + ((t - 1.0) / t_next) * (k - k_prev)
        shifted = scaled + y
        g = shifted / np.maximum(_reference_row_norms(shifted), 1.0)[:, None]
        a = b - (g + g.T) * (0.5 * tau)
        total = float(_reference_row_norms(a).sum())
        if total - float((g * a).sum()) <= gap_rtol * (total + scale):
            return a, total
        k_prev, k = k, (g - g.T) * 0.5
        if ((y - k) * (k - k_prev)).sum() > 0.0:
            t_next = 1.0
        t = t_next
    raise RuntimeError("reference mixed21 prox did not certify its duality gap")


def reference_prox_floats(rows, tau, kind, spectrum=None):
    """``reference_prox`` on a symmetric 2x2 list of rows of floats, and the
    trace spectrum.

    Returns (rows, norm, spectrum).  Every sum accumulates with += in index
    order from 0.0.  Soft thresholds are sign(x) max(|x| - tau, 0) with
    sign(0) = 0.  A given trace spectrum (thresholded eigenvalues,
    eigenvector rows) is thresholded again instead of decomposing, and
    otherwise ``reference_spectrum_floats`` decomposes; mixed21 runs
    ``_reference_prox_mixed21`` on the array of the rows.
    """
    d = len(rows)
    assert d == 2, "the float loop is 2x2"
    rng = range(d)
    if tau == 0.0:
        return rows, _reference_norm(np.array(rows), kind), spectrum
    if kind == "l1":
        a = [[_float_sign(x) * max(abs(x) - tau, 0.0) for x in row] for row in rows]
        total = 0.0
        for row in rows:
            for x in row:
                total += max(abs(x) - tau, 0.0)
        return a, total, None
    if kind == "fro":
        total = _float_norm([x for row in rows for x in row])
        if total <= tau:
            return [[0.0] * d for _ in rng], 0.0, None
        a = [[x * (1.0 - tau / total) for x in row] for row in rows]
        return a, _float_norm([x for row in a for x in row]), None
    if kind == "mixed21":
        a, total = _reference_prox_mixed21(np.array(rows), tau)
        return a.tolist(), total, None
    if spectrum is None:
        spectrum = reference_spectrum_floats(rows)
    values, vectors = spectrum
    thresholded = [_float_sign(x) * max(abs(x) - tau, 0.0) for x in values]
    total = 0.0
    for x in values:
        total += max(abs(x) - tau, 0.0)
    product = [
        [_float_dot([vectors[i][k] * thresholded[k] for k in rng], vectors[j]) for j in rng]
        for i in rng
    ]
    a = [[(product[i][j] + product[j][i]) / 2.0 for j in rng] for i in rng]
    return a, total, (thresholded, vectors)


def reference_spectrum_floats(rows):
    """Eigenvalues, ascending, and eigenvector rows of a symmetric 2x2 list of
    rows.

    When every entry, 2b and c - a are finite: b = 0 gives the diagonal;
    otherwise one Jacobi rotation (Golub & Van Loan, sym.schur2) with
    zeta = (c - a) / (2b), sign(0) = +1,
    t = sign(zeta) / (|zeta| + sqrt(1 + zeta^2)), cs = 1 / sqrt(1 + t^2),
    sn = t cs gives the eigenpairs (a - t b, (cs, -sn)) and
    (c + t b, (sn, cs)).  The pairs are sorted by eigenvalue, stably, and
    b is the lower-triangle entry, as LAPACK reads it.  Anything else goes
    to np.linalg.eigh.
    """
    if all(math.isfinite(x) for row in rows for x in row):
        a, b, c = rows[0][0], rows[1][0], rows[1][1]
        if math.isfinite(2.0 * b) and math.isfinite(c - a):
            if b == 0.0:
                pairs = [(a, [1.0, 0.0]), (c, [0.0, 1.0])]
            else:
                zeta = (c - a) / (2.0 * b)
                sign = -1.0 if zeta < 0.0 else 1.0
                t = sign / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                cs = 1.0 / math.sqrt(1.0 + t * t)
                sn = t * cs
                pairs = [(a - t * b, [cs, -sn]), (c + t * b, [sn, cs])]
            pairs.sort(key=lambda pair: pair[0])
            values = [value for value, _ in pairs]
            # Eigenvectors are the columns.
            vectors = [[vector[i] for _, vector in pairs] for i in range(2)]
            return values, vectors
    values, vectors = np.linalg.eigh(np.array(rows))
    return values.tolist(), vectors.tolist()


def _float_sign(x):
    return 1.0 if x > 0.0 else -1.0 if x < 0.0 else 0.0


def reference_hinge_floats(a, rows, w):
    """The summed positive slack of A (a list of rows of floats) and its 0/1
    mask, as bools, on Python floats.

    rows are the scaled label-signed features and w the label sum, both as
    lists.  The images A w and the margins are dot products summed with +=
    in index order from 0.0, and the sum adds each slack times its mask in
    index order, so a non-finite slack at or below 0 makes it NaN.
    """
    image = [_float_dot(a_k, w) for a_k in a]
    slack = [1.0 - _float_dot(row, image) for row in rows]
    active = [x > 0.0 for x in slack]
    total = 0.0
    for x, on in zip(slack, active):
        total += x * float(on)
    return total, active


def reference_train_similarity(
    features, labels, lam, margin, kind, max_iters, step0, rel_tol, floats=False, proxes=None
):
    """Best iterate of proximal subgradient descent on the similarity objective.

    Starts at A = 0, steps by step0 / sqrt(t) against the hinge subgradient,
    applies the prox with threshold eta * lam, keeps the first iterate of
    least objective, and stops once the best objective improved by less
    than rel_tol relative over a 50-iteration window.  The signed features
    are divided by m margin once, the subgradient's 1/(-2 m) is folded into
    the step factor, and the hinge sum is the slack dotted with its 0/1
    mask.  An iterate whose summed positive slack is 0 takes no step: the
    prox gets the iterate itself, and with floats set trace thresholds the
    spectrum its previous prox returned instead of decomposing again, as
    the float loop does.  Returns (matrix, objective, iterations run).

    With floats set (d = 2, the float loop's shape), A is a list of rows
    of Python floats, not the float loop's triple: the products are
    dot products summed with += in index order, the hinge sum adds each
    slack times its 0/1 mask in index order, and the prox is
    ``reference_prox_floats``.  Otherwise A is an array, and the prox is
    ``reference_prox``, which hands back no spectrum.

    With proxes a list, each iteration appends (stepped, b, tau, reused, a):
    whether it took a subgradient step, the prox input and threshold,
    whether the prox was handed a spectrum, and the prox output.
    """
    m = labels.shape[0]
    d = features.shape[1]
    scaled = (labels[:, None] * features) / (m * margin)
    w = features.T @ labels

    if floats:
        rows = scaled.tolist()
        w_list = w.tolist()

        def hinge(a):
            return reference_hinge_floats(a, rows, w_list)

        def step(a, active, eta):
            u = [0.0] * d
            for row, on in zip(rows, active):
                if on:
                    u = [u_k + x for u_k, x in zip(u, row)]
            factor = eta / (-2.0 * m)
            return [
                [a[k][l] - (u[k] * w_list[l] + u[l] * w_list[k]) * factor for l in range(d)]
                for k in range(d)
            ]

        def prox(a, tau, spectrum):
            return reference_prox_floats(a, tau, kind, spectrum)

        a = [[0.0] * d for _ in range(d)]
    else:
        def hinge(a):
            slack = 1.0 - scaled @ (a @ w)
            active = (slack > 0.0).astype(float)
            return slack @ active, active

        def step(a, active, eta):
            outer = (scaled.T @ active)[:, None] * w
            return a - (eta / (-2.0 * m)) * (outer + outer.T)

        def prox(a, tau, spectrum):
            # Every prox decomposes afresh: the array loop keeps no spectrum.
            return (*reference_prox(a, tau, kind), None)

        a = np.zeros((d, d))
    hinge_sum, active = hinge(a)
    best_a = a
    best_obj = float(hinge_sum / m) + lam * _reference_norm(np.array(a), kind)
    window_best = best_obj
    spectrum = None
    iterations = 0
    for t in range(1, max_iters + 1):
        eta = step0 / math.sqrt(t)
        stepped = hinge_sum > 0.0
        if stepped:
            a = step(a, active, eta)
            spectrum = None
        b, reused = a, spectrum is not None
        a, a_norm, spectrum = prox(a, eta * lam, spectrum)
        if proxes is not None:
            proxes.append((stepped, b, eta * lam, reused, a))
        hinge_sum, active = hinge(a)
        obj = float(hinge_sum / m) + lam * a_norm
        if obj < best_obj:
            best_obj = obj
            best_a = a
        iterations = t
        if t % 50 == 0:
            if window_best - best_obj < rel_tol * abs(window_best):
                break
            window_best = best_obj
    return np.array(best_a), best_obj, iterations
