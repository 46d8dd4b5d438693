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

    Starts at alpha0 = y / (m margin), steps by step0 / sqrt(t) against
    -(gram^T (y * active)) / m, projects onto the L1 ball of radius 1/margin,
    and keeps the first iterate of least hinge error.
    """
    m = labels.shape[0]
    gram = features @ a @ features.T

    def hinge_and_grad(alpha):
        slack = 1.0 - labels * (gram @ alpha)
        err = float(np.mean(np.maximum(0.0, slack)))
        return err, -(gram.T @ (labels * (slack > 0.0))) / m

    alpha = labels / (m * margin)
    best_alpha = alpha
    best_err, grad = hinge_and_grad(alpha)
    for t in range(1, max_iters + 1):
        alpha = reference_l1_projection(alpha - (step0 / math.sqrt(t)) * grad, 1.0 / margin)
        err, grad = hinge_and_grad(alpha)
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
