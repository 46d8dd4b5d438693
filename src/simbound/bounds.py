"""Generalization certificates for the learnt similarity and separator.

The certificate machinery has four parts: the sample bound X* on the dual
norm of rank-1 feature outer products, a Monte-Carlo estimate of the
Rademacher average of the dual-norm process, closed-form analytic upper
estimates of the same average for each norm kind, and the two deviation
bounds assembled from those ingredients.  A moment-comparison check for
Rademacher sums is included because the analytic estimates lean on it.

Each Monte-Carlo estimate draws its signs from one Philox stream keyed by
its seed: draw k's signs are row k of one sign matrix, so a longer run's
first k draws use the same signs, and estimates are reproducible.  The sign
matrix peaks at about 16 * mc_draws * m bytes.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .data import _is_count, _rademacher_signs, _write_json, philox_generator
from .norms import NormKind, _rank1_factors
from .similarity import _signed_features, empirical_similarity_error


@dataclass(frozen=True)
class BoundReport:
    """Everything needed to restate and audit the two deviation bounds.

    r_m_used is the Rademacher value the certificate was assembled with,
    which is the smaller of the empirical and analytic estimates.
    empirical_error is the training similarity error that theorem2_bound
    builds on.
    """

    norm_kind: NormKind
    x_star: float
    r_m_empirical: float
    r_m_std_error: float
    r_m_analytic: float
    r_m_used: float
    empirical_error: float
    delta: float
    m: int
    lam: float
    margin: float
    theorem1_bound: float
    theorem2_bound: float
    mc_draws: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "norm_kind", NormKind(self.norm_kind))
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.x_star < 0 or self.r_m_empirical < 0:
            raise ValueError("x_star and r_m_empirical must be nonnegative")


def x_star(data, kind):
    """Largest dual norm of x x2^T over sample pairs, via rank-1 identities.

    The dual norm of x x2^T is f(x) g(x2) with both factors nonnegative, so
    the sup over pairs is max f times max g.
    """
    v_factor, x_factor = _rank1_factors(NormKind(kind))
    features = data.features
    return float(v_factor(features, axis=1).max() * x_factor(features, axis=1).max())


def rademacher_empirical(data, kind, mc_draws, seed=0):
    """Monte-Carlo estimate of the dual-norm Rademacher average.

    Draw k takes row k of one (mc_draws, m) sign matrix drawn from
    philox_generator(seed), forms v = (1/m) sum_i sigma_i y_i x_i, and
    evaluates the sup over the sample by the rank-1 dual identity against
    the sample point of largest x-factor.  All draws are one matrix product,
    so peak memory is about 16 * mc_draws * m bytes.  Returns (mean,
    standard error) over draws.
    """
    if not _is_count(mc_draws):
        raise ValueError(f"mc_draws must be a positive int, got {mc_draws!r}")
    # dual_norm_rank1(v, x, kind) = v_factor(v) * x_factor(x), so the sup
    # over the sample is attained at the row of largest x_factor.
    v_factor, x_factor = _rank1_factors(NormKind(kind))
    x_ref = data.features[int(np.argmax(x_factor(data.features, axis=1)))]
    # (sigma * y) @ X equals sigma @ signed bit for bit: every factor but
    # the features is +-1.
    signs = _rademacher_signs(philox_generator(seed), (mc_draws, data.m))
    values = v_factor(signs @ _signed_features(data) / data.m, axis=1) * x_factor(x_ref)
    estimate = float(np.mean(values))
    if mc_draws == 1:
        return estimate, 0.0
    return estimate, float(np.std(values, ddof=1) / math.sqrt(mc_draws))


def _analytic_estimate(kind, x_star_value, max_two, sum_sq_two, m, d):
    """Closed-form upper estimates with the sample suprema already extracted.

    l1, fro and mixed21 give 2 X* sqrt(c / m), with c = e ln(d + 1) for the
    kinds whose dual takes a max over entries or rows and c = 1 for fro.
    Kept separate from rademacher_analytic so the formulas can be probed at
    arbitrary real m in tests.
    """
    kind = NormKind(kind)
    if kind is NormKind.TRACE:
        return max_two * math.sqrt(sum_sq_two) / m
    c = 1.0 if kind is NormKind.FROBENIUS else math.e * math.log(d + 1)
    return 2.0 * x_star_value * math.sqrt(c / m)


def rademacher_analytic(data, kind):
    """Per-kind closed-form upper estimate with suprema over the sample."""
    row_norms = np.linalg.norm(data.features, axis=1)
    return _analytic_estimate(
        kind,
        x_star(data, kind),
        float(np.max(row_norms)),
        float(np.sum(row_norms ** 2)),
        data.m,
        data.d,
    )


def _deviation_tail(x_star_value, margin, lam, delta, m):
    """The confidence term shared by both theorems, once its inputs are checked."""
    if not 0 < margin < math.inf:
        raise ValueError(f"margin must be positive and finite, got {margin}")
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    return (2.0 * x_star_value / (margin * lam)) * math.sqrt(2.0 * math.log(1.0 / delta) / m)


def theorem1_bound(x_star_value, r_m, margin, lam, delta, m):
    """Deviation bound on the similarity error gap."""
    tail = _deviation_tail(x_star_value, margin, lam, delta, m)
    return 6.0 * r_m / (margin * lam) + tail


def theorem2_bound(e_z_of_a, x_star_value, r_m, margin, lam, delta, m):
    """Bound on the separator's population hinge error."""
    tail = _deviation_tail(x_star_value, margin, lam, delta, m)
    if e_z_of_a < 0:
        raise ValueError(f"e_z_of_a must be nonnegative, got {e_z_of_a}")
    return e_z_of_a + 4.0 * r_m / (margin * lam) + tail


def khinchin_check(f, p, q, mode="exact", mc_draws=100000, seed=0):
    """Compare moments of the Rademacher sum sum_i sigma_i f_i.

    Returns (lhs, rhs, holds) where lhs is the q-th moment root, rhs is
    sqrt((q-1)/(p-1)) times the p-th moment root, and holds reports
    lhs <= rhs + 1e-12.  Exact mode enumerates all 2^n sign vectors and is
    limited to n <= 20; mc mode samples sign vectors instead.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or f.shape[0] < 1:
        raise ValueError(f"f must be a nonempty vector, got shape {f.shape}")
    if not np.isfinite(f).all():
        raise ValueError(f"f must be finite, got {f.tolist()}")
    if not 1.0 < p < q < math.inf:
        raise ValueError(f"need 1 < p < q < inf, got p={p}, q={q}")
    # Both moments are homogeneous of degree 1 in f.  Scaling f by a power
    # of two near 1/max|f| is exact, keeps |sum|^q finite for large f, and
    # is undone on the two roots.
    exponent = math.frexp(float(np.max(np.abs(f))))[1]
    f = np.ldexp(f, -exponent)
    n = f.shape[0]
    # Built in both modes, so a bad seed fails in exact mode too.
    rng = philox_generator(seed)
    if mode == "exact":
        if n > 20:
            raise ValueError(f"exact mode enumerates 2^n sign vectors; n={n} exceeds 20")
        sums = np.zeros(1)
        for value in f:
            sums = np.concatenate([sums + value, sums - value])
    elif mode == "mc":
        if not _is_count(mc_draws):
            raise ValueError(f"mc_draws must be a positive int, got {mc_draws!r}")
        sums = _rademacher_signs(rng, (mc_draws, n)) @ f
    else:
        raise ValueError(f"mode must be 'exact' or 'mc', got {mode!r}")
    # |sum| can still reach n, so |sum|^q overflows for large q.  Dividing by
    # the largest |sum| makes the largest term exactly 1: neither mean can
    # overflow or underflow to 0.  The zero vector is left as it is.
    magnitudes = np.abs(sums)
    top = float(np.max(magnitudes)) or 1.0
    ratios = magnitudes / top
    scale = math.ldexp(top, exponent)
    lhs = scale * float(np.mean(ratios ** q) ** (1.0 / q))
    rhs = scale * math.sqrt((q - 1.0) / (p - 1.0)) * float(np.mean(ratios ** p) ** (1.0 / p))
    return lhs, rhs, bool(lhs <= rhs + 1e-12)


def build_bound_report(model, data, delta=0.05, mc_draws=1000, seed=0):
    """Assemble both deviation bounds for a trained model on its sample.

    The certificate uses the smaller of the empirical and analytic
    Rademacher estimates; both are recorded, along with the Monte-Carlo
    standard error, so the choice can be audited.
    """
    if model.d != data.d:
        raise ValueError(f"model dimension {model.d} does not match data dimension {data.d}")
    lam = model.config.lam
    margin = model.config.margin
    kind = model.config.norm_kind
    x_s = x_star(data, kind)
    r_emp, r_se = rademacher_empirical(data, kind, mc_draws, seed)
    r_ana = rademacher_analytic(data, kind)
    r_used = min(r_emp, r_ana)
    e_z = empirical_similarity_error(model.matrix, data, margin)
    return BoundReport(
        norm_kind=kind,
        x_star=x_s,
        r_m_empirical=r_emp,
        r_m_std_error=r_se,
        r_m_analytic=r_ana,
        r_m_used=r_used,
        empirical_error=e_z,
        delta=delta,
        m=data.m,
        lam=lam,
        margin=margin,
        theorem1_bound=theorem1_bound(x_s, r_used, margin, lam, delta, data.m),
        theorem2_bound=theorem2_bound(e_z, x_s, r_used, margin, lam, delta, data.m),
        mc_draws=mc_draws,
        seed=seed,
    )


# Report JSON uses the dataclass field order; only lam is renamed.
_JSON_NAMES = {"lam": "lambda"}


def report_to_json_dict(report):
    doc = {
        _JSON_NAMES.get(field.name, field.name): getattr(report, field.name)
        for field in fields(BoundReport)
    }
    doc["norm_kind"] = report.norm_kind.value
    return doc


def save_report(report, path):
    _write_json(report_to_json_dict(report), path)
