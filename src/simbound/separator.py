"""Stage two: an L1-constrained linear separator over the learnt similarity.

The separator is f(x) = sum_j alpha_j K_A(x_j, x) anchored at the training
points, with coefficients constrained to the L1 ball of radius 1/margin.
Training starts from alpha0_j = y_j / (m * margin), whose empirical hinge
error coincides with the stage-one similarity error, and projected
subgradient steps can only improve on that.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import _checked, _is_count, _is_number, _is_numbers, _is_object, _read_json, _write_json
from .errors import NumericalError
from .similarity import SimilarityModel, _hinge_error, model_from_json_dict, model_to_json_dict


@dataclass(frozen=True, eq=False)
class Separator:
    """Coefficients, margin, anchor points, and the similarity model they use."""

    alpha: np.ndarray
    margin: float
    anchor_features: np.ndarray
    model: SimilarityModel

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        anchors = np.asarray(self.anchor_features, dtype=float)
        if alpha.ndim != 1:
            raise ValueError(f"alpha must be a vector, got shape {alpha.shape}")
        if anchors.ndim != 2 or anchors.shape != (alpha.shape[0], self.model.d):
            raise ValueError(
                f"anchor_features shape {anchors.shape} does not match "
                f"{alpha.shape[0]} coefficients of dimension {self.model.d}"
            )
        if not 0 < self.margin < math.inf:
            raise ValueError(f"margin must be positive and finite, got {self.margin}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "anchor_features", anchors)

    @property
    def m(self):
        return self.alpha.shape[0]


def anchor_coefficients(labels, margin):
    """The feasible starting point alpha0 = y / (m * margin)."""
    labels = np.asarray(labels, dtype=float)
    return labels / (labels.shape[0] * margin)


def _values(sep, features):
    if features.shape[1] != sep.model.d:
        raise ValueError(
            f"feature dimension {features.shape[1]} does not match model dimension {sep.model.d}"
        )
    pooled = sep.anchor_features.T @ sep.alpha
    return features @ (sep.model.matrix @ pooled)


def classify(sep, features):
    """Labels +-1 for the rows of features (n, d) by the sign of f; exact zero maps to +1."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-dimensional, got shape {features.shape}")
    return np.where(_values(sep, features) >= 0.0, 1.0, -1.0)


def project_l1_ball(v, radius):
    """Euclidean projection onto the L1 ball by the sort-based threshold rule.

    Inside the ball the input is returned unchanged; otherwise the unique
    theta >= 0 with sum max(|v_j| - theta, 0) = radius is found from the
    sorted absolute values and applied by soft thresholding.  Raises
    NumericalError when the radius is lost in rounding against magnitudes
    above about 2^53 times it.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    v = np.array(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"v must be a vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("v must be finite")
    magnitudes = np.abs(v)
    return _project_l1_ball(v, magnitudes, magnitudes.sum(), radius, np.arange(1, v.shape[0] + 1))


def _project_l1_ball(v, magnitudes, mass, radius, counts):
    """``project_l1_ball`` given |v|, its sum and ``arange(1, len(v) + 1)``.

    Returns v itself inside the ball; otherwise overwrites magnitudes.
    """
    if mass <= radius:
        return v
    u = np.sort(magnitudes)[::-1]
    # np.cumsum is np.add.accumulate behind a slower Python wrapper.
    cumulative = np.add.accumulate(u)
    holds = u * counts > cumulative - radius
    # rho is the last index where the rule holds.  It holds at index 0 unless
    # u[0] - radius rounds to u[0]; argmax of an all-False array is 0, so
    # that case is checked on its own.
    rho = u.shape[0] - 1 - int(holds[::-1].argmax())
    if not holds[rho]:
        raise NumericalError(
            f"L1-ball projection lost precision: radius {radius!r} vanishes "
            f"against magnitudes up to {float(u[0])!r}"
        )
    theta = (float(cumulative[rho]) - radius) / (rho + 1.0)
    np.subtract(magnitudes, theta, out=magnitudes)
    np.maximum(magnitudes, 0.0, out=magnitudes)
    # np.copysign would give -0.0 where v holds -0.0; np.sign gives +0.0.
    return np.sign(v) * magnitudes


def empirical_hinge_error(sep, data):
    """(1/m) sum_i [1 - y_i f(x_i)]_+ on the given sample."""
    return _hinge_error(1.0 - data.labels * _values(sep, data.features))


def true_hinge_error(sep, holdout):
    """Plug-in estimate of the population hinge error on held-out data."""
    return empirical_hinge_error(sep, holdout)


def train_separator(model, data, max_iters=2000, step0=1.0):
    """Projected subgradient descent for the constrained hinge problem.

    The iteration never leaves the L1 ball of radius 1/margin, and the best
    iterate (including the starting point) is returned, so the result's
    hinge error is at most that of alpha0.

    Cost: the label-signed m x m Gram matrix takes 8 m^2 bytes (32 MB at
    m = 2000).  Each step makes two m x m matrix-vector products, plus one
    sort of m magnitudes when the step leaves the ball.
    """
    if model.d != data.d:
        raise ValueError(f"model dimension {model.d} does not match data dimension {data.d}")
    if not _is_count(max_iters):
        raise ValueError(f"max_iters must be a positive int, got {max_iters!r}")
    if not 0 < step0 < math.inf:
        raise ValueError(f"step0 must be positive and finite, got {step0}")
    margin = model.config.margin
    radius = 1.0 / margin
    m = data.m
    counts = np.arange(1, m + 1)
    # signed[i, j] = y_i K_A(x_j, x_i).  Flipping signs is exact, so
    # 1 - signed @ alpha is the slack 1 - y * (gram @ alpha) bit for bit, and
    # signed.T @ active is gram.T @ (y * active) bit for bit.
    signed = data.features @ model.matrix @ data.features.T
    signed *= data.labels[:, None]
    signed_t = signed.T
    alpha = anchor_coefficients(data.labels, margin)
    best_alpha = alpha
    slack = 1.0 - signed @ alpha
    best_err = _hinge_error(slack)
    if not math.isfinite(best_err):
        raise NumericalError("non-finite hinge error at the starting point")
    for t in range(1, max_iters + 1):
        # The hinge subgradient is -signed.T @ active / m; stepping against
        # it adds rather than subtracts the negated term, which is exact.
        # In place, this rounds as alpha + (step0 / sqrt(t)) * (product / m).
        # ndarray.dot calls the same BLAS gemv as @ with less dispatch.  At
        # m = 1 it multiplies instead, so a zero product may carry the other
        # sign; adding the one-point alpha, which is never -0.0, or
        # subtracting from 1 gives the same result either way.
        stepped = signed_t.dot(slack > 0.0)
        stepped /= m
        stepped *= step0 / math.sqrt(t)
        stepped += alpha
        magnitudes = np.abs(stepped)
        mass = np.add.reduce(magnitudes)
        # The sum of magnitudes is finite only if every entry is; a sum that
        # overflows stops the iteration as well.
        if not math.isfinite(mass):
            raise NumericalError(
                f"non-finite coefficients at iteration {t}; try a smaller step0 than {step0}"
            )
        alpha = _project_l1_ball(stepped, magnitudes, mass, radius, counts)
        slack = signed.dot(alpha)
        np.subtract(1.0, slack, out=slack)
        err = _hinge_error(slack)
        if not math.isfinite(err):
            raise NumericalError(
                f"non-finite hinge error at iteration {t}; try a smaller step0 than {step0}"
            )
        if err < best_err:
            best_err = err
            best_alpha = alpha
    return Separator(
        alpha=best_alpha.copy(),
        margin=margin,
        anchor_features=data.features,
        model=model,
    )


def separator_to_json_dict(sep):
    return {
        "alpha": [float(v) for v in sep.alpha],
        "margin": sep.margin,
        "anchor_features": [float(v) for v in sep.anchor_features.ravel()],
        "model": model_to_json_dict(sep.model),
    }


def save_separator(sep, path):
    _write_json(separator_to_json_dict(sep), path)


_SEPARATOR_CHECKS = (
    ("alpha", _is_numbers, "a list of finite numbers"),
    ("margin", _is_number, "a finite number"),
    ("anchor_features", _is_numbers, "a list of finite numbers"),
    ("model", _is_object, "an object"),
)


def load_separator(path):
    doc = _checked(_read_json(path), _SEPARATOR_CHECKS, {}, "separator document")
    model = model_from_json_dict(doc["model"])
    alpha = np.asarray(doc["alpha"], dtype=float)
    anchors = np.asarray(doc["anchor_features"], dtype=float)
    if anchors.size != alpha.size * model.d:
        raise ValueError(
            f"anchor_features must hold {alpha.size} rows of dimension {model.d}, "
            f"got {anchors.size} values"
        )
    return Separator(
        alpha=alpha,
        margin=float(doc["margin"]),
        anchor_features=anchors.reshape(alpha.size, model.d),
        model=model,
    )
