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

from .data import _checked, _is_number, _is_numbers, _is_object, _read_json, _write_json
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
    sorted absolute values and applied by soft thresholding.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    v = np.array(v, dtype=float)
    magnitudes = np.abs(v)
    return _project_l1_ball(v, magnitudes, magnitudes.sum(), radius)


def _project_l1_ball(v, magnitudes, mass, radius):
    """``project_l1_ball`` given |v| and its sum; returns v itself inside the ball."""
    if mass <= radius:
        return v
    u = np.sort(magnitudes)[::-1]
    cumulative = np.cumsum(u)
    counts = np.arange(1, u.shape[0] + 1)
    rho = (u * counts > cumulative - radius).nonzero()[0][-1]
    theta = (cumulative[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(magnitudes - theta, 0.0)


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
    """
    if model.d != data.d:
        raise ValueError(f"model dimension {model.d} does not match data dimension {data.d}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    if not 0 < step0 < math.inf:
        raise ValueError(f"step0 must be positive and finite, got {step0}")
    margin = model.config.margin
    radius = 1.0 / margin
    # signed[i, j] = y_i K_A(x_j, x_i).  Flipping signs is exact, so
    # 1 - signed @ alpha is the slack 1 - y * (gram @ alpha) bit for bit, and
    # signed.T @ active is gram.T @ (y * active) bit for bit.
    signed = data.features @ model.matrix @ data.features.T
    signed *= data.labels[:, None]
    alpha = anchor_coefficients(data.labels, margin)
    best_alpha = alpha
    slack = 1.0 - signed @ alpha
    best_err = _hinge_error(slack)
    if not math.isfinite(best_err):
        raise NumericalError("non-finite hinge error at the starting point")
    for t in range(1, max_iters + 1):
        # The hinge subgradient is -signed.T @ active / m; stepping against
        # it adds rather than subtracts the negated term, which is exact.
        stepped = alpha + (step0 / math.sqrt(t)) * ((signed.T @ (slack > 0.0)) / data.m)
        magnitudes = np.abs(stepped)
        mass = magnitudes.sum()
        # The sum of magnitudes is finite only if every entry is; a sum that
        # overflows stops the iteration as well.
        if not math.isfinite(mass):
            raise NumericalError(
                f"non-finite coefficients at iteration {t}; try a smaller step0 than {step0}"
            )
        alpha = _project_l1_ball(stepped, magnitudes, mass, radius)
        slack = 1.0 - signed @ alpha
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
