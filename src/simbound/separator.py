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

from .data import (
    _COUNT, _NUMBER, _NUMBERS, _OBJECT, _POSITIVE,
    _checked, _finite_rows, _finite_vector, _read_json, _require, _write_json,
)
from .errors import NumericalError
from .similarity import (
    SimilarityModel, _hinge_error, _signed_features, model_from_json_dict, model_to_json_dict,
)

__all__ = [
    "Separator", "anchor_coefficients", "train_separator", "classify", "empirical_hinge_error",
    "true_hinge_error", "project_l1_ball", "save_separator", "load_separator",
]


@dataclass(frozen=True, eq=False)
class Separator:
    """Coefficients, margin, anchor points, and the similarity model they use."""

    alpha: np.ndarray
    margin: float
    anchor_features: np.ndarray
    model: SimilarityModel

    def __post_init__(self):
        alpha = _finite_vector("alpha", self.alpha)
        anchors = _finite_rows("anchor_features", self.anchor_features)
        if anchors.shape != (alpha.shape[0], self.model.d):
            raise ValueError(
                f"anchor_features shape {anchors.shape} does not match "
                f"{alpha.shape[0]} coefficients of dimension {self.model.d}"
            )
        _require("margin", self.margin, _POSITIVE)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "anchor_features", anchors)


def anchor_coefficients(labels, margin):
    """The feasible starting point alpha0 = y / (m * margin)."""
    labels = _finite_vector("labels", labels)
    return _anchor_coefficients(labels, _require("margin", margin, _POSITIVE))


def _anchor_coefficients(labels, margin):
    """``anchor_coefficients`` on a float label vector and a positive margin."""
    return labels / (labels.shape[0] * margin)


def _values(sep, features):
    if features.shape[1] != sep.model.d:
        raise ValueError(
            f"feature dimension {features.shape[1]} does not match model dimension {sep.model.d}"
        )
    # The products of train_separator in its order, so that y * f on the
    # training sample is its margins to the bit.
    return (features @ sep.model.matrix).dot(sep.anchor_features.T.dot(sep.alpha))


def classify(sep, features):
    """Labels +-1 for the rows of features (n, d) by the sign of f; exact zero maps to +1."""
    features = _finite_rows("features", features)
    return np.where(_values(sep, features) >= 0.0, 1.0, -1.0)


def project_l1_ball(v, radius):
    """Euclidean projection onto the L1 ball by the sort-based threshold rule.

    Inside the ball the input is returned unchanged; otherwise the unique
    theta >= 0 with sum max(|v_j| - theta, 0) = radius is found from the
    sorted absolute values and applied by soft thresholding.  Raises
    NumericalError when the radius is lost in rounding against magnitudes
    above about 2^53 times it.
    """
    _require("radius", radius, _POSITIVE)
    v = _finite_vector("v", v)
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
    slack = 1.0 - data.labels * _values(sep, data.features)
    return _hinge_error(slack, slack > 0.0)


# On held-out data, a plug-in estimate of the population hinge error.
true_hinge_error = empirical_hinge_error


def train_separator(model, data, max_iters=2000, step0=1.0):
    """Projected subgradient descent for the constrained hinge problem.

    The iteration never leaves the L1 ball of radius 1/margin, and the best
    iterate (including the starting point) is returned, so the result's
    hinge error is at most that of alpha0.

    Cost: one m x d factor, the label-signed features times A, takes
    8 m d bytes; no m x m array is formed.  Each step makes four m x d
    matrix-vector products, plus one sort of m magnitudes when the step
    leaves the ball.
    """
    if model.d != data.d:
        raise ValueError(f"model dimension {model.d} does not match data dimension {data.d}")
    _require("max_iters", max_iters, _COUNT)
    _require("step0", step0, _POSITIVE)
    margin = model.config.margin
    radius = 1.0 / margin
    m = data.m
    counts = np.arange(1, m + 1)
    # Row i of signed is y_i x_i^T A, so 1 - signed (X^T alpha) is the
    # slack and X (signed^T active) is m times minus the hinge subgradient.
    signed = _signed_features(data) @ model.matrix
    features_t = data.features.T
    alpha = _anchor_coefficients(data.labels, margin)
    best_alpha = alpha
    slack = 1.0 - signed.dot(features_t.dot(alpha))
    # The mask slack > 0 serves an iterate's hinge error and the next step.
    active = np.greater(slack, 0.0, out=np.empty(m))
    best_err = _hinge_error(slack, active)
    if not math.isfinite(best_err):
        raise NumericalError("non-finite hinge error at the starting point")
    for t in range(1, max_iters + 1):
        # Stepping against the subgradient adds the product, with the 1/m
        # of the hinge average folded into the step factor.  ndarray.dot
        # calls the same BLAS gemv as @ with less dispatch.  At m = d = 1
        # every operand is 1 x 1 and it multiplies instead, so a zero
        # product may carry the other sign; adding the one-point alpha,
        # which is never -0.0, or subtracting from 1 gives the same result
        # either way.
        stepped = data.features.dot(signed.T.dot(active))
        stepped *= step0 / (m * math.sqrt(t))
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
        signed.dot(features_t.dot(alpha), slack)
        np.subtract(1.0, slack, out=slack)
        np.greater(slack, 0.0, out=active)
        err = _hinge_error(slack, active)
        if not math.isfinite(err):
            raise NumericalError(
                f"non-finite hinge error at iteration {t}; try a smaller step0 than {step0}"
            )
        if err < best_err:
            best_err = err
            best_alpha = alpha
    return Separator(alpha=best_alpha, margin=margin, anchor_features=data.features, model=model)


# The separator document's fields (see data._checked); anchors are row-major.
_SEPARATOR_FIELDS = (
    ("alpha", _NUMBERS, lambda sep: sep.alpha.tolist()),
    ("margin", _NUMBER, lambda sep: float(sep.margin)),
    ("anchor_features", _NUMBERS, lambda sep: sep.anchor_features.ravel().tolist()),
    ("model", _OBJECT, lambda sep: model_to_json_dict(sep.model)),
)


def separator_to_json_dict(sep):
    return {name: value(sep) for name, _, value in _SEPARATOR_FIELDS}


def save_separator(sep, path):
    _write_json(separator_to_json_dict(sep), path)


def load_separator(path):
    doc = _checked(_read_json(path), _SEPARATOR_FIELDS, {}, "separator document")
    model = model_from_json_dict(doc["model"])
    # The L1 radius 1/margin that alpha was trained inside is the model's.
    if doc["margin"] != model.config.margin:
        raise ValueError(
            f"margin {doc['margin']!r} does not match the model's margin {model.config.margin!r}"
        )
    alpha = np.asarray(doc["alpha"], dtype=float)
    anchors = np.asarray(doc["anchor_features"], dtype=float)
    # Rows of the model's dimension, one per coefficient, if the count
    # fits; otherwise Separator refuses the shape, naming the field.
    if anchors.size == alpha.size * model.d:
        anchors = anchors.reshape(alpha.size, model.d)
    return Separator(alpha, model.config.margin, anchors, model)
