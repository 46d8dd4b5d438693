"""Stage one: learn a symmetric bilinear similarity matrix.

The similarity score of a pair is K_A(x, x') = x^T A x'.  Training minimizes
the average hinge loss of the per-example margin

    (1/m) sum_i [ 1 - (1/(m r)) sum_j y_i y_j K_A(x_i, x_j) ]_+

plus ``lam * norm(A, norm_kind)``, by proximal subgradient descent started at
A = 0.  The inner sum deliberately includes the j = i self pair.  Because the
objective at zero is exactly 1 and the best iterate is returned, the learnt
matrix always satisfies norm(A) <= 1/lam.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import (
    _COUNT, _NONNEGATIVE, _NONNEGATIVE_INT, _NUMBER, _NUMBERS, _POSITIVE, _checked, _is_value_of,
    _read_json, _require, _write_json,
)
from .errors import NumericalError
from .norms import NormKind, _norm, _prox, norm, require_symmetric

# Stage one calls the unchecked kernels; the public prox stays bound here
# so that tools which rebind it by module (perfbench/spans.py) still find it.
from .norms import prox  # noqa: F401


@dataclass(frozen=True)
class SimilarityConfig:
    """Hyperparameters for the regularized similarity problem and its solver.

    lam and margin are the weights in the objective; the remaining fields
    control the proximal subgradient iteration (step size step0/sqrt(t),
    best-iterate tracking, early stop once the best objective improves by
    less than rel_tol relative over a 50-iteration window).
    """

    lam: float
    margin: float
    norm_kind: NormKind
    max_iters: int = 2000
    step0: float = 1.0
    rel_tol: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "norm_kind", NormKind(self.norm_kind))
        _require("lambda", self.lam, _POSITIVE)
        _require("margin", self.margin, _POSITIVE)
        _require("max_iters", self.max_iters, _COUNT)
        _require("step0", self.step0, _POSITIVE)
        _require("rel_tol", self.rel_tol, _NONNEGATIVE)


@dataclass(frozen=True, eq=False)
class SimilarityModel:
    """A learnt similarity matrix together with its training provenance."""

    matrix: np.ndarray
    config: SimilarityConfig
    final_objective: float
    iterations_run: int

    def __post_init__(self):
        matrix = require_symmetric(self.matrix)
        _require("final_objective", self.final_objective, _NUMBER)
        _require("iterations_run", self.iterations_run, _NONNEGATIVE_INT)
        object.__setattr__(self, "matrix", matrix)

    @property
    def d(self):
        return self.matrix.shape[0]


def _check_data_dims(a, data):
    a = require_symmetric(a)
    if a.shape[0] != data.d:
        raise ValueError(f"matrix dimension {a.shape[0]} does not match data dimension {data.d}")
    return a


def _label_sum(data):
    # The inner sum over j collapses to a single matrix-vector product:
    # sum_j y_j x_j enters once for the whole dataset.
    return data.features.T @ data.labels


def _signed_features(data):
    # Row i is y_i x_i.
    return data.labels[:, None] * data.features


def _scaled_features(data, margin):
    # Row i is y_i x_i / (m margin), so the pair margins are these rows
    # times A w, with no division per step.
    return _signed_features(data) / (data.m * margin)


def _slack(a, scaled, w, out=None):
    # 1 - the pair margins scaled (A w), formed in one buffer (out, if given).
    slack = scaled.dot(a.dot(w), out)
    return np.subtract(1.0, slack, out=slack)


def _hinge_error(slack, active):
    # active holds slack > 0 as 0/1 (bools or floats), so the product sums
    # the positive slack: the hinge average over len(slack) examples.
    return float(slack.dot(active) / len(slack))


def _subgradient(active, scaled_t, w, factor):
    # factor times the hinge subgradient, in a fresh buffer the caller may
    # write to.  scaled_t is the transposed scaled features and active the
    # hinge mask of the m examples.
    outer = scaled_t.dot(active)[:, None] * w
    g = outer + outer.T
    g *= factor / (-2.0 * len(active))
    return g


def empirical_similarity_error(a, data, margin):
    """Average hinge loss of the pairwise margins on the sample itself."""
    a = _check_data_dims(a, data)
    _require("margin", margin, _POSITIVE)
    slack = _slack(a, _scaled_features(data, margin), _label_sum(data))
    return _hinge_error(slack, slack > 0.0)


# On a holdout the matrix never saw, the same hinge average is a plug-in
# (Monte-Carlo) estimate of the population similarity error.
true_similarity_error = empirical_similarity_error


def similarity_objective(a, data, config):
    """Hinge term plus lam times the chosen matrix norm."""
    return empirical_similarity_error(a, data, config.margin) + config.lam * norm(
        a, config.norm_kind
    )


def hinge_subgradient(a, data, margin):
    """Subgradient of the hinge term at a.

    Indices whose hinge argument is exactly zero sit at the kink and are
    treated as inactive, so a fully satisfied matrix gets an exact zero.
    """
    a = _check_data_dims(a, data)
    _require("margin", margin, _POSITIVE)
    scaled = _scaled_features(data, margin)
    w = _label_sum(data)
    return _subgradient(_slack(a, scaled, w) > 0.0, scaled.T, w, 1.0)


def train_similarity(data, config):
    """Minimize the regularized similarity objective by proximal subgradient.

    Returns the best iterate seen, which by construction never does worse
    than the zero start (objective exactly 1).  Raises NumericalError when
    the objective stops being finite, which indicates a divergent step size.

    Cost: no m x m matrix is formed.  Each iteration makes two products
    with the scaled label-signed m x d features (the margins, and the sum
    over the active examples in the subgradient) and one d x d prox.  At
    small m and d the NumPy call overhead dominates, so the features are
    scaled once, each iterate forms its hinge mask once, and the step is
    formed in place.  An iterate whose hinge mask is empty has a zero
    subgradient, so the next step skips the subgradient and hands the
    iterate itself to the prox; trace then thresholds the spectrum its last
    prox returned, with no eigendecomposition (see ``norms._prox``).  On
    separable data the iterates zig-zag across the hinge kink: in the
    benchmark, 69-74% of the iterations of the check-02-shaped
    2000-iteration fits are zero steps, against none of those of the
    experiment fits at m=100, d=5 and of the CLI fits at m=800.
    """
    kind = config.norm_kind
    lam = config.lam
    m = data.m
    scaled = _scaled_features(data, config.margin)
    scaled_t = scaled.T
    w = _label_sum(data)
    a = np.zeros((data.d, data.d))
    # The slack 1 - margins of the current iterate and its mask slack > 0
    # serve its objective and the next step; both buffers are reused.  The
    # summed positive slack is 0 exactly when the mask is empty, even where
    # the hinge average would round a subnormal slack to 0.  Every iterate
    # is symmetric by construction.
    slack = _slack(a, scaled, w)
    active = np.greater(slack, 0.0, out=np.empty(m))
    hinge_sum = slack.dot(active)
    best_a = a
    best_obj = float(hinge_sum / m) + lam * _norm(a, kind)
    spectrum = None
    window = 50
    window_best = best_obj
    iterations = 0
    for t in range(1, config.max_iters + 1):
        eta = config.step0 / math.sqrt(t)
        if hinge_sum:
            step = _subgradient(active, scaled_t, w, eta)
            a = np.subtract(a, step, out=step)
            spectrum = None
        # A zero step hands the iterate itself, and its spectrum, to the
        # prox, which never writes them; best_a may alias it.
        a, a_norm, spectrum = _prox(a, eta * lam, kind, spectrum)
        _slack(a, scaled, w, slack)
        np.greater(slack, 0.0, out=active)
        hinge_sum = slack.dot(active)
        obj = float(hinge_sum / m) + lam * a_norm
        if not math.isfinite(obj):
            raise NumericalError(
                f"non-finite objective at iteration {t}; try a smaller step0 than {config.step0}"
            )
        if obj < best_obj:
            best_obj = obj
            best_a = a
        iterations = t
        if t % window == 0:
            if window_best - best_obj < config.rel_tol * abs(window_best):
                break
            window_best = best_obj
    return SimilarityModel(
        matrix=best_a.copy(),
        config=config,
        final_objective=best_obj,
        iterations_run=iterations,
    )


def model_to_json_dict(model):
    return {
        "dim": model.d,
        "norm_kind": model.config.norm_kind.value,
        "lambda": model.config.lam,
        "margin": model.config.margin,
        "entries": [float(v) for v in model.matrix.ravel()],
        "final_objective": model.final_objective,
        "iterations_run": model.iterations_run,
    }


def save_model(model, path):
    """Serialize to JSON with row-major entries; floats survive exactly."""
    _write_json(model_to_json_dict(model), path)


_MODEL_CHECKS = (
    ("dim", _COUNT),
    ("norm_kind", (_is_value_of(NormKind), "a norm kind")),
    ("lambda", _NUMBER),
    ("margin", _NUMBER),
    ("entries", _NUMBERS),
    ("final_objective", _NUMBER),
    ("iterations_run", _NONNEGATIVE_INT),
)


def model_from_json_dict(doc):
    """Rebuild a model from its JSON document.

    Solver settings are not persisted, so the embedded config carries the
    stored lambda, margin, and norm kind with default solver fields.
    """
    doc = _checked(doc, _MODEL_CHECKS, {}, "model document")
    dim = doc["dim"]
    entries = np.asarray(doc["entries"], dtype=float)
    if entries.shape != (dim * dim,):
        raise ValueError(f"expected {dim * dim} entries for dim {dim}, got {entries.shape}")
    matrix = entries.reshape(dim, dim)
    config = SimilarityConfig(
        lam=float(doc["lambda"]),
        margin=float(doc["margin"]),
        norm_kind=NormKind(doc["norm_kind"]),
    )
    return SimilarityModel(
        matrix=matrix,
        config=config,
        final_objective=float(doc["final_objective"]),
        iterations_run=doc["iterations_run"],
    )


def load_model(path):
    return model_from_json_dict(_read_json(path))
