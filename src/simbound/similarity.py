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
    _checked,
    _is_count,
    _is_int,
    _is_number,
    _is_numbers,
    _is_value_of,
    _read_json,
    _write_json,
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
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")
        if not 0 < self.margin < math.inf:
            raise ValueError(f"margin must be positive and finite, got {self.margin}")
        if not _is_count(self.max_iters):
            raise ValueError(f"max_iters must be a positive int, got {self.max_iters!r}")
        if not 0 < self.step0 < math.inf:
            raise ValueError(f"step0 must be positive and finite, got {self.step0}")
        if not 0 <= self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be nonnegative and finite, got {self.rel_tol}")


@dataclass(frozen=True, eq=False)
class SimilarityModel:
    """A learnt similarity matrix together with its training provenance."""

    matrix: np.ndarray
    config: SimilarityConfig
    final_objective: float
    iterations_run: int

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        require_symmetric(matrix)
        object.__setattr__(self, "matrix", matrix)

    @property
    def d(self):
        return self.matrix.shape[0]


def _check_data_dims(a, data):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"similarity matrix must be square, got shape {a.shape}")
    if a.shape[0] != data.d:
        raise ValueError(f"matrix dimension {a.shape[0]} does not match data dimension {data.d}")
    return a


def _label_sum(data):
    # The inner sum over j collapses to a single matrix-vector product:
    # sum_j y_j x_j enters once for the whole dataset.
    return data.features.T @ data.labels


def _signed_features(data):
    # Row i is y_i x_i.  Flipping signs is exact, so products with these rows
    # equal the label-weighted products with the plain features bit for bit.
    return data.labels[:, None] * data.features


def _pair_margins(a, signed, w, margin):
    return signed @ (a @ w) / (signed.shape[0] * margin)


def _hinge_error(slack):
    # slack = 1 - margins; sum / count is what np.mean computes, without its
    # Python overhead.
    return float(np.add.reduce(np.maximum(0.0, slack)) / len(slack))


def _subgradient(slack, signed, w, margin):
    # One division by -2 m^2 margin rounds exactly like halving, negating
    # and dividing by m^2 margin in turn.
    outer = (signed.T @ (slack > 0.0))[:, None] * w
    return (outer + outer.T) / (-2.0 * (signed.shape[0] ** 2 * margin))


def empirical_similarity_error(a, data, margin):
    """Average hinge loss of the pairwise margins on the sample itself."""
    a = _check_data_dims(a, data)
    if not margin > 0:
        raise ValueError(f"margin must be positive, got {margin}")
    return _hinge_error(1.0 - _pair_margins(a, _signed_features(data), _label_sum(data), margin))


def true_similarity_error(a, holdout, margin):
    """Plug-in estimate of the population similarity error on held-out data.

    This is the same hinge average, just evaluated on a sample the matrix
    never saw; with a fresh holdout it is a Monte-Carlo estimate of the
    population quantity.
    """
    return empirical_similarity_error(a, holdout, margin)


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
    if not margin > 0:
        raise ValueError(f"margin must be positive, got {margin}")
    signed = _signed_features(data)
    w = _label_sum(data)
    slack = 1.0 - _pair_margins(a, signed, w, margin)
    return _subgradient(slack, signed, w, margin)


def train_similarity(data, config):
    """Minimize the regularized similarity objective by proximal subgradient.

    Returns the best iterate seen, which by construction never does worse
    than the zero start (objective exactly 1).  Raises NumericalError when
    the objective stops being finite, which indicates a divergent step size.
    """
    kind = config.norm_kind
    lam = config.lam
    margin = config.margin
    signed = _signed_features(data)
    w = _label_sum(data)
    a = np.zeros((data.d, data.d))
    # The slack 1 - margins of the current iterate serves its objective and
    # the next subgradient; every iterate is symmetric by construction.
    slack = 1.0 - _pair_margins(a, signed, w, margin)
    best_a = a
    best_obj = _hinge_error(slack) + lam * _norm(a, kind)
    window = 50
    window_best = best_obj
    iterations = 0
    for t in range(1, config.max_iters + 1):
        eta = config.step0 / math.sqrt(t)
        g = _subgradient(slack, signed, w, margin)
        a, a_norm = _prox(a - eta * g, eta * lam, kind)
        slack = 1.0 - _pair_margins(a, signed, w, margin)
        obj = _hinge_error(slack) + lam * a_norm
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
    ("dim", _is_count, "a positive int"),
    ("norm_kind", _is_value_of(NormKind), "a norm kind"),
    ("lambda", _is_number, "a finite number"),
    ("margin", _is_number, "a finite number"),
    ("entries", _is_numbers, "a list of finite numbers"),
    ("final_objective", _is_number, "a finite number"),
    ("iterations_run", lambda value: _is_int(value) and value >= 0, "a nonnegative int"),
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
