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
    _COUNT, _NONNEGATIVE, _NONNEGATIVE_INT, _NUMBER, _NUMBERS, _POSITIVE, _checked, _read_json,
    _require, _write_json,
)
from .errors import NumericalError
from .norms import (
    _NORM_KIND, _PROX, _PROX_FLOATS, NormKind, _norm_kind, _triple_array, norm,
    require_symmetric,
)

# Stage one calls the unchecked kernels; the public prox stays bound here
# so that tools which rebind it by module (perfbench/spans.py) still find it.
from .norms import prox  # noqa: F401

__all__ = [
    "SimilarityConfig", "SimilarityModel", "train_similarity", "empirical_similarity_error",
    "true_similarity_error", "similarity_objective", "hinge_subgradient", "save_model",
    "load_model",
]


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
        object.__setattr__(self, "norm_kind", _norm_kind(self.norm_kind, "norm_kind"))
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


def _check_dim(name, dim, data):
    # name is the matrix or model whose dimension dim is.
    if dim != data.d:
        raise ValueError(f"{name} dimension {dim} does not match data dimension {data.d}")


def _check_data_dims(a, data):
    a = require_symmetric(a)
    _check_dim("matrix", a.shape[0], data)
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
    prox returned, with no eigendecomposition (see ``norms._prox_trace``).  On
    separable data the iterates zig-zag across the hinge kink: in the
    benchmark, 69-74% of the iterations of the check-02-shaped
    2000-iteration fits are zero steps, against none of those of the
    experiment fits at m=100, d=5 and of the CLI fits at m=800.

    The loop runs on one of two kernel sets, chosen once per fit by
    ``_uses_floats``: ``_array_kernels`` on NumPy arrays, or, for tiny
    problems at d = 2, ``_float_kernels`` on Python floats, with each
    iterate held as the triple (a_00, a_01, a_11) of its entries.  The two
    round differently, so their models may differ in the last bits.
    Everything that depends only on the norm kind and d is decided once per
    fit, not per iteration: the prox kernel is looked up in the set's table
    (``norms._PROX`` or ``norms._PROX_FLOATS``) by the norm kind, and the
    set hands out matrix(a), which makes the model's array of the best
    iterate.  The float set's kernels name each entry and loop only over
    the examples.  Both sets' hinge returns a Python float, so the loop
    forms each objective with no conversion and no NumPy scalar; dividing
    by the int m rounds as NumPy does.
    """
    lam = config.lam
    m = data.m
    kernels = _float_kernels if _uses_floats(m, data.d) else _array_kernels
    a, hinge, step, prox_table, matrix = kernels(
        _scaled_features(data, config.margin), _label_sum(data)
    )
    prox_kernel = prox_table[config.norm_kind]
    # hinge(a) forms the slack of iterate a and its mask slack > 0, which
    # serve its objective and the next step, and returns the summed positive
    # slack as a Python float.  That sum is 0 exactly when the mask is
    # empty, even where the hinge average would round a subnormal slack to
    # 0.  The zero start has norm 0.  Every iterate is symmetric by
    # construction.
    hinge_sum = hinge(a)
    best_a = a
    best_obj = hinge_sum / m
    spectrum = None
    window = 50
    window_best = best_obj
    step0 = config.step0
    sqrt = math.sqrt
    inf = math.inf
    # NumPy warns of no overflow: a sum of squares that overflows is
    # recomputed rescaled, as in ``norm`` and ``prox``.  Nor of an invalid
    # value: a step that overflows makes inf and NaN entries, and the
    # non-finite objective raises NumericalError below.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, config.max_iters + 1):
            eta = step0 / sqrt(t)
            if hinge_sum:
                a = step(a, eta)
                spectrum = None
            # A zero step hands the iterate itself, and its spectrum, to the
            # prox, which never writes them; best_a may alias it.
            a, a_norm, spectrum = prox_kernel(a, eta * lam, spectrum)
            hinge_sum = hinge(a)
            obj = hinge_sum / m + lam * a_norm
            # obj is >= 0, +inf or NaN, so this is not isfinite(obj).
            if not obj < inf:
                raise NumericalError(
                    f"non-finite objective at iteration {t}; try a smaller step0 than {step0}"
                )
            if obj < best_obj:
                best_obj = obj
                best_a = a
            if t % window == 0:
                if window_best - best_obj < config.rel_tol * abs(window_best):
                    break
                window_best = best_obj
    # max_iters >= 1, so the loop ran and t is the last iteration.
    return SimilarityModel(
        matrix=matrix(best_a),
        config=config,
        final_objective=best_obj,
        iterations_run=t,
    )


# The largest m * d that stage one runs on Python floats, at d = 2.  Float
# work grows with m * d, while an array call costs about the same at every
# small size.  Over 300-iteration fits on two-cluster data (2-vCPU host,
# Python 3.11, numpy 2.4, three runs), the float kernels ran 2.8-7.5x as
# fast as the array kernels for every kind up to m * d = 24, and 1.9-3.9x
# at m * d = 64; the README lists the scan.  Every gated workload and
# acceptance check that runs stage one on floats fits at d = 2 with
# m * d <= 12, so other d run the array set, and a higher bound would
# speed up no gated fit while it moved the bits of fits that run arrays.
_FLOAT_MAX_MD = 24


def _uses_floats(m, d):
    """Whether a fit on m examples in d dimensions runs the float kernels."""
    return d == 2 and m * d <= _FLOAT_MAX_MD


def _array_kernels(scaled, w):
    """Stage one's kernels on NumPy arrays: (zero start, hinge, step, prox
    table, matrix).

    hinge(a) forms the slack and the 0/1 hinge mask of iterate a in reused
    buffers and returns the summed positive slack as a Python float;
    step(a, eta) is a minus eta times the hinge subgradient at the iterate
    hinge saw last, formed in place; the prox table is ``norms._PROX``;
    matrix(a) is the model's copy of iterate a.  The mask is
    heaviside(slack, 0), which writes 0.0 and 1.0 into the float buffer
    with no cast from bools, and rounds as slack > 0 does for every finite,
    signed-zero or infinite slack; a NaN slack gives NaN, where the bools
    gave 0, and the hinge sum is NaN either way.
    """
    m, d = scaled.shape
    scaled_t = scaled.T
    slack = np.empty(m)
    active = np.empty(m)

    def hinge(a):
        _slack(a, scaled, w, slack)
        np.heaviside(slack, 0.0, out=active)
        return float(slack.dot(active))

    def step(a, eta):
        g = _subgradient(active, scaled_t, w, eta)
        return np.subtract(a, g, out=g)

    return np.zeros((d, d)), hinge, step, _PROX, np.array


def _float_kernels(scaled, w):
    """``_array_kernels`` at d = 2 on Python floats, A as the triple
    (a_00, a_01, a_11).

    Every iterate is exactly symmetric, so the triple holds all of it.  The
    arithmetic is the array set's with every sum accumulated with += in
    index order (the built-in sum compensates from Python 3.12 on, which
    would tie the bits to the interpreter).  A sum that can put a signed
    zero into A starts from 0.0, which puts -0.0 where the array set puts
    it: the step's sums over the active rows.  The hinge pass's sums start
    from their first term: an image or a margin only enters 1 - margin, and
    1 - (-0.0) is 1 - 0.0, so a signed zero there moves no bit.  Each entry
    is named, and the only loops run over the examples.  The step's two
    off-diagonal entries add the same two products, which addition, being
    commutative, rounds the same either way, so they share one sum.  The
    prox table is ``norms._PROX_FLOATS``, and matrix(a) is the 2x2 array of
    a triple.

    The hinge pass adds a slack <= 0 only where it can change the total.
    Once per fit, bound = 2^1000 / max_i (|r_i0| + |r_i1|) over the scaled
    rows r_i (inf for an all-zero sample).  While |image_0| + |image_1| <
    bound, every margin is below about 2^1000, so every slack is finite,
    and adding slack * 0.0, a signed zero, to a total that is +0.0 or
    positive changes nothing: the pass skips it.  At or above the bound,
    or for a NaN image, it adds slack * 0.0 for every slack <= 0, which
    makes the total NaN for a non-finite one, as the array set's
    slack . mask does.
    """
    rows = scaled.tolist()
    indexed = [(i, r_0, r_1) for i, (r_0, r_1) in enumerate(rows)]
    c_0, c_1 = scaled.T.tolist()
    w_0, w_1 = w.tolist()
    minus_twice_m = -2.0 * len(rows)
    largest = max(abs(r_0) + abs(r_1) for r_0, r_1 in rows)
    bound = 2.0 ** 1000 / largest if largest else math.inf
    active = []

    def hinge(a):
        # Sets active to the indices of the positive slack entries, the
        # hinge mask.
        active.clear()
        total = 0.0
        a_00, a_01, a_11 = a
        image_0 = a_00 * w_0 + a_01 * w_1
        image_1 = a_01 * w_0 + a_11 * w_1
        if abs(image_0) + abs(image_1) < bound:
            for i, r_0, r_1 in indexed:
                slack = 1.0 - (r_0 * image_0 + r_1 * image_1)
                if slack > 0.0:
                    total += slack
                    active.append(i)
            return total
        for i, r_0, r_1 in indexed:
            slack = 1.0 - (r_0 * image_0 + r_1 * image_1)
            if slack > 0.0:
                total += slack
                active.append(i)
            else:
                # Adds 0 for a finite slack; a non-finite one makes the sum
                # NaN.
                total += slack * 0.0
        return total

    def step(a, eta):
        # A minus factor (u w^T + w u^T), with u the sum of the active
        # scaled rows and factor eta / (-2 m).
        factor = eta / minus_twice_m
        u_0 = 0.0
        u_1 = 0.0
        for i in active:
            u_0 += c_0[i]
            u_1 += c_1[i]
        a_00, a_01, a_11 = a
        return (
            a_00 - (u_0 * w_0 + u_0 * w_0) * factor,
            a_01 - (u_0 * w_1 + u_1 * w_0) * factor,
            a_11 - (u_1 * w_1 + u_1 * w_1) * factor,
        )

    return (0.0, 0.0, 0.0), hinge, step, _PROX_FLOATS, _triple_array


# The model document's fields (see data._checked); entries are row-major.
# The numbers are written as floats, as the loader reads them back, so a
# config given in ints round-trips byte for byte.
_MODEL_FIELDS = (
    ("dim", _COUNT, lambda model: model.d),
    ("norm_kind", _NORM_KIND, lambda model: model.config.norm_kind.value),
    ("lambda", _NUMBER, lambda model: float(model.config.lam)),
    ("margin", _NUMBER, lambda model: float(model.config.margin)),
    ("entries", _NUMBERS, lambda model: model.matrix.ravel().tolist()),
    ("final_objective", _NUMBER, lambda model: float(model.final_objective)),
    ("iterations_run", _NONNEGATIVE_INT, lambda model: model.iterations_run),
)


def model_to_json_dict(model):
    return {name: value(model) for name, _, value in _MODEL_FIELDS}


def save_model(model, path):
    """Serialize to JSON with row-major entries; floats survive exactly."""
    _write_json(model_to_json_dict(model), path)


def model_from_json_dict(doc):
    """Rebuild a model from its JSON document.

    Solver settings are not persisted, so the embedded config carries the
    stored lambda, margin, and norm kind with default solver fields.
    """
    doc = _checked(doc, _MODEL_FIELDS, {}, "model document")
    dim = doc["dim"]
    entries = np.asarray(doc["entries"], dtype=float)
    if entries.shape != (dim * dim,):
        raise ValueError(f"expected {dim * dim} entries for dim {dim}, got {entries.shape}")
    config = SimilarityConfig(
        lam=float(doc["lambda"]), margin=float(doc["margin"]), norm_kind=doc["norm_kind"]
    )
    return SimilarityModel(
        entries.reshape(dim, dim), config, float(doc["final_objective"]), doc["iterations_run"]
    )


def load_model(path):
    return model_from_json_dict(_read_json(path))
