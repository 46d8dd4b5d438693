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
from .norms import _NORM_KIND, NormKind, _norm_kind, _prox, _prox_floats, norm, require_symmetric

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
    prox returned, with no eigendecomposition (see ``norms._prox``).  On
    separable data the iterates zig-zag across the hinge kink: in the
    benchmark, 69-74% of the iterations of the check-02-shaped
    2000-iteration fits are zero steps, against none of those of the
    experiment fits at m=100, d=5 and of the CLI fits at m=800.

    The loop runs on one of two kernel sets, chosen once per fit by
    ``_uses_floats``: ``_array_kernels`` on NumPy arrays, or, for tiny
    problems, ``_float_kernels`` on lists of Python floats.  The two round
    differently, so their models may differ in the last bits.  At d = 2
    the float set's hinge, step, trace prox and mixed21 Newton phase run
    written out, with no inner loop and the same operations in the same
    order as their loops, so no bit moves.
    """
    kind = config.norm_kind
    lam = config.lam
    m = data.m
    kernels = _float_kernels if _uses_floats(m, data.d) else _array_kernels
    a, hinge, step, prox_kernel = kernels(
        _scaled_features(data, config.margin), _label_sum(data)
    )
    # hinge(a) forms the slack of iterate a and its mask slack > 0, which
    # serve its objective and the next step, and returns the summed positive
    # slack.  That sum is 0 exactly when the mask is empty, even where the
    # hinge average would round a subnormal slack to 0.  The zero start has
    # norm 0.  Every iterate is symmetric by construction.
    hinge_sum = hinge(a)
    best_a = a
    best_obj = float(hinge_sum / m)
    spectrum = None
    window = 50
    window_best = best_obj
    iterations = 0
    for t in range(1, config.max_iters + 1):
        eta = config.step0 / math.sqrt(t)
        if hinge_sum:
            a = step(a, eta)
            spectrum = None
        # A zero step hands the iterate itself, and its spectrum, to the
        # prox, which never writes them; best_a may alias it.
        a, a_norm, spectrum = prox_kernel(a, eta * lam, kind, spectrum)
        hinge_sum = hinge(a)
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
        matrix=np.array(best_a),
        config=config,
        final_objective=best_obj,
        iterations_run=iterations,
    )


# The largest d and m * d that stage one runs on Python floats.  Float work
# grows with m * d, while an array call costs about the same at every small
# size.  Over 300-iteration fits on two-cluster data (2-vCPU host, Python
# 3.11, numpy 2.4), the float kernels ran 1.04-4.9x as fast as the array
# kernels for every kind and d <= 4 up to m * d = 24, and fro lost from
# m * d = 32 (0.96x at d = 4); the README lists the scan.  The mixed21 prox
# runs its Newton phase on floats one d further (norms._MIXED21_FLOAT_MAX_D),
# which the scan did not measure for the whole kernel set.
_FLOAT_MAX_D = 4
_FLOAT_MAX_MD = 24


def _uses_floats(m, d):
    """Whether a fit on m examples in d dimensions runs the float kernels."""
    return d <= _FLOAT_MAX_D and m * d <= _FLOAT_MAX_MD


def _array_kernels(scaled, w):
    """Stage one's kernels on NumPy arrays: (zero start, hinge, step, prox).

    hinge(a) forms the slack and the 0/1 hinge mask of iterate a in reused
    buffers and returns the summed positive slack; step(a, eta) is a minus
    eta times the hinge subgradient at the iterate hinge saw last, formed in
    place; the prox is ``norms._prox``.
    """
    m, d = scaled.shape
    scaled_t = scaled.T
    slack = np.empty(m)
    active = np.empty(m)

    def hinge(a):
        _slack(a, scaled, w, slack)
        np.greater(slack, 0.0, out=active)
        return slack.dot(active)

    def step(a, eta):
        g = _subgradient(active, scaled_t, w, eta)
        return np.subtract(a, g, out=g)

    return np.zeros((d, d)), hinge, step, _prox


def _float_kernels(scaled, w):
    """``_array_kernels`` on lists of Python floats, A as a list of rows.

    The same arithmetic with every sum accumulated with += in index order
    (the built-in sum compensates from Python 3.12 on, which would tie the
    bits to the interpreter); the prox is ``norms._prox_floats``.  The loops
    are written out over index ranges: in Python 3.11 a list comprehension
    costs a call, and a zip over a few entries costs more than indexing.
    At d = 2 (acceptance check 02's fits and the benchmark's solver_tiny),
    hinge, step, the trace prox and the mixed21 Newton phase drop the
    index loops too and name each entry, with the same operations in the
    same order.
    """
    rows = scaled.tolist()
    columns = scaled.T.tolist()
    w = w.tolist()
    d = len(w)
    minus_twice_m = -2.0 * len(rows)
    active = []

    def hinge(a):
        return _hinge_floats(a, rows, w, active)

    def step(a, eta):
        return _step_floats(a, columns, active, w, eta / minus_twice_m)

    return [[0.0] * d for _ in range(d)], hinge, step, _prox_floats


def _hinge_floats(a, rows, w, active):
    """The slack 1 - rows (A w) on lists, summed over its positive entries.

    Sets active to the indices of those entries, the hinge mask.  At d = 2
    the products are written out, with the same operations in the same
    order as the loops: each sum starts at 0.0, which puts -0.0 where the
    loops put it.
    """
    active.clear()
    total = 0.0
    if len(w) == 2:
        (a_00, a_01), (a_10, a_11) = a
        w_0, w_1 = w
        image_0 = 0.0 + a_00 * w_0 + a_01 * w_1
        image_1 = 0.0 + a_10 * w_0 + a_11 * w_1
        i = 0
        for r_0, r_1 in rows:
            slack = 1.0 - (0.0 + r_0 * image_0 + r_1 * image_1)
            if slack > 0.0:
                total += slack
                active.append(i)
            else:
                total += slack * 0.0
            i += 1
        return total
    span = range(len(w))
    image = []
    for a_k in a:
        acc = 0.0
        for k in span:
            acc += a_k[k] * w[k]
        image.append(acc)
    i = 0
    for row in rows:
        acc = 0.0
        for k in span:
            acc += row[k] * image[k]
        slack = 1.0 - acc
        if slack > 0.0:
            total += slack
            active.append(i)
        else:
            # Adds 0 for a finite slack; a non-finite one makes the sum NaN,
            # as the array kernels' slack . mask does.
            total += slack * 0.0
        i += 1
    return total


def _step_floats(a, columns, active, w, factor):
    """A minus factor (u w^T + w u^T) on lists, with u the sum of the active
    scaled rows: the step of ``_array_kernels`` with factor eta / (-2 m).

    Entries (k, l) and (l, k) add the same two products, so the step is
    exactly symmetric.  At d = 2 the loops are written out, with the same
    operations in the same order; the two off-diagonal entries share their
    sum, which addition, being commutative, rounds the same either way.
    """
    if len(w) == 2:
        c_0, c_1 = columns
        u_0 = 0.0
        u_1 = 0.0
        for i in active:
            u_0 += c_0[i]
            u_1 += c_1[i]
        (a_00, a_01), (a_10, a_11) = a
        w_0, w_1 = w
        cross = (u_0 * w_1 + u_1 * w_0) * factor
        return [
            [a_00 - (u_0 * w_0 + u_0 * w_0) * factor, a_01 - cross],
            [a_10 - cross, a_11 - (u_1 * w_1 + u_1 * w_1) * factor],
        ]
    span = range(len(w))
    u = []
    for column in columns:
        acc = 0.0
        for i in active:
            acc += column[i]
        u.append(acc)
    out = []
    for k in span:
        a_k = a[k]
        u_k = u[k]
        w_k = w[k]
        out_k = []
        for l in span:
            out_k.append(a_k[l] - (u_k * w[l] + u[l] * w_k) * factor)
        out.append(out_k)
    return out


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
