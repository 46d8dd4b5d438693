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
    _MIXED21_NEWTON_STEPS, _NORM_KIND, _PROX, _PROX_MIXED21_BLOCK, _SAFE_MAX, _SAFE_MIN,
    MIXED21_GAP_RTOL, NormKind, _dual_mixed21, _fill_skeleton, _norm, _norm_kind,
    _prox_fro_triple, _prox_mixed21_triple, _rescaled, _spectrum_floats, _triple_array,
    _written, norm, require_symmetric,
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

    The loop runs in one of two fit functions, chosen once per fit by
    ``_uses_floats``: ``_train_arrays`` on NumPy arrays, or, for tiny
    problems at d = 2, ``_train_floats`` on Python floats.  Both make the
    same steps, but they round differently, so their models may differ in
    the last bits.
    """
    fit = _train_floats if _uses_floats(data.m, data.d) else _train_arrays
    matrix, objective, iterations = fit(
        _scaled_features(data, config.margin), _label_sum(data), config
    )
    return SimilarityModel(
        matrix=matrix, config=config, final_objective=objective, iterations_run=iterations
    )


def _train_arrays(scaled, w, config):
    """Stage one on NumPy arrays: (the best iterate's matrix, its objective,
    the iterations run).

    Everything that depends only on the norm kind and d is decided once per
    fit, not per iteration: the prox kernel is looked up in ``norms._PROX``
    by the norm kind.  The hinge returns a Python float, so the loop forms
    each objective with no conversion and no NumPy scalar; dividing by the
    int m rounds as NumPy does.
    """
    lam = config.lam
    m = len(scaled)
    a, hinge, step = _array_kernels(scaled, w)
    prox_kernel = _PROX[config.norm_kind]
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
                raise _non_finite_objective(t, step0)
            if obj < best_obj:
                best_obj = obj
                best_a = a
            if t % window == 0:
                if window_best - best_obj < config.rel_tol * abs(window_best):
                    break
                window_best = best_obj
    # max_iters >= 1, so the loop ran and t is the last iteration.
    return np.array(best_a), best_obj, t


def _non_finite_objective(t, step0):
    """The error both loops raise when iteration t's objective is not finite."""
    return NumericalError(
        f"non-finite objective at iteration {t}; try a smaller step0 than {step0}"
    )


# The largest m * d that stage one runs on Python floats, at d = 2.  Float
# work grows with m * d, while an array call costs about the same at every
# small size.  Over 300-iteration fits on two-cluster data (2-vCPU host,
# Python 3.11, numpy 2.4, three runs), the float loop ran 2.1-12.2x as
# fast as the array loop for every kind up to m * d = 24, and 2.1-6.0x at
# m * d = 64; the README lists the scan.  Every gated workload and
# acceptance check that runs stage one on floats fits at d = 2 with
# m * d <= 12, so other d run the array set, and a higher bound would
# speed up no gated fit while it moved the bits of fits that run arrays.
_FLOAT_MAX_MD = 24


def _uses_floats(m, d):
    """Whether a fit on m examples in d dimensions runs ``_train_floats``."""
    return d == 2 and m * d <= _FLOAT_MAX_MD


def _array_kernels(scaled, w):
    """Stage one's kernels on NumPy arrays: (zero start, hinge, step).

    hinge(a) forms the slack and the 0/1 hinge mask of iterate a in reused
    buffers and returns the summed positive slack as a Python float;
    step(a, eta) is a minus eta times the hinge subgradient at the iterate
    hinge saw last, formed in place.  The mask is heaviside(slack, 0), which
    writes 0.0 and 1.0 into the float buffer with no cast from bools, and
    rounds as slack > 0 does for every finite, signed-zero or infinite
    slack; a NaN slack gives NaN, where the bools gave 0, and the hinge sum
    is NaN either way.
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

    return np.zeros((d, d)), hinge, step


def _train_floats(scaled, w, config):
    """``_train_arrays`` at d = 2 on Python floats, with A held as the three
    locals (a_00, a_01, a_11).

    Every iterate is exactly symmetric, so the three entries hold all of
    it; the loop builds the triple only to record a new best iterate, to
    take a norm at tau = 0 and to call a prox kernel.  The arithmetic is
    the array loop's with every sum accumulated with += in index order (the
    built-in sum compensates from Python 3.12 on, which would tie the bits
    to the interpreter).  A sum that can put a signed zero into A starts
    from 0.0, which puts -0.0 where the array loop puts it: the step's sums
    over the active rows.  Each entry is named, and so is each entry of the
    m scaled rows, (r_i_0, r_i_1): the loop is written out per m and norm
    kind (``_float_loop_source``), compiled on the first fit at (m, kind)
    and kept in ``_WRITTEN_FLOAT_LOOPS``, so no loop runs over the examples
    and no iteration tests the kind.  It is compiled in this module's
    globals, so it looks up every name it reads here, at each call.

    The hinge pass forms, with the summed positive slack, the sums u_0 and
    u_1 of the scaled rows whose slack is positive, from 0.0 in index
    order: the step's sums.  The step is then A minus factor (u w^T + w u^T),
    with factor eta / (-2 m); its two off-diagonal entries add the same two
    products, which addition, being commutative, rounds the same either
    way, so they share one sum.  The pass adds a slack <= 0 only where it
    can change the total.  Once per fit,
    bound = 2^1000 / max_i (|r_i0| + |r_i1|) over the scaled rows r_i (inf
    for an all-zero sample).  While |image_0| + |image_1| < bound, every
    margin is below about 2^1000, so every slack is finite, and adding
    slack * 0.0, a signed zero, to a total that is +0.0 or positive changes
    nothing: the pass skips it.  At or above the bound, or for a NaN image,
    ``_hinge_floats`` adds it, as it does for the zero start.

    At tau = 0 the prox is A itself, of norm ``norms._norm`` of its array.
    Otherwise the loop's own kind's prox runs inline.  The l1, fro and
    trace proxes are stated only here: l1 soft-thresholds the entries, fro
    shrinks A by 1 - tau / ||A||_F, and trace soft-thresholds the
    eigenvalues and rebuilds A = (P + P^T) / 2 with
    P = (V * thresholded) V^T.  Trace keeps its spectrum as six locals and
    decomposes, by ``norms._spectrum_floats``, only after a non-zero step.
    Where fro's norm leaves the safe range, ``norms._prox_fro_triple``
    solves the prox rescaled.  The mixed21 prox is
    ``norms._PROX_MIXED21_BLOCK``, the statement that
    ``norms._prox_mixed21_triple`` is also built from, on a copy of A: its
    cold paths, row norms out of the safe range and no certificate within
    the Newton cap, call ``_rescaled`` and ``_dual_mixed21`` as read here,
    and it reads its cap here as ``_MIXED21_NEWTON_STEPS``.
    """
    key = (len(scaled), config.norm_kind)
    return _written(_WRITTEN_FLOAT_LOOPS, key, _float_loop_source, globals())(scaled, w, config)


# The written-out float loops by (m, kind), each compiled on its first fit.
_WRITTEN_FLOAT_LOOPS = {}


# The written-out float loop.  Its m-dependent fields are the unpack of the
# scaled rows into named locals and the hinge pass over them; its
# kind-dependent one is the prox at tau > 0, from ``_FLOAT_PROXES``.
_FLOAT_LOOP_SKELETON = """\
def fit(scaled, w, config):
    rows = scaled.tolist()
    {unpack} = rows
    w_0, w_1 = w.tolist()
    m = len(rows)
    minus_twice_m = -2.0 * m
    largest = max(abs(r_0) + abs(r_1) for r_0, r_1 in rows)
    bound = 2.0 ** 1000 / largest if largest else math.inf
    kind = config.norm_kind
    lam = config.lam
    step0 = config.step0
    rel_tol = config.rel_tol
    sqrt = math.sqrt
    inf = math.inf
    a_00 = a_01 = a_11 = 0.0
    best = (a_00, a_01, a_11)
    # The zero start has norm 0, and its images are +-0.0.
    hinge_sum, u_0, u_1 = _hinge_floats(rows, 0.0, 0.0)
    best_obj = hinge_sum / m
    window = 50
    window_best = best_obj
    decompose = True
    # As in _train_arrays: a step that overflows makes inf and NaN entries,
    # and the non-finite objective raises NumericalError below.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, config.max_iters + 1):
            eta = step0 / sqrt(t)
            if hinge_sum:
                factor = eta / minus_twice_m
                a_00 = a_00 - (u_0 * w_0 + u_0 * w_0) * factor
                a_01 = a_01 - (u_0 * w_1 + u_1 * w_0) * factor
                a_11 = a_11 - (u_1 * w_1 + u_1 * w_1) * factor
                decompose = True
            tau = eta * lam
            if not tau:
                # A itself, and trace keeps its spectrum.
                a_norm = _norm(_triple_array((a_00, a_01, a_11)), kind)
            else:
                {prox}
            image_0 = a_00 * w_0 + a_01 * w_1
            image_1 = a_01 * w_0 + a_11 * w_1
            if abs(image_0) + abs(image_1) < bound:
                hinge_sum = u_0 = u_1 = 0.0
                {hinge_pass}
            else:
                hinge_sum, u_0, u_1 = _hinge_floats(rows, image_0, image_1)
            obj = hinge_sum / m + lam * a_norm
            if not obj < inf:
                raise _non_finite_objective(t, step0)
            if obj < best_obj:
                best_obj = obj
                best = (a_00, a_01, a_11)
            if t % window == 0:
                if window_best - best_obj < rel_tol * abs(window_best):
                    break
                window_best = best_obj
    return _triple_array(best), best_obj, t
"""


# sign(x) max(|x| - tau, 0) entry by entry, which makes a negative entry
# that shrinks to zero -0.0 and is x - tau or x + tau exactly, as
# ``norms._prox_l1`` rounds; a NaN takes the else branch and propagates.
# The off-diagonal entry adds its term to the norm twice.
_L1_PROX = """\
a_norm = 0.0
shrunk = abs(a_00) - tau
if shrunk <= 0.0:
    a_00 = -0.0 if a_00 < 0.0 else 0.0
else:
    a_norm += shrunk
    a_00 = a_00 - tau if a_00 > 0.0 else a_00 + tau
shrunk = abs(a_01) - tau
if shrunk <= 0.0:
    a_01 = -0.0 if a_01 < 0.0 else 0.0
else:
    a_norm += shrunk
    a_norm += shrunk
    a_01 = a_01 - tau if a_01 > 0.0 else a_01 + tau
shrunk = abs(a_11) - tau
if shrunk <= 0.0:
    a_11 = -0.0 if a_11 < 0.0 else 0.0
else:
    a_norm += shrunk
    a_11 = a_11 - tau if a_11 > 0.0 else a_11 + tau
"""

# The norm is ``norms._fro``'s sum of squares, in index order; the kernel
# solves a norm out of the safe range rescaled.
_FRO_PROX = """\
square = a_01 * a_01
total = sqrt(a_00 * a_00 + square + square + a_11 * a_11)
if not _SAFE_MIN <= total <= _SAFE_MAX and (a_00 or a_01 or a_11):
    (a_00, a_01, a_11), a_norm = _prox_fro_triple((a_00, a_01, a_11), tau)
elif total <= tau:
    a_00 = a_01 = a_11 = a_norm = 0.0
else:
    factor = 1.0 - tau / total
    a_00 = a_00 * factor
    a_01 = a_01 * factor
    a_11 = a_11 * factor
    square = a_01 * a_01
    a_norm = sqrt(a_00 * a_00 + square + square + a_11 * a_11)
"""

# The spectrum (x_0, x_1, v_00, v_01, v_10, v_11) is the thresholded
# eigenvalues and the eigenvector rows; a zero step thresholds the one the
# last prox kept.  An eigenvalue that shrinks to zero is +0.0, and so are
# its terms.  p_00 = v_00^2 x_0 + v_01^2 x_1 is -0.0 only if both terms
# are, which needs both x_j < 0 and both terms to round to zero; but a row
# of V is a unit vector, with an entry of magnitude about 1/sqrt(2) or
# more, whose term cannot.  So p_00, and p_11 on V's second row, start
# from their first term.  p_01 starts from 0.0, so neither it nor
# a_01 = (p_01 + p_10) / 2 is ever -0.0.  Without that add a_01 is -0.0
# where V's entries are 0.0 and +-1.0 and both of p_01's terms are -0.0:
# a diagonal A with both x_j < 0, or an a_01 < 0 so small that zeta^2
# overflows (t = +-0.0) with x_0 < 0 < x_1.
_TRACE_PROX = """\
if decompose:
    x_0, x_1, v_00, v_01, v_10, v_11 = _spectrum_floats((a_00, a_01, a_11))
    decompose = False
a_norm = 0.0
shrunk = abs(x_0) - tau
if shrunk <= 0.0:
    x_0 = 0.0
else:
    a_norm += shrunk
    x_0 = x_0 - tau if x_0 > 0.0 else x_0 + tau
shrunk = abs(x_1) - tau
if shrunk <= 0.0:
    x_1 = 0.0
else:
    a_norm += shrunk
    x_1 = x_1 - tau if x_1 > 0.0 else x_1 + tau
q_00 = v_00 * x_0
q_01 = v_01 * x_1
q_10 = v_10 * x_0
q_11 = v_11 * x_1
p_00 = q_00 * v_00 + q_01 * v_01
p_01 = 0.0 + q_00 * v_10 + q_01 * v_11
p_10 = q_10 * v_00 + q_11 * v_01
p_11 = q_10 * v_10 + q_11 * v_11
a_00 = (p_00 + p_00) / 2.0
a_01 = (p_01 + p_10) / 2.0
a_11 = (p_11 + p_11) / 2.0
"""

# Each kind's prox in the float loop; mixed21 runs
# ``norms._PROX_MIXED21_BLOCK`` on a copy of A.
_FLOAT_PROXES = {
    NormKind.L1: _L1_PROX,
    NormKind.FROBENIUS: _FRO_PROX,
    NormKind.MIXED21: "b_00, b_01, b_11 = a_00, a_01, a_11\n" + _PROX_MIXED21_BLOCK,
    NormKind.TRACE: _TRACE_PROX,
}


def _float_loop_source(key):
    """Source of ``_train_floats``' loop for key = (m, kind), written out.

    The scaled rows are unpacked once per fit into the named locals
    (r_i_0, r_i_1), and the hinge pass is one block per row, in index
    order, that adds the row's slack and entries where the slack is
    positive.  The prox at tau > 0 is kind's alone.
    """
    m, kind = key
    span = range(m)
    return _fill_skeleton(_FLOAT_LOOP_SKELETON, {
        "unpack": " ".join("(r_%d_0, r_%d_1)," % (i, i) for i in span),
        "hinge_pass": "\n".join(
            "slack = 1.0 - (r_{i}_0 * image_0 + r_{i}_1 * image_1)\n"
            "if slack > 0.0:\n"
            "    hinge_sum += slack\n"
            "    u_0 += r_{i}_0\n"
            "    u_1 += r_{i}_1".format(i=i)
            for i in span
        ),
        "prox": _FLOAT_PROXES[kind],
    })


def _hinge_floats(rows, image_0, image_1):
    """(total, u_0, u_1) of ``_train_floats``' hinge pass, adding every term.

    rows are the scaled rows as lists and (image_0, image_1) is A w.  total
    is the summed positive slack, and u_0, u_1 are the sums of the rows
    whose slack is positive, all from 0.0 in index order.  Every slack <= 0
    adds slack * 0.0: 0 for a finite one, while a non-finite one makes the
    total NaN, as the array set's slack . mask does.
    """
    total = u_0 = u_1 = 0.0
    for r_0, r_1 in rows:
        slack = 1.0 - (r_0 * image_0 + r_1 * image_1)
        if slack > 0.0:
            total += slack
            u_0 += r_0
            u_1 += r_1
        else:
            total += slack * 0.0
    return total, u_0, u_1


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
