import functools
import json
import math
import warnings

import numpy as np
import pytest

from simbound import (
    Dataset,
    GeneratorSpec,
    NormKind,
    NumericalError,
    SimilarityConfig,
    SimilarityModel,
    empirical_similarity_error,
    generate,
    hinge_subgradient,
    load_model,
    norm,
    prox,
    save_model,
    similarity_objective,
    train_similarity,
    true_similarity_error,
)
from simbound import norms, similarity
from simbound.similarity import model_to_json_dict
import oracles
from conftest import assert_model_invariants, make_rng, random_dataset, symmetric_part
from oracles import (
    fd_inner_product,
    grid_similarity_oracle,
    naive_similarity_error,
    naive_subgradient,
    reference_train_similarity,
)


def two_point_toy():
    return Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, -1.0]))


def test_error_and_subgradient_refuse_bad_matrices():
    # Both used to accept an asymmetric matrix, and to return NaN for a
    # NaN one, with the data they score it on.
    data = two_point_toy()
    for check in (
        lambda a: empirical_similarity_error(a, data, 1.0),
        lambda a: true_similarity_error(a, data, 1.0),
        lambda a: hinge_subgradient(a, data, 1.0),
    ):
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            check(np.array([[0.0, 1.0], [0.0, 0.0]]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=r"matrix must be finite; row 0 \(counting from 0\)"):
                check(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="matrix dimension 3 does not match data dimension 2"):
            check(np.eye(3))
        with pytest.raises(ValueError, match="expected a square matrix"):
            check(np.ones((2, 3)))


def test_empirical_error_zero_matrix():
    data = two_point_toy()
    assert empirical_similarity_error(np.zeros((2, 2)), data, 1.0) == 1.0


def test_empirical_error_single_sample_met():
    data = Dataset(np.array([[1.0, 0.0]]), np.array([1.0]))
    assert empirical_similarity_error(np.eye(2), data, 1.0) == 0.0


def test_empirical_error_two_point_value():
    data = two_point_toy()
    assert empirical_similarity_error(np.eye(2), data, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_empirical_error_matches_naive_oracle(rng):
    for _ in range(20):
        m = int(rng.integers(2, 8))
        d = int(rng.integers(2, 5))
        data = random_dataset(rng, m, d)
        a = symmetric_part(rng.standard_normal((d, d)))
        margin = float(rng.uniform(0.3, 2.0))
        ours = empirical_similarity_error(a, data, margin)
        naive = naive_similarity_error(a, data.features, data.labels, margin)
        assert ours == pytest.approx(naive, abs=1e-12)


def test_empirical_error_convex(rng):
    for _ in range(30):
        d = int(rng.integers(2, 4))
        data = random_dataset(rng, int(rng.integers(2, 7)), d)
        a1 = symmetric_part(rng.standard_normal((d, d)))
        a2 = symmetric_part(rng.standard_normal((d, d)))
        theta = float(rng.uniform(0.0, 1.0))
        mix = empirical_similarity_error(theta * a1 + (1 - theta) * a2, data, 1.0)
        sides = theta * empirical_similarity_error(a1, data, 1.0) + (
            1 - theta
        ) * empirical_similarity_error(a2, data, 1.0)
        assert mix <= sides + 1e-10


def test_empirical_error_label_flip_invariant(rng):
    for _ in range(10):
        d = 3
        data = random_dataset(rng, 6, d)
        flipped = Dataset(data.features, -data.labels)
        a = symmetric_part(rng.standard_normal((d, d)))
        assert empirical_similarity_error(a, data, 1.0) == pytest.approx(
            empirical_similarity_error(a, flipped, 1.0), abs=1e-12
        )


def test_objective_values():
    data = two_point_toy()
    config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind="l1")
    assert similarity_objective(np.zeros((2, 2)), data, config) == 1.0
    assert similarity_objective(np.eye(2), data, config) == pytest.approx(0.7, abs=1e-15)


def test_objective_dominates_penalty(rng):
    data = random_dataset(rng, 5, 2)
    config = SimilarityConfig(lam=0.3, margin=1.0, norm_kind="fro")
    for _ in range(20):
        a = symmetric_part(rng.standard_normal((2, 2)) * 5.0)
        obj = similarity_objective(a, data, config)
        assert obj >= 0.3 * float(np.linalg.norm(a)) - 1e-12


def test_subgradient_zero_when_satisfied():
    data = two_point_toy()
    g = hinge_subgradient(10.0 * np.eye(2), data, 1.0)
    assert np.array_equal(g, np.zeros((2, 2)))


def test_subgradient_zero_matrix_toy():
    data = two_point_toy()
    g = hinge_subgradient(np.zeros((2, 2)), data, 1.0)
    expected = np.array([[-0.25, 0.25], [0.25, -0.25]])
    assert np.allclose(g, expected, atol=1e-15)
    assert np.allclose(naive_subgradient(np.zeros((2, 2)), data.features, data.labels, 1.0), expected, atol=1e-15)


def test_subgradient_matches_naive(rng):
    for _ in range(20):
        m = int(rng.integers(2, 7))
        d = int(rng.integers(2, 4))
        data = random_dataset(rng, m, d)
        a = symmetric_part(rng.standard_normal((d, d)))
        ours = hinge_subgradient(a, data, 1.0)
        naive = naive_subgradient(a, data.features, data.labels, 1.0)
        assert np.max(np.abs(ours - naive)) < 1e-12


def test_subgradient_finite_differences(rng):
    checked = 0
    while checked < 25:
        d = int(rng.integers(2, 4))
        data = random_dataset(rng, int(rng.integers(2, 6)), d)
        a = symmetric_part(rng.standard_normal((d, d)))
        margin = 1.0
        m = data.m
        w = data.features.T @ data.labels
        arg = 1.0 - data.labels * (data.features @ (a @ w)) / (m * margin)
        if np.min(np.abs(arg)) < 1e-3:
            continue  # too close to a hinge kink for finite differences
        g = hinge_subgradient(a, data, margin)
        direction = symmetric_part(rng.standard_normal((d, d)))
        fd = fd_inner_product(
            lambda mat: empirical_similarity_error(mat, data, margin), a, direction
        )
        assert float(np.sum(g * direction)) == pytest.approx(fd, abs=1e-4)
        checked += 1


def test_train_returns_feasible_models(rng):
    for kind in ("l1", "fro", "mixed21", "trace"):
        data = random_dataset(rng, 8, 3)
        config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind=kind, max_iters=300)
        model = train_similarity(data, config)
        assert_model_invariants(model, data)
        assert model.matrix.shape == (3, 3)
        assert np.array_equal(model.matrix, model.matrix.T)


def test_train_single_sample():
    data = Dataset(np.array([[2.0, 0.0]]), np.array([1.0]))
    config = SimilarityConfig(lam=0.5, margin=1.0, norm_kind="fro", max_iters=200)
    model = train_similarity(data, config)
    assert model.final_objective <= 1.0


def test_train_deterministic():
    data = random_dataset(make_rng(77), 10, 3)
    config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind="l1", max_iters=150)
    a = train_similarity(data, config)
    b = train_similarity(data, config)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.final_objective == b.final_objective
    assert a.iterations_run == b.iterations_run


def test_train_beats_grid_oracle_frobenius():
    rng = make_rng(515)
    mu = np.array([1.5, 0.4])
    labels = np.array([1.0, 1.0, -1.0, -1.0])
    features = labels[:, None] * mu[None, :] + 0.15 * rng.standard_normal((4, 2))
    data = Dataset(features, labels)
    lam = 0.05
    oracle = grid_similarity_oracle(data.features, data.labels, lam, 1.0, "fro")
    config = SimilarityConfig(lam=lam, margin=1.0, norm_kind="fro", max_iters=6000, step0=0.3, rel_tol=0.0)
    model = train_similarity(data, config)
    assert model.final_objective <= oracle + 1e-3


def test_train_rel_tol_zero_runs_all_iterations():
    data = two_point_toy()
    config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind="l1", max_iters=120, rel_tol=0.0)
    model = train_similarity(data, config)
    assert model.iterations_run == 120


def test_train_early_stop_with_loose_tolerance():
    data = two_point_toy()
    config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind="l1", max_iters=2000, rel_tol=0.5)
    model = train_similarity(data, config)
    assert model.iterations_run < 2000


def test_train_non_finite_raises(monkeypatch):
    # The first step overflows A, in every kind and both kernel sets, and
    # the objective of that iterate stops the fit.  Its slack holds NaN in
    # the array set, whose hinge mask is then NaN where slack > 0 gave 0:
    # the hinge sum is NaN either way, so the error and its iteration stay.
    data = Dataset(np.array([[1e8, 0.0], [0.0, 1e8]]), np.array([1.0, -1.0]))
    slack = similarity._slack
    nan_slack = []

    def recorded(*args):
        out = slack(*args)
        nan_slack.append(bool(np.isnan(out).any()))
        return out

    monkeypatch.setattr(similarity, "_slack", recorded)
    for float_max_md, *_ in KERNEL_SETS.values():
        monkeypatch.setattr(similarity, "_FLOAT_MAX_MD", float_max_md)
        for kind in ("l1", "fro", "mixed21", "trace"):
            config = SimilarityConfig(
                lam=0.1, margin=1.0, norm_kind=kind, max_iters=10, step0=1e300
            )
            nan_slack.clear()
            with np.errstate(all="ignore"), pytest.raises(
                NumericalError, match=r"non-finite objective at iteration 1; try a smaller step0"
            ):
                train_similarity(data, config)
            assert nan_slack == ([False, True] if float_max_md == 0 else [])


def test_train_overflow_raises_without_warning(monkeypatch):
    # A step that overflows A: the fro prox's sum of squares overflows
    # before its rescaled retry, and the array set's slack holds inf and
    # NaN.  numpy warned of both; stage one silences them, as norm and prox
    # do, and raises NumericalError, at d = 2 in both kernel sets and at
    # d = 5.
    for d in (2, 5):
        features = np.zeros((2, d))
        features[0, 0] = features[1, 1] = 1e150
        data = Dataset(features, np.array([1.0, -1.0]))
        for float_max_md, *_ in KERNEL_SETS.values():
            monkeypatch.setattr(similarity, "_FLOAT_MAX_MD", float_max_md)
            for kind in ("l1", "fro", "mixed21", "trace"):
                config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind=kind)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(NumericalError, match="non-finite objective at iteration 1"):
                        train_similarity(data, config)


@pytest.mark.parametrize("kind", ["l1", "fro", "mixed21", "trace"])
def test_fit_is_exact_under_powers_of_two(monkeypatch, kind):
    # Features times 2^k, lambda times 2^2k and step0 times 2^-4k give the
    # same hinge terms and steps and thresholds times 2^-2k, so stage one
    # returns 2^-2k times the unit model and the same objective, bit for
    # bit.  At k = +-200 the iterates sit near 2^-+400, out of the norms'
    # safe range, where the fro and mixed21 proxes and the trace prox on
    # arrays solve their problems rescaled: those fits do reach
    # ``_rescaled``, which the float loop's mixed21 block reads in
    # similarity and every kernel in norms; the float loop's trace prox
    # needs no LAPACK.  The float set fits at d = 2, m = 5, the arrays at
    # d = 5, m = 100.
    rescaled = norms._rescaled
    calls = []

    def recorded(*args):
        calls.append(args[0].__name__)
        return rescaled(*args)

    for module in (norms, similarity):
        monkeypatch.setattr(module, "_rescaled", recorded)
    rng = make_rng(1729)
    for m, d, lam, step0 in ((5, 2, 0.2, 2.0), (100, 5, 0.1, 1.0)):
        for _ in range(3):
            data = _tiny_dataset(rng, m) if d == 2 else random_dataset(rng, m, d)

            def fit(k):
                config = SimilarityConfig(
                    lam=math.ldexp(lam, 2 * k), margin=1.0, norm_kind=kind, max_iters=300,
                    step0=math.ldexp(step0, -4 * k), rel_tol=0.0,
                )
                return train_similarity(Dataset(np.ldexp(data.features, k), data.labels), config)

            assert similarity._uses_floats(m, d) == (d == 2)
            unit = fit(0)
            assert unit.iterations_run == 300 and unit.final_objective < 1.0
            for k in (-200, 200):
                calls.clear()
                model = fit(k)
                assert np.ldexp(model.matrix, 2 * k).tobytes() == unit.matrix.tobytes(), (m, k)
                assert model.final_objective.hex() == unit.final_objective.hex(), (m, k)
                rescales = kind in ("fro", "mixed21") or (kind == "trace" and d != 2)
                assert bool(calls) == rescales, (m, k)


def _assert_json_matches_reference(data, config, proxes=None):
    # The JSON text tells -0.0 from +0.0, which assert_array_equal does not.
    # proxes, if given, collects the reference loop's prox records.
    model = train_similarity(data, config)
    matrix, objective, iterations = reference_train_similarity(
        data.features, data.labels, config.lam, config.margin, config.norm_kind.value,
        config.max_iters, config.step0, config.rel_tol,
        floats=similarity._uses_floats(data.m, data.d), proxes=proxes,
    )
    expected = SimilarityModel(matrix, config, final_objective=objective, iterations_run=iterations)
    assert json.dumps(model_to_json_dict(model)) == json.dumps(model_to_json_dict(expected))
    return model


def _tiny_dataset(rng, m):
    """Two tight clusters in 2-d, the shape of acceptance check 02's data."""
    angle = rng.uniform(0.0, 2.0 * math.pi)
    mu = rng.uniform(1.2, 1.8) * np.array([math.cos(angle), math.sin(angle)])
    labels = np.concatenate([np.ones(m // 2), -np.ones(m - m // 2)])[rng.permutation(m)]
    return Dataset(labels[:, None] * mu + 0.15 * rng.standard_normal((m, 2)), labels)


# Each stage-one kernel set: the float set's size bound that forces it and
# the module name of the function that fits with it.
KERNEL_SETS = {
    "arrays": (0, "_train_arrays"),
    "floats": (10 ** 9, "_train_floats"),
}


@pytest.mark.parametrize("kind", ["l1", "fro", "mixed21", "trace"])
def test_train_json_matches_reference_loop(monkeypatch, kind):
    # Check-02-shaped fits run the float loop at every m it takes, each
    # with its own written-out loop, and again the array loop, with the
    # float set switched off, up to m = 6.  At lambda 5e-324 and step0 1e-10
    # every threshold eta lambda underflows to 0, so every prox is the
    # tau = 0 one: A itself and its norm.  At step0 1e301 the images reach
    # the float loop's per-fit bound, where it hands the hinge pass to
    # _hinge_floats, which the wrapper counts past the zero start's call;
    # there the reference squares entries beyond 1e154, with no range
    # rule, and numpy warns of the overflow.
    hinge_floats = similarity._hinge_floats
    cold = []

    def counted(*args):
        cold.append(args)
        return hinge_floats(*args)

    monkeypatch.setattr(similarity, "_hinge_floats", counted)
    assert similarity._FLOAT_MAX_MD // 2 == 12
    for float_max_md, *_ in KERNEL_SETS.values():
        monkeypatch.setattr(similarity, "_FLOAT_MAX_MD", float_max_md)
        rng = make_rng(530)
        for m in range(1, 13 if float_max_md else 7):
            data = _tiny_dataset(rng, m)
            assert similarity._uses_floats(m, 2) == bool(float_max_md)
            configs = [((0.05, 0.2)[m % 2], 2.0), (5e-324, 1e-10)]
            if float_max_md and m in (1, 5, 12):
                configs.append((0.5, 1e301))
            for lam, step0 in configs:
                config = SimilarityConfig(
                    lam=lam, margin=1.0, norm_kind=kind, max_iters=2000, step0=step0,
                    rel_tol=0.0,
                )
                cold.clear()
                with np.errstate(over="ignore" if step0 == 1e301 else "warn"):
                    _assert_json_matches_reference(data, config)
                assert (len(cold) > 1) == (step0 == 1e301), (m, step0)
    monkeypatch.undo()
    # Experiment-shaped fits run the array kernels: fro, mixed21 and trace
    # end on the window stop, l1 runs to the iteration cap.
    for seed in (2029, 2032):
        spec = GeneratorSpec(
            kind="two_gaussians", d=5, mean_separation=2.0, noise_sigma=1.0, seed=seed
        )
        config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind=kind, max_iters=500)
        model = _assert_json_matches_reference(generate(spec, 100), config)
        assert kind == "l1" or model.iterations_run < config.max_iters


# A solver_tiny-shaped fit per kind on the float set (m = 5, d = 2, 2000
# iterations, rel_tol 0): (lambda, entries row-major, final_objective), as
# float.hex.
_PINNED_FEATURES = [
    [0.8539945817460073, -1.1273846933890512],
    [0.7167430204839509, -1.2918873426604986],
    [-0.7986468445607734, 0.9889379345927549],
    [-1.2018205659418568, 1.2636364978412915],
    [0.9951957746746648, -0.8746187052200813],
]
_PINNED_LABELS = [-1.0, -1.0, 1.0, 1.0, -1.0]
_PINNED_FITS = {
    "l1": (
        0.05,
        ["0x1.8f27fdaf7c128p-10", "-0x1.4424f4ae9d9d1p-3", "-0x1.4424f4ae9d9d1p-3",
         "0x1.70173fc918a31p-1"],
        "0x1.a8c10b4c328c8p-5",
    ),
    "fro": (
        0.2,
        ["0x1.bfc63c7fef0afp-3", "-0x1.1295e5d4eb9f7p-2", "-0x1.1295e5d4eb9f7p-2",
         "0x1.50bba95141817p-2"],
        "0x1.c08818b63631dp-4",
    ),
    "mixed21": (
        0.05,
        ["0x1.59d851943b13ap-3", "-0x1.010b2d93c279dp-2", "-0x1.010b2d93c279dp-2",
         "0x1.8f4144535023cp-2"],
        "0x1.39db97dcc6cafp-5",
    ),
    "trace": (
        0.2,
        ["0x1.bfc9de08cc1b1p-3", "-0x1.129433b29da45p-2", "-0x1.129433b29da45p-2",
         "0x1.50bcc7ab665c4p-2"],
        "0x1.c08845748cf7ep-4",
    ),
}


@pytest.mark.parametrize("kind", ["l1", "fro", "mixed21", "trace"])
def test_float_fit_pins(kind):
    # The float fit is checked against the reference loop, and both could
    # drift together; these bits cannot.  The fit uses + - * / and
    # math.sqrt only, which round correctly, so they hold on every Python.
    lam, entries, objective = _PINNED_FITS[kind]
    data = Dataset(np.array(_PINNED_FEATURES), np.array(_PINNED_LABELS))
    assert similarity._uses_floats(data.m, data.d)
    config = SimilarityConfig(
        lam=lam, margin=1.0, norm_kind=kind, max_iters=2000, step0=2.0, rel_tol=0.0
    )
    model = train_similarity(data, config)
    assert [x.hex() for x in model.matrix.ravel().tolist()] == entries
    assert model.final_objective.hex() == objective
    assert model.iterations_run == 2000


def test_fro_models_are_lifts_of_the_label_sum():
    # Every fro iterate is v w^T + w v^T, with w = sum_j y_j x_j: the zero
    # start is, a step subtracts factor (u w^T + w u^T), and the prox
    # scales A.  So is every trained fro model, with v recovered from
    # A w = |w|^2 v + (v . w) w, where w^T A w = 2 |w|^2 (v . w).  On the
    # float set at d = 2, where the lifts are a plane of the 3-d symmetric
    # matrices, and on the array set at d = 5 and 20.
    rng = make_rng(577)
    datasets = [_tiny_dataset(rng, m) for m in (4, 5, 6)]
    for seed, d in ((2031, 5), (2033, 5), (2035, 20)):
        spec = GeneratorSpec(
            kind="two_gaussians", d=d, mean_separation=2.0, noise_sigma=1.0, seed=seed
        )
        datasets.append(generate(spec, 100))
    for data in datasets:
        w = data.features.T @ data.labels
        for lam in (0.05, 0.2):
            config = SimilarityConfig(
                lam=lam, margin=1.0, norm_kind="fro", max_iters=500, step0=2.0, rel_tol=0.0
            )
            a = train_similarity(data, config).matrix
            assert np.any(a)
            u = a @ w
            ww = w @ w
            v = (u - (w @ u) / (2.0 * ww) * w) / ww
            residual = np.max(np.abs(a - np.outer(v, w) - np.outer(w, v)))
            assert residual <= 1e-13 * np.max(np.abs(a)), (data.m, data.d, lam)


def _least_l1_lift(u, w):
    """The least l1 norm of a symmetric 2x2 A with A w = u, for w_0, w_1 != 0.

    A w = u leaves t = a_01 free, with a_00 = (u_0 - t w_1) / w_0 and
    a_11 = (u_1 - t w_0) / w_1, so |a_00| + 2 |t| + |a_11| is convex and
    piecewise linear in t, least at one of its kinks t = 0, u_0 / w_1
    (a_00 = 0) and u_1 / w_0 (a_11 = 0).
    """
    (u_0, u_1), (w_0, w_1) = u, w
    return min(
        abs(u_0 - t * w_1) / abs(w_0) + 2.0 * abs(t) + abs(u_1 - t * w_0) / abs(w_1)
        for t in (0.0, u_0 / w_1, u_1 / w_0)
    )


def test_l1_models_are_no_smaller_than_the_least_lift(monkeypatch):
    # The objective sees A only through u = A w, so no l1 model can have a
    # norm below the least l1 lift of its own image.  Check-02-shaped fits
    # of both loops at d = 2, to a relative 1e-12.
    rng = make_rng(589)
    for m in range(2, 13):
        for _ in range(2):
            data = _tiny_dataset(rng, m)
            w = data.features.T @ data.labels
            assert np.all(w != 0.0)
            for lam in (0.02, 0.05, 0.1, 0.2):
                config = SimilarityConfig(
                    lam=lam, margin=1.0, norm_kind="l1", max_iters=2000, step0=2.0, rel_tol=0.0
                )
                for float_max_md, *_ in KERNEL_SETS.values():
                    monkeypatch.setattr(similarity, "_FLOAT_MAX_MD", float_max_md)
                    a = train_similarity(data, config).matrix
                    least = _least_l1_lift((a @ w).tolist(), w.tolist())
                    assert norm(a, "l1") >= least * (1.0 - 1e-12), (m, lam, float_max_md)


@pytest.mark.parametrize("kind", ["l1", "fro", "mixed21", "trace"])
def test_float_fits_match_reference_loop_off_check02(monkeypatch, kind):
    # The float fit runs its proxes inline, so only whole fits hold that
    # code to the reference.  Beyond check 02's shape: loose clusters,
    # features that are exactly zero, which make signed zeros, and steps
    # from 0.5 to 20, where entries shrink to zero and thresholds hit them
    # often.  Each sample runs again with its columns swapped, which trades
    # the roles of a_00 and a_11.  Trace's iterates are held too: after
    # each non-zero step at tau > 0 the fit decomposes the reference's prox
    # input, bit for bit.  The last sample, two points whose second
    # features are 2^-600 and cancel in w, makes a_01 < 0 so small that
    # the rotation's zeta^2 overflows while x_0 < 0: there the rebuild's
    # p_01 = 0.0 + ... keeps a_01 at +0.0, and the next step's iterate
    # keeps that zero's sign.
    decomposed = []
    spectrum_floats = similarity._spectrum_floats

    def recorded(triple):
        decomposed.append(triple)
        return spectrum_floats(triple)

    monkeypatch.setattr(similarity, "_spectrum_floats", recorded)
    rng = make_rng(583)
    samples = []
    for m in (2, 4, 5, 8, 10, 11):
        for trial in range(3):
            labels = np.where(rng.random(m) < 0.5, 1.0, -1.0)
            features = labels[:, None] * rng.standard_normal(2)
            features += rng.uniform(0.05, 1.0) * rng.standard_normal((m, 2))
            if trial == 2:
                features[rng.random((m, 2)) < 0.3] = 0.0
            samples.append((features, labels))
    samples.append((np.array([[1.25, 2.0 ** -600], [2.0, 2.0 ** -600]]), np.array([1.0, -1.0])))
    for features, labels in samples:
        assert similarity._uses_floats(len(labels), 2)
        for data in (Dataset(features, labels), Dataset(features[:, ::-1], labels)):
            for lam, step0, rel_tol in (
                (0.05, 2.0, 0.0), (0.2, 0.5, 1e-4), (1e-3, 20.0, 0.0), (1.0, 2.0, 0.0),
                (0.05, 20.0, 0.0),
            ):
                config = SimilarityConfig(
                    lam=lam, margin=1.0, norm_kind=kind, max_iters=300, step0=step0,
                    rel_tol=rel_tol,
                )
                decomposed.clear()
                proxes = []
                _assert_json_matches_reference(data, config, proxes)
                expected = [_snapshot(b) for stepped, b, tau, *_ in proxes if stepped and tau]
                assert [_snapshot(norms._triple_array(t)) for t in decomposed] == (
                    expected if kind == "trace" else []
                )


def test_float_mixed21_fit_hands_capped_newton_to_dual_phase(monkeypatch):
    # With the Newton cap lowered to 1, in the float loop's mixed21 block
    # and in the reference prox, a live prox whose first evaluation does
    # not certify hands its H to the dual phase inside the fit.  Both hand
    # over the same B, tau, H and ||B||_{2,1}, bit for bit, and the fit
    # still matches the reference loop.
    handed = {"floats": [], "reference": []}

    def recorded(name, dual):
        def recorded_dual(b, tau, h, scale, *rest):
            handed[name].append((b.tobytes(), tau.hex(), h.tobytes(), scale.hex()))
            return dual(b, tau, h, scale, *rest)

        return recorded_dual

    monkeypatch.setattr(similarity, "_MIXED21_NEWTON_STEPS", 1)
    monkeypatch.setattr(similarity, "_dual_mixed21", recorded("floats", similarity._dual_mixed21))
    monkeypatch.setattr(
        oracles, "_reference_prox_mixed21",
        functools.partial(oracles._reference_prox_mixed21, newton_steps=1),
    )
    monkeypatch.setattr(
        oracles, "_reference_dual_mixed21",
        recorded("reference", oracles._reference_dual_mixed21),
    )
    rng = make_rng(593)
    for m in (2, 5, 9):
        data = _tiny_dataset(rng, m)
        for lam in (0.05, 0.2):
            config = SimilarityConfig(
                lam=lam, margin=1.0, norm_kind="mixed21", max_iters=100, step0=2.0, rel_tol=0.0
            )
            for found in handed.values():
                found.clear()
            _assert_json_matches_reference(data, config)
            assert handed["floats"] and handed["floats"] == handed["reference"], (m, lam)


def test_float_trace_fits_call_lapack_only_from_d3(monkeypatch):
    # Check-02-shaped trace fits (d = 2) decompose in closed form, so they
    # run with norms._eigh refusing; a d = 3 fit, which runs the array set,
    # calls it.
    eigh = norms._eigh

    def refuse(a):
        raise AssertionError(f"_eigh called on shape {a.shape}")

    monkeypatch.setattr(norms, "_eigh", refuse)
    rng = make_rng(541)
    for m in range(1, 7):
        config = SimilarityConfig(
            lam=(0.05, 0.2)[m % 2], margin=1.0, norm_kind="trace", max_iters=2000, step0=2.0,
            rel_tol=0.0,
        )
        data = _tiny_dataset(rng, m)
        assert similarity._uses_floats(m, 2)
        model = train_similarity(data, config)
        assert model.iterations_run == 2000 and math.isfinite(model.final_objective)
    calls = []

    def recorded(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(norms, "_eigh", recorded)
    config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind="trace", max_iters=50)
    assert not similarity._uses_floats(6, 3)
    train_similarity(random_dataset(rng, 6, 3), config)
    assert calls and set(calls) == {(3, 3)}


@pytest.mark.parametrize("kind", ["l1", "fro", "mixed21", "trace"])
def test_float_fits_take_no_array_path(monkeypatch, kind):
    # Check-02-shaped fits run the float set from start to end: the array
    # kernels, LAPACK and every cold path of the float loop's proxes (the
    # rescaled problem, the mixed21 dual phase, the tau = 0 norm) refuse,
    # and so do the mixed21 kernel on the triple, the mixed21 Newton loops
    # and the array fro norm, so a fit that fell back to any of them would
    # fail here, not only run slower.  The loop reads its names in
    # similarity, so they refuse there as well as in norms.
    def refuse(*args):
        raise AssertionError("a d = 2 float fit left the float loop")

    for name in (
        "_array_kernels", "_norm", "_rescaled", "_dual_mixed21", "_prox_mixed21_triple",
        "_prox_fro_triple",
    ):
        monkeypatch.setattr(similarity, name, refuse)
    for name in ("_eigh", "_rescaled", "_dual_mixed21", "_newton_mixed21_floats", "_fro", "_norm"):
        monkeypatch.setattr(norms, name, refuse)
    rng = make_rng(542)
    for m in (4, 5, 6):
        data = _tiny_dataset(rng, m)
        for lam in (0.05, 0.2):
            config = SimilarityConfig(
                lam=lam, margin=1.0, norm_kind=kind, max_iters=2000, step0=2.0, rel_tol=0.0
            )
            assert similarity._uses_floats(m, 2)
            model = train_similarity(data, config)
            assert model.iterations_run == 2000 and model.final_objective < 1.0


def test_train_chooses_kernel_set_by_size(monkeypatch):
    # Floats at d = 2 up to m * d = _FLOAT_MAX_MD, arrays beyond it and at
    # every other d, however small m * d is.
    chosen = []
    for _, name in KERNEL_SETS.values():
        fit = getattr(similarity, name)

        def recorded(scaled, w, config, name=name, fit=fit):
            chosen.append((name, scaled.shape))
            return fit(scaled, w, config)

        monkeypatch.setattr(similarity, name, recorded)
    limit = similarity._FLOAT_MAX_MD
    shapes = {
        (1, 2): "_train_floats",
        (limit // 2, 2): "_train_floats",
        (limit // 2 + 1, 2): "_train_arrays",
        (1, 1): "_train_arrays",
        (limit, 1): "_train_arrays",
        (1, 3): "_train_arrays",
        (limit // 4, 4): "_train_arrays",
        (1, 5): "_train_arrays",
    }
    rng = make_rng(533)
    for (m, d), name in shapes.items():
        config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind="fro", max_iters=3)
        model = train_similarity(random_dataset(rng, m, d), config)
        assert chosen.pop() == (name, (m, d))
        assert type(model.matrix) is np.ndarray and model.matrix.shape == (d, d)
    assert chosen == []


def test_float_loop_is_built_once_per_m(monkeypatch):
    # The first fit at (m, kind) compiles its written-out loop, which holds
    # that kind's prox alone; a later fit at (m, kind) reuses it, and a fit
    # of another kind or at another m builds its own.
    monkeypatch.setattr(similarity, "_WRITTEN_FLOAT_LOOPS", {})
    source = similarity._float_loop_source
    built = []

    def recorded(key):
        built.append(key)
        return source(key)

    monkeypatch.setattr(similarity, "_float_loop_source", recorded)
    rng = make_rng(535)
    loops = {}
    fits = [(3, "l1"), (5, "fro"), (3, "trace"), (5, "mixed21"), (3, "l1"), (5, "mixed21")]
    for m, kind in fits + [(3, "fro"), (5, "l1")]:
        config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind=kind, max_iters=50)
        train_similarity(_tiny_dataset(rng, m), config)
        key = (m, NormKind(kind))
        loops.setdefault(key, similarity._WRITTEN_FLOAT_LOOPS[key])
        assert similarity._WRITTEN_FLOAT_LOOPS == loops
    assert [(m, kind.value) for m, kind in built] == [
        (3, "l1"), (5, "fro"), (3, "trace"), (5, "mixed21"), (3, "fro"), (5, "l1")
    ]
    # Each loop holds its own kind's prox and no other's.
    marks = {"l1": "a_01 = -0.0 if a_01", "fro": "_prox_fro_triple", "trace": "_spectrum_floats",
             "mixed21": "_dual_mixed21"}
    for m, kind in loops:
        text = source((m, kind))
        assert [name for name, mark in marks.items() if mark in text] == [kind.value]
        assert " is NormKind." not in text


def test_mixed21_at_d5_keeps_the_array_kernel_set(monkeypatch):
    # The mixed21 prox runs its Newton phase on floats up to d = 5, but
    # stage one runs floats at d = 2 only: m = 4, d = 5 is within
    # _FLOAT_MAX_MD and still runs the array set.
    assert norms._MIXED21_FLOAT_MAX_D == 5
    assert 4 * 5 <= similarity._FLOAT_MAX_MD and not similarity._uses_floats(4, 5)
    chosen = []
    for _, name in KERNEL_SETS.values():
        fit = getattr(similarity, name)

        def recorded(scaled, w, config, name=name, fit=fit):
            chosen.append(name)
            return fit(scaled, w, config)

        monkeypatch.setattr(similarity, name, recorded)
    config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind="mixed21", max_iters=3)
    model = train_similarity(random_dataset(make_rng(534), 4, 5), config)
    assert chosen == ["_train_arrays"] and model.matrix.shape == (5, 5)


@pytest.mark.parametrize("kind", ["l1", "fro", "mixed21", "trace"])
def test_kernel_sets_agree(monkeypatch, kind):
    # Check-02-shaped fits through both kernel sets: the sets round
    # differently, but stop at the same iteration with the same objective.
    # The loose rel_tol makes some fits end on the window stop.
    rng = make_rng(534)
    for m in (4, 5, 6):
        data = _tiny_dataset(rng, m)
        for lam, rel_tol in ((0.05, 0.0), (0.2, 0.0), (0.05, 1e-4)):
            config = SimilarityConfig(
                lam=lam, margin=1.0, norm_kind=kind, max_iters=2000, step0=2.0, rel_tol=rel_tol
            )
            models = {}
            for name, (float_max_md, *_) in KERNEL_SETS.items():
                monkeypatch.setattr(similarity, "_FLOAT_MAX_MD", float_max_md)
                models[name] = train_similarity(data, config)
            arrays, floats = models["arrays"], models["floats"]
            assert floats.iterations_run == arrays.iterations_run
            assert abs(floats.final_objective - arrays.final_objective) <= 1e-12
            assert np.max(np.abs(floats.matrix - arrays.matrix)) <= 1e-12


def _hinge_images(rng, bound):
    """(triple, w) pairs for the float hinge around its per-fit bound.

    With w = (1, 0) the images are (a_00, a_01) exactly, so |image_0| +
    |image_1| is a_00's magnitude: one ulp below the bound, at it and one
    ulp above, then 2^j times it, where the margins of large rows overflow;
    images that overflow to +-inf, and NaN images; random triples at the
    scale of the bound and at scale 1, with a random w.
    """
    pairs = []
    unit = (1.0, 0.0)
    if bound < math.inf:
        for x in (math.nextafter(bound, 0.0), bound, math.nextafter(bound, math.inf)):
            for sign in (1.0, -1.0):
                pairs.append(((sign * x, 0.0, 0.0), unit))
                pairs.append(((sign * x / 2.0, sign * x / 2.0, 1.0), unit))
        for j in range(1, 40, 3):
            x = bound * 2.0 ** j
            if x < math.inf:
                pairs += [((x, 0.0, -x), unit), ((-x, -0.0, x), unit)]
    for x in (math.inf, -math.inf, math.nan):
        pairs += [((x, 0.0, 0.0), unit), ((0.0, x, 1.0), unit)]
    pairs.append(((1e308, 1e308, 0.0), (4.0, 4.0)))
    for scale in (1.0, min(bound, 1e300)):
        for _ in range(20):
            triple = tuple(float(x) for x in rng.standard_normal(3) * scale)
            pairs.append((triple, tuple(rng.standard_normal(2).tolist())))
    return pairs


def test_float_hinge_matches_reference_hinge():
    # _hinge_floats, the float fit's hinge pass at or above its per-fit
    # bound and at the zero start, adds every slack * 0.0 term from 0.0, as
    # the reference does.  Its total (NaN as NaN) and the step's sums u_0
    # and u_1 over the rows of positive slack agree with the reference's
    # total and mask bit for bit, below the bound, above it, for infinite
    # and NaN images and for rows that are all zero.  Below the bound every
    # slack is finite, and the fit's own pass, which skips the slack * 0.0
    # terms, forms the same total.
    rng = make_rng(563)
    seen = set()
    for m in range(1, 13):
        for row_scale in (1.0, 2.0 ** 500, 2.0 ** -30, 0.0):
            scaled = rng.standard_normal((m, 2)) * row_scale
            scaled[rng.random((m, 2)) < 0.1] = -0.0
            rows = scaled.tolist()
            largest = float(np.abs(scaled).sum(axis=1).max())
            bound = 2.0 ** 1000 / largest if largest else math.inf
            for triple, w in _hinge_images(rng, bound):
                a_00, a_01, a_11 = triple
                w_0, w_1 = w
                # The images as the fit forms them.
                image_0 = a_00 * w_0 + a_01 * w_1
                image_1 = a_01 * w_0 + a_11 * w_1
                total, u_0, u_1 = similarity._hinge_floats(rows, image_0, image_1)
                expected, active = oracles.reference_hinge_floats(
                    [[a_00, a_01], [a_01, a_11]], rows, list(w)
                )
                expected_u = [0.0, 0.0]
                for row, on in zip(rows, active):
                    if on:
                        expected_u = [u + x for u, x in zip(expected_u, row)]
                assert type(total) is float
                assert [x.hex() for x in (total, u_0, u_1)] == [
                    x.hex() for x in (expected, *expected_u)
                ], (rows, triple, w)
                if abs(image_0) + abs(image_1) < bound:
                    skipped = 0.0
                    for r_0, r_1 in rows:
                        slack = 1.0 - (r_0 * image_0 + r_1 * image_1)
                        assert math.isfinite(slack)
                        if slack > 0.0:
                            skipped += slack
                    assert skipped.hex() == total.hex(), (rows, triple, w)
                seen.add("nan" if math.isnan(total) else "inf" if total == math.inf else "finite")
    assert seen == {"nan", "inf", "finite"}


def _snapshot(x):
    # The bytes of an array or of a tuple of floats, signs of zero included.
    return np.asarray(x, dtype=float).tobytes()


def _watch_prox(monkeypatch):
    """Record every prox the array fit makes, checking that none writes its
    input.

    Wraps every entry of the array prox table, which the array fit reads
    once per fit.  Each record is (input, tau, whether a spectrum was
    passed, output).
    """
    calls = []
    for kind, prox_kernel in norms._PROX.items():

        def watched(b, tau, spectrum=None, prox_kernel=prox_kernel):
            before = _snapshot(b)
            saved = None if spectrum is None else [_snapshot(part) for part in spectrum]
            result = prox_kernel(b, tau, spectrum)
            assert _snapshot(b) == before
            assert saved is None or [_snapshot(part) for part in spectrum] == saved
            calls.append((b, tau, spectrum is not None, result[0]))
            return result

        monkeypatch.setitem(norms._PROX, kind, watched)
    return calls


def test_prox_tables_hold_every_kind():
    # The public prox and the array fit look their kernel up by kind in the
    # one prox table.
    assert list(norms._PROX) == list(NormKind)
    assert len(set(norms._PROX.values())) == len(NormKind)


def test_train_json_matches_reference_loop_mixed21_dual_fallback(monkeypatch):
    # At d=50 a few iterations' mixed21 prox leave Newton for the dual FISTA
    # iteration; the reference counts how many.
    reference_dual = oracles._reference_dual_mixed21
    dual_runs = 0

    def counted(*args):
        nonlocal dual_runs
        dual_runs += 1
        return reference_dual(*args)

    monkeypatch.setattr(oracles, "_reference_dual_mixed21", counted)
    calls = _watch_prox(monkeypatch)
    spec = GeneratorSpec(
        kind="two_gaussians", d=50, mean_separation=2.0, noise_sigma=1.0, seed=5
    )
    config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind="mixed21", max_iters=60)
    _assert_json_matches_reference(generate(spec, 100), config)
    assert dual_runs > 0
    # The dual FISTA phase, like the Newton phase, leaves its input as it was.
    assert len(calls) == 60


@pytest.mark.parametrize("kind", ["l1", "fro", "mixed21", "trace"])
def test_train_zero_step_skips_subgradient(monkeypatch, kind):
    # On check-02-shaped data most iterates meet every margin.  An empty
    # hinge mask means a zero subgradient: the next step computes none and
    # hands the iterate itself to the prox.  The array set's hinge and step
    # are wrapped.  The float fit runs its hinge, step and proxes inline,
    # so the reference loop, whose model it matches bit for bit, records
    # the steps, and the float fit is held to them where it calls out or
    # reads a name: trace decomposes once per non-zero step, on the
    # reference's prox input, and mixed21 reads its Newton cap once per
    # prox that the reference solves by Newton, not by a dead row, and
    # calls no kernel.
    config = SimilarityConfig(
        lam=0.05, margin=1.0, norm_kind=kind, max_iters=400, step0=2.0, rel_tol=0.0
    )
    data = _tiny_dataset(make_rng(531), 6)
    with monkeypatch.context() as patch:
        patch.setattr(similarity, "_FLOAT_MAX_MD", 0)
        nonempty = []
        steps = 0
        make_kernels = similarity._array_kernels

        def watched_kernels(scaled, w):
            start, hinge, step = make_kernels(scaled, w)

            def recorded_hinge(a):
                # The summed positive slack, 0 exactly when no margin is
                # violated.
                total = hinge(a)
                nonempty.append(bool(total > 0.0))
                return total

            def counted_step(a, eta):
                nonlocal steps
                steps += 1
                return step(a, eta)

            return start, recorded_hinge, counted_step

        patch.setattr(similarity, "_array_kernels", watched_kernels)
        calls = _watch_prox(patch)
        model = train_similarity(data, config)
    # One mask per iterate, the start included; the last one takes no step.
    assert len(nonempty) == len(calls) + 1 == model.iterations_run + 1
    assert steps == sum(nonempty[:-1])
    assert steps < model.iterations_run
    previous = None
    for (b, _, reused, a), stepped in zip(calls, nonempty):
        assert (b is previous) == (not stepped)
        # Only trace keeps a spectrum, and only a zero step passes it back.
        assert reused == (kind == "trace" and not stepped)
        previous = a

    decomposed = []
    spectrum_floats = similarity._spectrum_floats

    def counted_spectrum(triple):
        decomposed.append(triple)
        return spectrum_floats(triple)

    def refuse(*args):
        raise AssertionError("the float loop called a mixed21 kernel")

    newton = _CountedSteps(similarity._MIXED21_NEWTON_STEPS)
    proxes = []
    with monkeypatch.context() as patch:
        patch.setattr(similarity, "_spectrum_floats", counted_spectrum)
        patch.setattr(similarity, "_MIXED21_NEWTON_STEPS", newton)
        for name in ("_prox_mixed21_triple", "_rescaled", "_dual_mixed21"):
            patch.setattr(similarity, name, refuse)
        assert similarity._uses_floats(data.m, data.d)
        model = _assert_json_matches_reference(data, config, proxes)
    assert len(proxes) == model.iterations_run
    stepped_inputs = [_snapshot(b) for stepped, b, *_ in proxes if stepped]
    assert 0 < len(stepped_inputs) < model.iterations_run
    previous = None
    for stepped, b, _, reused, a in proxes:
        assert (b is previous) == (not stepped)
        assert reused == (kind == "trace" and not stepped)
        previous = a
    triples = [_snapshot(norms._triple_array(t)) for t in decomposed]
    assert triples == (stepped_inputs if kind == "trace" else [])
    if kind == "mixed21":
        solved = [
            oracles._reference_mixed21_dead_row(np.array(b), tau) is None
            for _, b, tau, *_ in proxes
        ]
        assert 0 < sum(solved) < len(solved) and newton.reads == sum(solved)
    else:
        assert newton.reads == 0


class _CountedSteps:
    """A Newton step cap that counts the Newton phases that read it."""

    def __init__(self, steps):
        self.steps = steps
        self.reads = 0

    def __index__(self):
        self.reads += 1
        return self.steps


def test_train_trace_spectrum_reuse_is_the_prox(monkeypatch):
    # On a zero step the trace prox thresholds the spectrum its previous
    # call returned.  Spectral soft-thresholds compose, so that is the prox
    # of the previous output; check it against a fresh eigendecomposition,
    # in the array fit's prox calls and in the reference loop's, which the
    # float fit matches bit for bit.
    for float_max_md, _ in KERNEL_SETS.values():
        with monkeypatch.context() as patch:
            patch.setattr(similarity, "_FLOAT_MAX_MD", float_max_md)
            calls = _watch_prox(patch)
            rng = make_rng(532)
            for m, lam in ((4, 0.05), (5, 0.2), (6, 0.05)):
                config = SimilarityConfig(
                    lam=lam, margin=1.0, norm_kind="trace", max_iters=500, step0=2.0, rel_tol=0.0
                )
                data = _tiny_dataset(rng, m)
                if similarity._uses_floats(m, 2):
                    proxes = []
                    _assert_json_matches_reference(data, config, proxes)
                    calls += [(b, tau, reused, a) for _, b, tau, reused, a in proxes]
                else:
                    train_similarity(data, config)
        reused = [(b, tau, a) for b, tau, spectrum, a in calls if spectrum]
        assert len(reused) > len(calls) // 2
        for b, tau, a in reused:
            a = np.asarray(a)
            tolerance = 1e-12 * max(1.0, norm(a, "trace"))
            assert float(np.max(np.abs(a - prox(np.asarray(b), tau, "trace")))) <= tolerance


def test_config_validation():
    with pytest.raises(ValueError):
        SimilarityConfig(lam=0.0, margin=1.0, norm_kind="l1")
    with pytest.raises(ValueError):
        SimilarityConfig(lam=0.1, margin=-1.0, norm_kind="l1")
    with pytest.raises(ValueError):
        SimilarityConfig(lam=0.1, margin=1.0, norm_kind="l1", max_iters=0)
    with pytest.raises(ValueError):
        SimilarityConfig(lam=0.1, margin=1.0, norm_kind="l1", step0=0.0)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="lambda"):
            SimilarityConfig(lam=value, margin=1.0, norm_kind="l1")
        with pytest.raises(ValueError, match="margin"):
            SimilarityConfig(lam=0.1, margin=value, norm_kind="l1")
        with pytest.raises(ValueError, match="step0"):
            SimilarityConfig(lam=0.1, margin=1.0, norm_kind="l1", step0=value)
    for value in (math.inf, math.nan, -1e-9):
        with pytest.raises(ValueError, match="rel_tol"):
            SimilarityConfig(lam=0.1, margin=1.0, norm_kind="l1", rel_tol=value)
    with pytest.raises(ValueError):
        SimilarityConfig(lam=0.1, margin=1.0, norm_kind="banana")
    for value in (2.5, True, 5.0):
        with pytest.raises(ValueError, match=rf"max_iters must be a positive int below 2\*\*63, got {value}"):
            SimilarityConfig(lam=0.1, margin=1.0, norm_kind="l1", max_iters=value)
    # An int beyond the float range is no finite number.
    for value in (10 ** 400, 2 ** 1024 - 2 ** 970):
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            SimilarityConfig(lam=value, margin=1.0, norm_kind="fro")
        with pytest.raises(ValueError, match="margin must be positive and finite"):
            SimilarityConfig(lam=0.1, margin=value, norm_kind="fro")
    assert SimilarityConfig(lam=2 ** 1024 - 2 ** 970 - 1, margin=1.0, norm_kind="fro").lam > 0
    # A bool is no number, so it is refused rather than trained with as 1.
    with pytest.raises(ValueError, match="lambda must be positive and finite, got True"):
        SimilarityConfig(lam=True, margin=1.0, norm_kind="l1")
    # A model that save_model would write must be one that load_model reads.
    config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind="l1")
    with pytest.raises(ValueError, match="iterations_run must be a nonnegative int, got -5"):
        SimilarityModel(np.zeros((2, 2)), config, final_objective=1.0, iterations_run=-5)
    with pytest.raises(ValueError, match="final_objective must be a finite number, got nan"):
        SimilarityModel(np.zeros((2, 2)), config, final_objective=math.nan, iterations_run=0)
    for value in (math.inf, "1"):
        with pytest.raises(ValueError, match="margin must be positive and finite"):
            empirical_similarity_error(np.zeros((2, 2)), two_point_toy(), value)


def test_true_error_on_train_equals_empirical(rng):
    data = random_dataset(rng, 6, 3)
    a = symmetric_part(rng.standard_normal((3, 3)))
    assert true_similarity_error(a, data, 1.0) == empirical_similarity_error(a, data, 1.0)


def test_true_error_holdout_self_consistency():
    from simbound import GeneratorSpec, generate

    spec_small = GeneratorSpec(kind="two_gaussians", d=3, mean_separation=2.0, noise_sigma=1.0, seed=21)
    spec_large = GeneratorSpec(kind="two_gaussians", d=3, mean_separation=2.0, noise_sigma=1.0, seed=22)
    a = np.array([[0.4, 0.1, 0.0], [0.1, 0.3, -0.2], [0.0, -0.2, 0.5]])
    small = true_similarity_error(a, generate(spec_small, 1000), 1.0)
    large = true_similarity_error(a, generate(spec_large, 100000), 1.0)
    assert abs(small - large) < 0.05


def test_model_round_trip(tmp_path, rng):
    data = random_dataset(rng, 7, 3)
    config = SimilarityConfig(lam=0.2, margin=0.8, norm_kind="trace", max_iters=100)
    model = train_similarity(data, config)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.matrix, model.matrix)
    assert back.final_objective == model.final_objective
    assert back.iterations_run == model.iterations_run
    assert back.config.lam == config.lam
    assert back.config.margin == config.margin
    assert back.config.norm_kind == config.norm_kind


def test_model_load_rejects_missing_field(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"dim": 2, "norm_kind": "l1"}))
    with pytest.raises(ValueError, match="missing field"):
        load_model(path)
