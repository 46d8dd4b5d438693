"""Tests for the L1-constrained separator stage."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

import simbound.separator
from simbound import (
    Dataset,
    GeneratorSpec,
    NumericalError,
    Separator,
    SimilarityConfig,
    SimilarityModel,
    anchor_coefficients,
    classify,
    empirical_hinge_error,
    empirical_similarity_error,
    generate,
    load_separator,
    project_l1_ball,
    save_separator,
    train_separator,
    train_similarity,
    true_hinge_error,
)
from simbound.separator import _values, separator_to_json_dict
from conftest import make_rng, random_dataset
from oracles import (
    grid_separator_oracle,
    naive_separator_value,
    reference_l1_projection,
    reference_separator_alpha,
    sample_l1_ball,
)


def make_model(matrix, lam=0.1, margin=1.0, kind="fro"):
    config = SimilarityConfig(lam=lam, margin=margin, norm_kind=kind)
    return SimilarityModel(
        matrix=np.asarray(matrix, dtype=float),
        config=config,
        final_objective=1.0,
        iterations_run=0,
    )


def test_value_hand_case():
    # Identity matrix, one anchor at e1 with weight 0.5: f(x) = 0.5 * x[0].
    sep = Separator(
        alpha=np.array([0.5]),
        margin=1.0,
        anchor_features=np.array([[1.0, 0.0]]),
        model=make_model(np.eye(2)),
    )
    np.testing.assert_array_equal(_values(sep, np.array([[2.0, 0.0], [0.0, 7.0]])), [1.0, 0.0])


def test_value_matches_naive_oracle():
    for seed in range(6):
        rng = make_rng(400 + seed)
        m, d = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        a = rng.standard_normal((d, d))
        a = (a + a.T) / 2.0
        anchors = rng.standard_normal((m, d))
        alpha = rng.standard_normal(m)
        sep = Separator(
            alpha=alpha, margin=0.5, anchor_features=anchors, model=make_model(a)
        )
        xs = rng.standard_normal((4, d))
        values = _values(sep, xs)
        for x, value in zip(xs, values):
            assert value == pytest.approx(naive_separator_value(alpha, anchors, a, x), abs=1e-12)


def test_value_shape_mismatch():
    sep = Separator(
        alpha=np.array([1.0]),
        margin=1.0,
        anchor_features=np.array([[1.0, 0.0]]),
        model=make_model(np.eye(2)),
    )
    with pytest.raises(ValueError, match="dimension"):
        _values(sep, np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(ValueError, match="dimension"):
        classify(sep, np.array([[1.0, 2.0, 3.0]]))
    # classify takes a matrix of rows, not a single vector.
    with pytest.raises(ValueError, match="2-dimensional"):
        classify(sep, np.array([1.0, 2.0]))


def test_separator_validation():
    model = make_model(np.eye(2))
    with pytest.raises(ValueError):
        Separator(
            alpha=np.array([[1.0]]),
            margin=1.0,
            anchor_features=np.array([[1.0, 0.0]]),
            model=model,
        )
    with pytest.raises(ValueError):
        Separator(
            alpha=np.array([1.0, 2.0]),
            margin=1.0,
            anchor_features=np.array([[1.0, 0.0]]),
            model=model,
        )
    for margin in (0.0, float("inf")):
        with pytest.raises(ValueError, match="margin"):
            Separator(
                alpha=np.array([1.0]),
                margin=margin,
                anchor_features=np.array([[1.0, 0.0]]),
                model=model,
            )
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="alpha must be finite"):
            Separator(
                alpha=np.array([bad, 0.5]),
                margin=1.0,
                anchor_features=np.eye(2),
                model=model,
            )
        with pytest.raises(
            ValueError, match=r"anchor_features must be finite; row 1 \(counting from 0\) is not"
        ):
            Separator(
                alpha=np.array([1.0, 0.5]),
                margin=1.0,
                anchor_features=np.array([[1.0, 0.0], [0.0, bad]]),
                model=model,
            )


def test_classify_signs_and_tie():
    sep = Separator(
        alpha=np.array([1.0]),
        margin=1.0,
        anchor_features=np.array([[1.0, 0.0]]),
        model=make_model(np.eye(2)),
    )
    np.testing.assert_array_equal(classify(sep, np.array([[3.0, 0.0], [-3.0, 0.0]])), [1.0, -1.0])
    zero = Separator(
        alpha=np.array([0.0]),
        margin=1.0,
        anchor_features=np.array([[1.0, 0.0]]),
        model=make_model(np.eye(2)),
    )
    # Exact zero is assigned to the positive class.
    np.testing.assert_array_equal(classify(zero, np.array([[5.0, 5.0], [-5.0, 0.0]])), [1.0, 1.0])


def test_classify_rejects_non_finite_rows():
    sep = Separator(
        alpha=np.array([1.0]),
        margin=1.0,
        anchor_features=np.array([[1.0, 0.0]]),
        model=make_model(np.eye(2)),
    )
    for bad in (float("nan"), float("inf"), -float("inf")):
        features = np.array([[3.0, 0.0], [1.0, 1.0], [bad, 1.0], [0.0, bad]])
        with pytest.raises(ValueError, match=r"features must be finite; row 2 \(counting from 0\)"):
            classify(sep, features)


def test_anchor_coefficients_hand():
    labels = np.array([1.0, -1.0, 1.0])
    alpha0 = anchor_coefficients(labels, 0.5)
    np.testing.assert_array_equal(alpha0, labels / 1.5)
    assert np.abs(alpha0).sum() == pytest.approx(2.0, abs=1e-15)


def test_anchor_coefficients_checks_its_inputs():
    labels = np.array([1.0, -1.0])
    for margin in (0.0, -0.5, float("nan"), float("inf"), "1", None):
        with pytest.raises(ValueError, match="^margin must be positive and finite"):
            anchor_coefficients(labels, margin)
    with pytest.raises(ValueError, match=r"^labels must be a vector, got shape \(2, 1\)"):
        anchor_coefficients(labels[:, None], 1.0)
    with pytest.raises(ValueError, match="^labels must be finite"):
        anchor_coefficients(np.array([1.0, float("nan")]), 1.0)


def test_project_inside_ball_is_identity_copy():
    v = np.array([0.3, -0.2])
    out = project_l1_ball(v, 1.0)
    np.testing.assert_array_equal(out, v)
    out[0] = 99.0
    assert v[0] == 0.3


def test_project_hand_values():
    np.testing.assert_allclose(
        project_l1_ball(np.array([3.0, 0.0]), 1.0), [1.0, 0.0], atol=1e-15
    )
    np.testing.assert_allclose(
        project_l1_ball(np.array([2.0, 1.0]), 1.0), [1.0, 0.0], atol=1e-15
    )


def test_project_radius_validation():
    with pytest.raises(ValueError):
        project_l1_ball(np.array([1.0]), 0.0)
    for v in ([[1.0, 2.0]], 1.0, [np.nan, 1.0], [np.inf, 1.0]):
        with pytest.raises(ValueError, match="v must be"):
            project_l1_ball(v, 1.0)


def test_project_feasible_and_optimal():
    """The projection lands in the ball and beats sampled feasible points."""
    for seed in range(8):
        rng = make_rng(430 + seed)
        n = int(rng.integers(2, 9))
        radius = float(rng.uniform(0.2, 3.0))
        v = rng.standard_normal(n) * rng.uniform(0.5, 4.0)
        p = project_l1_ball(v, radius)
        assert np.abs(p).sum() <= radius + 1e-12
        best = np.sum((v - p) ** 2)
        for _ in range(200):
            q = sample_l1_ball(rng, n, radius)
            assert best <= np.sum((v - q) ** 2) + 1e-9
        # Sign symmetry of the threshold rule.
        np.testing.assert_array_equal(project_l1_ball(-v, radius), -p)


def test_empirical_hinge_alpha_zero_is_one():
    data = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, -1.0]))
    sep = Separator(
        alpha=np.zeros(2),
        margin=1.0,
        anchor_features=data.features,
        model=make_model(np.eye(2)),
    )
    assert empirical_hinge_error(sep, data) == 1.0


def test_empirical_hinge_perfect_scores_zero():
    data = Dataset(np.array([[2.0, 0.0]]), np.array([1.0]))
    sep = Separator(
        alpha=np.array([1.0]),
        margin=1.0,
        anchor_features=data.features,
        model=make_model(np.eye(2)),
    )
    # y * f(x) = 4 >= 1, so the hinge vanishes.
    assert empirical_hinge_error(sep, data) == 0.0


def test_anchor_start_matches_similarity_error():
    """Starting coefficients reproduce the stage-one empirical error exactly."""
    for seed in range(4):
        rng = make_rng(440 + seed)
        data = random_dataset(rng, m=int(rng.integers(3, 9)), d=3)
        for kind in ("l1", "fro", "mixed21", "trace"):
            config = SimilarityConfig(
                lam=0.1, margin=0.8, norm_kind=kind, max_iters=200, rel_tol=0.0
            )
            model = train_similarity(data, config)
            sep = Separator(
                alpha=anchor_coefficients(data.labels, 0.8),
                margin=0.8,
                anchor_features=data.features,
                model=model,
            )
            assert empirical_hinge_error(sep, data) == pytest.approx(
                empirical_similarity_error(model.matrix, data, 0.8), abs=1e-12
            )


def test_train_feasible_and_never_worse_than_start():
    for seed in range(4):
        rng = make_rng(450 + seed)
        data = random_dataset(rng, m=int(rng.integers(3, 9)), d=3, noise=1.0)
        config = SimilarityConfig(lam=0.2, margin=0.5, norm_kind="fro", max_iters=300)
        model = train_similarity(data, config)
        sep = train_separator(model, data, max_iters=400)
        assert np.abs(sep.alpha).sum() <= 1.0 / 0.5 + 1e-9
        start = Separator(
            alpha=anchor_coefficients(data.labels, 0.5),
            margin=0.5,
            anchor_features=data.features,
            model=model,
        )
        trained_err = empirical_hinge_error(sep, data)
        assert trained_err <= empirical_hinge_error(start, data) + 1e-9
        assert trained_err <= empirical_similarity_error(model.matrix, data, 0.5) + 1e-9


def _overlap_instance(seed):
    rng = make_rng(seed)
    labels = np.array([1.0, -1.0, 1.0])
    base = np.array([1.0, -0.4])
    feats = np.vstack(
        [
            base + 0.2 * rng.standard_normal(2),
            -base + 0.2 * rng.standard_normal(2),
            -base + 0.2 * rng.standard_normal(2),
        ]
    )
    return Dataset(feats, labels)


def test_train_beats_grid_oracle_small():
    """On m=3 problems the trained error matches an exhaustive grid search.

    The third point sits in the wrong cluster so the optimal hinge error is
    strictly positive and the comparison is not vacuous.
    """
    for seed in (11, 12, 13, 14, 15):
        data = _overlap_instance(seed)
        for kind in ("fro", "l1"):
            config = SimilarityConfig(
                lam=0.1, margin=1.0, norm_kind=kind,
                max_iters=4000, step0=0.5, rel_tol=0.0,
            )
            model = train_similarity(data, config)
            gram = data.features @ model.matrix @ data.features.T
            grid_min = grid_separator_oracle(gram, data.labels, 1.0, step=0.005)
            sep = train_separator(model, data, max_iters=20000, step0=1.0)
            assert empirical_hinge_error(sep, data) <= grid_min + 1e-3


def test_train_selects_the_hinge_it_reports(monkeypatch):
    """The best iterate's hinge error, as training computed it, is the one
    empirical_hinge_error reports for the returned separator, to the bit."""
    hinge_error = simbound.separator._hinge_error
    recorded = []

    def recording(slack, active):
        recorded.append(hinge_error(slack, active))
        return recorded[-1]

    for kind, seed in itertools.product(("l1", "fro", "mixed21", "trace"), range(6)):
        spec = GeneratorSpec(
            kind="two_gaussians", d=5, mean_separation=2.0, noise_sigma=1.0, seed=490 + seed
        )
        data = generate(spec, 100)
        config = SimilarityConfig(lam=0.1, margin=0.5, norm_kind=kind, max_iters=200)
        model = train_similarity(data, config)
        recorded.clear()
        with monkeypatch.context() as patch:
            patch.setattr(simbound.separator, "_hinge_error", recording)
            sep = train_separator(model, data, max_iters=500)
        assert len(recorded) == 501
        assert min(recorded) == empirical_hinge_error(sep, data)


def test_train_memory_is_linear_in_m():
    # An m x m Gram matrix alone would take 8 m^2 bytes, 128 MB here; the
    # m x d factor takes 160 kB.
    rng = make_rng(495)
    data = random_dataset(rng, m=4000, d=5)
    model = make_model(np.eye(5))
    tracemalloc.start()
    try:
        train_separator(model, data, max_iters=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_train_determinism():
    rng = make_rng(460)
    data = random_dataset(rng, m=6, d=3)
    config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind="l1", max_iters=200)
    model = train_similarity(data, config)
    first = train_separator(model, data, max_iters=500)
    second = train_separator(model, data, max_iters=500)
    np.testing.assert_array_equal(first.alpha, second.alpha)


@pytest.mark.parametrize("kind", ["l1", "fro", "mixed21", "trace"])
def test_train_matches_reference_loop_exactly(kind):
    # Margins 1 and 0.25 give radii 1 and 4: iterates both leave the ball
    # (sort-based projection) and stay inside it (no projection).
    for seed in range(4):
        rng = make_rng(470 + seed)
        data = random_dataset(rng, m=9 + 7 * seed, d=2 + seed, noise=1.0)
        margin = (1.0, 0.25)[seed % 2]
        config = SimilarityConfig(lam=0.1, margin=margin, norm_kind=kind, max_iters=200)
        model = train_similarity(data, config)
        step0 = (1.0, 3.0)[seed // 2]
        sep = train_separator(model, data, max_iters=300, step0=step0)
        expected = reference_separator_alpha(
            data.features, data.labels, model.matrix, margin, 300, step0
        )
        np.testing.assert_array_equal(sep.alpha, expected)


def _assert_json_matches_reference(sep, data, model, margin, max_iters, step0):
    expected = Separator(
        alpha=reference_separator_alpha(
            data.features, data.labels, model.matrix, margin, max_iters, step0
        ),
        margin=margin,
        anchor_features=data.features,
        model=model,
    )
    assert json.dumps(separator_to_json_dict(sep)) == json.dumps(
        separator_to_json_dict(expected)
    )


@pytest.mark.parametrize("kind", ["l1", "fro", "mixed21", "trace"])
def test_train_json_matches_reference_loop(kind):
    # assert_array_equal takes -0.0 and +0.0 as equal; the JSON text does
    # not.  Same cases as test_train_matches_reference_loop_exactly.
    for seed in range(4):
        rng = make_rng(470 + seed)
        data = random_dataset(rng, m=9 + 7 * seed, d=2 + seed, noise=1.0)
        margin = (1.0, 0.25)[seed % 2]
        config = SimilarityConfig(lam=0.1, margin=margin, norm_kind=kind, max_iters=200)
        model = train_similarity(data, config)
        step0 = (1.0, 3.0)[seed // 2]
        sep = train_separator(model, data, max_iters=300, step0=step0)
        _assert_json_matches_reference(sep, data, model, margin, 300, step0)
    # One and two points in one and two dimensions, where a zero product
    # may be -0.0: at m = d = 1 every product is a 1 x 1 multiplication.
    for m, d, scale in itertools.product((1, 2), (1, 2), (1.0, -1.0, 0.0)):
        rng = make_rng(480 + m)
        data = Dataset(rng.standard_normal((m, d)), np.array([-1.0, 1.0][:m]))
        model = make_model(scale * np.eye(d), kind=kind)
        sep = train_separator(model, data, max_iters=50, step0=3.0)
        _assert_json_matches_reference(sep, data, model, 1.0, 50, 3.0)


def test_project_matches_reference_exactly(rng):
    for n in (1, 2, 5, 40):
        for radius in (0.1, 1.0, 3.0):
            v = rng.standard_normal(n) * rng.uniform(0.1, 4.0)
            np.testing.assert_array_equal(
                project_l1_ball(v, radius), reference_l1_projection(v, radius)
            )
    # Exact zeros, -0.0 entries (kept inside the ball, +0.0 outside it) and
    # tied magnitudes; thresholded negative entries come out as -0.0.
    for v, radius in (
        ([0.0, 3.0, -0.0, -2.0], 1.0),
        ([-0.0, -0.0, 5.0], 2.0),
        ([-0.0, 0.5, -0.25], 1.0),
        ([2.0, -2.0, 2.0, 1.0], 1.0),
        ([1.0, -1.0], 1.0),
        ([-1.5, 1.5, -1.5], 3.0),
        ([-0.5, 3.0, -0.5, 0.0], 1.0),
        ([0.0, -0.0, 0.0], 1.0),
    ):
        v = np.array(v)
        out, expected = project_l1_ball(v, radius), reference_l1_projection(v, radius)
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(expected))


def test_project_lost_precision_raises():
    # u - radius rounds to u, so the threshold rule holds at no index.
    for v in ([1e17], [1e17, -3e17, 5.0]):
        with pytest.raises(NumericalError, match="L1-ball projection lost precision"):
            project_l1_ball(np.array(v), 1.0)


def test_train_validation():
    rng = make_rng(461)
    data = random_dataset(rng, m=4, d=3)
    model = make_model(np.eye(3))
    with pytest.raises(ValueError):
        train_separator(make_model(np.eye(2)), data)
    with pytest.raises(ValueError):
        train_separator(model, data, max_iters=0)
    for value in (2.5, True, 5.0):
        with pytest.raises(ValueError, match=rf"max_iters must be a positive int below 2\*\*63, got {value}"):
            train_separator(model, data, max_iters=value)
    with pytest.raises(ValueError):
        train_separator(model, data, step0=0.0)
    with pytest.raises(ValueError, match="step0"):
        train_separator(model, data, step0=float("inf"))


def test_train_non_finite_raises():
    feats = np.array([[1e160, 0.0], [0.0, -1e160]])
    data = Dataset(feats, np.array([1.0, -1.0]))
    model = make_model(np.eye(2))
    with np.errstate(all="ignore"), pytest.raises(NumericalError):
        train_separator(model, data, max_iters=10)
    # The anchor sum X^T alpha0 overflows to inf in both entries, and the
    # rows of y x^T A = (x_1, -x_2) meet it with opposite signs: every
    # starting slack is NaN, and so is the hinge mask.
    data = Dataset(np.array([[10.0, 10.0], [20.0, 20.0]]), np.array([1.0, 1.0]))
    model = make_model(np.diag([1.0, -1.0]), margin=1e-308)
    with np.errstate(all="ignore"):
        anchor_sum = data.features.T.dot(anchor_coefficients(data.labels, 1e-308))
        slack = 1.0 - (data.labels[:, None] * data.features @ model.matrix).dot(anchor_sum)
    assert np.isinf(anchor_sum).all() and np.isnan(slack).all()
    with np.errstate(all="ignore"), pytest.raises(
        NumericalError, match="non-finite hinge error at the starting point"
    ):
        train_separator(model, data, max_iters=10)
    # A finite start whose first step overflows the coefficients.
    data = random_dataset(make_rng(476), m=50, d=3)
    with np.errstate(all="ignore"), pytest.raises(
        NumericalError, match=r"non-finite coefficients at iteration 1; try a smaller step0 than 1e\+308"
    ):
        train_separator(make_model(np.eye(3)), data, step0=1e308)


def test_true_hinge_error_holdout_consistency():
    def spec(seed):
        return GeneratorSpec(
            kind="two_gaussians", d=3, mean_separation=2.0, noise_sigma=1.0, seed=seed
        )

    data = generate(spec(462), 50)
    config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind="fro", max_iters=300)
    model = train_similarity(data, config)
    sep = train_separator(model, data, max_iters=300)
    small = true_hinge_error(sep, generate(spec(463), 1000))
    large = true_hinge_error(sep, generate(spec(464), 100000))
    assert abs(small - large) < 0.05
    with pytest.raises(ValueError):
        true_hinge_error(sep, Dataset(np.empty((0, 3)), np.empty(0)))


def test_round_trip(tmp_path):
    rng = make_rng(465)
    data = random_dataset(rng, m=5, d=2)
    config = SimilarityConfig(lam=0.15, margin=0.7, norm_kind="trace", max_iters=200)
    model = train_similarity(data, config)
    sep = train_separator(model, data, max_iters=200)
    path = tmp_path / "sep.json"
    save_separator(sep, path)
    back = load_separator(path)
    np.testing.assert_array_equal(back.alpha, sep.alpha)
    np.testing.assert_array_equal(back.anchor_features, sep.anchor_features)
    np.testing.assert_array_equal(back.model.matrix, sep.model.matrix)
    assert back.margin == sep.margin
    assert back.model.config.norm_kind == sep.model.config.norm_kind


def test_load_missing_field_raises(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"alpha": [1.0], "margin": 1.0}')
    with pytest.raises(ValueError, match="anchor_features"):
        load_separator(path)
