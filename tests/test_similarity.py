import json
import math

import numpy as np
import pytest

from simbound import (
    Dataset,
    NumericalError,
    SimilarityConfig,
    empirical_similarity_error,
    hinge_subgradient,
    load_model,
    save_model,
    similarity_objective,
    symmetrize,
    train_similarity,
    true_similarity_error,
)
from conftest import assert_model_invariants, make_rng, random_dataset
from oracles import (
    fd_inner_product,
    grid_similarity_oracle,
    naive_similarity_error,
    naive_subgradient,
)


def two_point_toy():
    return Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, -1.0]))


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
        a = symmetrize(rng.standard_normal((d, d)))
        margin = float(rng.uniform(0.3, 2.0))
        ours = empirical_similarity_error(a, data, margin)
        naive = naive_similarity_error(a, data.features, data.labels, margin)
        assert ours == pytest.approx(naive, abs=1e-12)


def test_empirical_error_convex(rng):
    for _ in range(30):
        d = int(rng.integers(2, 4))
        data = random_dataset(rng, int(rng.integers(2, 7)), d)
        a1 = symmetrize(rng.standard_normal((d, d)))
        a2 = symmetrize(rng.standard_normal((d, d)))
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
        a = symmetrize(rng.standard_normal((d, d)))
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
        a = symmetrize(rng.standard_normal((2, 2)) * 5.0)
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
        a = symmetrize(rng.standard_normal((d, d)))
        ours = hinge_subgradient(a, data, 1.0)
        naive = naive_subgradient(a, data.features, data.labels, 1.0)
        assert np.max(np.abs(ours - naive)) < 1e-12


def test_subgradient_finite_differences(rng):
    checked = 0
    while checked < 25:
        d = int(rng.integers(2, 4))
        data = random_dataset(rng, int(rng.integers(2, 6)), d)
        a = symmetrize(rng.standard_normal((d, d)))
        margin = 1.0
        m = data.m
        w = data.features.T @ data.labels
        arg = 1.0 - data.labels * (data.features @ (a @ w)) / (m * margin)
        if np.min(np.abs(arg)) < 1e-3:
            continue  # too close to a hinge kink for finite differences
        g = hinge_subgradient(a, data, margin)
        direction = symmetrize(rng.standard_normal((d, d)))
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


def test_train_non_finite_raises():
    data = Dataset(np.array([[1e8, 0.0], [0.0, 1e8]]), np.array([1.0, -1.0]))
    config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind="l1", max_iters=10, step0=1e300)
    with np.errstate(all="ignore"), pytest.raises(NumericalError):
        train_similarity(data, config)


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
        with pytest.raises(ValueError, match=f"max_iters must be a positive int, got {value}"):
            SimilarityConfig(lam=0.1, margin=1.0, norm_kind="l1", max_iters=value)


def test_true_error_on_train_equals_empirical(rng):
    data = random_dataset(rng, 6, 3)
    a = symmetrize(rng.standard_normal((3, 3)))
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
