"""Tests for the certificate machinery: X*, Rademacher estimates, bounds."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from simbound import (
    BoundReport,
    Dataset,
    SimilarityConfig,
    SimilarityModel,
    build_bound_report,
    dual_norm_rank1,
    khinchin_check,
    rademacher_analytic,
    rademacher_empirical,
    report_to_json_dict,
    save_report,
    theorem1_bound,
    theorem2_bound,
    train_similarity,
    x_star,
)
from simbound.bounds import _analytic_estimate
from simbound.data import _rademacher_signs, philox_generator
from conftest import make_rng, random_dataset
from oracles import reference_philox_signs, reference_rademacher_empirical


def test_x_star_hand_values():
    data = Dataset(np.array([[1.0, 2.0], [-3.0, 0.0]]), np.array([1.0, -1.0]))
    assert x_star(data, "l1") == 9.0
    single = Dataset(np.array([[3.0, 4.0]]), np.array([1.0]))
    assert x_star(single, "fro") == 25.0
    assert x_star(single, "trace") == 25.0
    # Mixed kind multiplies the two maxima instead of squaring one of them.
    assert x_star(single, "mixed21") == pytest.approx(4.0 * 5.0, abs=1e-12)
    zeros = Dataset(np.zeros((3, 2)), np.array([1.0, -1.0, 1.0]))
    for kind in ("l1", "fro", "mixed21", "trace"):
        assert x_star(zeros, kind) == 0.0


@pytest.mark.parametrize("kind", ["l1", "fro", "mixed21", "trace"])
def test_x_star_is_sup_over_pairs(kind):
    # Each pair is scored on two single vectors, which may round the
    # Euclidean factor one ulp away from the row-wise norm.
    for seed in range(4):
        rng = make_rng(530 + seed)
        data = random_dataset(rng, m=int(rng.integers(1, 12)), d=int(rng.integers(1, 6)))
        expected = max(
            dual_norm_rank1(x, x2, kind) for x in data.features for x2 in data.features
        )
        assert abs(x_star(data, kind) - expected) <= 2 * math.ulp(expected)


@pytest.mark.parametrize("kind", ["l1", "fro", "mixed21", "trace"])
def test_rademacher_single_draw_is_sup_over_sample(kind):
    for seed in range(4):
        rng = make_rng(540 + seed)
        data = random_dataset(rng, m=int(rng.integers(1, 30)), d=int(rng.integers(1, 6)))
        v = (reference_philox_signs(seed, data.m) * data.labels) @ data.features / data.m
        expected = max(dual_norm_rank1(v, x, kind) for x in data.features)
        assert rademacher_empirical(data, kind, mc_draws=1, seed=seed)[0] == expected


def test_rademacher_empirical_single_point():
    data = Dataset(np.array([[1.0, 0.0]]), np.array([1.0]))
    estimate, std_error = rademacher_empirical(data, "l1", mc_draws=64, seed=5)
    assert estimate == 1.0
    assert std_error == 0.0


def test_rademacher_empirical_exact_mean_two_points():
    """m=2 with identical scalar features: the average is exactly 0.5."""
    data = Dataset(np.array([[1.0], [1.0]]), np.array([1.0, 1.0]))
    estimate, std_error = rademacher_empirical(data, "l1", mc_draws=100000, seed=3)
    assert std_error > 0
    assert abs(estimate - 0.5) <= 3.0 * std_error


def test_rademacher_empirical_single_draw_zero_std_error():
    rng = make_rng(470)
    data = random_dataset(rng, m=5, d=3)
    _, std_error = rademacher_empirical(data, "fro", mc_draws=1, seed=0)
    assert std_error == 0.0


def test_rademacher_empirical_determinism():
    rng = make_rng(471)
    data = random_dataset(rng, m=8, d=4)
    first = rademacher_empirical(data, "mixed21", mc_draws=200, seed=9)
    second = rademacher_empirical(data, "mixed21", mc_draws=200, seed=9)
    assert first == second


@pytest.mark.parametrize("kind", ["l1", "fro", "mixed21", "trace"])
def test_rademacher_empirical_matches_one_stream(kind):
    for seed, (m, d) in zip((0, 7, 2 ** 63 + 11, 2 ** 64 - 1), ((1, 1), (13, 4), (100, 5), (37, 9))):
        data = random_dataset(make_rng(470 + m), m=m, d=d)
        for mc_draws in (1, 3, 64):
            expected = reference_rademacher_empirical(
                data.features, data.labels, kind, mc_draws, seed
            )
            assert rademacher_empirical(data, kind, mc_draws, seed) == expected


def test_rademacher_signs_prefix_of_longer_draw():
    # An odd row length leaves half of a 64-bit output buffered between
    # rows; the rows must still follow one another on the stream.
    for seed in (0, 123456789, 2 ** 64 - 1):
        for n in (1, 3, 7, 101):
            longer = _rademacher_signs(philox_generator(seed), (64, n))
            for k in (1, 2, 5, 63):
                np.testing.assert_array_equal(
                    longer[:k], _rademacher_signs(philox_generator(seed), (k, n))
                )


def test_rademacher_trace_equals_frobenius():
    """Rank-1 dual values coincide, so the whole MC average does too."""
    for seed in range(3):
        rng = make_rng(480 + seed)
        data = random_dataset(rng, m=6, d=3)
        est_t, se_t = rademacher_empirical(data, "trace", mc_draws=50, seed=seed)
        est_f, se_f = rademacher_empirical(data, "fro", mc_draws=50, seed=seed)
        assert est_t == pytest.approx(est_f, abs=1e-12)
        assert se_t == pytest.approx(se_f, abs=1e-12)


def test_rademacher_empirical_below_analytic():
    for seed in range(4):
        rng = make_rng(490 + seed)
        data = random_dataset(rng, m=int(rng.integers(5, 40)), d=int(rng.integers(2, 6)))
        for kind in ("l1", "fro", "mixed21"):
            estimate, std_error = rademacher_empirical(data, kind, mc_draws=400, seed=seed)
            assert estimate <= rademacher_analytic(data, kind) + 3.0 * std_error


def test_rademacher_empirical_validation():
    data = Dataset(np.array([[1.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        rademacher_empirical(data, "l1", mc_draws=0)
    for value in (2.5, True):
        with pytest.raises(ValueError, match=rf"mc_draws must be a positive int below 2\*\*63, got {value}"):
            rademacher_empirical(data, "l1", mc_draws=value)
    with pytest.raises(ValueError, match="seed must be an int"):
        rademacher_empirical(data, "l1", mc_draws=4, seed=1.5)


def test_rademacher_analytic_hand_values():
    data = Dataset(np.array([[1.0, 0.0]]), np.array([1.0]))
    scaled = Dataset(np.tile(data.features, (100, 1)), np.ones(100))
    assert rademacher_analytic(scaled, "fro") == pytest.approx(0.2, abs=1e-15)
    # Choosing m = e*ln(d+1) makes the radical collapse to 1.
    assert _analytic_estimate(
        "l1", 1.0, 1.0, 1.0, math.e * math.log(4.0), 3
    ) == pytest.approx(2.0, abs=1e-15)
    zeros = Dataset(np.zeros((4, 3)), np.array([1.0, -1.0, 1.0, -1.0]))
    for kind in ("l1", "fro", "mixed21", "trace"):
        assert rademacher_analytic(zeros, kind) == 0.0


def test_rademacher_analytic_trace_formula():
    rng = make_rng(495)
    data = random_dataset(rng, m=7, d=3)
    row_norms = np.linalg.norm(data.features, axis=1)
    expected = row_norms.max() * math.sqrt(np.sum(row_norms ** 2)) / data.m
    assert rademacher_analytic(data, "trace") == pytest.approx(expected, abs=1e-14)


def test_theorem1_hand_value():
    value = theorem1_bound(1.0, 0.2, 1.0, 0.1, 0.05, 100)
    expected = 12.0 + 20.0 * math.sqrt(2.0 * math.log(20.0) / 100.0)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(16.895493661361634, rel=1e-12)
    assert theorem1_bound(0.0, 0.0, 1.0, 0.1, 0.05, 100) == 0.0


def test_theorem1_doubling_lambda_halves():
    for lam in (0.05, 0.1, 0.3):
        full = theorem1_bound(1.3, 0.4, 0.7, lam, 0.05, 64)
        assert theorem1_bound(1.3, 0.4, 0.7, 2 * lam, 0.05, 64) == full / 2.0


def test_theorem2_hand_value():
    value = theorem2_bound(0.5, 1.0, 0.2, 1.0, 0.1, 0.05, 100)
    expected = 0.5 + 8.0 + 20.0 * math.sqrt(2.0 * math.log(20.0) / 100.0)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(13.395493661361634, rel=1e-12)
    assert theorem2_bound(1.0, 0.0, 0.0, 1.0, 0.1, 0.05, 100) == 1.0


def test_theorem2_unit_slope_in_error_term():
    base = theorem2_bound(0.0, 0.6, 0.1, 1.0, 0.2, 0.1, 50)
    assert theorem2_bound(0.25, 0.6, 0.1, 1.0, 0.2, 0.1, 50) == base + 0.25


def test_bound_domain_violations():
    with pytest.raises(ValueError):
        theorem1_bound(1.0, 0.1, 0.0, 0.1, 0.05, 10)
    with pytest.raises(ValueError):
        theorem1_bound(1.0, 0.1, 1.0, -0.1, 0.05, 10)
    with pytest.raises(ValueError):
        theorem1_bound(1.0, 0.1, 1.0, 0.1, 0.0, 10)
    with pytest.raises(ValueError):
        theorem1_bound(1.0, 0.1, 1.0, 0.1, 1.0, 10)
    with pytest.raises(ValueError):
        theorem1_bound(1.0, 0.1, 1.0, 0.1, 0.05, 0)
    with pytest.raises(ValueError):
        theorem2_bound(-0.1, 1.0, 0.1, 1.0, 0.1, 0.05, 10)
    # A non-finite margin or lambda would make the certificate vacuous.
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="margin"):
            theorem1_bound(1.0, 0.1, value, 0.1, 0.05, 10)
        with pytest.raises(ValueError, match="lambda"):
            theorem2_bound(0.1, 1.0, 0.1, 1.0, value, 0.05, 10)
    with pytest.raises(ValueError, match="e_z_of_a must be nonnegative and finite, got nan"):
        theorem2_bound(math.nan, 1.0, 0.1, 1.0, 0.1, 0.05, 10)
    # X* and R_m scale the bound; a NaN, an infinity or a negative value
    # would give a NaN, an infinite or a negative "bound".
    for value in (math.nan, math.inf, -1.0):
        for name, args in (("x_star", (value, 0.1)), ("r_m", (1.0, value))):
            message = f"{name} must be nonnegative and finite, got {value!r}$"
            with pytest.raises(ValueError, match=message):
                theorem1_bound(*args, 1.0, 0.1, 0.05, 10)
            with pytest.raises(ValueError, match=message):
                theorem2_bound(0.1, *args, 1.0, 0.1, 0.05, 10)


def test_khinchin_hand_example():
    lhs, rhs, holds = khinchin_check(np.array([1.0, 1.0]), 2.0, 4.0)
    assert lhs == pytest.approx(8.0 ** 0.25, rel=1e-12)
    assert rhs == pytest.approx(math.sqrt(6.0), rel=1e-12)
    assert holds


def test_khinchin_single_entry_and_zero():
    lhs, rhs, holds = khinchin_check(np.array([-2.5]), 1.5, 3.0)
    assert lhs == pytest.approx(2.5, rel=1e-12)
    assert rhs == pytest.approx(math.sqrt(4.0) * 2.5, rel=1e-12)
    assert holds
    lhs, rhs, holds = khinchin_check(np.zeros(3), 2.0, 4.0)
    assert lhs == 0.0 and rhs == 0.0 and holds


def test_khinchin_matches_brute_force():
    """The doubling enumeration agrees with itertools over all sign vectors."""
    for seed in range(5):
        rng = make_rng(500 + seed)
        n = int(rng.integers(1, 8))
        f = rng.standard_normal(n)
        p = float(rng.choice([1.5, 2.0]))
        q = float(rng.choice([3.0, 4.0, 6.0]))
        lhs, rhs, _ = khinchin_check(f, p, q)
        sums = [
            sum(s * v for s, v in zip(signs, f))
            for signs in itertools.product([1.0, -1.0], repeat=n)
        ]
        mags = np.abs(np.array(sums))
        assert lhs == pytest.approx(np.mean(mags ** q) ** (1 / q), rel=1e-12)
        assert rhs == pytest.approx(
            math.sqrt((q - 1) / (p - 1)) * np.mean(mags ** p) ** (1 / p), rel=1e-12
        )


def test_khinchin_property_random():
    rng = make_rng(510)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        f = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
        p = float(rng.choice([1.5, 2.0]))
        q = float(rng.choice([3.0, 4.0, 6.0]))
        lhs, rhs, holds = khinchin_check(f, p, q)
        assert holds
        assert lhs <= rhs + 1e-12


def test_khinchin_mc_mode():
    exact_lhs, exact_rhs, _ = khinchin_check(np.array([1.0, 1.0]), 2.0, 4.0)
    lhs, rhs, holds = khinchin_check(
        np.array([1.0, 1.0]), 2.0, 4.0, mode="mc", mc_draws=40000, seed=2
    )
    assert lhs == pytest.approx(exact_lhs, rel=0.05)
    assert rhs == pytest.approx(exact_rhs, rel=0.05)
    again = khinchin_check(np.array([1.0, 1.0]), 2.0, 4.0, mode="mc", mc_draws=40000, seed=2)
    assert (lhs, rhs, holds) == again


def test_khinchin_names_an_order_that_is_not_a_number():
    f = np.ones(2)
    for bad in ("2", None, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^p must be a finite number"):
            khinchin_check(f, bad, 4.0)
        with pytest.raises(ValueError, match="^q must be a finite number"):
            khinchin_check(f, 2.0, bad)


def test_khinchin_validation():
    f = np.ones(2)
    with pytest.raises(ValueError):
        khinchin_check(f, 1.0, 2.0)
    with pytest.raises(ValueError):
        khinchin_check(f, 2.0, 2.0)
    with pytest.raises(ValueError):
        khinchin_check(np.ones(21), 2.0, 4.0, mode="exact")
    with pytest.raises(ValueError, match=r"f must be a nonempty vector, got shape \(0,\)"):
        khinchin_check(np.empty(0), 2.0, 4.0)
    with pytest.raises(ValueError):
        khinchin_check(f, 2.0, 4.0, mode="nope")
    with pytest.raises(ValueError):
        khinchin_check(f, 2.0, 4.0, mode="mc", mc_draws=0)
    with pytest.raises(ValueError, match=r"mc_draws must be a positive int below 2\*\*63, got 2.5"):
        khinchin_check(f, 2.0, 4.0, mode="mc", mc_draws=2.5)
    with pytest.raises(ValueError):
        khinchin_check(f, 2.0, math.inf)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="f must be finite"):
            khinchin_check(np.array([value, 1.0]), 2.0, 4.0)


def _trained_pair(seed, kind="fro"):
    rng = make_rng(seed)
    data = random_dataset(rng, m=12, d=3)
    config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind=kind, max_iters=300)
    return train_similarity(data, config), data


def test_khinchin_exact_mode_builds_no_generator(monkeypatch):
    import simbound.bounds as bounds

    def no_generator(seed):
        raise AssertionError("exact mode built a generator")

    monkeypatch.setattr(bounds, "philox_generator", no_generator)
    lhs, rhs, holds = khinchin_check([1.0, 1.0], 2.0, 4.0, seed=5)
    assert holds and lhs == 2.0 ** 0.75
    # The seed is still checked, by its rule alone.
    for seed in (-1, 2 ** 128, 1.5):
        with pytest.raises(ValueError, match=r"seed must be an int in \[0, 2\*\*128\)"):
            khinchin_check([1.0, 1.0], 2.0, 4.0, seed=seed)


def test_build_report_internal_consistency():
    model, data = _trained_pair(520)
    report = build_bound_report(model, data, delta=0.05, mc_draws=300, seed=4)
    assert report.r_m_used == min(report.r_m_empirical, report.r_m_analytic)
    assert report.theorem1_bound == theorem1_bound(
        report.x_star, report.r_m_used, report.margin, report.lam, report.delta, report.m
    )
    assert report.theorem2_bound == theorem2_bound(
        report.empirical_error,
        report.x_star,
        report.r_m_used,
        report.margin,
        report.lam,
        report.delta,
        report.m,
    )
    assert report.m == data.m
    assert report.mc_draws == 300


def test_build_report_determinism():
    model, data = _trained_pair(521, kind="l1")
    first = build_bound_report(model, data, delta=0.1, mc_draws=150, seed=7)
    second = build_bound_report(model, data, delta=0.1, mc_draws=150, seed=7)
    for field in dataclasses.fields(BoundReport):
        assert getattr(first, field.name) == getattr(second, field.name)


def test_unknown_kind_is_named_by_its_rule():
    model, data = _trained_pair(521, kind="l1")
    report = build_bound_report(model, data, mc_draws=8)
    for call in (
        lambda kind: x_star(data, kind),
        lambda kind: rademacher_empirical(data, kind, 8),
        lambda kind: rademacher_analytic(data, kind),
    ):
        with pytest.raises(ValueError, match="^kind must be a norm kind, got 'banana'$"):
            call("banana")
    with pytest.raises(ValueError, match="^norm_kind must be a norm kind, got 'banana'$"):
        dataclasses.replace(report, norm_kind="banana")


def test_build_report_zero_features():
    """Certificates degenerate to the bare training error without signal."""
    data = Dataset(np.zeros((4, 2)), np.array([1.0, -1.0, 1.0, -1.0]))
    config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind="fro", max_iters=50)
    model = SimilarityModel(
        matrix=np.zeros((2, 2)), config=config, final_objective=1.0, iterations_run=50
    )
    report = build_bound_report(model, data, mc_draws=32, seed=0)
    assert report.x_star == 0.0
    assert report.r_m_empirical == 0.0
    assert report.r_m_analytic == 0.0
    assert report.theorem1_bound == 0.0
    assert report.empirical_error == 1.0
    assert report.theorem2_bound == 1.0


def test_build_report_validation():
    model, data = _trained_pair(522)
    with pytest.raises(ValueError):
        build_bound_report(model, data, delta=1.5)
    other = Dataset(np.zeros((2, 5)), np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        build_bound_report(model, other)
    with pytest.raises(ValueError, match=r"mc_draws must be a positive int below 2\*\*63, got 2.5"):
        build_bound_report(model, data, mc_draws=2.5)


def test_build_report_checks_delta_before_drawing(monkeypatch):
    import simbound.bounds as bounds

    def no_draws(*args):
        raise AssertionError("the Monte-Carlo draws ran before delta was checked")

    monkeypatch.setattr(bounds, "rademacher_empirical", no_draws)
    model, data = _trained_pair(524)
    for delta in (2.0, 0.0, math.nan):
        with pytest.raises(ValueError, match=rf"delta must be in \(0, 1\), got {delta}"):
            build_bound_report(model, data, delta=delta, mc_draws=2 ** 40)


def test_report_json_round_trip(tmp_path):
    model, data = _trained_pair(523, kind="trace")
    report = build_bound_report(model, data, mc_draws=100, seed=1)
    doc = report_to_json_dict(report)
    assert tuple(doc) == (
        "norm_kind", "x_star", "r_m_empirical", "r_m_std_error", "r_m_analytic",
        "r_m_used", "empirical_error", "delta", "m", "lambda", "margin",
        "theorem1_bound", "theorem2_bound", "mc_draws", "seed",
    )
    path = tmp_path / "report.json"
    save_report(report, path)
    parsed = json.loads(path.read_text())
    assert parsed["lambda"] == report.lam
    assert parsed["theorem1_bound"] == report.theorem1_bound
    assert parsed["norm_kind"] == "trace"
