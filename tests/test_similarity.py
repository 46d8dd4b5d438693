import json
import math

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


def _assert_json_matches_reference(data, config):
    # The JSON text tells -0.0 from +0.0, which assert_array_equal does not.
    model = train_similarity(data, config)
    matrix, objective, iterations = reference_train_similarity(
        data.features, data.labels, config.lam, config.margin, config.norm_kind.value,
        config.max_iters, config.step0, config.rel_tol,
        floats=similarity._uses_floats(data.m, data.d),
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


# Each stage-one kernel set: the float set's size bound that forces it, the
# module name of the function that makes its kernels, and its prox table.
KERNEL_SETS = {
    "arrays": (0, "_array_kernels", norms._PROX),
    "floats": (10 ** 9, "_float_kernels", norms._PROX_FLOATS),
}


@pytest.mark.parametrize("kind", ["l1", "fro", "mixed21", "trace"])
def test_train_json_matches_reference_loop(monkeypatch, kind):
    # Check-02-shaped fits run the float kernels, and again the array
    # kernels with the float set switched off.
    for float_max_md, *_ in KERNEL_SETS.values():
        monkeypatch.setattr(similarity, "_FLOAT_MAX_MD", float_max_md)
        rng = make_rng(530)
        for m in range(1, 7):
            config = SimilarityConfig(
                lam=(0.05, 0.2)[m % 2], margin=1.0, norm_kind=kind, max_iters=2000, step0=2.0,
                rel_tol=0.0,
            )
            data = _tiny_dataset(rng, m)
            assert similarity._uses_floats(m, 2) == bool(float_max_md)
            _assert_json_matches_reference(data, config)
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


def test_float_trace_fits_call_lapack_only_from_d3(monkeypatch):
    # Check-02-shaped trace fits (d = 2) decompose in closed form, so they
    # run with norms._eigh refusing; a d = 3 fit of the float set calls it.
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
    assert similarity._uses_floats(6, 3)
    train_similarity(random_dataset(rng, 6, 3), config)
    assert calls and set(calls) == {(3, 3)}


def test_train_chooses_kernel_set_by_size(monkeypatch):
    # Floats up to d = 4 and m * d = _FLOAT_MAX_MD, arrays beyond either.
    chosen = []
    for name in ("_float_kernels", "_array_kernels"):
        kernels = getattr(similarity, name)

        def recorded(scaled, w, name=name, kernels=kernels):
            chosen.append((name, scaled.shape))
            return kernels(scaled, w)

        monkeypatch.setattr(similarity, name, recorded)
    limit = similarity._FLOAT_MAX_MD
    d_max = similarity._FLOAT_MAX_D
    shapes = {
        (limit, 1): "_float_kernels",
        (limit + 1, 1): "_array_kernels",
        (limit // 2, 2): "_float_kernels",
        (limit // 2 + 1, 2): "_array_kernels",
        (limit // d_max, d_max): "_float_kernels",
        (limit // d_max + 1, d_max): "_array_kernels",
        (1, d_max + 1): "_array_kernels",
    }
    rng = make_rng(533)
    for (m, d), name in shapes.items():
        config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind="fro", max_iters=3)
        model = train_similarity(random_dataset(rng, m, d), config)
        assert chosen.pop() == (name, (m, d))
        assert type(model.matrix) is np.ndarray and model.matrix.shape == (d, d)
    assert chosen == []


def test_mixed21_at_d5_keeps_the_array_kernel_set(monkeypatch):
    # The mixed21 prox runs its Newton phase on floats up to d = 5, but
    # stage one keeps the d <= 4 bound of its own scan: m = 4, d = 5 is
    # within _FLOAT_MAX_MD and still runs the array set.
    assert similarity._FLOAT_MAX_D == 4 < norms._MIXED21_FLOAT_MAX_D == 5
    assert 4 * 5 <= similarity._FLOAT_MAX_MD
    chosen = []
    for name in ("_float_kernels", "_array_kernels"):
        kernels = getattr(similarity, name)

        def recorded(scaled, w, name=name, kernels=kernels):
            chosen.append(name)
            return kernels(scaled, w)

        monkeypatch.setattr(similarity, name, recorded)
    config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind="mixed21", max_iters=3)
    model = train_similarity(random_dataset(make_rng(534), 4, 5), config)
    assert chosen == ["_array_kernels"] and model.matrix.shape == (5, 5)


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


def _snapshot(x):
    # The bytes of an array or of a list of rows, signs of zero included.
    return np.asarray(x, dtype=float).tobytes()


def _watch_prox(monkeypatch):
    """Record every prox stage one makes, in either kernel set, checking that
    none writes its input.

    Wraps every entry of both prox tables, which stage one reads once per
    fit.  Each record is (input, tau, whether a spectrum was passed, output).
    """
    calls = []
    for _, _, table in KERNEL_SETS.values():
        for kind, prox_kernel in table.items():

            def watched(b, tau, spectrum=None, prox_kernel=prox_kernel):
                before = _snapshot(b)
                saved = None if spectrum is None else [_snapshot(part) for part in spectrum]
                result = prox_kernel(b, tau, spectrum)
                assert _snapshot(b) == before
                assert saved is None or [_snapshot(part) for part in spectrum] == saved
                calls.append((b, tau, spectrum is not None, result[0]))
                return result

            monkeypatch.setitem(table, kind, watched)
    return calls


def test_prox_tables_hold_every_kind():
    # Stage one and the public prox look their kernel up by kind, in the
    # array table or the float table.
    for _, _, table in KERNEL_SETS.values():
        assert list(table) == list(NormKind)
        assert len(set(table.values())) == len(NormKind)


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
    # hands the iterate itself to the prox.  Both kernel sets; the hinge
    # and step that each set hands out are wrapped.
    for float_max_md, kernels_name, _ in KERNEL_SETS.values():
        with monkeypatch.context() as patch:
            patch.setattr(similarity, "_FLOAT_MAX_MD", float_max_md)
            nonempty = []
            steps = 0
            make_kernels = getattr(similarity, kernels_name)

            def watched_kernels(scaled, w, make_kernels=make_kernels):
                start, hinge, step, table = make_kernels(scaled, w)

                def recorded_hinge(a):
                    # The summed positive slack, 0 exactly when no margin
                    # is violated.
                    total = hinge(a)
                    nonempty.append(bool(total > 0.0))
                    return total

                def counted_step(a, eta):
                    nonlocal steps
                    steps += 1
                    return step(a, eta)

                return start, recorded_hinge, counted_step, table

            patch.setattr(similarity, kernels_name, watched_kernels)
            calls = _watch_prox(patch)
            config = SimilarityConfig(
                lam=0.05, margin=1.0, norm_kind=kind, max_iters=400, step0=2.0, rel_tol=0.0
            )
            model = train_similarity(_tiny_dataset(make_rng(531), 6), config)
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


def test_train_trace_spectrum_reuse_is_the_prox(monkeypatch):
    # On a zero step the trace prox thresholds the spectrum its previous
    # call returned.  Spectral soft-thresholds compose, so that is the prox
    # of the previous output; check it against a fresh eigendecomposition,
    # in both kernel sets.
    for float_max_md, *_ in KERNEL_SETS.values():
        with monkeypatch.context() as patch:
            patch.setattr(similarity, "_FLOAT_MAX_MD", float_max_md)
            calls = _watch_prox(patch)
            rng = make_rng(532)
            for m, lam in ((4, 0.05), (5, 0.2), (6, 0.05)):
                config = SimilarityConfig(
                    lam=lam, margin=1.0, norm_kind="trace", max_iters=500, step0=2.0, rel_tol=0.0
                )
                train_similarity(_tiny_dataset(rng, m), config)
        reused = [(b, tau, a) for b, tau, spectrum, a in calls if spectrum]
        assert len(reused) > len(calls) // 2
        for b, tau, a in reused:
            a = np.array(a)
            tolerance = 1e-12 * max(1.0, norm(a, "trace"))
            assert float(np.max(np.abs(a - prox(np.array(b), tau, "trace")))) <= tolerance


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
