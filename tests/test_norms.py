import math

import numpy as np
import pytest

from simbound import (
    NormKind,
    NumericalError,
    SimilarityConfig,
    SimilarityModel,
    dual_norm,
    dual_norm_rank1,
    norm,
    prox,
    sym_eigendecomposition,
    symmetrize,
)
from simbound.norms import MIXED21_GAP_RTOL
from oracles import closed_form_prox, prox_objective, prox_oracle

ALL_KINDS = ["l1", "fro", "mixed21", "trace"]


def test_norm_hand_values():
    a = np.array([[1.0, -2.0], [-2.0, 3.0]])
    assert norm(a, "l1") == 8.0
    assert norm(a, "fro") == pytest.approx(math.sqrt(1 + 4 + 4 + 9), rel=1e-15)
    assert norm(a, "mixed21") == pytest.approx(math.sqrt(5) + math.sqrt(13), rel=1e-15)
    # eigenvalues of [[1,-2],[-2,3]] are 2 +- sqrt(5), one of each sign
    assert norm(a, "trace") == pytest.approx(2.0 * math.sqrt(5), rel=1e-12)


def test_norm_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        norm(np.array([[0.0, 1.0], [0.0, 0.0]]), "l1")
    # NaN != NaN, so a non-finite matrix must be named as such before the
    # symmetry test, also where the non-finite entries mirror each other.
    config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind="fro")
    for bad in (np.full((2, 2), np.nan), np.array([[1.0, np.inf], [np.inf, 1.0]])):
        for check in (
            lambda a: norm(a, "fro"),
            lambda a: prox(a, 0.1, "trace"),
            sym_eigendecomposition,
            lambda a: SimilarityModel(a, config, 1.0, 0),
        ):
            with pytest.raises(ValueError, match="finite"):
                check(bad)


def test_norm_identity_scaling():
    for kind, expected in [("l1", 3.0), ("fro", math.sqrt(3)), ("mixed21", 3.0), ("trace", 3.0)]:
        assert norm(np.eye(3), kind) == pytest.approx(expected, rel=1e-12)


def test_norms_are_norms(rng):
    for kind in ALL_KINDS:
        for _ in range(25):
            d = int(rng.integers(2, 6))
            a = symmetrize(rng.standard_normal((d, d)))
            b = symmetrize(rng.standard_normal((d, d)))
            t = float(rng.uniform(0.1, 3.0))
            assert norm(t * a, kind) == pytest.approx(t * norm(a, kind), rel=1e-10, abs=1e-12)
            assert norm(a + b, kind) <= norm(a, kind) + norm(b, kind) + 1e-10
            assert norm(np.zeros((d, d)), kind) == 0.0


def test_dual_norm_hand_values():
    b = np.array([[3.0, -4.0], [1.0, 2.0]])
    assert dual_norm(b, "l1") == 4.0
    assert dual_norm(b, "fro") == pytest.approx(math.sqrt(30), rel=1e-15)
    assert dual_norm(b, "mixed21") == pytest.approx(5.0, rel=1e-15)
    assert dual_norm(np.diag([2.0, -7.0]), "trace") == pytest.approx(7.0, rel=1e-12)


def test_dual_norm_holder(rng):
    # <A, B> <= ||A|| ||B||_dual for the pairing trace(A^T B)
    for kind in ALL_KINDS:
        for _ in range(50):
            d = int(rng.integers(2, 5))
            a = symmetrize(rng.standard_normal((d, d)))
            b = rng.standard_normal((d, d))
            inner = float(np.sum(a * b))
            assert inner <= norm(a, kind) * dual_norm(b, kind) + 1e-9


def test_dual_norm_rank1_matches_dense(rng):
    for kind in ALL_KINDS:
        for _ in range(100):
            d = int(rng.integers(2, 7))
            v = rng.standard_normal(d)
            x = rng.standard_normal(d)
            direct = dual_norm(np.outer(v, x), kind)
            assert dual_norm_rank1(v, x, kind) == pytest.approx(direct, abs=1e-12)


def test_trace_dual_equals_fro_dual_on_rank1(rng):
    for _ in range(50):
        d = int(rng.integers(2, 7))
        v = rng.standard_normal(d)
        x = rng.standard_normal(d)
        assert dual_norm_rank1(v, x, "trace") == dual_norm_rank1(v, x, "fro")


def test_prox_zero_threshold_is_identity(rng):
    for kind in ALL_KINDS:
        b = symmetrize(rng.standard_normal((4, 4)))
        out = prox(b, 0.0, kind)
        assert np.array_equal(out, b)


def test_prox_rejects_negative_threshold():
    with pytest.raises(ValueError):
        prox(np.eye(2), -0.1, "l1")
    for kind in ALL_KINDS:
        with pytest.raises(ValueError, match="threshold must be nonnegative and finite, got inf"):
            prox(np.eye(2), math.inf, kind)


def test_prox_l1_hand_values():
    out = prox(np.array([[2.0, -1.0], [-1.0, 0.5]]), 1.0, "l1")
    assert np.allclose(out, np.array([[1.0, 0.0], [0.0, 0.0]]), atol=1e-15)
    out = prox(np.array([[2.0, -0.5], [-0.5, 0.05]]), 0.1, "l1")
    assert np.allclose(out, np.array([[1.9, -0.4], [-0.4, 0.0]]), atol=1e-15)


def test_prox_fro_shrinks_toward_zero():
    b = np.array([[3.0, 0.0], [0.0, 4.0]])
    # ||B|| = 5, scale = 1 - 2/5
    assert np.allclose(prox(b, 2.0, "fro"), np.array([[1.8, 0.0], [0.0, 2.4]]), atol=1e-15)
    assert np.array_equal(prox(b, 6.0, "fro"), np.zeros((2, 2)))


def test_prox_trace_diagonal_cases():
    out = prox(np.diag([3.0, -1.0]), 1.0, "trace")
    assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)
    out = prox(np.diag([2.0, -0.3, 0.05]), 0.1, "trace")
    assert np.allclose(out, np.diag([1.9, -0.2, 0.0]), atol=1e-12)


def test_prox_matches_independent_closed_forms(rng):
    mixed_by_dim = {}
    for kind in ALL_KINDS:
        for _ in range(50):
            d = int(rng.integers(2, 6))
            b = symmetrize(rng.standard_normal((d, d)) * rng.uniform(0.5, 3.0))
            tau = float(rng.uniform(0.01, 1.5))
            ours = prox(b, tau, kind)
            if kind == "mixed21":
                mixed_by_dim.setdefault(d, []).append((b, tau, ours))
                continue
            theirs = closed_form_prox(b, tau, kind)
            assert np.max(np.abs(ours - theirs)) < 1e-10, kind
    # mixed21 has no closed form.  The subgradient oracle returns a feasible
    # symmetric point, so the true minimizer can only match or beat its
    # objective; it also lands close to the minimizer.
    for d, cases in mixed_by_dim.items():
        bs = np.stack([b for b, _, _ in cases])
        taus = np.array([tau for _, tau, _ in cases])
        ours = np.stack([out for _, _, out in cases])
        oracle = prox_oracle(bs, taus[:, None, None], "mixed21", 60000)
        gap = prox_objective(ours, bs, taus, "mixed21") - prox_objective(
            oracle, bs, taus, "mixed21"
        )
        assert float(np.max(gap)) <= 1e-10, d
        assert float(np.max(np.abs(ours - oracle))) < 1e-4, d


def test_prox_output_symmetric(rng):
    for kind in ALL_KINDS:
        for _ in range(20):
            b = symmetrize(rng.standard_normal((5, 5)))
            out = prox(b, 0.3, kind)
            assert np.array_equal(out, out.T)


def test_prox_optimality_probe(rng):
    """Random symmetric perturbations never beat the prox point."""
    for kind in ALL_KINDS:
        for tau in (0.01, 0.1, 0.5, 1.0):
            b = symmetrize(rng.standard_normal((3, 3)))
            out = prox(b, tau, kind)
            base = prox_objective(out, b, tau, kind)
            noise = rng.standard_normal((10000, 3, 3))
            probes = out[None] + 0.1 * (noise + np.swapaxes(noise, 1, 2)) / 2.0
            assert float(np.min(prox_objective(probes, b, tau, kind))) >= base - 1e-10


def _extreme_dual_directions(rng, a, kind, count=1000):
    """Random direction matrices of unit dual norm, biased toward extremes.

    Everything is built from independent closed forms (and numpy's SVD for
    the spectral case), never from the package's dual_norm.
    """
    d = a.shape[0]
    mats = []
    for _ in range(count // 2):
        b = rng.standard_normal((d, d))
        if kind == "l1":
            mats.append(b / np.max(np.abs(b)))
        elif kind == "fro":
            mats.append(b / np.linalg.norm(b))
        elif kind == "mixed21":
            mats.append(b / np.max(np.linalg.norm(b, axis=1)))
        else:
            mats.append(b / np.linalg.norm(b, 2))
    for _ in range(count - count // 2):
        if kind == "l1":
            mats.append(np.where(rng.standard_normal((d, d)) > 0, 1.0, -1.0))
        elif kind == "fro":
            b = rng.standard_normal((d, d))
            mats.append(b / np.linalg.norm(b))
        elif kind == "mixed21":
            b = rng.standard_normal((d, d))
            mats.append(b / np.linalg.norm(b, axis=1)[:, None])
        else:
            # extreme points of the d=2 spectral ball: rotations and
            # reflections, sampled by angle (QR output is not Haar)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            c, s = math.cos(theta), math.sin(theta)
            if rng.integers(0, 2) == 0:
                mats.append(np.array([[c, -s], [s, c]]))
            else:
                mats.append(np.array([[c, s], [s, -c]]))
    return mats


def test_norm_matches_mc_dual_characterization(rng):
    """norm(A) is the sup of <A, B> over unit-dual-norm B, to 5% slack."""
    for kind in ALL_KINDS:
        for _ in range(5):
            a = symmetrize(rng.standard_normal((2, 2)))
            value = norm(a, kind)
            best = max(
                float(np.sum(a * b)) for b in _extreme_dual_directions(rng, a, kind)
            )
            assert best <= value + 1e-9
            assert value <= best / 0.95


def _mixed21_distance_bound(p, b, tau):
    # mixed21 stops once its duality gap is at most
    # tau * MIXED21_GAP_RTOL * (||P||_{2,1} + ||B||_{2,1}); the prox objective is
    # 1-strongly convex, so P is within sqrt(2 * gap) of the exact prox.
    gap = tau * MIXED21_GAP_RTOL * (norm(p, "mixed21") + norm(b, "mixed21"))
    return math.sqrt(2.0 * gap)


def test_prox_nonexpansive(rng):
    for kind in ALL_KINDS:
        for _ in range(25):
            d = int(rng.integers(2, 5))
            b1 = symmetrize(rng.standard_normal((d, d)))
            b2 = symmetrize(rng.standard_normal((d, d)))
            tau = float(rng.uniform(0.01, 1.0))
            p1 = prox(b1, tau, kind)
            p2 = prox(b2, tau, kind)
            lhs = np.linalg.norm(p1 - p2)
            rhs = np.linalg.norm(b1 - b2)
            slack = 1e-10
            if kind == "mixed21":
                slack += _mixed21_distance_bound(p1, b1, tau) + _mixed21_distance_bound(
                    p2, b2, tau
                )
            assert lhs <= rhs + slack, kind


def test_jacobi_hand_matrix():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    vals, vecs = sym_eigendecomposition(a)
    assert np.allclose(vals, [1.0, 3.0], atol=1e-13)
    assert np.allclose(vecs @ np.diag(vals) @ vecs.T, a, atol=1e-13)


def test_jacobi_matches_lapack(rng):
    for _ in range(50):
        d = int(rng.integers(2, 9))
        a = symmetrize(rng.standard_normal((d, d)) * rng.uniform(0.1, 10.0))
        vals, vecs = sym_eigendecomposition(a)
        expected = np.sort(np.linalg.eigvalsh(a))
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(vals - expected)) < 1e-11 * scale
        # reconstruction and orthogonality
        assert np.max(np.abs(vecs @ np.diag(vals) @ vecs.T - a)) < 1e-11 * scale
        assert np.max(np.abs(vecs.T @ vecs - np.eye(d))) < 1e-12


def test_jacobi_zero_and_diagonal():
    vals, vecs = sym_eigendecomposition(np.zeros((3, 3)))
    assert np.array_equal(vals, np.zeros(3))
    assert np.array_equal(vecs, np.eye(3))
    vals, _ = sym_eigendecomposition(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(vals, [-1.0, 2.0, 3.0], atol=0.0)


def test_symmetrize_and_require():
    b = np.array([[1.0, 2.0], [0.0, 1.0]])
    s = symmetrize(b)
    assert np.array_equal(s, np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        symmetrize(np.ones((2, 3)))


def test_norm_kind_values():
    assert [kind.value for kind in NormKind] == ALL_KINDS
    assert NormKind("fro") is NormKind.FROBENIUS
    with pytest.raises(ValueError):
        NormKind("nuclear")
