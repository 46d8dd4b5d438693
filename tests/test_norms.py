import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import simbound
from simbound import (
    GeneratorSpec,
    NormKind,
    NumericalError,
    SimilarityConfig,
    SimilarityModel,
    dual_norm,
    dual_norm_rank1,
    generate,
    norm,
    prox,
    sym_eigendecomposition,
    train_similarity,
)
import simbound.norms as norms
from simbound.norms import _PROX, MIXED21_GAP_RTOL
from conftest import symmetric_part
import oracles
from oracles import (
    _reference_prox_mixed21, _reference_prox_mixed21_floats, _reference_solve, closed_form_prox,
    prox_objective, prox_oracle, reference_prox, reference_prox_floats,
)

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
            a = symmetric_part(rng.standard_normal((d, d)))
            b = symmetric_part(rng.standard_normal((d, d)))
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
            a = symmetric_part(rng.standard_normal((d, d)))
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


def test_dual_norms_refuse_non_finite_input():
    # A NaN used to come back as a NaN norm.
    for kind in ALL_KINDS:
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=r"matrix must be finite; row 1 \(counting from 0\)"):
                dual_norm(np.array([[1.0, 0.0], [0.0, bad]]), kind)
            with pytest.raises(ValueError, match="v must be finite"):
                dual_norm_rank1(np.array([bad, 1.0]), np.ones(2), kind)
            with pytest.raises(ValueError, match="x must be finite"):
                dual_norm_rank1(np.ones(2), np.array([1.0, bad]), kind)
        with pytest.raises(ValueError, match="expected two vectors of equal length"):
            dual_norm_rank1(np.ones(2), np.ones(3), kind)
        with pytest.raises(ValueError, match=r"v must be a vector, got shape \(2, 2\)"):
            dual_norm_rank1(np.ones((2, 2)), np.ones(2), kind)


def test_trace_dual_equals_fro_dual_on_rank1(rng):
    for _ in range(50):
        d = int(rng.integers(2, 7))
        v = rng.standard_normal(d)
        x = rng.standard_normal(d)
        assert dual_norm_rank1(v, x, "trace") == dual_norm_rank1(v, x, "fro")


def test_prox_zero_threshold_is_identity(rng):
    for kind in ALL_KINDS:
        b = symmetric_part(rng.standard_normal((4, 4)))
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
            b = symmetric_part(rng.standard_normal((d, d)) * rng.uniform(0.5, 3.0))
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


def _signed_zero_inputs(rng):
    """Symmetric matrices with exact zeros, -0.0 entries and all-zero rows.

    d = 2 to 5 run the mixed21 Newton phase on floats, d = 6 on arrays.
    """
    for d in (2, 3, 4, 5, 6):
        for _ in range(8):
            b = symmetric_part(rng.standard_normal((d, d)) * rng.uniform(0.5, 3.0))
            zero = np.triu(rng.random((d, d)) < 0.3)
            negative = zero & (rng.random((d, d)) < 0.5)
            b[zero | zero.T] = 0.0
            b[negative | negative.T] = -0.0
            yield b
        dead = symmetric_part(rng.standard_normal((d, d)))
        dead[0] = dead[:, 0] = -0.0
        yield dead
    yield np.full((3, 3), -0.0)
    # At tau = 0.5 the mixed21 row 0 starts dead (norm 0.45) and comes back
    # to life: with row 1 live, its row of H has norm 0.9.
    yield np.array([[0.0, 0.45, 0.0], [0.45, 1.5, 0.375], [0.0, 0.375, 2.25]])


def _triple(rows):
    """The triple (a_00, a_01, a_11) of a symmetric 2x2 matrix."""
    (a_00, a_01), (_, a_11) = np.asarray(rows, dtype=float).tolist()
    return a_00, a_01, a_11


def _rows(a):
    """The rows of the triple a."""
    a_00, a_01, a_11 = a
    return [[a_00, a_01], [a_01, a_11]]


def _triple_kernel(kind):
    """The 2x2 kernel on the triple of fro or mixed21, or None: stage one's
    float loop states the l1 and trace proxes inline."""
    return {"fro": norms._prox_fro_triple, "mixed21": norms._prox_mixed21_triple}.get(kind)


def test_prox_matches_reference_bits(rng):
    # assert_array_equal takes -0.0 and +0.0 as equal; signbit does not.
    # Thresholds hit an entry exactly, shrink every entry to zero, and skip
    # the prox (tau = 0).  The array kernels, and at d = 2 the fro and
    # mixed21 kernels on the triple.  The reference takes and returns rows,
    # so the triple's off-diagonal entry stands for both of its entries.
    for b in _signed_zero_inputs(rng):
        for tau in (0.0, 0.1, 0.5, abs(float(b[0, -1])), 10.0):
            for kind in ALL_KINDS:
                out, out_norm, spectrum = _PROX[NormKind(kind)](b, tau)
                expected, expected_norm = reference_prox(b, tau, kind)
                _assert_same_bits(out, expected)
                assert out_norm == expected_norm and type(out_norm) is float, kind
                kernel = _triple_kernel(kind)
                if b.shape[0] != 2 or kernel is None:
                    continue
                a, a_norm = kernel(_triple(b), tau)
                expected, expected_norm, _ = reference_prox_floats(b.tolist(), tau, kind)
                assert type(a) is tuple
                _assert_same_bits(_rows(a), expected)
                assert a_norm == expected_norm and type(a_norm) is float, kind


def _assert_same_bits(out, expected):
    assert type(out) is type(expected)
    out, expected = np.asarray(out), np.asarray(expected)
    assert out.tobytes() == expected.tobytes(), (out, expected)


def _no_eigh(a):
    raise AssertionError(f"_eigh called on shape {a.shape}")


def _spectrum_inputs(rng):
    """Entries (a, b, c) of [[a, b], [b, c]]: random ones, then adversarial ones."""
    for _ in range(2000):
        yield tuple((rng.standard_normal(3) * 10.0 ** rng.uniform(-8.0, 8.0, 3)).tolist())
    yield from [
        # a = c, where zeta = 0 and t = 1.
        (1.0, 0.5, 1.0), (-3.0, -2.0, -3.0), (0.0, 1.0, 0.0), (0.0, -1.0, -0.0),
        # b = +-0.0: the diagonal, in order or swapped.
        (1.0, 0.0, 2.0), (2.0, -0.0, 1.0), (-0.0, 0.0, 0.0), (1.0, -0.0, 1.0),
        # Subnormal b, with a = c and with zeta^2 overflowing.
        (1.0, 5e-324, 1.0), (1.0, -1e-310, 2.0), (0.0, 2.5e-320, -0.0),
        # Near the top of the range, with 2b and c - a still finite.
        (1e308, 5e307, -5e307), (-1e308, 8e307, 0.0), (1.5e308, -1e307, 1.5e308),
        (-8e307, 8.9e307, 8e307),
        # Near the bottom of the range.
        (1e-300, 3e-300, -2e-300), (-1e-300, 1e-300, -1e-300), (1e-300, -2e-300, 1e-300),
        # One huge entry with tiny ones.
        (1e300, 1e-300, 1e-300), (1e-300, 1e-300, -1e300), (1e-300, 1e300, 0.0),
        (1e300, -1e-300, -1e300), (5e-324, 1e300, 5e-324),
    ]


def _split_spectrum(spectrum):
    """``_spectrum_floats``' flat spectrum as (eigenvalues, eigenvector rows)."""
    x_0, x_1, v_00, v_01, v_10, v_11 = spectrum
    return [x_0, x_1], [[v_00, v_01], [v_10, v_11]]


def test_spectrum_floats_matches_eigh(monkeypatch, rng):
    # Eigenpairs of a 2x2 matrix by one rotation, with no LAPACK call:
    # ascending, and within a few ulps of max|entry| of eigh's eigenvalues,
    # of B rebuilt and of orthonormal, checked on B scaled by a power of two
    # near its largest entry so that nothing overflows or underflows.
    monkeypatch.setattr(norms, "_eigh", _no_eigh)
    eps = 2.0 ** -52
    for a, b, c in _spectrum_inputs(rng):
        rows = [[a, b], [b, c]]
        spectrum = norms._spectrum_floats((a, b, c))
        assert type(spectrum) is tuple and all(type(x) is float for x in spectrum)
        eigenvalues, vectors = _split_spectrum(spectrum)
        assert eigenvalues[0] <= eigenvalues[1], rows
        w, v, matrix = np.array(eigenvalues), np.array(vectors), np.array(rows)
        exponent = math.frexp(float(np.abs(matrix).max()))[1]
        rebuilt = (v * np.ldexp(w, -exponent)) @ v.T
        assert np.abs(rebuilt - np.ldexp(matrix, -exponent)).max() <= 4 * eps, rows
        assert np.abs(v.T @ v - np.eye(2)).max() <= 4 * eps, rows
        expected = np.linalg.eigh(matrix)[0]
        assert np.abs(np.ldexp(w - expected, -exponent)).max() <= 4 * eps, rows


def test_spectrum_floats_leaves_the_rest_to_eigh(monkeypatch):
    # Non-finite entries, and a 2b or c - a that overflows.
    calls = []
    eigh = norms._eigh

    def recorded(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(norms, "_eigh", recorded)
    nan, inf = math.nan, math.inf
    cases = [
        [[nan, 0.0], [0.0, 1.0]], [[1.0, nan], [nan, 1.0]], [[1.0, 0.0], [0.0, inf]],
        [[-inf, 1.0], [1.0, 0.0]], [[1.0, inf], [inf, 1.0]], [[inf, 0.0], [0.0, inf]],
        # 2b overflows; c - a overflows.
        [[0.0, 1e308], [1e308, 0.0]], [[1e308, 1.0], [1.0, -1e308]],
    ]
    with np.errstate(invalid="ignore"):
        for rows in cases:
            calls.clear()
            spectrum = norms._spectrum_floats(_triple(rows))
            assert calls == [(2, 2)], rows
            eigenvalues, vectors = np.linalg.eigh(np.array(rows))
            assert type(spectrum) is tuple
            _assert_same_bits(spectrum, (*eigenvalues.tolist(), *vectors.ravel().tolist()))


def _hex(x):
    """x with every float written by float.hex, in nested lists and tuples."""
    if isinstance(x, float):
        return x.hex()
    return type(x)(map(_hex, x))


# 2x2 trace proxes whose bits are literals: a rotation whose pairs swap and
# whose small eigenvalue shrinks to -0.0; a = c (zeta = 0); a rotation in
# order.  ``_spectrum_floats`` and the reference's float prox use
# + - * / and math.sqrt, all correctly rounded, so these bits hold on every
# interpreter (the built-in sum or math.hypot would not promise that).
# Each case: rows, tau, the eigenvalues and eigenvector rows, the prox
# rows, its norm and the thresholded eigenvalues.
_TRACE_GOLDEN = [
    (
        [[0.75, -0.3], [-0.3, 0.1]], 0.2,
        ["-0x1.1b5d1e414d798p-6", "0x1.bc0e1c253d9f0p-1"],
        [
            ["0x1.74e13ce3fe1b7p-2", "0x1.dcd920490771cp-1"],
            ["0x1.dcd920490771cp-1", "-0x1.74e13ce3fe1b7p-2"],
        ],
        [
            ["0x1.285a2c3271cfbp-1", "-0x1.cf79c9d016e52p-3"],
            ["-0x1.cf79c9d016e52p-3", "0x1.6a6c4c632b474p-4"],
        ],
        "0x1.55a7b5bed738ap-1",
        ["-0x0.0p+0", "0x1.55a7b5bed738ap-1"],
    ),
    (
        [[1.5, 0.25], [0.25, 1.5]], 0.1,
        ["0x1.4000000000000p+0", "0x1.c000000000000p+0"],
        [
            ["0x1.6a09e667f3bccp-1", "0x1.6a09e667f3bccp-1"],
            ["-0x1.6a09e667f3bccp-1", "0x1.6a09e667f3bccp-1"],
        ],
        [
            ["0x1.6666666666665p+0", "0x1.0000000000000p-2"],
            ["0x1.0000000000000p-2", "0x1.6666666666665p+0"],
        ],
        "0x1.6666666666666p+1",
        ["0x1.2666666666666p+0", "0x1.a666666666666p+0"],
    ),
    (
        [[-2.0, 0.1], [0.1, 3.0]], 0.5,
        ["-0x1.00418282ae9e0p+1", "0x1.80418282ae9e0p+1"],
        [
            ["0x1.ffe5d07c7fe29p-1", "0x1.477bcce06039bp-6"],
            ["-0x1.477bcce06039bp-6", "0x1.ffe5d07c7fe29p-1"],
        ],
        [
            ["-0x1.801a2ed8143bbp+0", "0x1.47bed64cd9bfcp-4"],
            ["0x1.47bed64cd9bfcp-4", "0x1.400d176c0a1dep+1"],
        ],
        "0x1.00418282ae9e0p+2",
        ["-0x1.808305055d3c0p+0", "0x1.40418282ae9e0p+1"],
    ),
]


def test_trace_prox_d2_golden_bits(monkeypatch):
    # ``_spectrum_floats`` takes the triple and returns the spectrum as
    # flat floats; the literals are its (eigenvalues, eigenvector rows).
    # The prox is the reference's on floats, which stage one's float loop
    # matches bit for bit (test_similarity holds the fits to it).
    monkeypatch.setattr(norms, "_eigh", _no_eigh)
    for rows, tau, eigenvalues, vectors, prox_rows, prox_norm, thresholded in _TRACE_GOLDEN:
        spectrum = norms._spectrum_floats(_triple(rows))
        assert _hex(_split_spectrum(spectrum)) == (eigenvalues, vectors)
        a, total, spectrum = reference_prox_floats(rows, tau, "trace")
        assert _hex(a) == prox_rows
        assert total.hex() == prox_norm
        assert _hex(spectrum) == (thresholded, vectors)


# 2x2 l1 proxes whose bits are literals: a negative diagonal entry that
# shrinks to -0.0, with the off-diagonal entry's shrunk magnitude counted
# twice in the norm; a negative off-diagonal entry that shrinks to -0.0;
# and tau = 0, where the prox is its input, of norm ``_norm`` of its array.
# Each case: the triple, tau, the prox triple and its norm.
_L1_GOLDEN = [
    (
        (-0.05, 0.3, 1.25), 0.1,
        ["-0x0.0p+0", "0x1.9999999999999p-3", "0x1.2666666666666p+0"], "0x1.8ccccccccccccp+0",
    ),
    (
        (0.5, -0.08, -2.0), 0.1,
        ["0x1.999999999999ap-2", "-0x0.0p+0", "-0x1.e666666666666p+0"], "0x1.2666666666666p+1",
    ),
    (
        (0.75, -0.25, 0.5), 0.0,
        ["0x1.8000000000000p-1", "-0x1.0000000000000p-2", "0x1.0000000000000p-1"],
        "0x1.c000000000000p+0",
    ),
]
# 2x2 fro proxes whose bits are literals: a shrink; a norm equal to tau and
# one below it, which give zero; tau = 0; and sums of squares that overflow
# and underflow, which the kernel solves rescaled: their bits are those of
# (3, +-2, 1) at tau = 1, times 2^+-600.
_FRO_GOLDEN = [
    (
        (0.75, -0.3, 0.1), 0.2,
        ["0x1.27776813bd512p-1", "-0x1.d8bf0cec621b5p-3", "0x1.3b2a089d96bcfp-4"],
        "0x1.55be4f7ad70f8p-1",
    ),
    ((3.0, 0.0, 4.0), 5.0, ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0"], "0x0.0p+0"),
    ((0.1, -0.05, 0.02), 1.0, ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0"], "0x0.0p+0"),
    (
        (0.75, -0.25, 0.5), 0.0,
        ["0x1.8000000000000p-1", "-0x1.0000000000000p-2", "0x1.0000000000000p-1"],
        "0x1.efbdeb14f4edap-1",
    ),
    (
        (math.ldexp(3.0, 600), math.ldexp(2.0, 600), math.ldexp(1.0, 600)), math.ldexp(1.0, 600),
        ["0x1.257d86660310cp+601", "0x1.8752088804166p+600", "0x1.8752088804166p+599"],
        "0x1.9f0ed99bed9b2p+601",
    ),
    (
        (math.ldexp(3.0, -600), math.ldexp(-2.0, -600), math.ldexp(1.0, -600)),
        math.ldexp(1.0, -600),
        ["0x1.257d86660310cp-599", "-0x1.8752088804166p-600", "0x1.8752088804166p-601"],
        "0x1.9f0ed99bed9b2p-599",
    ),
]


@pytest.mark.parametrize("kind, golden", [("l1", _L1_GOLDEN), ("fro", _FRO_GOLDEN)])
def test_entrywise_prox_d2_golden_bits(kind, golden):
    # fro's kernel on the triple and the reference's l1 prox on floats,
    # which stage one's float loop matches bit for bit, use + - * / and
    # math.sqrt only, so these bits hold on every interpreter.  At tau = 0
    # each returns its input itself.
    for a, tau, prox_triple, prox_norm in golden:
        if kind == "fro":
            out, total = norms._prox_fro_triple(a, tau)
            assert type(out) is tuple and (out is a) == (tau == 0.0)
        else:
            rows, total, spectrum = reference_prox_floats(_rows(a), tau, kind)
            assert spectrum is None
            out = _triple(rows)
        assert _hex(out) == tuple(prox_triple)
        if tau == 0.0:
            assert total == norms._norm(norms._triple_array(a), NormKind(kind))
        assert type(total) is float and total.hex() == prox_norm


# Certified on its third evaluation, after two Newton steps.
_TWO_STEP_B = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 0.25], [0.0, 0.25, 0.5]])
_TWO_STEP_TAU = 0.5
# Certified on its second evaluation at tau = 0.5, after one Newton step
# with both rows live.
_ONE_STEP_ROWS = [[-1.5, 0.1], [0.1, 0.75]]


def _reviving(d):
    # At tau = 0.5 row 0 starts dead (norm 0.45) and comes back to life:
    # with row 1 live, its row of H has norm 0.9.
    b = np.diag([0.0, 1.5, 2.25, 1.0, 1.75][:d])
    b[0, 1] = b[1, 0] = 0.45
    return b


# d = 2 mixed21 proxes at tau = 0.5 whose bits are literals: a dead row 0
# by its KKT test, which the loops' Newton phase certifies at its first
# evaluation; _ONE_STEP_ROWS; a dead row 0 by its KKT test, for which the
# loops' Newton system has one unknown; and a dead row that comes back to
# life, row 0, row 1 of its mirror and row 1 of a negative matrix: a
# revived row's Newton equation, from s_i = 0 with a positive target, is
# the one place where the Jacobian takes p_ii = 1.  The d = 2 kernel solves
# the two dead rows in closed form, the others by the Newton phase; the
# loops take no closed form.  Both use
# + - * / and math.sqrt only, so these bits hold on every interpreter.
# Each case: rows, the loops' Newton steps before the certificate, the
# unknowns of their first Newton system, the kernel's prox rows and norm,
# and for a closed form the loops' rows and norm (None where the kernel
# runs the same Newton phase).
_MIXED21_GOLDEN = [
    (
        [[0.3, -0.001], [-0.001, -2.0]], 0, 0,
        [["0x0.0p+0", "-0x0.0p+0"], ["-0x0.0p+0", "-0x1.8000000000000p+0"]],
        "0x1.8000000000000p+0",
        (
            [["0x0.0p+0", "-0x0.0p+0"], ["-0x0.0p+0", "-0x1.8000010c6f76cp+0"]],
            "0x1.8000010c6f76cp+0",
        ),
    ),
    (
        _ONE_STEP_ROWS, 1, 2,
        [
            ["-0x1.00219866e32c2p+0", "0x1.736e45ab965d7p-5"],
            ["0x1.736e45ab965d7p-5", "0x1.07c0aab3119adp-2"],
        ],
        "0x1.4358988ae2697p+0",
        None,
    ),
    (
        [[0.25, -0.15], [-0.15, -1.5]], 1, 1,
        [["0x0.0p+0", "-0x0.0p+0"], ["-0x0.0p+0", "-0x1.0000000000000p+0"]],
        "0x1.0000000000000p+0",
        (
            [["0x0.0p+0", "-0x0.0p+0"], ["-0x0.0p+0", "-0x1.0000000000000p+0"]],
            "0x1.0000000000000p+0",
        ),
    ),
    (
        _reviving(2).tolist(), 3, 2,
        [
            ["0x0.0p+0", "0x1.48e7d15e1b5d2p-3"],
            ["0x1.48e7d15e1b5d2p-3", "0x1.019988afc4b84p+0"],
        ],
        "0x1.2df920df53492p+0",
        None,
    ),
    (
        _reviving(2)[::-1, ::-1].tolist(), 3, 2,
        [
            ["0x1.019988afc4b84p+0", "0x1.48e7d15e1b5d2p-3"],
            ["0x1.48e7d15e1b5d2p-3", "0x0.0p+0"],
        ],
        "0x1.2df920df53492p+0",
        None,
    ),
    (
        [[-2.0, -0.3], [-0.3, 0.1]], 2, 2,
        [
            ["-0x1.800fb5339ae86p+0", "-0x1.7cace3541e041p-5"],
            ["-0x1.7cace3541e041p-5", "0x1.1b00cee244abcp-7"],
        ],
        "0x1.8c586a5b258c2p+0",
        None,
    ),
]


def test_mixed21_prox_d2_golden_bits(monkeypatch):
    # The d = 2 kernel on the triple and the loops on the rows: the bits,
    # then each case's path.  Capped at steps + 1 evaluations both give the
    # same bits and hand nothing to the dual phase.  Capped at one, a
    # closed form gives the same bits and hands nothing over, and the
    # kernel's Newton phase hands the dual phase the same B, H and
    # ||B||_{2,1} as the loops, bit for bit, and gets the same prox back;
    # the loops' first Newton system has the stated unknowns (none if the
    # first evaluation certifies).  Only the loops call _solve_floats.
    systems = []
    handed = []
    solve = norms._solve_floats
    dual = norms._dual_mixed21

    def recorded(system):
        systems.append(len(system))
        return solve(system)

    def recorded_dual(b, tau, h, scale):
        handed.append((b.tobytes(), tau, h.tobytes(), scale.hex()))
        return dual(b, tau, h, scale)

    monkeypatch.setattr(norms, "_solve_floats", recorded)
    monkeypatch.setattr(norms, "_dual_mixed21", recorded_dual)
    kernel = norms._prox_mixed21_triple
    for rows, steps, unknowns, prox_rows, prox_norm, newton in _MIXED21_GOLDEN:
        a, total = kernel(_triple(rows), 0.5)
        assert (_hex(_rows(a)), total.hex()) == (prox_rows, prox_norm)
        assert systems == []
        loops = newton or (prox_rows, prox_norm)
        assert _hex(norms._newton_mixed21_floats(rows, 0.5)) == loops
        first = [unknowns] if unknowns else []
        systems.clear()
        with monkeypatch.context() as patch:
            patch.setattr(norms, "_MIXED21_NEWTON_STEPS", steps + 1)
            assert _hex(kernel(_triple(rows), 0.5)) == _hex((a, total))
            assert _hex(norms._newton_mixed21_floats(rows, 0.5)) == loops
            assert handed == []
            systems.clear()
            patch.setattr(norms, "_MIXED21_NEWTON_STEPS", 1)
            capped = kernel(_triple(rows), 0.5)
            assert systems == []
            from_kernel = handed[:]
            handed.clear()
            capped_loops = norms._newton_mixed21_floats(rows, 0.5)
        assert systems == first
        if newton:
            assert _hex(capped) == _hex((a, total)) and from_kernel == []
        else:
            assert len(from_kernel) == 1 and from_kernel == handed
            assert _hex((_rows(capped[0]), capped[1])) == _hex(capped_loops)
        handed.clear()
        systems.clear()


def test_mixed21_newton_phase_chosen_by_dimension(monkeypatch):
    # d = 2 runs the kernel on the triple, d = 3 to 5 the float loops and
    # d = 6 the array phase.
    chosen = []
    for name in ("_prox_mixed21_triple", "_newton_mixed21_floats", "_newton_mixed21_arrays"):
        def recorded(b, tau, name=name):
            chosen.append(name)
            return b, 0.0

        monkeypatch.setattr(norms, name, recorded)
    for d in (2, 3, 4, 5, 6):
        norms._prox_mixed21(np.eye(d), 0.5)
    assert chosen == (
        ["_prox_mixed21_triple"] + ["_newton_mixed21_floats"] * 3 + ["_newton_mixed21_arrays"]
    )


def _dead_row_inputs(rng):
    """(triple, tau) pairs of the d = 2 mixed21 kernel around its dead-row
    test.

    ||(b_00, 2 b_01)|| (row 0) or ||(2 b_01, b_11)|| (row 1), in the
    kernel's arithmetic, exactly tau and one ulp either side of it; b_01 =
    +-0.0, also with |b_ii| = tau, where the Newton phase rounds
    differently; both rows under tau; two rows that die together although
    neither test holds; random triples.
    """
    # sqrt(0.75^2 + 1.0^2) = 1.25 exactly.
    cases = [((0.75, 0.5, 1.5), 1.25), ((-1.5, -0.5, -0.75), 1.25)]
    for _ in range(30):
        b_00, b_01, b_11 = rng.standard_normal(3).tolist()
        t_01 = b_01 + b_01
        for diagonal in (b_00, b_11):
            edge = math.sqrt(0.0 + diagonal * diagonal + t_01 * t_01)
            for tau in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
                cases.append(((b_00, b_01, b_11), tau))
    for b_01 in (0.0, -0.0):
        for b_00, b_11, tau in (
            (0.3, -1.7, 0.5), (-2.0, 0.4, 0.5), (1.5, -2.5, 0.5), (0.2, -0.3, 1.0),
            (-0.7, 0.9, 0.7), (1.1, -2.3, 1.1), (0.9, -0.7, 0.7), (1.7, 1.1, 1.1),
        ):
            cases.append(((b_00, b_01, b_11), tau))
    cases += [((0.2, 0.1, -0.3), 1.0), ((-0.0, -0.2, 0.1), 2.0), ((-0.0, 0.3, 0.0), 0.5)]
    for _ in range(200):
        b = rng.standard_normal(3) * rng.uniform(0.5, 3.0)
        cases.append((tuple(b.tolist()), float(rng.uniform(0.01, 2.0))))
    return cases


def test_mixed21_d2_closed_form_stays_in_certificate(rng):
    # The d = 2 kernel matches the reference bit for bit, closed form
    # included, and lies within the certificate of the reference's Newton
    # phase, which takes no closed form.  At 2^+-380, which it solves
    # rescaled, the kernel's prox and norm, scaled back, are its bits at
    # scale 1.
    kernel = norms._prox_mixed21_triple
    closed = 0
    cases = _dead_row_inputs(rng)
    for triple, tau in cases:
        b = np.array(_rows(triple))
        a, a_norm = kernel(triple, tau)
        out = np.array(_rows(a))
        expected, expected_norm = _reference_prox_mixed21(b, tau)
        _assert_same_bits(out, expected)
        assert a_norm == expected_norm and type(a_norm) is float
        newton, _ = _reference_prox_mixed21_floats(
            b, tau, MIXED21_GAP_RTOL, norms._MIXED21_NEWTON_STEPS, norms._MIXED21_DUAL_STEPS
        )
        bound = _mixed21_distance_bound(out, b, tau) + _mixed21_distance_bound(newton, b, tau)
        assert np.linalg.norm(out - newton) <= bound, (triple, tau)
        for k in (-380, 380):
            scaled, scaled_norm = kernel(
                tuple(math.ldexp(x, k) for x in triple), math.ldexp(tau, k)
            )
            assert np.ldexp(_rows(scaled), -k).tobytes() == out.tobytes(), (triple, tau, k)
            assert math.ldexp(scaled_norm, -k).hex() == a_norm.hex(), (triple, tau, k)
        closed += oracles._reference_mixed21_dead_row(b, tau) is not None
    assert 0 < closed < len(cases)


class _RefusedSteps:
    """A Newton step cap that raises once a Newton loop reads it."""

    def __index__(self):
        raise AssertionError("the Newton phase ran")


def test_mixed21_d2_dead_row_runs_no_newton(monkeypatch):
    # With the Newton loops, the solver and the dual phase refusing, and a
    # step cap that refuses to be read, a dead row, row 0 or row 1 or both,
    # still gets its prox from the kernel and from prox; a both-live input
    # starts the Newton phase.
    def refuse(*args):
        raise AssertionError("the Newton phase ran")

    for name in ("_newton_mixed21_floats", "_solve_floats", "_dual_mixed21"):
        monkeypatch.setattr(norms, name, refuse)
    monkeypatch.setattr(norms, "_MIXED21_NEWTON_STEPS", _RefusedSteps())
    kernel = norms._prox_mixed21_triple
    dead = [
        (_MIXED21_GOLDEN[0][0], 0.5), (_MIXED21_GOLDEN[2][0], 0.5),
        ([[-2.0, 0.1], [0.1, 0.2]], 0.5), ([[0.3, -0.0], [-0.0, 0.1]], 0.5),
    ]
    for rows, tau in dead:
        a, _ = kernel(_triple(rows), tau)
        assert prox(np.array(rows), tau, "mixed21").tobytes() == np.array(_rows(a)).tobytes()
    for rows, tau in ((_ONE_STEP_ROWS, 0.5), (_reviving(2).tolist(), 0.5)):
        with pytest.raises(AssertionError, match="the Newton phase ran"):
            kernel(_triple(rows), tau)
        with pytest.raises(AssertionError, match="the Newton phase ran"):
            prox(np.array(rows), tau, "mixed21")


def test_mixed21_d2_prox_is_the_float_kernel(rng):
    # prox, and the array kernel, at d = 2 return the triple kernel's
    # output bit for bit, and a closed form's norm is norm(A) exactly.
    kernel = norms._prox_mixed21_triple
    for triple, tau in _dead_row_inputs(rng):
        b = np.array(_rows(triple))
        a, a_norm = kernel(triple, tau)
        expected = np.array(_rows(a))
        out = prox(b, tau, "mixed21")
        _assert_same_bits(out, expected)
        array_out, array_norm, _ = _PROX[NormKind.MIXED21](b, tau)
        _assert_same_bits(array_out, expected)
        assert array_norm == a_norm
        if oracles._reference_mixed21_dead_row(b, tau) is not None:
            assert a_norm == norm(out, "mixed21")


def test_mixed21_float_newton_hands_over_to_dual_phase(monkeypatch):
    # Capped at one Newton step, the float phase at d = 3 and d = 2 hands
    # the H of its last evaluation to the dual phase, bit for bit the
    # reference's H.  The dual phase certifies the gap (it raises otherwise)
    # and matches the reference run with the same cap.
    handovers = []

    def recorded(dual):
        def recorded_dual(b, tau, h, *rest):
            handovers.append(h)
            return dual(b, tau, h, *rest)

        return recorded_dual

    monkeypatch.setattr(norms, "_dual_mixed21", recorded(norms._dual_mixed21))
    monkeypatch.setattr(
        oracles, "_reference_dual_mixed21", recorded(oracles._reference_dual_mixed21)
    )
    tau = _TWO_STEP_TAU
    for b in (_TWO_STEP_B, np.array(_ONE_STEP_ROWS)):
        handovers.clear()
        full, _, _ = norms._prox_mixed21(b, tau)
        assert handovers == []
        with monkeypatch.context() as patch:
            patch.setattr(norms, "_MIXED21_NEWTON_STEPS", 1)
            out, out_norm, _ = norms._prox_mixed21(b, tau)
        assert len(handovers) == 1
        expected, expected_norm = _reference_prox_mixed21(b, tau, newton_steps=1)
        h, expected_h = handovers
        assert h.shape == b.shape and h.tobytes() == expected_h.tobytes()
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(expected))
        assert out_norm == expected_norm and type(out_norm) is float
        assert np.array_equal(out, out.T)
        bound = _mixed21_distance_bound(out, b, tau) + _mixed21_distance_bound(full, b, tau)
        assert np.linalg.norm(out - full) <= bound


def test_mixed21_float_newton_calls_numpy_once(monkeypatch):
    # Up to d = 5 the Newton loop takes and returns rows and calls no NumPy
    # function; the prox's one call is the array built from its rows.  The
    # d = 5 input takes three Newton steps.
    calls = []

    class ArrayOnly:
        @staticmethod
        def array(value):
            calls.append(value)
            return np.array(value)

    for b, tau in ((_TWO_STEP_B, _TWO_STEP_TAU), (_reviving(5), 0.5)):
        expected, expected_norm, _ = norms._prox_mixed21(b, tau)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(norms, "np", ArrayOnly)
            rows, rows_norm = norms._newton_mixed21_floats(b.tolist(), tau)
            assert calls == [] and type(rows) is list and rows_norm == expected_norm
            out, out_norm, _ = norms._prox_mixed21(b, tau)
        assert len(calls) == 1
        assert out.tobytes() == expected.tobytes() == np.array(rows).tobytes()
        assert out_norm == expected_norm


def test_mixed21_newton_phases_agree(rng):
    # Both phases certify a duality gap, so each lies within sqrt(2 gap)
    # of the exact prox, and they lie within the sum of those of each other.
    cases = []
    for d in (2, 3, 4, 5):
        for _ in range(30):
            b = symmetric_part(rng.standard_normal((d, d)) * rng.uniform(0.5, 3.0))
            cases.append((b, float(rng.uniform(0.01, 1.5))))
        dead = symmetric_part(rng.standard_normal((d, d)))
        dead[0] = dead[:, 0] = 0.0
        cases += [(dead, 0.1), (dead, 0.5), (_reviving(d), 0.5)]
    for b, tau in cases:
        floats, floats_norm, _ = norms._prox_mixed21(b, tau)
        arrays, _ = norms._newton_mixed21_arrays(b, tau)
        bound = _mixed21_distance_bound(floats, b, tau) + _mixed21_distance_bound(arrays, b, tau)
        assert np.linalg.norm(floats - arrays) <= bound
        assert np.array_equal(floats, floats.T)
        assert floats_norm == pytest.approx(norm(floats, "mixed21"), rel=1e-15, abs=1e-300)
    assert all(norms._prox_mixed21(_reviving(d), 0.5)[0][0, 1] > 0.0 for d in (2, 3, 4, 5))


# Rows 1 and 2 mirror each other, so the first column of the Newton system
# holds two largest entries of equal magnitude below a smaller pivot.
_TIED_PIVOT_B = np.array([[-1.0, -1.0, 1.0], [-1.0, 0.0, 0.25], [1.0, 0.25, 0.0]])
# At tau = 0.5 rows 0 and 1 stay dead, and rows 2 and 3 are live.
_TWO_DEAD_B = np.array(
    [[0.2, 0.1, 0.0, 0.0], [0.1, -0.25, 0.05, 0.0], [0.0, 0.05, 2.0, 0.3], [0.0, 0.0, 0.3, -1.5]]
)
# Newton does not certify this d = 5 input in its 8 steps at tau = 1.2.
_HANDOVER_B = np.array([
    [0.5, -0.15, -0.37, -0.92, 0.83],
    [-0.15, -0.71, 0.37, -0.41, 0.62],
    [-0.37, 0.37, -0.08, 0.46, 0.38],
    [-0.92, -0.41, 0.46, 0.84, -0.13],
    [0.83, 0.62, 0.38, -0.13, -0.14],
])


def _has_tied_pivot(system):
    """Whether partial pivoting on the augmented system [M | r] meets two
    largest candidates of equal magnitude in some column."""
    system = [list(row) for row in system]
    size = len(system)
    for k in range(size):
        column = [abs(system[i][k]) for i in range(k, size)]
        if column.count(max(column)) > 1:
            return True
        best = k + column.index(max(column))
        system[k], system[best] = system[best], system[k]
        for i in range(k + 1, size):
            factor = system[i][k] / system[k][k]
            for j in range(k + 1, size + 1):
                system[i][j] -= factor * system[k][j]
    return False


def test_mixed21_float_newton_matches_reference_bits(rng, monkeypatch):
    # Every bit of the float Newton phase's output, -0.0 included, and its
    # norm equal the reference's at d = 1 to 5.  The inputs make Newton
    # systems of 1, 2 and more unknowns, a tied pivot and a dead row that
    # comes back to life; at d = 5 the dual phase takes over, from the H of
    # the last evaluation in both.
    systems = []
    solve = norms._solve_floats

    def recorded(system):
        systems.append([list(row) for row in system])
        return solve(system)

    handed = {}

    def handover(name, dual):
        def recorded_dual(b, tau, h, *rest):
            handed[name] = h.tobytes()
            return dual(b, tau, h, *rest)

        return recorded_dual

    monkeypatch.setattr(norms, "_solve_floats", recorded)
    monkeypatch.setattr(norms, "_dual_mixed21", handover("floats", norms._dual_mixed21))
    monkeypatch.setattr(
        oracles, "_reference_dual_mixed21", handover("reference", oracles._reference_dual_mixed21)
    )
    cases = [(np.array([[x]]), tau) for x in (1.5, -0.25, -0.0) for tau in (0.1, 1.0)]
    for b in _signed_zero_inputs(rng):
        if b.shape[0] <= 5:
            # The prox returns B itself at tau = 0, before any Newton phase.
            cases += [(b, tau) for tau in (0.1, 0.5, abs(float(b[0, -1]))) if tau]
    cases += [(_reviving(d), 0.5) for d in (2, 3, 4, 5)]
    cases += [(_TIED_PIVOT_B, 1.0), (_HANDOVER_B, 1.2)]
    # Two dead rows leave one unknown at d = 3 and two at d = 4.
    cases += [(_TWO_DEAD_B[:d, :d], 0.5) for d in (3, 4)]
    for b, tau in cases:
        handed.clear()
        rows, rows_norm = norms._newton_mixed21_floats(b.tolist(), tau)
        expected, expected_norm = _reference_prox_mixed21_floats(
            b, tau, MIXED21_GAP_RTOL, norms._MIXED21_NEWTON_STEPS, norms._MIXED21_DUAL_STEPS
        )
        _assert_same_bits(np.array(rows), expected)
        assert rows_norm == expected_norm and type(rows_norm) is float
        assert handed.get("floats") == handed.get("reference")
        if b is _HANDOVER_B:
            assert len(handed) == 2
    sizes = {len(system) for system in systems}
    assert {1, 2} <= sizes and max(sizes) >= 3
    assert any(map(_has_tied_pivot, systems))


def _newton_loops(monkeypatch, rows, tau):
    """The float Newton loops alone: ``_newton_mixed21_floats`` runs a
    written-out kernel only at 2 < d <= _MIXED21_FLOAT_MAX_D."""
    with monkeypatch.context() as patch:
        patch.setattr(norms, "_MIXED21_FLOAT_MAX_D", 2)
        return norms._newton_mixed21_floats(rows, tau)


def _watch_written(monkeypatch):
    """Record what each written-out Newton kernel returns: A and its norm,
    or the state (2B, row norms, scale, s, evaluations left) it hands the
    loops."""
    returned = []
    build = norms._written_newton_mixed21

    def watched(d):
        kernel = build(d)

        def recorded(rows, tau, steps):
            out = kernel(rows, tau, steps)
            returned.append(out)
            return out

        return recorded

    monkeypatch.setattr(norms, "_written_newton_mixed21", watched)
    return returned


def _written_newton_inputs(rng):
    """(rows, tau) at d = 3 to 5: random symmetric B at 2^k for k at the
    edges of the safe range and beyond it, tau from 0.01 to 2 times
    max|b_ij|; B with a near-dead row, tau a hair either side of a row
    norm, and -0.0 entries."""
    cases = []
    for d in (3, 4, 5):
        for k in (0, 299, -299, 300, -300, 301, -301, 320, -320, 600, -600):
            for variant in range(5):
                b = symmetric_part(rng.standard_normal((d, d)) * rng.uniform(0.5, 3.0))
                tau = float(rng.uniform(0.01, 2.0)) * float(np.abs(b).max())
                if variant == 1:
                    b[0] *= 1e-3
                    b[:, 0] *= 1e-3
                elif variant == 2:
                    row = float(np.sqrt(np.sum(b[-1] * b[-1])))
                    tau = row * (1.0 + float(rng.choice([-1e-9, -1e-15, 1e-15])))
                elif variant == 3:
                    zero = np.triu(rng.random((d, d)) < 0.4)
                    b[zero | zero.T] = -0.0
                    b[0] = b[:, 0] = -0.0
                cases.append((np.ldexp(b, k).tolist(), math.ldexp(tau, k)))
    return cases


def _hex_prox(out):
    rows, total = out
    return _hex(rows), total.hex()


def test_mixed21_written_newton_matches_loops(rng, monkeypatch):
    # At d = 3 to 5 the Newton phase, written out, returns the loops' bits,
    # -0.0 included, where it certifies and where it hands over, and out of
    # the safe range, where both solve rescaled.
    returned = _watch_written(monkeypatch)
    certified = handed = 0
    for rows, tau in _written_newton_inputs(rng):
        returned.clear()
        with np.errstate(over="ignore"):
            out = norms._newton_mixed21_floats(rows, tau)
            expected = _newton_loops(monkeypatch, rows, tau)
        assert _hex_prox(out) == _hex_prox(expected), (rows, tau)
        assert type(out[1]) is float and returned
        certified += len(returned[-1]) == 2
        handed += len(returned[-1]) == 5
    assert certified > 100 and handed > 20


# Inputs at d = 3 on which the written-out kernel leaves its path: row 0
# dead at the start; a row whose target drops to 0 after one Newton step;
# the elimination needing a pivot swap at the first Newton system, and
# after one step.
_DIES_AFTER_A_STEP = ([[1.0, 1.0, 0.125], [1.0, -0.0, -0.125], [0.125, -0.125, -1.25]], 1.0)
_SWAPS = [
    ([[-0.5, -1.5, 0.125], [-1.5, -0.25, 0.875], [0.125, 0.875, -1.0]], 1.25),
    ([[1.25, -0.25, -1.0], [-0.25, 1.25, 0.125], [-1.0, 0.125, -0.0]], 1.0),
]


def _needs_swap(system):
    """Whether ``_solve_floats``' partial pivoting swaps rows of [M | r]."""
    system = [list(row) for row in system]
    size = len(system)
    for k in range(size):
        if any(abs(system[i][k]) > abs(system[k][k]) for i in range(k + 1, size)):
            return True
        for i in range(k + 1, size):
            factor = system[i][k] / system[k][k]
            for j in range(k + 1, size + 1):
                system[i][j] -= factor * system[k][j]
    return False


def _h_row_norms(twice, s):
    """The row norms of H at s, every row live."""
    s = np.array(s)
    return np.sqrt(np.sum((np.array(twice) * (s / (s[:, None] + s))) ** 2, axis=1))


def test_mixed21_written_newton_exits(monkeypatch):
    # Each way off the written-out path hands the loops its state, and the
    # loops continue from it to their own bits: a dead row at the start,
    # with every evaluation left; a target that drops to 0 after a step,
    # with every row live; a pivot swap, with every row's target positive,
    # which the loops' next Newton system makes.
    steps = norms._MIXED21_NEWTON_STEPS
    returned = _watch_written(monkeypatch)
    systems = []
    solve = norms._solve_floats

    def recorded(system):
        systems.append([list(row) for row in system])
        return solve(system)

    monkeypatch.setattr(norms, "_solve_floats", recorded)
    cases = [("dead", _reviving(3).tolist(), 0.5), ("dies", *_DIES_AFTER_A_STEP)]
    cases += [("swap", rows, tau) for rows, tau in _SWAPS]
    left = set()
    for way, rows, tau in cases:
        returned.clear()
        systems.clear()
        out = norms._newton_mixed21_floats(rows, tau)
        assert len(returned) == 1 and len(returned[0]) == 5, way
        twice, b_rows, scale, s, evaluations = returned[0]
        assert twice == [[x + x for x in row] for row in rows]
        assert 0 < evaluations <= steps
        left.add(evaluations)
        if way == "dead":
            assert evaluations == steps and min(s) == 0.0
        else:
            assert min(s) > 0.0
            live = _h_row_norms(twice, s) > tau
            assert live.all() == (way == "swap"), way
        if way == "swap":
            assert systems and _needs_swap(systems[0])
        assert _hex_prox(out) == _hex_prox(_newton_loops(monkeypatch, rows, tau))
    assert left == {steps, steps - 1}


def test_mixed21_written_newton_out_of_range_solves_rescaled(rng, monkeypatch):
    # Row norms beyond the safe range: the kernel solves its problem
    # rescaled, by the written-out kernel again, to the loops' bits, which
    # are 2^k times its bits at scale 1.
    returned = _watch_written(monkeypatch)
    rescaled = []
    rescale = norms._rescaled

    def recorded(kernel, b, tau=None):
        rescaled.append(kernel)
        return rescale(kernel, b, tau)

    monkeypatch.setattr(norms, "_rescaled", recorded)
    b = symmetric_part(rng.standard_normal((4, 4)))
    unit = norms._newton_mixed21_floats(b.tolist(), 0.25)
    for k in (-400, 400):
        returned.clear()
        rescaled.clear()
        rows, tau = np.ldexp(b, k).tolist(), math.ldexp(0.25, k)
        out = norms._newton_mixed21_floats(rows, tau)
        assert rescaled == [norms._newton_mixed21_floats]
        assert [len(x) for x in returned] == [2, 2]
        assert _hex_prox(out) == _hex_prox(_newton_loops(monkeypatch, rows, tau))
        assert np.ldexp(out[0], -k).tobytes() == np.array(unit[0]).tobytes()


def test_mixed21_written_newton_hands_capped_steps_to_dual_phase(monkeypatch):
    # Capped at one evaluation, the kernel takes no Newton step and hands
    # the loops s with no evaluation left; they hand the dual phase the
    # same B, H and ||B||_{2,1} as the loops alone, bit for bit, and get
    # the same prox back.
    returned = _watch_written(monkeypatch)
    handed = []
    dual = norms._dual_mixed21

    def recorded_dual(b, tau, h, scale):
        handed.append((b.tobytes(), tau, h.tobytes(), scale.hex()))
        return dual(b, tau, h, scale)

    monkeypatch.setattr(norms, "_dual_mixed21", recorded_dual)
    monkeypatch.setattr(norms, "_MIXED21_NEWTON_STEPS", 1)
    cases = [(_TWO_STEP_B, _TWO_STEP_TAU), (_reviving(4) + np.eye(4), 0.5), (_HANDOVER_B, 0.5)]
    for b, tau in cases:
        returned.clear()
        handed.clear()
        out = norms._newton_mixed21_floats(b.tolist(), tau)
        loops = _newton_loops(monkeypatch, b.tolist(), tau)
        assert len(returned) == 1 and len(returned[0]) == 5 and returned[0][4] == 0
        assert len(handed) == 2 and handed[0] == handed[1]
        assert _hex_prox(out) == _hex_prox(loops)


def test_certify_shaped_mixed21_proxes_stay_written_out(monkeypatch):
    # The benchmark's certify trials fit mixed21 at m = 100, d = 5 and
    # lambda = 0.1.  Every one of those proxes certifies inside the
    # written-out kernel: none hands the loops its state, so none solves
    # a Newton system by _solve_floats or reaches the dual phase.
    returned = _watch_written(monkeypatch)

    def refuse(*args):
        raise AssertionError("a certify-shaped prox left the written-out kernel")

    for name in ("_solve_floats", "_dual_mixed21", "_rescaled"):
        monkeypatch.setattr(norms, name, refuse)
    for seed in range(3):
        spec = GeneratorSpec(
            kind="two_gaussians", d=5, mean_separation=2.0, noise_sigma=1.0, seed=seed
        )
        config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind="mixed21")
        train_similarity(generate(spec, 100), config)
    assert len(returned) > 500 and all(len(out) == 2 for out in returned)


def _run_fresh(code):
    """The stdout of code run in a fresh interpreter that imports this
    source tree's simbound."""
    source_root = str(Path(simbound.__file__).resolve().parents[1])
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = source_root + (os.pathsep + inherited if inherited else "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_builds_no_written_newton_kernel():
    # A build costs milliseconds, which every set-up would pay: a fresh
    # interpreter's import compiles none; the first prox at d compiles d's.
    code = (
        "import numpy, simbound, simbound.norms as norms; "
        "print(len(norms._WRITTEN_NEWTON)); "
        "simbound.prox(numpy.eye(4), 0.5, 'mixed21'); "
        "print(sorted(norms._WRITTEN_NEWTON))"
    )
    assert _run_fresh(code) == "0\n[4]\n"


def test_import_builds_no_written_float_loop():
    # Stage one's d = 2 float loop is written out per (m, kind), and the
    # mixed21 kernel on the triple once, each at a build cost of
    # milliseconds: a fresh interpreter's import compiles none.  The first
    # fit at (m, kind) compiles its loop; a mixed21 fit runs the block
    # inline and builds no triple kernel; the first 2x2 mixed21 prox builds
    # it, and a second one reuses it.
    code = (
        "import numpy, simbound, simbound.similarity as similarity, simbound.norms as norms; "
        "print(len(similarity._WRITTEN_FLOAT_LOOPS), len(norms._WRITTEN_TRIPLE)); "
        "data = simbound.Dataset(numpy.array([[1.0, 0.5], [-1.0, 0.2], [0.8, -0.1]]), "
        "numpy.array([1.0, -1.0, 1.0])); "
        "[simbound.train_similarity(data, simbound.SimilarityConfig(0.1, 1.0, kind, 10)) "
        "for kind in ('fro', 'mixed21')]; "
        "print([(m, kind.value) for m, kind in similarity._WRITTEN_FLOAT_LOOPS]); "
        "print(len(norms._WRITTEN_TRIPLE)); "
        "kernel = norms._prox_mixed21_triple; "
        "simbound.prox(numpy.eye(2), 0.5, 'mixed21'); "
        "built = list(norms._WRITTEN_TRIPLE.values()); "
        "simbound.prox(numpy.eye(2), 0.25, 'mixed21'); "
        "print(list(norms._WRITTEN_TRIPLE), list(norms._WRITTEN_TRIPLE.values()) == built, "
        "norms._prox_mixed21_triple is kernel)"
    )
    assert _run_fresh(code) == (
        "0 0\n[(3, 'fro'), (3, 'mixed21')]\n0\n[<NormKind.MIXED21: 'mixed21'>] True True\n"
    )


def test_solve_floats_matches_reference_bits(rng):
    # Sizes 1 to 3, with pivots that tie in magnitude (the first one wins):
    # at size 2, and at size 3 in the first column and, after elimination,
    # in the second.
    systems = [
        [[-2.0, -0.0]],
        [[3.0, 0.1]],
        [[1.0, 2.0, 3.0], [-1.0, 5.0, 7.0]],
        [[1.0, 2.0, 3.0], [-2.0, 5.0, 7.0]],
        [[0.5, 2.0, 3.0, 1.0], [-2.0, 5.0, 7.0, -0.0], [2.0, 1.0, -1.0, 4.0]],
        [[4.0, 2.0, 2.0, 1.0], [1.0, 3.0, 3.0, 2.0], [1.0, -2.0, 1.0, -3.0]],
    ]
    for size in (1, 2, 3):
        for _ in range(20):
            systems.append(rng.standard_normal((size, size + 1)).tolist())
    assert [i for i, system in enumerate(systems) if _has_tied_pivot(system)] == [2, 4, 5]
    for system in systems:
        expected = _reference_solve([row[:-1] for row in system], [row[-1] for row in system])
        out = norms._solve_floats([list(row) for row in system])
        assert np.array(out).tobytes() == np.array(expected).tobytes(), system


def test_prox_leaves_input_bits(rng):
    # Stage one hands its live iterate to the prox on a zero step, so no
    # kind may write its input, signs of zero included.  The trace output is
    # also thresholded again from its own spectrum, which must match the
    # prox from a fresh eigendecomposition and leave both inputs as they
    # were.  (The d=50 stage-one pin in test_similarity covers the mixed21
    # dual phase.)
    for b in _signed_zero_inputs(rng):
        before = b.tobytes()
        triple = _triple(b) if b.shape[0] == 2 else None
        for tau in (0.0, 0.1, 0.5, 10.0):
            for kind in ALL_KINDS:
                kernel = _triple_kernel(kind)
                if triple is not None and kernel is not None:
                    kernel(triple, tau)
                    assert np.array(_rows(triple)).tobytes() == before, kind
                out, _, spectrum = _PROX[NormKind(kind)](b, tau)
                assert b.tobytes() == before, kind
                assert (spectrum is not None) == (kind == "trace" and tau > 0.0)
            if spectrum is None:
                continue
            saved = out.tobytes(), [part.tobytes() for part in spectrum]
            again, again_norm, _ = _PROX[NormKind.TRACE](out, 0.05, spectrum)
            assert (out.tobytes(), [part.tobytes() for part in spectrum]) == saved
            expected = prox(out, 0.05, "trace")
            assert np.max(np.abs(again - expected)) <= 1e-12 * max(1.0, norm(out, "trace"))
            assert again_norm == pytest.approx(norm(expected, "trace"), rel=1e-12, abs=1e-12)


def _extreme_inputs():
    b5 = np.diag([2.0, -1.0, 0.5, 1.5, -0.75])
    b5[0, 1:] = b5[1:, 0] = 0.25
    return [(np.array([[1.0, -0.5], [-0.5, 2.0]]), 0.3), (b5, 0.3)]


_EXTREME_INPUTS = _extreme_inputs()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_norm_and_prox_at_extreme_scales(kind):
    # Entries near 1e+-200 have sums of squares beyond the float range.  fro
    # and mixed21 used to return inf as the norm, and zero as the prox of
    # 1e-170 I (fro) or 1e-300 I (mixed21); they rescale now, and so do the
    # dual norms.  test_kernels_are_exact_under_powers_of_two holds every
    # kernel to its answer at scale 1 under 2^k; these are literal answers.
    assert norm(1e200 * np.eye(2), "fro") == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    assert norm(1e200 * np.eye(2), "mixed21") == pytest.approx(2e200, rel=1e-15)
    shrunk = prox(1e-170 * np.eye(2), 1e-175, "fro")
    assert np.max(np.abs(shrunk - (1e-170 - 1e-175 / math.sqrt(2.0)) * np.eye(2))) <= 1e-185
    shrunk = prox(1e-300 * np.eye(2), 1e-310, "mixed21")
    assert np.max(np.abs(shrunk - (1e-300 - 1e-310) * np.eye(2))) <= 1e-315
    assert dual_norm(1e200 * np.eye(2), "fro") == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    assert dual_norm(1e200 * np.eye(2), "mixed21") == pytest.approx(1e200, rel=1e-15)
    assert dual_norm(1e-200 * np.eye(2), "fro") == pytest.approx(math.sqrt(2.0) * 1e-200, rel=1e-15)
    assert dual_norm_rank1([1e200, 1e200], [1.0, 0.0], "fro") == pytest.approx(
        math.sqrt(2.0) * 1e200, rel=1e-15
    )
    # A rank-1 dual norm is homogeneous in v and x apart, so scaling v by
    # 2^k and x by 2^-k leaves it as it is, bit for bit.
    for b, _ in _EXTREME_INPUTS:
        v, x = b[0], b[-1]
        for k in (665, -665, -997):
            scaled = dual_norm_rank1(np.ldexp(v, k), np.ldexp(x, -k), kind)
            assert scaled == dual_norm_rank1(v, x, kind)
    # The Frobenius norm of 1.7e308 I is beyond the float range.  Its prox
    # used to come back unshrunk, its shrink factor reading that norm as
    # inf; the array and triple kernels shrink it now, and its norm comes
    # back inf.
    shrink = 1.7e308 - 1e306 / math.sqrt(2.0)
    with np.errstate(over="ignore"):
        out, out_norm, _ = _PROX[NormKind.FROBENIUS](1.7e308 * np.eye(2), 1e306)
        a, a_norm = norms._prox_fro_triple((1.7e308, 0.0, 1.7e308), 1e306)
    np.testing.assert_allclose(out, shrink * np.eye(2), rtol=1e-15)
    np.testing.assert_array_equal(prox(1.7e308 * np.eye(2), 1e306, "fro"), out)
    np.testing.assert_allclose(_rows(a), shrink * np.eye(2), rtol=1e-15)
    assert out_norm == a_norm == math.inf


def test_mixed21_prox_far_from_unit_scale_stays_in_its_certificate(rng):
    # The Newton phase weighs a live row by tau / ||h_i||^3.  Row norms near
    # 1e-110 cube to 0, and the float phase raised ZeroDivisionError (the
    # first case); near 2^-380 most proxes did at d <= 5, and at d = 6 the
    # array phase warned and fell back to the dual phase.  Out of the safe
    # range each phase solves its own problem rescaled by a power of two,
    # with no warning: scaled back, its prox is the prox at scale 1 bit for
    # bit, so it lies in that prox's gap certificate.
    cases = [(np.array([[1e-110, 3e-111], [3e-111, 2e-110]]), 1e-111)]
    for k in (-380, 380):
        for d in (2, 3, 5, 6):
            for _ in range(10):
                b = symmetric_part(rng.standard_normal((d, d)))
                cases.append((np.ldexp(b, k), math.ldexp(float(rng.uniform(0.1, 2.0)), k)))
    for b, tau in cases:
        exponent = -math.frexp(float(np.abs(b).max()))[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = np.ldexp(prox(b, tau, "mixed21"), exponent)
        unit_b, unit_tau = np.ldexp(b, exponent), math.ldexp(tau, exponent)
        expected = prox(unit_b, unit_tau, "mixed21")
        assert np.array_equal(out, out.T)
        assert out.tobytes() == expected.tobytes()


# The powers k of the scaling property: a stride over [-1000, 1000], the
# edges of the safe range 2^+-300, +-600, +-665 (near 1e+-200) and -997
# (near 1e-300).
_POWERS = sorted({
    *range(-1000, 1001, 40), *(s * k for k in (299, 300, 301, 600, 665) for s in (1, -1)), -997,
})


def _finite_and_normal(values):
    """Whether no entry of the arrays and floats in values is subnormal or
    infinite; zeros are allowed."""
    x = np.abs(np.concatenate([np.ravel(np.asarray(v, dtype=float)) for v in values]))
    return not np.any(np.isinf(x) | ((x > 0.0) & (x < np.finfo(float).tiny)))


def _scaling_checks(rng):
    """(name, inputs, kernel): kernel(*inputs) returns a tuple of floats
    and arrays, each homogeneous of degree 1 in the inputs.

    The prox of every kind on arrays at d = 1 to 8 and of fro and mixed21
    on the triple at d = 2, with its norm; norm, dual_norm (on B plus a skew part)
    and dual_norm_rank1 (of B's first and last rows, each scaled alone).
    The inputs are random symmetric B, more of them at d = 2, with signed
    zeros, a dead mixed21 row, a tau above d max|b_ij|, which the rescaled
    kernels cap, and _EXTREME_INPUTS.
    """
    inputs = []
    for d in range(1, 9):
        for _ in range(12 if d == 2 else 2):
            b = symmetric_part(rng.standard_normal((d, d)) * rng.uniform(0.5, 3.0))
            inputs.append((b, float(rng.uniform(0.1, 2.0))))
        signed = symmetric_part(rng.standard_normal((d, d)))
        signed[0] = signed[:, 0] = -0.0
        inputs += [(signed, 0.3), (signed, 2.0 * d * float(np.abs(signed).max()) + 1.0)]
    inputs += [(np.array(rows), 0.5) for rows in ([[0.3, -0.001], [-0.001, -2.0]], _ONE_STEP_ROWS)]
    inputs += _EXTREME_INPUTS
    checks = []
    for b, tau in inputs:
        skew = rng.standard_normal(b.shape)
        for kind in map(NormKind, ALL_KINDS):
            checks.append((
                f"_PROX {kind.value}", (b, tau), lambda b, tau, k=kind: _PROX[k](b, tau)[:2],
            ))
            checks.append((f"norm {kind.value}", (b,), lambda b, k=kind: (norm(b, k),)))
            checks.append((
                f"dual_norm {kind.value}", (b + skew - skew.T,),
                lambda b, k=kind: (dual_norm(b, k),),
            ))
            checks.append((
                f"dual_norm_rank1 {kind.value} in v", (b[0],),
                lambda v, x=b[-1], k=kind: (dual_norm_rank1(v, x, k),),
            ))
            checks.append((
                f"dual_norm_rank1 {kind.value} in x", (b[-1],),
                lambda x, v=b[0], k=kind: (dual_norm_rank1(v, x, k),),
            ))
            triple_kernel = _triple_kernel(kind.value)
            if b.shape[0] == 2 and triple_kernel is not None:
                checks.append((
                    f"_prox_{kind.value}_triple", (b, tau),
                    lambda b, tau, f=triple_kernel: _rows_and_norm(f(_triple(b), tau)),
                ))
    return checks


def _rows_and_norm(out):
    a, total = out
    return np.array(_rows(a)), total


def test_kernels_are_exact_under_powers_of_two(rng):
    # Every norm and prox is positively homogeneous, and scaling by 2^k is
    # exact, so the answer to the problem scaled by 2^k, scaled back by
    # 2^-k, equals the answer at scale 1 bit for bit, signed zeros included,
    # wherever no input or output entry at either scale is subnormal or
    # infinite.  That holds for trace on arrays too, which LAPACK scales by
    # its own thresholds beyond about 2^+-400: out of the safe range it
    # solves rescaled.
    compared = 0
    for name, inputs, kernel in _scaling_checks(rng):
        with np.errstate(over="ignore"):
            unit = kernel(*inputs)
        if not _finite_and_normal([*inputs, *unit]):
            continue
        for k in _POWERS:
            with np.errstate(over="ignore", under="ignore"):
                scaled = [np.ldexp(x, k) if np.ndim(x) else float(np.ldexp(x, k)) for x in inputs]
            if not _finite_and_normal(scaled):
                continue
            with np.errstate(over="ignore"):
                out = kernel(*scaled)
            if not _finite_and_normal(out):
                continue
            compared += 1
            for got, expected in zip(out, unit):
                back = np.ldexp(np.asarray(got, dtype=float), -k)
                expected = np.asarray(expected, dtype=float)
                assert back.tobytes() == expected.tobytes(), (name, inputs, k)
    assert compared > 20000


def test_empty_inputs_are_refused_by_name():
    # l1 and mixed21 rank-1 duals and the l1 dual used to fail inside a
    # NumPy reduction, fro and trace returned 0, and the mixed21 prox
    # returned shape (0,).
    for kind in ALL_KINDS:
        with pytest.raises(ValueError, match=r"v must be a nonempty vector, got shape \(0,\)"):
            dual_norm_rank1([], [], kind)
        with pytest.raises(ValueError, match=r"x must be a nonempty vector, got shape \(0,\)"):
            dual_norm_rank1([1.0], [], kind)
        for check in (
            lambda b: dual_norm(b, kind),
            lambda b: norm(b, kind),
            lambda b: prox(b, 1.0, kind),
        ):
            with pytest.raises(ValueError, match=r"matrix must be nonempty, got shape \(0, 0\)"):
                check(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="matrix must be nonempty"):
        sym_eigendecomposition(np.zeros((0, 0)))


def test_prox_output_symmetric(rng):
    for kind in ALL_KINDS:
        for _ in range(20):
            b = symmetric_part(rng.standard_normal((5, 5)))
            out = prox(b, 0.3, kind)
            assert np.array_equal(out, out.T)


def test_prox_optimality_probe(rng):
    """Random symmetric perturbations never beat the prox point."""
    for kind in ALL_KINDS:
        for tau in (0.01, 0.1, 0.5, 1.0):
            b = symmetric_part(rng.standard_normal((3, 3)))
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
            a = symmetric_part(rng.standard_normal((2, 2)))
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
            b1 = symmetric_part(rng.standard_normal((d, d)))
            b2 = symmetric_part(rng.standard_normal((d, d)))
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


def test_eigendecomposition_hand_matrix():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    vals, vecs = sym_eigendecomposition(a)
    assert np.allclose(vals, [1.0, 3.0], atol=1e-13)
    assert np.allclose(vecs @ np.diag(vals) @ vecs.T, a, atol=1e-13)


def test_eigendecomposition_matches_lapack(rng):
    for _ in range(50):
        d = int(rng.integers(2, 9))
        a = symmetric_part(rng.standard_normal((d, d)) * rng.uniform(0.1, 10.0))
        vals, vecs = sym_eigendecomposition(a)
        expected = np.sort(np.linalg.eigvalsh(a))
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(vals - expected)) < 1e-11 * scale
        # reconstruction and orthogonality
        assert np.max(np.abs(vecs @ np.diag(vals) @ vecs.T - a)) < 1e-11 * scale
        assert np.max(np.abs(vecs.T @ vecs - np.eye(d))) < 1e-12


def test_eigendecomposition_zero_and_diagonal():
    vals, vecs = sym_eigendecomposition(np.zeros((3, 3)))
    assert np.array_equal(vals, np.zeros(3))
    assert np.array_equal(vecs, np.eye(3))
    vals, _ = sym_eigendecomposition(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(vals, [-1.0, 2.0, 3.0], atol=0.0)


def test_norm_kind_values():
    assert [kind.value for kind in NormKind] == ALL_KINDS
    assert NormKind("fro") is NormKind.FROBENIUS
    with pytest.raises(ValueError):
        NormKind("nuclear")


def test_unknown_kind_is_named_by_its_rule():
    # A kind breaks its rule like any other scalar input, in the words
    # "<name> must be <rule>, got <value>", not in the enum's own.
    a = np.eye(2)
    for call in (
        lambda kind: norm(a, kind),
        lambda kind: prox(a, 0.1, kind),
        lambda kind: dual_norm(a, kind),
        lambda kind: dual_norm_rank1([1.0], [1.0], kind),
    ):
        for kind in ("banana", None, 2):
            with pytest.raises(ValueError, match=rf"^kind must be a norm kind, got {kind!r}$"):
                call(kind)
    with pytest.raises(ValueError, match="^norm_kind must be a norm kind, got 'banana'$"):
        SimilarityConfig(lam=0.1, margin=1.0, norm_kind="banana")
    assert SimilarityConfig(lam=0.1, margin=1.0, norm_kind=NormKind.TRACE).norm_kind is NormKind.TRACE
