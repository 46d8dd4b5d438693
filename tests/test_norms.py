import ast
import builtins
import inspect
import linecache
import math
import os
import subprocess
import symtable
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest

import simbound
from simbound import (
    Dataset,
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
import simbound.similarity as similarity
from simbound.norms import _PROX, MIXED21_GAP_RTOL
from conftest import symmetric_part, watch_dual_starts
import oracles
from oracles import (
    _reference_prox_mixed21, _reference_prox_mixed21_floats, closed_form_prox,
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
                out, out_norm = _PROX[NormKind(kind)](b, tau)
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
# by its KKT test, which the array Newton phase certifies at its first
# evaluation; _ONE_STEP_ROWS; a dead row 0 by its KKT test, for which the
# array Newton system has one unknown; and a dead row that comes back to
# life, row 0, row 1 of its mirror and row 1 of a negative matrix: a
# revived row's Newton equation, from s_i = 0 with a positive target, is
# the one place where the Jacobian takes p_ii = 1.  The d = 2 kernels solve
# the two dead rows in closed form, the others by the written-out Newton
# phase, with + - * / and math.sqrt only, so these bits hold on every
# interpreter.  The array Newton phase takes no closed form.  Each case:
# rows, the Newton steps before the certificate, the unknowns of the first
# Newton system, the kernels' prox rows and norm, and for a closed form the
# array Newton phase's rows and norm (None where the kernels run Newton).
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
    # The d = 2 kernel on the triple, the written-out kernel on the rows,
    # which screens a dead row, and the reference: the bits, then each
    # case's path.  Where the kernels run Newton, the reference's float
    # phase, capped at steps + 1 evaluations, gives their bits by steps
    # Newton systems, the first with the stated unknowns, and no kernel
    # calls LAPACK.  Where they take a closed form, the array Newton phase
    # gives the stated Newton bits by steps LAPACK solves, the first with
    # the stated unknowns.  Capped at steps + 1 the kernels give the same
    # bits and hand nothing to the dual phase.  Capped at one, a closed
    # form gives the same bits and hands nothing over, and the triple
    # kernel's uncertified Newton phase hands B to the written-out kernel,
    # so it hands the dual phase the same B, scales and ||B||_{2,1} as that
    # kernel, bit for bit, and gets the same prox back.  At that cap no
    # phase solves a Newton system: none takes a step after its last
    # evaluation.
    systems = []
    reference_systems = []
    handed = []
    solve = np.linalg.solve
    reference_solve = oracles._reference_solve
    dual = norms._dual_mixed21

    def recorded(matrix, rhs):
        systems.append(len(rhs))
        return solve(matrix, rhs)

    def recorded_reference(matrix, rhs):
        reference_systems.append(len(rhs))
        return reference_solve(matrix, rhs)

    def recorded_dual(b, tau, s, scale):
        handed.append((b.tobytes(), tau, s.tobytes(), scale.hex()))
        return dual(b, tau, s, scale)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    monkeypatch.setattr(oracles, "_reference_solve", recorded_reference)
    monkeypatch.setattr(norms, "_dual_mixed21", recorded_dual)
    kernel = norms._prox_mixed21_triple
    for rows, steps, unknowns, prox_rows, prox_norm, newton in _MIXED21_GOLDEN:
        a, total = kernel(_triple(rows), 0.5)
        assert (_hex(_rows(a)), total.hex()) == (prox_rows, prox_norm)
        assert _hex(norms._newton_mixed21_floats(rows, 0.5)) == (prox_rows, prox_norm)
        reference, reference_norm = _reference_prox_mixed21(np.array(rows), 0.5)
        assert _hex((reference.tolist(), reference_norm)) == (prox_rows, prox_norm)
        assert systems == []
        reference_systems.clear()
        if newton is None:
            reference, reference_norm = _reference_prox_mixed21_floats(
                np.array(rows), 0.5, MIXED21_GAP_RTOL, steps + 1, norms._MIXED21_DUAL_STEPS
            )
            assert _hex((reference.tolist(), reference_norm)) == (prox_rows, prox_norm)
            newton_systems = reference_systems
        else:
            arrays, arrays_norm = norms._newton_mixed21_arrays(np.array(rows), 0.5)
            assert _hex((arrays.tolist(), arrays_norm)) == newton
            newton_systems = systems
        assert len(newton_systems) == steps and newton_systems[:1] == [unknowns][:steps]
        systems.clear()
        with monkeypatch.context() as patch:
            patch.setattr(norms, "_MIXED21_NEWTON_STEPS", steps + 1)
            assert _hex(kernel(_triple(rows), 0.5)) == _hex((a, total))
            assert _hex(norms._newton_mixed21_floats(rows, 0.5)) == (prox_rows, prox_norm)
            assert handed == []
            patch.setattr(norms, "_MIXED21_NEWTON_STEPS", 1)
            capped = kernel(_triple(rows), 0.5)
            from_kernel = handed[:]
            handed.clear()
            capped_rows = norms._newton_mixed21_floats(rows, 0.5)
        assert systems == []
        if newton:
            assert _hex(capped) == _hex((a, total)) and from_kernel == []
        else:
            assert len(handed) == 1 and from_kernel == handed
            assert _hex((_rows(capped[0]), capped[1])) == _hex(capped_rows)
        handed.clear()


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
        closed += oracles._reference_mixed21_screen(b, tau) is not None
    assert 0 < closed < len(cases)


class _RefusedSteps:
    """A Newton step cap that raises once a Newton loop reads it."""

    def __index__(self):
        raise AssertionError("the Newton phase ran")


def test_mixed21_d2_dead_row_runs_no_newton(monkeypatch):
    # With the Newton phases and the dual phase refusing, and a
    # step cap that refuses to be read, a dead row, row 0 or row 1 or both,
    # still gets its prox from the kernel and from prox; a both-live input
    # starts the Newton phase.
    def refuse(*args):
        raise AssertionError("the Newton phase ran")

    for name in ("_newton_mixed21_floats", "_newton_mixed21_steps", "_dual_mixed21"):
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
    # output bit for bit, and a closed form's norm is norm(A) exactly.  The
    # dead-row rule is stated twice, by the d = 2 mixed21 block and by the
    # written-out kernels' screen: on every input with a dead row, both
    # rows dead and -0.0 entries included, the screen returns the triple
    # kernel's bits and norm.
    kernel = norms._prox_mixed21_triple
    both = negative_zero = 0
    for triple, tau in _dead_row_inputs(rng):
        b = np.array(_rows(triple))
        a, a_norm = kernel(triple, tau)
        expected = np.array(_rows(a))
        out = prox(b, tau, "mixed21")
        _assert_same_bits(out, expected)
        array_out, array_norm = _PROX[NormKind.MIXED21](b, tau)
        _assert_same_bits(array_out, expected)
        assert array_norm == a_norm
        if oracles._reference_mixed21_screen(b, tau) is not None:
            assert a_norm == norm(out, "mixed21")
            screened, screened_norm = norms._screen_mixed21(_rows(triple), tau)
            _assert_same_bits(np.array(screened), expected)
            assert screened_norm.hex() == a_norm.hex() and type(screened_norm) is float
            both += not expected.any()
            negative_zero += bool(np.signbit(expected[expected == 0.0]).any())
    assert both > 0 and negative_zero > 0


# Row 0 of a B at d = 3, 4 and 5 whose ||(b_00, 2 b_0j ...)|| is exactly
# the second number: every entry is a short binary fraction, so the squares
# and their sum round to nothing.
_SCREEN_EDGES = {
    3: ([1.0, 1.0, -1.0], 3.0),
    4: ([0.5, 0.25, -0.25, 0.25], 1.0),
    5: ([0.75, 0.25, -0.25, 0.25, -0.25], 1.25),
}


@pytest.mark.parametrize("d", [3, 4, 5])
def test_mixed21_screen_boundary(d, monkeypatch):
    # The other rows of B are far above tau.  At tau on the edge and one
    # ulp above it, the screen takes row 0, and its row and column of the
    # prox are zeros with B's signs; one ulp below, the written-out kernel
    # solves with row 0 live, and no entry of it is zero.  Each output is
    # the reference's, bit for bit.
    screened = _watch_screen(monkeypatch)
    row, edge = _SCREEN_EDGES[d]
    b = np.diag(edge * np.array([0.0, 2.5, -3.0, 3.5, 4.0][:d]))
    b[0] = b[:, 0] = row
    b[1, 2] = b[2, 1] = 0.25
    for tau in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
        screened.clear()
        dead = tau >= edge
        out, total = norms._prox_mixed21(b, tau)
        assert bool(screened) == dead, tau
        assert (out[0] == 0.0).all() == dead and (out[0] != 0.0).all() == (not dead)
        if dead:
            np.testing.assert_array_equal(np.signbit(out[0]), np.signbit(b[0]))
        expected, expected_norm = _reference_prox_mixed21(b, tau)
        _assert_same_bits(out, expected)
        assert total == expected_norm


def test_mixed21_float_newton_hands_over_to_dual_phase(monkeypatch):
    # Capped at one Newton step, the written-out kernel at d = 3 and d = 2
    # hands over the scales of its last evaluation with none left, and the
    # array Newton loop hands them to the dual phase, whose H at them
    # is bit for bit the reference's H.  The dual phase certifies the gap
    # (it raises otherwise) and matches the reference run with the same cap.
    handed = watch_dual_starts(monkeypatch)
    tau = _TWO_STEP_TAU
    for b in (_TWO_STEP_B, np.array(_ONE_STEP_ROWS)):
        handed.clear()
        full, _ = norms._prox_mixed21(b, tau)
        assert handed == []
        with monkeypatch.context() as patch:
            patch.setattr(norms, "_MIXED21_NEWTON_STEPS", 1)
            out, out_norm = norms._prox_mixed21(b, tau)
        assert len(handed) == 1
        expected, expected_norm = _reference_prox_mixed21(b, tau, newton_steps=1)
        assert [name for name, *_ in handed] == ["floats", "reference"]
        assert handed[0][1:] == handed[1][1:]
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(expected))
        assert out_norm == expected_norm and type(out_norm) is float
        assert np.array_equal(out, out.T)
        bound = _mixed21_distance_bound(out, b, tau) + _mixed21_distance_bound(full, b, tau)
        assert np.linalg.norm(out - full) <= bound


def test_mixed21_d2_newton_cap_zero_hands_start_scales_to_dual_phase(monkeypatch):
    # At a Newton cap of 0 the d = 2 kernel on the triple, prox and the
    # written-out kernel on the rows return the reference's prox with the same cap, bit for
    # bit: each hands the dual phase the start scales, from whose H it
    # starts, as the reference's does.  The kernel's block used to hand over
    # H from locals that only its Newton loop sets, and raised
    # UnboundLocalError.  A dead row still takes its closed form, which the
    # written-out kernel's screen gives too, and hands nothing over.
    handed = watch_dual_starts(monkeypatch)
    monkeypatch.setattr(norms, "_MIXED21_NEWTON_STEPS", 0)
    cases = [_ONE_STEP_ROWS, _reviving(2).tolist(), _MIXED21_GOLDEN[0][0]]
    for rows in cases:
        b = np.array(rows)
        handed.clear()
        expected, expected_norm = _reference_prox_mixed21(b, 0.5, newton_steps=0)
        a, total = norms._prox_mixed21_triple(_triple(rows), 0.5)
        out = prox(b, 0.5, "mixed21")
        _assert_same_bits(np.array(_rows(a)), expected)
        _assert_same_bits(out, expected)
        assert total == expected_norm and type(total) is float
        written = norms._newton_mixed21_floats(rows, 0.5)
        assert _hex(written) == _hex((_rows(a), total))
        if oracles._reference_mixed21_screen(b, 0.5) is None:
            assert len(handed) == 4 and len({entry[1:] for entry in handed}) == 1
        else:
            assert handed == []


def test_mixed21_newton_cap_zero_hands_start_scales_at_every_d(monkeypatch, rng):
    # At a Newton cap of 0, prox at d = 3 to 8 returns the reference's prox
    # with the same cap, bit for bit, from the H of the start scales that
    # each hands the dual phase.  The array phase (d >= 6) used to hand
    # over an H that only its Newton loop sets, and raised
    # UnboundLocalError.  Each d has a case with a row dead at the start.
    handed = watch_dual_starts(monkeypatch)
    monkeypatch.setattr(norms, "_MIXED21_NEWTON_STEPS", 0)
    for d in range(3, 9):
        dead = symmetric_part(rng.standard_normal((d, d)))
        dead[0] = dead[:, 0] = 0.01
        for b in (np.eye(d) + 0.1, symmetric_part(rng.standard_normal((d, d))), dead):
            handed.clear()
            expected, expected_norm = _reference_prox_mixed21(b, 0.5, newton_steps=0)
            out = prox(b, 0.5, "mixed21")
            _assert_same_bits(out, expected)
            _, total = norms._prox_mixed21(b, 0.5)
            assert total == expected_norm and type(total) is float
            assert len(handed) == 3 and len({entry[1:] for entry in handed}) == 1, d


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
        expected, expected_norm = norms._prox_mixed21(b, tau)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(norms, "np", ArrayOnly)
            rows, rows_norm = norms._newton_mixed21_floats(b.tolist(), tau)
            assert calls == [] and type(rows) is list and rows_norm == expected_norm
            out, out_norm = norms._prox_mixed21(b, tau)
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
        floats, floats_norm = norms._prox_mixed21(b, tau)
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


def test_mixed21_float_newton_matches_reference_bits(rng, monkeypatch):
    # Every bit of the written-out Newton phase's output, -0.0 included,
    # and its norm equal the reference's at d = 1 to 5.  The inputs make
    # Newton systems of 2 to 5 unknowns on the kernels' path, screen one
    # and two dead rows, and make a dead row that comes back to life; a
    # tied pivot below a smaller one hands the array Newton loop the
    # kernel's state; at d = 5 the dual phase takes over, from the H of the
    # last evaluation in both: the array loop hands over its scales.
    systems = []
    reference_solve = oracles._reference_solve

    def recorded(matrix, rhs):
        systems.append(len(rhs))
        return reference_solve(matrix, rhs)

    monkeypatch.setattr(oracles, "_reference_solve", recorded)
    returned = _watch_written(monkeypatch)
    screened = _watch_screen(monkeypatch)
    handed = watch_dual_starts(monkeypatch)
    cases = [(np.array([[x]]), tau) for x in (1.5, -0.25, -0.0) for tau in (0.1, 1.0)]
    for b in _signed_zero_inputs(rng):
        if b.shape[0] <= 5:
            # The prox returns B itself at tau = 0, before any Newton phase.
            cases += [(b, tau) for tau in (0.1, 0.5, abs(float(b[0, -1]))) if tau]
    cases += [(_reviving(d), 0.5) for d in (2, 3, 4, 5)]
    cases += [(_TIED_PIVOT_B, 1.0), (_HANDOVER_B, 1.2)]
    # Two dead rows leave a 1x1 block at d = 3 and a 2x2 one at d = 4.
    two_dead = [_TWO_DEAD_B[:d, :d] for d in (3, 4)]
    cases += [(b, 0.5) for b in two_dead]
    for b, tau in cases:
        handed.clear()
        returned.clear()
        screened.clear()
        rows, rows_norm = norms._newton_mixed21_floats(b.tolist(), tau)
        expected, expected_norm = _reference_prox_mixed21(b, tau)
        _assert_same_bits(np.array(rows), expected)
        assert rows_norm == expected_norm and type(rows_norm) is float
        floats = [entry[1:] for entry in handed if entry[0] == "floats"]
        assert floats == [entry[1:] for entry in handed if entry[0] == "reference"]
        if b is _HANDOVER_B:
            assert len(handed) == 2
        if b is _TIED_PIVOT_B:
            assert [len(state) for state in returned] == [5] and not screened
        if b is two_dead[1]:
            assert screened == [4] and [len(state) for state in returned] == [2, 2]
    assert {2, 3, 4, 5} <= set(systems)


def _reference_newton(rows, tau):
    """The reference's prox on rows, at the prox's caps, as (rows, norm).
    Row norms out of the safe range solve the problem rescaled by
    ``norms._rescaled``, as the written-out kernels do; the reference
    itself does not rescale."""

    def solve(rows, tau):
        a, total = _reference_prox_mixed21(
            np.array(rows), tau, MIXED21_GAP_RTOL, norms._MIXED21_NEWTON_STEPS,
            norms._MIXED21_DUAL_STEPS,
        )
        return a.tolist(), total

    b_rows = [oracles._float_norm(row) for row in rows]
    scale = 0.0
    for row_norm in b_rows:
        scale += row_norm
    if norms._SAFE_MIN <= max(b_rows) and scale <= norms._SAFE_MAX:
        return solve(rows, tau)
    return norms._rescaled(solve, rows, tau)


def _watch_written(monkeypatch):
    """Record what each written-out Newton kernel returns: A and its norm,
    or the state (2B, row norms, scale, s, evaluations left) it hands the
    array Newton loop."""
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


def _watch_screen(monkeypatch):
    """Record the size of each B that the written-out kernels screen."""
    screened = []
    screen = norms._screen_mixed21

    def recorded(rows, tau):
        screened.append(len(rows))
        return screen(rows, tau)

    monkeypatch.setattr(norms, "_screen_mixed21", recorded)
    return screened


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


def test_mixed21_written_newton_matches_reference(rng, monkeypatch):
    # At d = 3 to 5 the Newton phase, written out, returns the reference's
    # bits, -0.0 included, where it certifies, where it screens out dead
    # rows and where the array Newton loop resumes from the state it hands
    # over, and out of the safe range, where both solve rescaled.
    returned = _watch_written(monkeypatch)
    screened = _watch_screen(monkeypatch)
    certified = screens = handed = 0
    for rows, tau in _written_newton_inputs(rng):
        returned.clear()
        screened.clear()
        with np.errstate(over="ignore"):
            out = norms._newton_mixed21_floats(rows, tau)
            expected = _reference_newton(rows, tau)
        assert _hex_prox(out) == _hex_prox(expected), (rows, tau)
        assert type(out[1]) is float and returned
        # A screened block may hand over too; certified counts neither.
        screens += bool(screened)
        handed += any(len(state) == 5 for state in returned)
        certified += not screened and all(len(state) == 2 for state in returned)
    assert certified > 20 and screens > 50 and handed > 20


# Inputs at d = 3 on which the written-out kernel leaves its path: row 0
# dead at the start, with its row of H at most tau there, which the screen
# takes; rows 0 and 1 dead at the start, a dead pair; a row whose target
# drops to 0 after one Newton step; the elimination needing a pivot swap
# at the first Newton system, and after one step.
_STAYS_DEAD = ([[0.0, 0.2, 0.0], [0.2, 1.5, 0.0], [0.0, 0.0, 2.25]], 0.5)
_DEAD_PAIR = ([[0.1, 0.3, 0.0], [0.3, 0.1, 0.25], [0.0, 0.25, 2.25]], 0.5)
_DIES_AFTER_A_STEP = ([[1.0, 1.0, 0.125], [1.0, -0.0, -0.125], [0.125, -0.125, -1.25]], 1.0)
_SWAPS = [
    ([[-0.5, -1.5, 0.125], [-1.5, -0.25, 0.875], [0.125, 0.875, -1.0]], 1.25),
    ([[1.25, -0.25, -1.0], [-0.25, 1.25, 0.125], [-1.0, 0.125, -0.0]], 1.0),
]


def _h_row_norms(twice, s):
    """The row norms of H at s, every row live."""
    s = np.array(s)
    return np.sqrt(np.sum((np.array(twice) * (s / (s[:, None] + s))) ** 2, axis=1))


def test_mixed21_written_newton_exits(monkeypatch):
    # A row that starts dead and stays below tau goes to the screen, which
    # solves the 2x2 rest by the d = 2 kernel.  Each way off the
    # written-out path hands the array Newton loop the kernel's state, and
    # the loop resumes from it to the reference's bits: a dead pair, with
    # every evaluation left; a target that drops to 0 after a step, with
    # every row live; a pivot swap, with every row's target positive,
    # where the reference's elimination meets the swap at the handed-over
    # scales.
    steps = norms._MIXED21_NEWTON_STEPS
    returned = _watch_written(monkeypatch)
    screened = _watch_screen(monkeypatch)
    resumed = []
    resume = norms._newton_mixed21_steps

    def recorded(b, tau, twice_b, b_rows, scale, s, steps):
        resumed.append((twice_b.tolist(), b_rows.tolist(), scale, s.tolist(), steps))
        return resume(b, tau, twice_b, b_rows, scale, s, steps)

    monkeypatch.setattr(norms, "_newton_mixed21_steps", recorded)
    solved = []
    reference_solve = oracles._reference_solve

    def recorded_reference(matrix, rhs):
        out = reference_solve(matrix, rhs)
        solved.append(out)
        return out

    monkeypatch.setattr(oracles, "_reference_solve", recorded_reference)
    rows, tau = _STAYS_DEAD
    out = norms._newton_mixed21_floats(rows, tau)
    assert screened == [3] and [len(state) for state in returned] == [2, 2] and resumed == []
    assert out[0][0] == [0.0, 0.0, 0.0]
    assert _hex_prox(out) == _hex_prox(_reference_newton(rows, tau))
    cases = [("dead pair", *_DEAD_PAIR), ("dies", *_DIES_AFTER_A_STEP)]
    cases += [("swap", rows, tau) for rows, tau in _SWAPS]
    left = set()
    for way, rows, tau in cases:
        returned.clear()
        resumed.clear()
        out = norms._newton_mixed21_floats(rows, tau)
        assert len(returned) == 1 and len(returned[0]) == 5, way
        assert resumed == [tuple(returned[0])]
        twice, b_rows, scale, s, evaluations = returned[0]
        assert twice == [[x + x for x in row] for row in rows]
        assert 0 < evaluations <= steps
        left.add(evaluations)
        if way == "dead pair":
            assert evaluations == steps and s.count(0.0) == 2
        else:
            assert min(s) > 0.0
            live = _h_row_norms(twice, s) > tau
            assert live.all() == (way == "swap"), way
        solved.clear()
        assert _hex_prox(out) == _hex_prox(_reference_newton(rows, tau))
        if way == "swap":
            assert solved[-1] is None
    assert left == {steps, steps - 1}


def test_mixed21_written_newton_out_of_range_solves_rescaled(rng, monkeypatch):
    # Row norms beyond the safe range: the kernel solves its problem
    # rescaled, by the written-out kernel again, to the reference's bits
    # rescaled, which are 2^k times its bits at scale 1.
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
        assert _hex_prox(out) == _hex_prox(_reference_newton(rows, tau))
        assert np.ldexp(out[0], -k).tobytes() == np.array(unit[0]).tobytes()


def test_mixed21_written_newton_hands_capped_steps_to_dual_phase(monkeypatch):
    # Capped at one evaluation, the kernel takes no Newton step and hands
    # the array Newton loop s with no evaluation left; it hands the dual
    # phase that s, whose H, with B and ||B||_{2,1}, is bit for bit the one
    # the reference hands its dual phase, and gets the reference's prox
    # back.
    returned = _watch_written(monkeypatch)
    handed = watch_dual_starts(monkeypatch)
    monkeypatch.setattr(norms, "_MIXED21_NEWTON_STEPS", 1)
    cases = [(_TWO_STEP_B, _TWO_STEP_TAU), (_reviving(4) + np.eye(4), 0.5), (_HANDOVER_B, 0.5)]
    for b, tau in cases:
        returned.clear()
        handed.clear()
        out = norms._newton_mixed21_floats(b.tolist(), tau)
        expected = _reference_newton(b.tolist(), tau)
        assert len(returned) == 1 and len(returned[0]) == 5 and returned[0][4] == 0
        assert len(handed) == 2 and handed[0][1:] == handed[1][1:]
        assert _hex_prox(out) == _hex_prox(expected)


def test_mixed21_written_newton_d1_d2_match_reference(monkeypatch):
    # At d = 1 and d = 2 the written-out kernel runs first too: with its
    # screen and the array Newton loop it hands over to, it returns the
    # reference's bits, -0.0 included, and hands the dual phase the scales
    # at which the reference's H is formed.  d = 1 takes entries of both
    # signs and -0.0, live and dead; d = 2 takes _ONE_STEP_ROWS,
    # _reviving(2) and its mirror, whose dead row starts at s_i = 0 and
    # lives at the minimizer, and a row that stays dead, at caps 1 to 3
    # and the default.
    returned = _watch_written(monkeypatch)
    screened = _watch_screen(monkeypatch)
    handed = watch_dual_starts(monkeypatch)
    cases = [([[x]], tau) for x in (1.5, -0.25, -0.0, 0.5) for tau in (0.1, 0.5, 1.0)]
    cases += [
        (rows, 0.5)
        for rows in (
            _ONE_STEP_ROWS, _reviving(2).tolist(), _reviving(2)[::-1, ::-1].tolist(),
            _MIXED21_GOLDEN[2][0],
        )
    ]
    ways = set()
    for steps in (1, 2, 3, norms._MIXED21_NEWTON_STEPS):
        with monkeypatch.context() as patch:
            patch.setattr(norms, "_MIXED21_NEWTON_STEPS", steps)
            for rows, tau in cases:
                returned.clear()
                screened.clear()
                handed.clear()
                out = norms._newton_mixed21_floats(rows, tau)
                assert _hex_prox(out) == _hex_prox(_reference_newton(rows, tau)), (rows, steps)
                assert len(returned) == 1
                if handed:
                    assert [name for name, *_ in handed] == ["floats", "reference"]
                    assert handed[0][1:] == handed[1][1:]
                path = "screened" if screened else "certified" if len(returned[0]) == 2 else "handed"
                ways.add((len(rows), path, len(handed)))
    # d = 1 certifies at its first evaluation or screens; d = 2 also hands
    # over, and reaches the dual phase.
    assert {(1, "certified", 0), (1, "screened", 0), (2, "certified", 0)} <= ways
    assert {(2, "screened", 0), (2, "handed", 2)} <= ways
    assert all(way[:2] != (1, "handed") for way in ways)
    assert norms._WRITTEN_NEWTON[1] is not norms._WRITTEN_NEWTON[2]


def test_mixed21_written_newton_revives_a_dead_row(monkeypatch):
    # At d = 3 to 5, _reviving(d)'s row 0 starts at s_0 = 0 and comes back
    # to life: with no dead pair and every row of H above tau, the
    # written-out kernel keeps solving, p_00 taking the stand-in 1, and
    # certifies with no hand-over.  At caps 1 to 3 and the default its
    # bits, and those of the array Newton loop where a cap runs out first,
    # are the reference's.
    returned = _watch_written(monkeypatch)
    cap = norms._MIXED21_NEWTON_STEPS
    for steps in (1, 2, 3, cap):
        with monkeypatch.context() as patch:
            patch.setattr(norms, "_MIXED21_NEWTON_STEPS", steps)
            for d in (3, 4, 5):
                rows = _reviving(d).tolist()
                returned.clear()
                out = norms._newton_mixed21_floats(rows, 0.5)
                assert _hex_prox(out) == _hex_prox(_reference_newton(rows, 0.5))
                (state,) = returned
                assert len(state) == 2 or state[4] == 0, (d, steps)
                if steps == cap:
                    assert len(state) == 2 and out[0][0][1] > 0.0


def test_d2_mixed21_block_runs_the_generated_newton():
    # The d = 2 mixed21 block states no Newton step of its own: its
    # hand-written text runs no loop and binds no name of the Newton
    # phase, which the generator of the written-out kernels writes in, the
    # same text that the d = 2 kernel runs.
    template = norms._PROX_BLOCKS[NormKind.MIXED21]
    assert template.count("{newton}") == 1
    hand_written = ast.parse(template.replace("{newton}", "pass"))
    assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(hand_written))
    newton = norms._newton_mixed21_fields(2)["newton"]
    assert not _bound_names(hand_written) & _bound_names(ast.parse(newton))
    holders = [(norms._prox_block(NormKind.MIXED21), 8), (norms._newton_mixed21_source(2), 4)]
    for text, indent in holders:
        assert " " * indent + newton.replace("\n", "\n" + " " * indent) in text


def _bound_names(tree):
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }


def test_certify_shaped_mixed21_proxes_stay_written_out(monkeypatch):
    # The benchmark's certify trials fit mixed21 at m = 100, d = 5 and
    # lambda = 0.1.  Every one of those proxes certifies inside the
    # written-out kernel: none has a dead row for the screen, and none
    # hands its state to the array Newton loop or reaches the dual phase.
    returned = _watch_written(monkeypatch)

    def refuse(*args):
        raise AssertionError("a certify-shaped prox left the written-out kernel")

    for name in ("_screen_mixed21", "_newton_mixed21_steps", "_dual_mixed21", "_rescaled"):
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
    # interpreter's import compiles none, and writes no source, the d = 2
    # mixed21 block's included; the first prox at d compiles d's.
    code = (
        "import sys; written = []; "
        "sys.setprofile(lambda frame, event, arg: event == 'call' and frame.f_code.co_name in "
        "('_fill_skeleton', '_newton_mixed21_fields', '_prox_block') "
        "and written.append(frame.f_code.co_name)); "
        "import numpy, simbound, simbound.norms as norms; "
        "sys.setprofile(None); "
        "print(written, len(norms._WRITTEN_NEWTON)); "
        "simbound.prox(numpy.eye(4), 0.5, 'mixed21'); "
        "print(sorted(norms._WRITTEN_NEWTON))"
    )
    assert _run_fresh(code) == "[] 0\n[4]\n"


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


def _written_sources():
    """Every written-out source, with the module it is compiled in: the 48
    float loops (m 1 to 12, four kinds), the d = 1 to 5 Newton kernels and
    the two kernels on the triple."""
    sources = [
        ((m, kind), similarity._float_loop_source((m, kind)), similarity)
        for m in range(1, 13) for kind in NormKind
    ]
    sources += [(d, norms._newton_mixed21_source(d), norms) for d in (1, 2, 3, 4, 5)]
    sources += [
        (kind, norms._prox_triple_source(kind), norms)
        for kind in (NormKind.FROBENIUS, NormKind.MIXED21)
    ]
    return sources


def test_written_sources_read_only_names_their_module_holds():
    # No linter reads the written-out sources, and a name that only a cold
    # path reads fails only when that path runs.  symtable finds every
    # global name each source reads, in every scope, and each must be a
    # builtin or a name of the module the source runs in.
    sources = _written_sources()
    assert len(sources) == 55
    for key, text, module in sources:
        missing = set()
        tables = [symtable.symtable(text, "<written>", "exec")]
        while tables:
            table = tables.pop()
            tables += table.get_children()
            for symbol in table.get_symbols():
                name = symbol.get_name()
                if symbol.is_global() and symbol.is_referenced() and not (
                    hasattr(builtins, name) or name in vars(module)
                ):
                    missing.add(name)
        assert not missing, (module.__name__, key, missing)


def test_d2_blocks_bind_no_name_the_float_loop_reads(monkeypatch):
    # The float loop runs its kind's d = 2 block inline, so each name the
    # block binds is a local of the loop.  None may be one that the loop
    # itself reads, except the state they share: the triple, a_norm and
    # trace's spectrum.  A block that clobbered the loop's per-fit hinge
    # bound would send every hinge pass to _hinge_floats with the same
    # bits, so only its speed would show it.
    shared = {"a_00", "a_01", "a_11", "a_norm", "decompose"}
    shared |= {"x_0", "x_1", "v_00", "v_01", "v_10", "v_11"}
    for kind in NormKind:
        with monkeypatch.context() as patch:
            patch.setattr(similarity, "_prox_block", lambda kind: "pass")
            loop = ast.parse(similarity._float_loop_source((3, kind)))
        read = {
            node.id for node in ast.walk(loop)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        assert "bound" in read and "factor" in read
        clash = _bound_names(ast.parse(norms._prox_block(kind))) & read
        assert clash <= shared, (kind, clash - shared)


def test_written_sources_show_in_tracebacks(monkeypatch):
    # A written-out function's text is in linecache, under the name it is
    # compiled with, and stays there through checkcache: an error inside a
    # float loop or a d = 1, 2 or 5 Newton kernel shows its failing line,
    # and inspect.getsource returns each kernel's text.
    monkeypatch.setattr(similarity, "_WRITTEN_FLOAT_LOOPS", {})
    monkeypatch.setattr(norms, "_WRITTEN_NEWTON", {})
    monkeypatch.setattr(similarity, "_hinge_floats", None)
    monkeypatch.setattr(norms, "MIXED21_GAP_RTOL", None)
    data = Dataset(np.array([[1.0, 0.5], [-1.0, 0.2]]), np.array([1.0, -1.0]))
    config = SimilarityConfig(0.1, 1.0, "mixed21", 10)
    b = symmetric_part(np.arange(25.0).reshape(5, 5) / 25.0 + np.eye(5))
    newton = [
        (
            lambda rows=rows: norms._newton_mixed21_floats(rows, 0.5),
            f"<_newton_mixed21_source: {len(rows)}>",
            "tolerance = tau * MIXED21_GAP_RTOL",
        )
        for rows in ([[1.5]], _ONE_STEP_ROWS, b.tolist())
    ]
    for run, filename, line in [
        (
            lambda: train_similarity(data, config),
            "<_float_loop_source: (2, <NormKind.MIXED21: 'mixed21'>)>",
            "hinge_sum, u_0, u_1 = _hinge_floats(rows, 0.0, 0.0)",
        ),
        *newton,
    ]:
        for _ in range(2):
            shown = ""
            try:
                run()
            except TypeError:
                shown = traceback.format_exc()
            assert f'File "{filename}"' in shown and f"\n    {line}\n" in shown, shown
            linecache.checkcache()
    for d in (1, 2, 5):
        assert inspect.getsource(norms._WRITTEN_NEWTON[d]) == norms._newton_mixed21_source(d)


def test_prox_leaves_input_bits(rng):
    # Stage one hands its live iterate to the prox on a zero step, so no
    # kind may write its input, signs of zero included.  (The d=50
    # stage-one pin in test_similarity covers the mixed21 dual phase.)
    for b in _signed_zero_inputs(rng):
        before = b.tobytes()
        triple = _triple(b) if b.shape[0] == 2 else None
        for tau in (0.0, 0.1, 0.5, 10.0):
            for kind in ALL_KINDS:
                kernel = _triple_kernel(kind)
                if triple is not None and kernel is not None:
                    kernel(triple, tau)
                    assert np.array(_rows(triple)).tobytes() == before, kind
                _PROX[NormKind(kind)](b, tau)
                assert b.tobytes() == before, kind


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
        out, out_norm = _PROX[NormKind.FROBENIUS](1.7e308 * np.eye(2), 1e306)
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
    zeros, a dead mixed21 row of zeros and one of small entries, which the
    screen takes up to d = 5, a tau above d max|b_ij|, which the rescaled
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
        small = symmetric_part(rng.standard_normal((d, d)) * 2.0)
        small[0] *= 0.01
        small[:, 0] *= 0.01
        inputs.append((small, 0.25))
    inputs += [(np.array(rows), 0.5) for rows in ([[0.3, -0.001], [-0.001, -2.0]], _ONE_STEP_ROWS)]
    inputs += _EXTREME_INPUTS
    checks = []
    for b, tau in inputs:
        skew = rng.standard_normal(b.shape)
        for kind in map(NormKind, ALL_KINDS):
            checks.append((f"_PROX {kind.value}", (b, tau), _PROX[kind]))
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
