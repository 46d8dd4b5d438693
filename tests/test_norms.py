import math
import warnings

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
)
import simbound.norms as norms
from simbound.norms import _PROX, _PROX_FLOATS, MIXED21_GAP_RTOL
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


def test_prox_matches_reference_bits(rng):
    # assert_array_equal takes -0.0 and +0.0 as equal; signbit does not.
    # Thresholds hit an entry exactly, shrink every entry to zero, and skip
    # the prox (tau = 0).  Both kernel sets: the float kernels up to d = 4,
    # where stage one runs them, trace also from a given spectrum.
    for b in _signed_zero_inputs(rng):
        for tau in (0.0, 0.1, 0.5, abs(float(b[0, -1])), 10.0):
            for kind in ALL_KINDS:
                out, out_norm, spectrum = _PROX[NormKind(kind)](b, tau)
                expected, expected_norm = reference_prox(b, tau, kind)
                _assert_same_bits(out, expected)
                assert out_norm == expected_norm and type(out_norm) is float, kind
                if b.shape[0] > 4:
                    continue
                rows, rows_norm, spectrum = _PROX_FLOATS[NormKind(kind)](b.tolist(), tau)
                expected, expected_norm, expected_spectrum = reference_prox_floats(
                    b.tolist(), tau, kind
                )
                _assert_same_bits(rows, expected)
                assert rows_norm == expected_norm and type(rows_norm) is float, kind
                if spectrum is None:
                    continue
                for part, expected_part in zip(spectrum, expected_spectrum):
                    _assert_same_bits(part, expected_part)
                again, again_norm, _ = _PROX_FLOATS[NormKind.TRACE](rows, 0.05, spectrum)
                expected, expected_norm, _ = reference_prox_floats(
                    expected, 0.05, kind, expected_spectrum
                )
                _assert_same_bits(again, expected)
                assert again_norm == expected_norm


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


def test_spectrum_floats_matches_eigh(monkeypatch, rng):
    # Eigenpairs of a 2x2 matrix by one rotation, with no LAPACK call:
    # ascending, and within a few ulps of max|entry| of eigh's eigenvalues,
    # of B rebuilt and of orthonormal, checked on B scaled by a power of two
    # near its largest entry so that nothing overflows or underflows.
    monkeypatch.setattr(norms, "_eigh", _no_eigh)
    eps = 2.0 ** -52
    for a, b, c in _spectrum_inputs(rng):
        rows = [[a, b], [b, c]]
        eigenvalues, vectors = norms._spectrum_floats(rows)
        assert eigenvalues[0] <= eigenvalues[1], rows
        assert all(type(x) is float for x in [*eigenvalues, *vectors[0], *vectors[1]])
        w, v, matrix = np.array(eigenvalues), np.array(vectors), np.array(rows)
        exponent = math.frexp(float(np.abs(matrix).max()))[1]
        rebuilt = (v * np.ldexp(w, -exponent)) @ v.T
        assert np.abs(rebuilt - np.ldexp(matrix, -exponent)).max() <= 4 * eps, rows
        assert np.abs(v.T @ v - np.eye(2)).max() <= 4 * eps, rows
        expected = np.linalg.eigh(matrix)[0]
        assert np.abs(np.ldexp(w - expected, -exponent)).max() <= 4 * eps, rows
    for x in (2.5, -0.0, 5e-324, -1e308):
        assert norms._spectrum_floats([[x]]) == ([x], [[1.0]])


def test_spectrum_floats_leaves_the_rest_to_eigh(monkeypatch):
    # Non-finite entries, a 2b or c - a that overflows, and d >= 3.
    calls = []
    eigh = norms._eigh

    def recorded(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(norms, "_eigh", recorded)
    nan, inf = math.nan, math.inf
    cases = [
        [[nan]], [[inf]], [[-inf]],
        [[nan, 0.0], [0.0, 1.0]], [[1.0, nan], [nan, 1.0]], [[1.0, 0.0], [0.0, inf]],
        [[-inf, 1.0], [1.0, 0.0]], [[1.0, inf], [inf, 1.0]], [[inf, 0.0], [0.0, inf]],
        # 2b overflows; c - a overflows.
        [[0.0, 1e308], [1e308, 0.0]], [[1e308, 1.0], [1.0, -1e308]],
        np.eye(3).tolist(), [[1.0, 0.5, 0.0], [0.5, 2.0, 0.25], [0.0, 0.25, 0.5]],
    ]
    with np.errstate(invalid="ignore"):
        for rows in cases:
            calls.clear()
            eigenvalues, vectors = norms._spectrum_floats(rows)
            assert calls == [(len(rows), len(rows))], rows
            expected = np.linalg.eigh(np.array(rows))
            _assert_same_bits(eigenvalues, expected[0].tolist())
            _assert_same_bits(vectors, expected[1].tolist())


def _hex(x):
    """x with every float written by float.hex, in nested lists and tuples."""
    if isinstance(x, float):
        return x.hex()
    return type(x)(map(_hex, x))


# 2x2 trace proxes whose bits are literals: a rotation whose pairs swap and
# whose small eigenvalue shrinks to -0.0; a = c (zeta = 0); a rotation in
# order.  The kernel uses + - * / and math.sqrt, all correctly rounded, so
# these bits hold on every interpreter (the built-in sum or math.hypot
# would not promise that).  Each case: rows, tau, the eigenvalues and
# eigenvector rows, the prox rows, its norm and the thresholded eigenvalues.
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
    monkeypatch.setattr(norms, "_eigh", _no_eigh)
    for rows, tau, eigenvalues, vectors, prox_rows, prox_norm, thresholded in _TRACE_GOLDEN:
        assert _hex(norms._spectrum_floats(rows)) == (eigenvalues, vectors)
        a, total, spectrum = _PROX_FLOATS[NormKind.TRACE](rows, tau)
        assert _hex(a) == prox_rows
        assert total.hex() == prox_norm
        assert _hex(spectrum) == (thresholded, vectors)


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


# d = 2 mixed21 proxes at tau = 0.5 whose bits are literals: certified at
# the first evaluation with row 0 dead; _ONE_STEP_ROWS; one live row, a 1x1
# Newton system; and a dead row that comes back to life.  The d = 2 Newton
# phase uses + - * / and math.sqrt only, so these bits hold on every
# interpreter.  Each case: rows, the Newton steps before the certificate,
# the unknowns of the first Newton system, the prox rows and its norm.
_MIXED21_GOLDEN = [
    (
        [[0.3, -0.001], [-0.001, -2.0]], 0, 0,
        [["0x0.0p+0", "-0x0.0p+0"], ["-0x0.0p+0", "-0x1.8000010c6f76cp+0"]],
        "0x1.8000010c6f76cp+0",
    ),
    (
        _ONE_STEP_ROWS, 1, 2,
        [
            ["-0x1.00219866e32c2p+0", "0x1.736e45ab965d7p-5"],
            ["0x1.736e45ab965d7p-5", "0x1.07c0aab3119adp-2"],
        ],
        "0x1.4358988ae2697p+0",
    ),
    (
        [[0.25, -0.15], [-0.15, -1.5]], 1, 1,
        [["0x0.0p+0", "-0x0.0p+0"], ["-0x0.0p+0", "-0x1.0000000000000p+0"]],
        "0x1.0000000000000p+0",
    ),
    (
        _reviving(2).tolist(), 3, 2,
        [
            ["0x0.0p+0", "0x1.48e7d15e1b5d2p-3"],
            ["0x1.48e7d15e1b5d2p-3", "0x1.019988afc4b84p+0"],
        ],
        "0x1.2df920df53492p+0",
    ),
]


def test_mixed21_prox_d2_golden_bits(monkeypatch):
    # The bits, then each case's path: capped at steps + 1 evaluations it
    # gives the same bits, and capped at one it hands over to the loops,
    # whose first Newton system has the stated unknowns (none if the first
    # evaluation certifies).  At d = 2 only the loops call _solve_floats.
    systems = []
    solve = norms._solve_floats

    def recorded(system):
        systems.append(len(system))
        return solve(system)

    monkeypatch.setattr(norms, "_solve_floats", recorded)
    for rows, steps, unknowns, prox_rows, prox_norm in _MIXED21_GOLDEN:
        out = norms._newton_mixed21_floats(rows, 0.5)
        assert _hex(out) == (prox_rows, prox_norm)
        assert systems == []
        with monkeypatch.context() as patch:
            patch.setattr(norms, "_MIXED21_NEWTON_STEPS", steps + 1)
            assert _hex(norms._newton_mixed21_floats(rows, 0.5)) == _hex(out)
            patch.setattr(norms, "_MIXED21_NEWTON_STEPS", 1)
            norms._newton_mixed21_floats(rows, 0.5)
        assert systems == ([unknowns] if unknowns else [])
        systems.clear()


def test_mixed21_newton_phase_chosen_by_dimension(monkeypatch):
    chosen = []
    for name in ("_newton_mixed21_floats", "_newton_mixed21_arrays"):
        def recorded(b, tau, name=name):
            chosen.append(name)
            return b, 0.0

        monkeypatch.setattr(norms, name, recorded)
    for d in (2, 3, 4, 5, 6):
        norms._prox_mixed21(np.eye(d), 0.5)
    assert chosen == ["_newton_mixed21_floats"] * 4 + ["_newton_mixed21_arrays"]


def test_mixed21_float_newton_hands_over_to_dual_phase(monkeypatch):
    # Capped at one Newton step, the float phase at d = 3 and d = 2 hands
    # the H of its last evaluation to the dual phase, bit for bit the
    # reference's H.  The dual phase certifies the gap (it raises otherwise)
    # and matches the reference run with the same cap.  At d = 2 the
    # written-out phase hands over to the loops, which take the same step.
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
        rows = b.tolist()
        for tau in (0.0, 0.1, 0.5, 10.0):
            for kind in ALL_KINDS:
                if b.shape[0] <= 4:
                    _, _, spectrum = _PROX_FLOATS[NormKind(kind)](rows, tau)
                    assert np.array(rows).tobytes() == before, kind
                    if spectrum is not None:
                        saved = [np.array(part).tobytes() for part in spectrum]
                        _PROX_FLOATS[NormKind.TRACE](rows, 0.05, spectrum)
                        assert [np.array(part).tobytes() for part in spectrum] == saved
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


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_norm_and_prox_at_extreme_scales(kind):
    # Entries near 1e+-200 have sums of squares beyond the float range.  fro
    # and mixed21 used to return inf as the norm, and zero as the prox of
    # 1e-170 I (fro) or 1e-300 I (mixed21); they rescale now, and so do the
    # dual norms.  All of these are homogeneous, so the scaled answers are
    # the scaled answers at 1.  d = 2 runs the mixed21 Newton on floats,
    # d = 5 on arrays; the float kernels of stage one go through their cold
    # path too.
    b5 = np.diag([2.0, -1.0, 0.5, 1.5, -0.75])
    b5[0, 1:] = b5[1:, 0] = 0.25
    for b in (np.array([[1.0, -0.5], [-0.5, 2.0]]), b5):
        tau = 0.3
        expected = prox(b, tau, kind)
        v, x = b[0], b[-1]
        for scale in (1e200, 1e-200, 1e-300):
            assert norm(scale * b, kind) == pytest.approx(scale * norm(b, kind), rel=1e-14)
            assert dual_norm(scale * b, kind) == pytest.approx(scale * dual_norm(b, kind), rel=1e-14)
            rank1 = dual_norm_rank1(v, x, kind)
            for pair, expected_rank1 in (((scale * v, x), scale * rank1),
                                         ((v, scale * x), scale * rank1),
                                         ((scale * v, x / scale), rank1)):
                assert dual_norm_rank1(*pair, kind) == pytest.approx(expected_rank1, rel=1e-14)
            out = prox(scale * b, scale * tau, kind)
            assert np.max(np.abs(out - scale * expected)) <= 1e-13 * scale
            if b.shape[0] > 4:
                continue
            with np.errstate(over="ignore"):
                rows, rows_norm, _ = _PROX_FLOATS[NormKind(kind)]((scale * b).tolist(), scale * tau)
            assert np.max(np.abs(np.array(rows) - scale * expected)) <= 1e-13 * scale
            assert rows_norm == pytest.approx(norm(out, kind), rel=1e-14)
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


def test_mixed21_prox_far_from_unit_scale_stays_in_its_certificate(rng):
    # The Newton phase weighs a live row by tau / ||h_i||^3.  Row norms near
    # 1e-110 cube to 0, and the float phase raised ZeroDivisionError (the
    # first case); near 2^-380 most proxes did at d <= 5, and at d = 6 the
    # array phase warned and fell back to the dual phase.  Out of the Newton
    # range the prox is solved rescaled by a power of two, with no warning,
    # and lands within the gap certificate of the prox at scale 1.
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
        bound = _mixed21_distance_bound(out, unit_b, unit_tau) + _mixed21_distance_bound(
            expected, unit_b, unit_tau
        )
        assert np.linalg.norm(out - expected) <= bound


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
