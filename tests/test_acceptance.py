"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines print as the
checks complete.  Two session fixtures carry the heavy work (solver-vs-grid
instances and certificate trials); the feasibility and anchor sweeps then
audit every model those fixtures trained.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import simbound
from simbound import (
    Dataset,
    GeneratorSpec,
    SimilarityConfig,
    anchor_coefficients,
    build_bound_report,
    empirical_hinge_error,
    empirical_similarity_error,
    generate,
    khinchin_check,
    norm,
    project_l1_ball,
    prox,
    rademacher_empirical,
    save_csv,
    similarity_objective,
    train_separator,
    train_similarity,
    true_hinge_error,
    true_similarity_error,
)
from simbound.cli import derive_seed
from simbound.norms import dual_norm, dual_norm_rank1
from simbound.separator import Separator
from conftest import make_rng, random_dataset
from oracles import (
    grid_l1_projection_oracle,
    grid_similarity_oracle,
    prox_objective,
    prox_oracle,
)

# Checks 01-05 take minutes and carry the slow marker, so `pytest -m "not
# slow"` leaves them out; checks 06-11 take seconds and run with the unit tests.

ALL_KINDS = ("l1", "fro", "mixed21", "trace")

# Every (model, training data, separator-or-None) trained in this module.
# The separator slot is filled lazily by the anchor sweep when missing.
TRAINED = []


def verdict(tag, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {tag}] {status}: {detail}")


# ---------------------------------------------------------------- check 01


@pytest.mark.slow
def test_01_prox_closed_forms_match_oracle():
    rng = make_rng(1)
    raw = rng.standard_normal((200, 3, 3))
    bs = (raw + raw.transpose(0, 2, 1)) / 2.0
    oracle_iters = {"l1": 120000, "fro": 60000, "mixed21": 60000, "trace": 200000}
    taus = (0.01, 0.1, 0.5, 1.0)
    started = time.monotonic()
    # One oracle run per kind covers every tau: the batch holds bs once per
    # tau, with that tau for each of its rows.
    n = bs.shape[0]
    bs_all = np.concatenate([bs] * len(taus))
    tau_all = np.repeat(taus, n)

    def oracle_and_ours(kind):
        oracle = prox_oracle(bs_all, tau_all[:, None, None], kind, oracle_iters[kind])
        ours = np.stack([prox(b, tau, kind) for tau, b in zip(tau_all, bs_all)])
        return oracle, ours

    worst_dist = {}
    worst_self = {}
    for kind in ("l1", "fro", "trace"):
        oracle, ours = oracle_and_ours(kind)
        dist = np.linalg.norm((ours - oracle).reshape(len(bs_all), -1), axis=1)
        self_gap = prox_objective(ours, bs_all, tau_all, kind) - prox_objective(
            oracle, bs_all, tau_all, kind
        )
        worst_dist[kind] = float(dist.max())
        worst_self[kind] = float(self_gap.max())

    oracle, ours = oracle_and_ours("mixed21")
    gap = prox_objective(ours, bs_all, tau_all, "mixed21") - prox_objective(
        oracle, bs_all, tau_all, "mixed21"
    )
    mixed_gaps = {}
    for tau, tau_gap in zip(taus, gap.reshape(len(taus), n)):
        mixed_gaps[tau] = float(tau_gap.max())
        print(f"    mixed21 tau={tau}: max objective gap {mixed_gaps[tau]:+.3e}")

    elapsed = time.monotonic() - started
    closed_ok = all(v <= 1e-4 for v in worst_dist.values()) and all(
        v <= 1e-10 for v in worst_self.values()
    )
    mixed_ok = all(v <= 1e-3 for v in mixed_gaps.values())
    ok = closed_ok and mixed_ok and elapsed < 60.0
    detail = (
        f"closed-form dist max {max(worst_dist.values()):.2e}, "
        f"self-check max {max(worst_self.values()):.2e}, "
        f"mixed21 objective gap max {max(mixed_gaps.values()):.2e} "
        f"(budget 1e-3), {elapsed:.1f}s"
    )
    verdict("01 prox vs oracle", ok, detail)
    assert closed_ok, f"closed-form clause failed: {detail}"
    assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.1f}s"
    assert mixed_ok, (
        "mixed21 prox exceeds the oracle objective budget: "
        + ", ".join(f"tau={t}: {g:+.2e}" for t, g in mixed_gaps.items())
    )


# ---------------------------------------------------------------- check 02


def tiny_instance(seed):
    rng = make_rng(seed)
    m = int(rng.integers(4, 7))
    angle = rng.uniform(0.0, 2.0 * math.pi)
    scale = rng.uniform(1.2, 1.8)
    mu = scale * np.array([math.cos(angle), math.sin(angle)])
    labels = np.concatenate([np.ones(m // 2), -np.ones(m - m // 2)])
    labels = labels[rng.permutation(m)]
    features = labels[:, None] * mu[None, :] + 0.15 * rng.standard_normal((m, 2))
    return Dataset(features, labels)


@pytest.fixture(scope="session")
def tiny_solver_gaps():
    started = time.monotonic()
    gaps = {kind: [] for kind in ALL_KINDS}
    for seed in range(20):
        data = tiny_instance(seed + 100)
        for lam in (0.05, 0.2):
            for kind in ALL_KINDS:
                grid_min = grid_similarity_oracle(
                    data.features, data.labels, lam, 1.0, kind, step=0.01
                )
                config = SimilarityConfig(
                    lam=lam, margin=1.0, norm_kind=kind,
                    max_iters=20000, step0=2.0, rel_tol=0.0,
                )
                model = train_similarity(data, config)
                gaps[kind].append(model.final_objective - grid_min)
                TRAINED.append([model, data, None])
    return {"gaps": gaps, "elapsed": time.monotonic() - started}


@pytest.mark.slow
def test_02_solver_matches_grid_oracle(tiny_solver_gaps):
    gaps = tiny_solver_gaps["gaps"]
    elapsed = tiny_solver_gaps["elapsed"]
    worst = {kind: max(values) for kind, values in gaps.items()}
    ok = all(v <= 1e-3 for v in worst.values()) and elapsed < 300.0
    detail = (
        ", ".join(f"{kind} worst gap {worst[kind]:+.2e}" for kind in ALL_KINDS)
        + f", {elapsed:.0f}s over {sum(len(v) for v in gaps.values())} instances"
    )
    verdict("02 solver vs grid oracle", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- check 05
# (the fixture sits here so checks 03 and 04 can sweep its models too)


@pytest.fixture(scope="session")
def certificate_trials():
    started = time.monotonic()
    fractions = {}
    for kind in ALL_KINDS:
        held1 = held2 = 0
        for trial in range(200):
            train_seed = derive_seed(2026, 100, 5, kind, trial, "train")
            holdout_seed = derive_seed(2026, 100, 5, kind, trial, "holdout")
            train = generate(
                GeneratorSpec(
                    kind="two_gaussians", d=5, mean_separation=2.0,
                    noise_sigma=1.0, seed=train_seed,
                ),
                100,
            )
            config = SimilarityConfig(
                lam=0.1, margin=1.0, norm_kind=kind,
                max_iters=500, step0=1.0, rel_tol=0.0,
            )
            model = train_similarity(train, config)
            sep = train_separator(model, train, max_iters=2000)
            report = build_bound_report(
                model, train, delta=0.05, mc_draws=200, seed=train_seed
            )
            holdout = generate(
                GeneratorSpec(
                    kind="two_gaussians", d=5, mean_separation=2.0,
                    noise_sigma=1.0, seed=holdout_seed,
                ),
                10000,
            )
            gap = (
                true_similarity_error(model.matrix, holdout, 1.0)
                - report.empirical_error
            )
            held1 += gap <= report.theorem1_bound
            held2 += true_hinge_error(sep, holdout) <= report.theorem2_bound
            TRAINED.append([model, train, sep])
        fractions[kind] = (held1 / 200.0, held2 / 200.0)
    return {"fractions": fractions, "elapsed": time.monotonic() - started}


@pytest.mark.slow
def test_05_certificates_hold_on_fresh_data(certificate_trials):
    fractions = certificate_trials["fractions"]
    elapsed = certificate_trials["elapsed"]
    ok = (
        all(f1 >= 0.95 and f2 >= 0.95 for f1, f2 in fractions.values())
        and elapsed < 600.0
    )
    detail = (
        ", ".join(
            f"{kind} held {f1:.3f}/{f2:.3f}" for kind, (f1, f2) in fractions.items()
        )
        + f", {elapsed:.0f}s over 800 trials"
    )
    verdict("05 deviation-bound certificates", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- check 03


@pytest.mark.slow
def test_03_feasibility_invariant(tiny_solver_gaps, certificate_trials):
    # A few extra configurations so margins other than 1 are covered.
    for margin in (0.5, 2.0):
        for kind in ALL_KINDS:
            rng = make_rng(300 + int(margin * 10))
            data = random_dataset(rng, m=30, d=4)
            config = SimilarityConfig(
                lam=0.15, margin=margin, norm_kind=kind, max_iters=400
            )
            TRAINED.append([train_similarity(data, config), data, None])

    worst_norm = -1.0
    worst_obj = -1.0
    for model, data, _ in TRAINED:
        config = model.config
        worst_norm = max(
            worst_norm, norm(model.matrix, config.norm_kind) - 1.0 / config.lam
        )
        worst_obj = max(worst_obj, similarity_objective(model.matrix, data, config) - 1.0)
    ok = worst_norm <= 1e-9 and worst_obj <= 1e-9
    detail = (
        f"{len(TRAINED)} models, worst norm slack {worst_norm:+.2e}, "
        f"worst objective slack {worst_obj:+.2e}"
    )
    verdict("03 feasible-set invariant", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- check 04


@pytest.mark.slow
def test_04_anchor_identity_and_improvement(tiny_solver_gaps, certificate_trials):
    worst_identity = 0.0
    worst_improve = -1.0
    for entry in TRAINED:
        model, data, sep = entry
        margin = model.config.margin
        e_z = empirical_similarity_error(model.matrix, data, margin)
        start = Separator(
            alpha=anchor_coefficients(data.labels, margin),
            margin=margin,
            anchor_features=data.features,
            model=model,
        )
        worst_identity = max(
            worst_identity, abs(empirical_hinge_error(start, data) - e_z)
        )
        if sep is None:
            sep = train_separator(model, data, max_iters=2000)
            entry[2] = sep
        worst_improve = max(worst_improve, empirical_hinge_error(sep, data) - e_z)
    ok = worst_identity <= 1e-12 and worst_improve <= 1e-9
    detail = (
        f"{len(TRAINED)} pairs, worst identity gap {worst_identity:.2e}, "
        f"worst trained-minus-similarity error {worst_improve:+.2e}"
    )
    verdict("04 anchor-coefficient identity", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- check 06


def test_06_frobenius_rademacher_scaling():
    ms = (50, 100, 200, 400, 800, 1600, 3200)
    estimates = []
    cap_ok = True
    for i, m in enumerate(ms):
        data = generate(
            GeneratorSpec(
                kind="two_gaussians", d=5, mean_separation=2.0,
                noise_sigma=1.0, seed=900 + i,
            ),
            m,
        )
        rows = data.features / np.linalg.norm(data.features, axis=1, keepdims=True)
        unit = Dataset(rows, data.labels)
        estimate, std_error = rademacher_empirical(unit, "fro", mc_draws=2000, seed=900 + i)
        estimates.append(estimate)
        cap_ok = cap_ok and estimate <= 2.0 / math.sqrt(m) + 3.0 * std_error
    slope = float(np.polyfit(np.log(ms), np.log(estimates), 1)[0])
    ok = -0.6 <= slope <= -0.4 and cap_ok
    detail = f"log-log slope {slope:.3f} (want [-0.6, -0.4]), caps hold: {cap_ok}"
    verdict("06 frobenius scaling in m", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- check 07


def test_07_l1_rademacher_dimension_scaling():
    results = []
    for d in (4, 16, 64, 256):
        data = generate(
            GeneratorSpec(
                kind="two_gaussians", d=d, mean_separation=2.0,
                noise_sigma=1.0, seed=910 + d,
            ),
            200,
        )
        scaled = Dataset(data.features / np.max(np.abs(data.features)), data.labels)
        estimate, std_error = rademacher_empirical(scaled, "l1", mc_draws=2000, seed=910 + d)
        cap = 2.0 * math.sqrt(math.e * math.log(d + 1) / 200.0)
        results.append((d, estimate, cap, estimate <= cap + 3.0 * std_error))
    ok = all(flag for _, _, _, flag in results)
    detail = ", ".join(f"d={d}: {est:.3f} <= {cap:.3f}" for d, est, cap, _ in results)
    verdict("07 l1 scaling in d", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- check 08


def test_08_khinchin_moment_comparison():
    rng = make_rng(808)
    worst_slack = math.inf
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        f = rng.standard_normal(n) * 10.0 ** rng.uniform(-1.0, 1.0)
        p = float(rng.choice([1.5, 2.0]))
        q = float(rng.choice([3.0, 4.0, 6.0]))
        lhs, rhs, holds = khinchin_check(f, p, q, mode="exact")
        worst_slack = min(worst_slack, rhs - lhs)
        if not holds or rhs - lhs < -1e-12:
            break
    ok = worst_slack >= -1e-12
    detail = f"1000 exact enumerations, worst slack {worst_slack:+.3e}"
    verdict("08 khinchin moment inequality", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- check 09


def test_09_rank1_dual_identities():
    rng = make_rng(909)
    worst = 0.0
    worst_trace_fro = 0.0
    for i in range(1000):
        d = int(rng.integers(1, 9))
        v = rng.standard_normal(d) * 10.0 ** rng.uniform(-1.0, 1.0)
        x = rng.standard_normal(d) * 10.0 ** rng.uniform(-1.0, 1.0)
        kind = ALL_KINDS[i % 4]
        diff = abs(dual_norm_rank1(v, x, kind) - dual_norm(np.outer(v, x), kind))
        worst = max(worst, diff)
        worst_trace_fro = max(
            worst_trace_fro,
            abs(dual_norm_rank1(v, x, "trace") - dual_norm_rank1(v, x, "fro")),
        )
    ok = worst <= 1e-12 and worst_trace_fro <= 1e-12
    detail = (
        f"1000 draws, worst factored-vs-dense diff {worst:.2e}, "
        f"worst trace-vs-frobenius diff {worst_trace_fro:.2e}"
    )
    verdict("09 rank-1 dual identities", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- check 10


def sample_ball_batch(rng, count, n, radius):
    exponentials = rng.standard_exponential((count, n))
    signs = rng.integers(0, 2, size=(count, n)) * 2.0 - 1.0
    simplex = exponentials / exponentials.sum(axis=1, keepdims=True)
    shrink = rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / n)
    return radius * signs * simplex * shrink


def test_10_l1_projection_quality():
    rng = make_rng(910)
    inside_ok = sampled_ok = grid_ok = True
    grid_cases = 0
    worst_grid = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        if n == 3:
            radius = float(rng.uniform(0.1, 0.25))
        else:
            radius = float(rng.uniform(0.2, 2.0))
        v = rng.standard_normal(n) * rng.uniform(0.2, 2.0)
        p = project_l1_ball(v, radius)
        inside_ok = inside_ok and np.abs(p).sum() <= radius + 1e-12
        candidates = sample_ball_batch(rng, 10000, n, radius)
        own = float(np.linalg.norm(v - p))
        best = float(np.sqrt(np.min(np.sum((v[None, :] - candidates) ** 2, axis=1))))
        sampled_ok = sampled_ok and own <= best + 1e-9
        if n <= 3:
            grid_cases += 1
            grid_best = grid_l1_projection_oracle(v, radius, step=0.002)
            worst_grid = max(worst_grid, abs(own - grid_best))
            grid_ok = grid_ok and abs(own - grid_best) <= 5e-3
    ok = inside_ok and sampled_ok and grid_ok
    detail = (
        f"1000 vectors: inside {inside_ok}, beats 1e4 samples {sampled_ok}, "
        f"{grid_cases} low-dim grid checks worst diff {worst_grid:.2e}"
    )
    verdict("10 l1-ball projection", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- check 11


def run_cli_subprocess(args, cwd):
    # The child runs in cwd, where a relative PYTHONPATH such as "src" no
    # longer resolves, so it is handed the directory holding the simbound
    # package this process imported.
    source_root = str(Path(simbound.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = source_root + (os.pathsep + inherited if inherited else "")
    proc = subprocess.run(
        [sys.executable, "-m", "simbound", *args],
        capture_output=True, cwd=cwd, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_11_cli_byte_determinism(tmp_path):
    rng = make_rng(1100)
    data = random_dataset(rng, m=15, d=3)
    csv_path = tmp_path / "train.csv"
    save_csv(data, csv_path)

    repeated_files = []
    for tag in ("a", "b"):
        model = tmp_path / f"model_{tag}.json"
        sep = tmp_path / f"sep_{tag}.json"
        report = tmp_path / f"report_{tag}.json"
        evaluation = tmp_path / f"eval_{tag}.json"
        run_cli_subprocess(
            ["train", "--data", str(csv_path), "--norm", "trace",
             "--lambda", "0.1", "--margin", "1.0", "--max-iters", "150",
             "--out", str(model)],
            tmp_path,
        )
        run_cli_subprocess(
            ["separator", "--model", str(model), "--data", str(csv_path),
             "--max-iters", "150", "--out", str(sep)],
            tmp_path,
        )
        run_cli_subprocess(
            ["bounds", "--model", str(model), "--data", str(csv_path),
             "--delta", "0.05", "--mc-draws", "64", "--out", str(report)],
            tmp_path,
        )
        run_cli_subprocess(
            ["eval", "--data", str(csv_path), "--model", str(model),
             "--separator", str(sep), "--out", str(evaluation)],
            tmp_path,
        )
        repeated_files.append([model, sep, report, evaluation])

    khinchin_outputs = {
        run_cli_subprocess(
            ["khinchin", "--f", "0.5,-1.5,2", "--p", "2", "--q", "4",
             "--mode", "mc", "--mc-draws", "5000", "--seed", "7"],
            tmp_path,
        )
        for _ in range(2)
    }

    experiment_dirs = []
    for tag in ("one", "two"):
        out_dir = tmp_path / f"exp_{tag}"
        config = {
            "generator": {"kind": "two_gaussians", "mean_separation": 2.0,
                          "noise_sigma": 1.0},
            "m_values": [10], "d_values": [2], "norm_kinds": ["fro"],
            "lambda": 0.1, "margin": 1.0, "delta": 0.05,
            "trials": 2, "mc_draws": 32, "seed": 5,
            "holdout_m": 100, "max_iters": 80,
            "output_dir": str(out_dir),
        }
        config_path = tmp_path / f"exp_{tag}.json"
        config_path.write_text(json.dumps(config))
        run_cli_subprocess(["experiment", "--config", str(config_path)], tmp_path)
        experiment_dirs.append(out_dir)

    mismatches = []
    for first, second in zip(*repeated_files):
        if first.read_bytes() != second.read_bytes():
            mismatches.append(first.name)
    if len(khinchin_outputs) != 1:
        mismatches.append("khinchin stdout")
    for name in ("results.csv", "summary.json"):
        if (experiment_dirs[0] / name).read_bytes() != (
            experiment_dirs[1] / name
        ).read_bytes():
            mismatches.append(name)
    ok = not mismatches
    detail = "all repeated runs byte-identical" if ok else f"mismatches: {mismatches}"
    verdict("11 cli determinism", ok, detail)
    assert ok, detail
