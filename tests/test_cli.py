"""End-to-end tests of the command-line harness (in-process)."""

import json

import numpy as np
import pytest

from simbound import khinchin_check, load_model, load_separator, norm, save_csv
from simbound.cli import EXPERIMENT_CSV_COLUMNS, _parser, derive_seed, main
from conftest import make_rng, random_dataset


def run_cli(argv):
    """Invoke main() and normalize argparse's SystemExit to a return code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture()
def train_csv(tmp_path):
    rng = make_rng(600)
    data = random_dataset(rng, m=12, d=3)
    path = tmp_path / "train.csv"
    save_csv(data, path)
    return path


def train_args(train_csv, out, norm_kind="fro", extra=()):
    return [
        "train",
        "--data", str(train_csv),
        "--norm", norm_kind,
        "--lambda", "0.1",
        "--margin", "1.0",
        "--max-iters", "200",
        "--out", str(out),
        *extra,
    ]


def test_train_success_and_invariant(train_csv, tmp_path, capsys):
    out = tmp_path / "model.json"
    assert run_cli(train_args(train_csv, out)) == 0
    assert "objective" in capsys.readouterr().out
    model = load_model(out)
    assert norm(model.matrix, "fro") <= 1.0 / 0.1 + 1e-9


def test_train_missing_data_flag(tmp_path, capsys):
    code = run_cli(["train", "--norm", "fro", "--lambda", "0.1",
                    "--margin", "1.0", "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert "usage" in capsys.readouterr().err


def test_train_bad_norm_kind(train_csv, tmp_path):
    assert run_cli(train_args(train_csv, tmp_path / "m.json", norm_kind="nuclear")) == 1


def test_train_nonexistent_data_file(tmp_path):
    assert run_cli(train_args(tmp_path / "missing.csv", tmp_path / "m.json")) == 1


def test_train_numeric_failure_exit_2(tmp_path):
    rng = make_rng(601)
    data = random_dataset(rng, m=6, d=2)
    from simbound import Dataset

    huge = Dataset(data.features * 1e8, data.labels)
    path = tmp_path / "huge.csv"
    save_csv(huge, path)
    with np.errstate(all="ignore"):
        code = run_cli(train_args(path, tmp_path / "m.json", extra=["--step0", "1e300"]))
    assert code == 2


def test_train_determinism_bytes(train_csv, tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(train_args(train_csv, first)) == 0
    assert run_cli(train_args(train_csv, second)) == 0
    assert first.read_bytes() == second.read_bytes()


def test_separator_flow(train_csv, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    run_cli(train_args(train_csv, model_path))
    sep_path = tmp_path / "sep.json"
    code = run_cli([
        "separator", "--model", str(model_path), "--data", str(train_csv),
        "--max-iters", "200", "--out", str(sep_path),
    ])
    assert code == 0
    assert "hinge_error" in capsys.readouterr().out
    sep = load_separator(sep_path)
    assert np.abs(sep.alpha).sum() <= 1.0 / sep.margin + 1e-9


def test_separator_dimension_mismatch(train_csv, tmp_path):
    model_path = tmp_path / "model.json"
    run_cli(train_args(train_csv, model_path))
    rng = make_rng(602)
    other = tmp_path / "other.csv"
    save_csv(random_dataset(rng, m=5, d=4), other)
    code = run_cli(["separator", "--model", str(model_path),
                    "--data", str(other), "--out", str(tmp_path / "s.json")])
    assert code == 1


def test_separator_corrupted_model(train_csv, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run_cli(["separator", "--model", str(bad),
                    "--data", str(train_csv), "--out", str(tmp_path / "s.json")])
    assert code == 1


def test_bounds_flow(train_csv, tmp_path):
    model_path = tmp_path / "model.json"
    run_cli(train_args(train_csv, model_path))
    report_path = tmp_path / "report.json"
    code = run_cli([
        "bounds", "--model", str(model_path), "--data", str(train_csv),
        "--delta", "0.05", "--mc-draws", "64", "--out", str(report_path),
    ])
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["m"] == 12
    assert doc["r_m_used"] == min(doc["r_m_empirical"], doc["r_m_analytic"])
    again = tmp_path / "report2.json"
    run_cli(["bounds", "--model", str(model_path), "--data", str(train_csv),
             "--delta", "0.05", "--mc-draws", "64", "--out", str(again)])
    assert report_path.read_bytes() == again.read_bytes()


def test_bounds_bad_delta(train_csv, tmp_path):
    model_path = tmp_path / "model.json"
    run_cli(train_args(train_csv, model_path))
    code = run_cli(["bounds", "--model", str(model_path), "--data", str(train_csv),
                    "--delta", "1.5", "--out", str(tmp_path / "r.json")])
    assert code == 1


def test_eval_requires_some_artifact(train_csv):
    assert run_cli(["eval", "--data", str(train_csv)]) == 1


def test_eval_reports_errors(train_csv, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    sep_path = tmp_path / "sep.json"
    run_cli(train_args(train_csv, model_path))
    run_cli(["separator", "--model", str(model_path), "--data", str(train_csv),
             "--max-iters", "100", "--out", str(sep_path)])
    capsys.readouterr()
    code = run_cli(["eval", "--data", str(train_csv),
                    "--model", str(model_path), "--separator", str(sep_path)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == 12 and doc["d"] == 3
    assert 0.0 <= doc["zero_one_error"] <= 1.0
    assert doc["hinge_error"] <= doc["similarity_error"] + 1e-9


def test_khinchin_command(capsys):
    assert run_cli(["khinchin", "--f", "1,1", "--p", "2", "--q", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"] is True
    assert doc["lhs"] == pytest.approx(8.0 ** 0.25, rel=1e-12)
    assert doc["rhs"] == pytest.approx(6.0 ** 0.5, rel=1e-12)


def test_khinchin_bad_vector():
    assert run_cli(["khinchin", "--f", "1,oops", "--p", "2", "--q", "4"]) == 1


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(7, 10, 2, "fro", 0) == derive_seed(7, 10, 2, "fro", 0)
    seen = {derive_seed(7, m, d, kind, t)
            for m in (10, 20) for d in (2, 3)
            for kind in ("l1", "fro") for t in range(3)}
    assert len(seen) == 24


def experiment_config(tmp_path, out_name):
    return {
        "generator": {
            "kind": "two_gaussians",
            "mean_separation": 2.0,
            "noise_sigma": 1.0,
        },
        "m_values": [8],
        "d_values": [2],
        "norm_kinds": ["fro"],
        "lambda": 0.1,
        "margin": 1.0,
        "delta": 0.05,
        "trials": 1,
        "mc_draws": 32,
        "seed": 11,
        "holdout_m": 200,
        "max_iters": 100,
        "output_dir": str(tmp_path / out_name),
    }


def test_experiment_single_cell(tmp_path):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(experiment_config(tmp_path, "out")))
    assert run_cli(["experiment", "--config", str(config_path)]) == 0
    lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert lines[0] == ",".join(EXPERIMENT_CSV_COLUMNS)
    assert len(lines) == 2
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    for cell in summary["cells"]:
        assert 0.0 <= cell["theorem1_violation_rate"] <= 1.0
        assert 0.0 <= cell["theorem2_violation_rate"] <= 1.0


def test_experiment_deterministic_across_dirs(tmp_path):
    paths = []
    for name in ("one", "two"):
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps(experiment_config(tmp_path, name)))
        assert run_cli(["experiment", "--config", str(config_path)]) == 0
        paths.append(tmp_path / name)
    assert (paths[0] / "results.csv").read_bytes() == (paths[1] / "results.csv").read_bytes()
    assert (paths[0] / "summary.json").read_bytes() == (paths[1] / "summary.json").read_bytes()


def test_experiment_missing_field(tmp_path):
    config = experiment_config(tmp_path, "out")
    del config["m_values"]
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(config))
    assert run_cli(["experiment", "--config", str(config_path)]) == 1


def test_no_subcommand_exits_1(capsys):
    assert run_cli([]) == 1
    capsys.readouterr()


def test_repeated_calls_share_one_parser_without_leaking_flags(capsys):
    # The parser is built once per process; flags of one call must not
    # become defaults of the next, and a usage error must not break it.
    assert _parser() is _parser()
    assert run_cli(["khinchin", "--f", "1,1", "--p", "2", "--q", "4", "--bogus"]) == 1
    argv = ["khinchin", "--f", "1,2", "--p", "2", "--q", "4"]
    capsys.readouterr()
    assert run_cli(argv + ["--mode", "mc", "--mc-draws", "500", "--seed", "3"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert run_cli(argv) == 0
    second = json.loads(capsys.readouterr().out)
    mc = khinchin_check(np.array([1.0, 2.0]), 2.0, 4.0, mode="mc", mc_draws=500, seed=3)
    exact = khinchin_check(np.array([1.0, 2.0]), 2.0, 4.0)
    assert mc != exact
    assert (first["lhs"], first["rhs"], first["holds"]) == mc
    assert (second["lhs"], second["rhs"], second["holds"]) == exact
