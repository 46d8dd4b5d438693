"""End-to-end tests of the command-line harness (in-process)."""

import csv
import json
import math
import warnings

import numpy as np
import pytest

from simbound import (
    SimilarityConfig, build_bound_report, khinchin_check, load_csv, load_model, load_separator,
    norm, save_csv, save_model, save_report, save_separator, train_separator, train_similarity,
)
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


def test_separator_lost_precision_exits_2(tmp_path, capsys):
    # Features near 1e10 step the coefficients to magnitudes near 1e20:
    # the L1-ball radius 1 is lost in rounding against them.
    from simbound import Dataset

    rng = make_rng(603)
    labels = np.array([1.0, -1.0] * 5)
    data_path = tmp_path / "huge.csv"
    save_csv(Dataset(rng.standard_normal((10, 2)) * 1e10, labels), data_path)
    model_path = tmp_path / "identity.json"
    model_path.write_text(json.dumps({
        "dim": 2, "norm_kind": "fro", "lambda": 0.1, "margin": 1.0,
        "entries": [1.0, 0.0, 0.0, 1.0], "final_objective": 1.0, "iterations_run": 1,
    }))
    out = tmp_path / "sep.json"
    code = run_cli(["separator", "--model", str(model_path), "--data", str(data_path),
                    "--max-iters", "5", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("numeric failure: L1-ball projection lost precision")
    assert not out.exists()


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


def test_bounds_bad_delta(train_csv, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    run_cli(train_args(train_csv, model_path))
    code = run_cli(["bounds", "--model", str(model_path), "--data", str(train_csv),
                    "--delta", "1.5", "--out", str(tmp_path / "r.json")])
    assert code == 1
    # delta is checked before the draws, so a draw count that could not be
    # allocated does not hide it.
    capsys.readouterr()
    code = run_cli(["bounds", "--model", str(model_path), "--data", str(train_csv),
                    "--delta", "2", "--mc-draws", str(2 ** 40), "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert capsys.readouterr().err == "error: delta must be in (0, 1), got 2.0\n"
    assert not (tmp_path / "r.json").exists()


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


def test_khinchin_large_coefficients(capsys):
    # |sum|^4 of 1e200 overflows unless f is scaled first; |sum|^2000 of
    # 4 = 1+1+1+1 overflows unless the sums are scaled as well.  Exact
    # values: E|sum|^q = 4^q/8 + 2^q/2 and E sum^2 = 4 for the second.
    cases = [
        ("1e200,1", "4", 1e200, 3.0 ** 0.5 * 1e200),
        ("1,1,1,1", "2000", 4.0 * (1 / 8 + 2.0 ** -2001) ** (1 / 2000), 2.0 * 1999 ** 0.5),
    ]
    for f, q, lhs, rhs in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["khinchin", "--f", f, "--p", "2", "--q", q]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert math.isfinite(doc["lhs"]) and math.isfinite(doc["rhs"])
        assert doc["holds"] is True
        assert doc["lhs"] == pytest.approx(lhs, rel=1e-12)
        assert doc["rhs"] == pytest.approx(rhs, rel=1e-12)


def test_khinchin_roots_beyond_the_float_range_are_a_numeric_failure(capsys):
    # Both roots of (1e308, 1e308) at p = 1.5, q = 2 are finite, though
    # the largest |sum| is not; those of (1.7e308, 1.7e308) at p = 2, q = 4
    # are not, which exits 2 with a numeric failure and no traceback.
    assert run_cli(["khinchin", "--f", "1e308,1e308", "--p", "1.5", "--q", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lhs"] == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-15)
    assert math.isfinite(doc["rhs"]) and doc["holds"] is True
    assert run_cli(["khinchin", "--f", "1.7e308,1.7e308", "--p", "2", "--q", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numeric failure: the Khinchin rhs root is beyond the float range\n"


def test_khinchin_bad_vector():
    assert run_cli(["khinchin", "--f", "1,oops", "--p", "2", "--q", "4"]) == 1


@pytest.mark.parametrize("command", ["khinchin", "bounds"])
def test_unallocatable_draw_count_exits_1(train_csv, tmp_path, capsys, command):
    # 2**40 draws pass the count rule, but their sign matrix (16 TiB for
    # khinchin's two coefficients) cannot be allocated; numpy refuses it
    # at once, before writing any of it.
    draws = str(2 ** 40)
    if command == "khinchin":
        argv = ["khinchin", "--f", "1,1", "--p", "2", "--q", "4", "--mode", "mc",
                "--mc-draws", draws]
    else:
        model_path, _ = trained_artifacts(train_csv, tmp_path)
        argv = ["bounds", "--model", str(model_path), "--data", str(train_csv),
                "--mc-draws", draws, "--out", str(tmp_path / "r.json")]
    capsys.readouterr()
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Unable to allocate")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "r.json").exists()


def trained_artifacts(train_csv, tmp_path):
    model_path = tmp_path / "model.json"
    sep_path = tmp_path / "sep.json"
    assert run_cli(train_args(train_csv, model_path)) == 0
    assert run_cli(["separator", "--model", str(model_path), "--data", str(train_csv),
                    "--max-iters", "50", "--out", str(sep_path)]) == 0
    return model_path, sep_path


@pytest.mark.parametrize("command, flag, value, named", [
    ("train", "--margin", "inf", "margin"),
    ("train", "--lambda", "inf", "lambda"),
    ("train", "--step0", "inf", "step0"),
    ("separator", "--step0", "inf", "step0"),
    ("khinchin", "--f", "nan,1", "f"),
    ("khinchin", "--f", "inf,1", "f"),
    ("bounds", "--seed", "-1", "seed"),
    ("khinchin", "--seed", str(2 ** 128), "seed"),
    ("khinchin", "--seed", "-1", "seed"),
    ("train", "--rel-tol", "inf", "rel_tol"),
])
def test_non_finite_flag_exits_1(train_csv, tmp_path, capsys, command, flag, value, named):
    if command == "train":
        argv = train_args(train_csv, tmp_path / "m.json", extra=[flag, value])
    elif command == "separator":
        model_path, _ = trained_artifacts(train_csv, tmp_path)
        argv = ["separator", "--model", str(model_path), "--data", str(train_csv),
                flag, value, "--out", str(tmp_path / "s2.json")]
    elif command == "bounds":
        model_path, _ = trained_artifacts(train_csv, tmp_path)
        argv = ["bounds", "--model", str(model_path), "--data", str(train_csv),
                "--mc-draws", "8", flag, value, "--out", str(tmp_path / "r.json")]
    elif flag == "--f":
        argv = ["khinchin", flag, value, "--p", "2", "--q", "4"]
    else:
        # The seed of 2**128 goes to mc mode, which draws from it; the seed
        # of -1 to exact mode, which draws nothing yet checks it all the same.
        mode = [] if value == "-1" else ["--mode", "mc"]
        argv = ["khinchin", "--f", "1,1", "--p", "2", "--q", "4", *mode, flag, value]
    capsys.readouterr()
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"{named} must be" in captured.err


@pytest.mark.parametrize("bad_input, content", [
    ("model", b"not json"),
    ("model", b"\xff{}"),
    ("separator", b"{not json"),
    ("data", b"\xff1,0.5\n"),
], ids=["model-not-json", "model-not-utf8", "separator-not-json", "data-not-utf8"])
def test_unreadable_input_file_is_named(train_csv, tmp_path, capsys, bad_input, content):
    # eval reads up to three files; a decode error must say which one.
    model_path, sep_path = trained_artifacts(train_csv, tmp_path)
    paths = {"data": train_csv, "model": model_path, "separator": sep_path}
    bad = tmp_path / f"bad_{bad_input}"
    bad.write_bytes(content)
    paths[bad_input] = bad
    argv = ["eval", "--data", str(paths["data"]), "--model", str(paths["model"]),
            "--separator", str(paths["separator"])]
    capsys.readouterr()
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("artifact, field, corrupt", [
    ("model", "margin", lambda old: math.inf),
    ("model", "dim", lambda old: None),
    ("model", "lambda", lambda old: [1]),
    ("model", "entries", lambda old: old[:-1]),
    ("separator", "alpha", lambda old: 1.0),
    ("separator", "anchor_features", lambda old: old[:-1]),
    ("model", "iterations_run", lambda old: -5),
    # alpha was trained inside the L1 radius 1/margin of the embedded model.
    ("separator", "margin", lambda old: 0.01),
], ids=["model-margin-inf", "model-dim-null", "model-lambda-list", "model-entries-short",
        "separator-alpha-scalar", "separator-anchors-short", "model-iterations-negative",
        "separator-margin-mismatch"])
def test_malformed_artifact_exits_1(train_csv, tmp_path, capsys, artifact, field, corrupt):
    # A model goes through bounds, a separator through eval; either must
    # exit 1 with an error that names the field, and write nothing.
    model_path, sep_path = trained_artifacts(train_csv, tmp_path)
    path = model_path if artifact == "model" else sep_path
    doc = json.loads(path.read_text())
    doc[field] = corrupt(doc[field])
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    if artifact == "model":
        argv = ["bounds", "--model", str(model_path), "--data", str(train_csv),
                "--mc-draws", "8", "--out", str(out)]
    else:
        argv = ["eval", "--data", str(train_csv), "--separator", str(sep_path), "--out", str(out)]
    capsys.readouterr()
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not out.exists()


def test_omitted_flags_take_the_library_defaults(train_csv, tmp_path, capsys):
    # The CLI states no default of its own: each command without its
    # optional flags writes the bytes of the library call without them.
    data = load_csv(train_csv)
    out = {name: tmp_path / f"{name}.json" for name in ("model", "sep", "report", "expected")}
    assert run_cli(["train", "--data", str(train_csv), "--norm", "fro", "--lambda", "0.1",
                    "--margin", "1.0", "--out", str(out["model"])]) == 0
    model = train_similarity(data, SimilarityConfig(0.1, 1.0, "fro"))
    save_model(model, out["expected"])
    assert out["model"].read_bytes() == out["expected"].read_bytes()
    assert run_cli(["separator", "--model", str(out["model"]), "--data", str(train_csv),
                    "--out", str(out["sep"])]) == 0
    save_separator(train_separator(model, data), out["expected"])
    assert out["sep"].read_bytes() == out["expected"].read_bytes()
    assert run_cli(["bounds", "--model", str(out["model"]), "--data", str(train_csv),
                    "--out", str(out["report"])]) == 0
    save_report(build_bound_report(model, data), out["expected"])
    assert out["report"].read_bytes() == out["expected"].read_bytes()
    capsys.readouterr()


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


def test_experiment_numeric_failure_names_the_cell(tmp_path, capsys):
    config = experiment_config(tmp_path, "out")
    # The first step overflows A.  (With margin 1 it stays near 1e300,
    # whose Frobenius norm is finite.)
    config["step0"] = 1e300
    config["margin"] = 1e-10
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(config))
    with np.errstate(all="ignore"):
        assert run_cli(["experiment", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: cell m=8 d=2 norm=fro trial=0: ")
    assert not (tmp_path / "out" / "results.csv").exists()


def test_experiment_missing_field(tmp_path):
    config = experiment_config(tmp_path, "out")
    del config["m_values"]
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(config))
    assert run_cli(["experiment", "--config", str(config_path)]) == 1


def test_experiment_scaling_slopes_and_violation_rates(tmp_path, capsys):
    config = experiment_config(tmp_path, "out")
    config.update(m_values=[8, 16], norm_kinds=["l1", "fro"], trials=2, mc_draws=16,
                  holdout_m=100, max_iters=50)
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(config))
    assert run_cli(["experiment", "--config", str(config_path)]) == 0
    capsys.readouterr()
    with open(tmp_path / "out" / "results.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert len(rows) == 8 and len(summary["cells"]) == 4
    for cell in summary["cells"]:
        cell_rows = [row for row in rows if (int(row["m"]), int(row["d"]), row["norm_kind"])
                     == (cell["m"], cell["d"], cell["norm_kind"])]
        assert cell["trials"] == len(cell_rows) == 2
        for n in (1, 2):
            holds = [int(row[f"theorem{n}_holds"]) for row in cell_rows]
            assert cell[f"theorem{n}_violation_rate"] == np.mean([1 - h for h in holds])
        assert cell["mean_r_m_empirical"] == np.mean([float(row["r_m_empirical"]) for row in cell_rows])
    assert [(s["d"], s["norm_kind"]) for s in summary["scaling_slopes"]] == [(2, "l1"), (2, "fro")]
    for slope in summary["scaling_slopes"]:
        cells = [c for c in summary["cells"]
                 if (c["d"], c["norm_kind"]) == (slope["d"], slope["norm_kind"])]
        xs = np.log([c["m"] for c in cells])
        ys = np.log([c["mean_r_m_empirical"] for c in cells])
        assert slope["slope"] == float(np.polyfit(xs, ys, 1)[0])


def test_experiment_trains_through_cli_globals(tmp_path, monkeypatch, capsys):
    # perfbench's certify workload captures these two module globals and
    # unpacks train_similarity's positional (data, config) arguments.
    import simbound.cli as cli

    calls = {}
    for name in ("train_similarity", "train_separator"):
        def record(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls[_name] = (args, kwargs)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, record)
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(experiment_config(tmp_path, "out")))
    assert run_cli(["experiment", "--config", str(config_path)]) == 0
    capsys.readouterr()
    args, kwargs = calls["train_similarity"]
    assert len(args) == 2 and kwargs == {}
    assert "train_separator" in calls


def set_field(config, dotted, value):
    doc = config
    *parents, field = dotted.split(".")
    for parent in parents:
        doc = doc[parent]
    doc[field] = value


@pytest.mark.parametrize("field, value", [
    ("trials", "2"),
    ("trials", 0),
    ("trials", True),
    ("m_values", 20),
    ("m_values", [20.5]),
    ("m_values", []),
    ("m_values", [8, 8]),
    ("d_values", [0]),
    ("norm_kinds", "fro"),
    ("norm_kinds", ["nuclear"]),
    ("mc_draws", 1.5),
    ("holdout_m", "100"),
    ("max_iters", False),
    ("lambda", "0.1"),
    ("margin", None),
    ("delta", "0.05"),
    ("step0", [1.0]),
    ("seed", 1.5),
    ("output_dir", 5),
    ("generator", 5),
    ("generator.kind", "uniform"),
    ("generator.noise_sigma", "1"),
    ("generator.irrelevant_dims", 0.5),
    ("lambda", math.inf),
    ("margin", -math.inf),
    ("delta", math.nan),
    ("step0", math.inf),
    ("generator.noise_sigma", math.inf),
    ("generator.mean_separation", math.nan),
])
def test_experiment_mistyped_config(tmp_path, capsys, field, value):
    config = experiment_config(tmp_path, "out")
    set_field(config, field, value)
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(config))
    assert run_cli(["experiment", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field} must be" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("changes, message", [
    ({"lambda": -1}, "lambda must be positive and finite, got -1"),
    ({"margin": 0}, "margin must be positive and finite, got 0"),
    ({"step0": -1}, "step0 must be positive and finite, got -1"),
    ({"generator.noise_sigma": 0}, "generator.noise_sigma must be positive and finite, got 0"),
    ({"generator.irrelevant_dims": -1}, "generator.irrelevant_dims must be a nonnegative int, got -1"),
    ({"generator.kind": "sparse_blobs", "generator.irrelevant_dims": 1, "d_values": [3, 1]},
     "irrelevant_dims must be below d for sparse blobs, got 1 with d=1"),
    ({"generator.irrelevant_dims": 7}, "irrelevant_dims must be 0 for two_gaussians, got 7"),
    # json.load reads any run of digits as an int; one beyond the float
    # range is no finite number.
    ({"margin": 10 ** 400}, f"margin must be positive and finite, got {10 ** 400}"),
    ({"generator.mean_separation": -10 ** 400},
     f"generator.mean_separation must be a finite number, got {-10 ** 400}"),
    # A count must fit the int64 that numpy sizes arrays with.
    ({"m_values": [8, 10 ** 400]},
     "m_values must be a nonempty list of distinct positive ints below 2**63, "
     f"got [8, {10 ** 400}]"),
], ids=["lambda-negative", "margin-zero", "step0-negative", "noise_sigma-zero",
        "irrelevant_dims-negative", "sparse_blobs-irrelevant_dims-at-later-d",
        "two_gaussians-irrelevant_dims", "margin-huge-int", "mean_separation-huge-int",
        "m_values-huge-int"])
def test_experiment_out_of_range_config(tmp_path, monkeypatch, capsys, changes, message):
    # Ranges are checked at load: no trial runs and output_dir is not made,
    # even when only the last d of the grid is out of range.
    import simbound.cli as cli

    def no_trial(*args):
        raise AssertionError("a trial ran before the config was checked")

    monkeypatch.setattr(cli, "_run_trial", no_trial)
    config = experiment_config(tmp_path, "out")
    for field, value in changes.items():
        set_field(config, field, value)
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(config))
    assert run_cli(["experiment", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_experiment_ignores_unknown_generator_keys(tmp_path, capsys):
    config = experiment_config(tmp_path, "out")
    config["generator"]["comment"] = "not a GeneratorSpec field"
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(config))
    assert run_cli(["experiment", "--config", str(config_path)]) == 0
    capsys.readouterr()
    assert len((tmp_path / "out" / "results.csv").read_text().splitlines()) == 2


def test_experiment_warns_of_unread_keys(tmp_path, monkeypatch, capsys):
    # Misspelled keys keep their defaults in force, and so the outputs; each
    # is named on stderr before the first trial trains.
    import simbound.cli as cli

    config = experiment_config(tmp_path, "plain")
    config_path = tmp_path / "plain.json"
    config_path.write_text(json.dumps(config))
    assert run_cli(["experiment", "--config", str(config_path)]) == 0
    assert capsys.readouterr().err == ""
    config.update(output_dir=str(tmp_path / "typo"), max_iter=5)
    config["generator"]["irrelevant_dim"] = 3
    config_path = tmp_path / "typo.json"
    config_path.write_text(json.dumps(config))
    train = cli.train_similarity
    stderr_at_first_trial = []

    def recording_train(*args):
        if not stderr_at_first_trial:
            stderr_at_first_trial.append(capsys.readouterr().err)
        return train(*args)

    monkeypatch.setattr(cli, "train_similarity", recording_train)
    assert run_cli(["experiment", "--config", str(config_path)]) == 0
    assert stderr_at_first_trial == [
        "warning: experiment config field 'max_iter' is not read\n"
        "warning: generator field 'irrelevant_dim' is not read\n"
    ]
    assert capsys.readouterr().err == ""
    assert ((tmp_path / "typo" / "results.csv").read_bytes()
            == (tmp_path / "plain" / "results.csv").read_bytes())


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
    # Omitted flags take khinchin_check's defaults: exact mode, and in mc
    # mode its draw count and seed.
    assert run_cli(argv + ["--mode", "mc"]) == 0
    third = json.loads(capsys.readouterr().out)
    mc = khinchin_check(np.array([1.0, 2.0]), 2.0, 4.0, mode="mc", mc_draws=500, seed=3)
    exact = khinchin_check(np.array([1.0, 2.0]), 2.0, 4.0)
    mc_defaults = khinchin_check(np.array([1.0, 2.0]), 2.0, 4.0, mode="mc")
    assert len({mc, exact, mc_defaults}) == 3
    assert (first["lhs"], first["rhs"], first["holds"]) == mc
    assert (second["lhs"], second["rhs"], second["holds"]) == exact
    assert (third["lhs"], third["rhs"], third["holds"]) == mc_defaults
