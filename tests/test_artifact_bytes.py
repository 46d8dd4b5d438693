"""Golden bytes of every artifact writer, from hand-built objects.

No value here comes out of a solver or a BLAS call, so the expected text is
the same on every machine.  0.1 + 0.2 needs 17 significant digits, which
pins the shortest round-trip float format.
"""

import json

import numpy as np

from simbound import (
    BoundReport,
    Dataset,
    Separator,
    SimilarityConfig,
    SimilarityModel,
    save_model,
    save_report,
    save_separator,
)
from simbound import cli
from simbound.data import _write_json, dataset_to_json_dict

SEVENTEEN_DIGITS = 0.1 + 0.2

MODEL_JSON = """\
{
  "dim": 2,
  "norm_kind": "trace",
  "lambda": 0.25,
  "margin": 2.0,
  "entries": [
    1.5,
    -0.1,
    -0.1,
    0.3333333333333333
  ],
  "final_objective": 0.30000000000000004,
  "iterations_run": 7
}
"""


def hand_model():
    return SimilarityModel(
        matrix=np.array([[1.5, -0.1], [-0.1, 1.0 / 3.0]]),
        config=SimilarityConfig(lam=0.25, margin=2.0, norm_kind="trace"),
        final_objective=SEVENTEEN_DIGITS,
        iterations_run=7,
    )


def hand_report():
    return BoundReport(
        norm_kind="mixed21",
        x_star=2.5,
        r_m_empirical=SEVENTEEN_DIGITS,
        r_m_std_error=0.0,
        r_m_analytic=1e-17,
        r_m_used=SEVENTEEN_DIGITS,
        empirical_error=0.75,
        delta=0.05,
        m=8,
        lam=0.1,
        margin=1.0,
        theorem1_bound=12.5,
        theorem2_bound=1e300,
        mc_draws=64,
        seed=2 ** 64 - 1,
    )


def test_report_json_bytes(tmp_path):
    path = tmp_path / "report.json"
    save_report(hand_report(), path)
    assert path.read_text() == """\
{
  "norm_kind": "mixed21",
  "x_star": 2.5,
  "r_m_empirical": 0.30000000000000004,
  "r_m_std_error": 0.0,
  "r_m_analytic": 1e-17,
  "r_m_used": 0.30000000000000004,
  "empirical_error": 0.75,
  "delta": 0.05,
  "m": 8,
  "lambda": 0.1,
  "margin": 1.0,
  "theorem1_bound": 12.5,
  "theorem2_bound": 1e+300,
  "mc_draws": 64,
  "seed": 18446744073709551615
}
"""


def test_model_json_bytes(tmp_path):
    path = tmp_path / "model.json"
    save_model(hand_model(), path)
    assert path.read_text() == MODEL_JSON


def test_separator_json_bytes(tmp_path):
    sep = Separator(
        alpha=np.array([0.5, -0.25]),
        margin=2.0,
        anchor_features=np.array([[1.0, 0.0], [-2.0, 1e-3]]),
        model=hand_model(),
    )
    path = tmp_path / "sep.json"
    save_separator(sep, path)
    embedded = "\n".join("  " + line for line in MODEL_JSON.splitlines()).lstrip()
    assert path.read_text() == f"""\
{{
  "alpha": [
    0.5,
    -0.25
  ],
  "margin": 2.0,
  "anchor_features": [
    1.0,
    0.0,
    -2.0,
    0.001
  ],
  "model": {embedded}
}}
"""


def test_dataset_json_bytes(tmp_path):
    path = tmp_path / "data.json"
    data = Dataset(np.array([[SEVENTEEN_DIGITS, -1.0]]), np.array([-1.0]))
    _write_json(dataset_to_json_dict(data), path)
    assert path.read_text() == """\
{
  "m": 1,
  "d": 2,
  "labels": [
    -1
  ],
  "features": [
    [
      0.30000000000000004,
      -1.0
    ]
  ]
}
"""


def hand_row(trial, theorem1_holds):
    return {
        "m": 8,
        "d": 2,
        "norm_kind": "fro",
        "trial": trial,
        "e_z": 0.25,
        "e_holdout": SEVENTEEN_DIGITS,
        "similarity_gap": SEVENTEEN_DIGITS - 0.25,
        "separator_hinge_holdout": 0.5,
        "x_star": 3.0,
        "r_m_empirical": 0.125 * (trial + 1),
        "r_m_std_error": 0.0,
        "r_m_analytic": 1e-17,
        "r_m_used": 1e-17,
        "theorem1_bound": 1e300,
        "theorem2_bound": 2.0,
        "theorem1_holds": theorem1_holds,
        "theorem2_holds": True,
        "trial_seed": 2 ** 64 - 1 - trial,
    }


def test_experiment_artifact_bytes(tmp_path, monkeypatch, capsys):
    # Trials come from a stub, so results.csv and summary.json are built
    # from hand-made rows; one m value keeps scaling_slopes empty.
    monkeypatch.setattr(
        cli, "_run_trial", lambda config, m, d, kind, trial: hand_row(trial, trial == 0)
    )
    config = {
        "generator": {"kind": "two_gaussians", "mean_separation": 2.0, "noise_sigma": 1.0},
        "m_values": [8],
        "d_values": [2],
        "norm_kinds": ["fro"],
        "lambda": 0.1,
        "margin": 1.0,
        "delta": 0.05,
        "trials": 2,
        "mc_draws": 16,
        "seed": 3,
        "output_dir": str(tmp_path / "out"),
    }
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(config))
    assert cli.main(["experiment", "--config", str(config_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "results.csv").read_text() == (
        "m,d,norm_kind,trial,e_z,e_holdout,similarity_gap,separator_hinge_holdout,"
        "x_star,r_m_empirical,r_m_std_error,r_m_analytic,r_m_used,theorem1_bound,"
        "theorem2_bound,theorem1_holds,theorem2_holds,trial_seed\n"
        "8,2,fro,0,0.25,0.30000000000000004,0.050000000000000044,0.5,3.0,0.125,0.0,"
        "1e-17,1e-17,1e+300,2.0,1,1,18446744073709551615\n"
        "8,2,fro,1,0.25,0.30000000000000004,0.050000000000000044,0.5,3.0,0.25,0.0,"
        "1e-17,1e-17,1e+300,2.0,0,1,18446744073709551614\n"
    )
    assert (tmp_path / "out" / "summary.json").read_text() == """\
{
  "cells": [
    {
      "m": 8,
      "d": 2,
      "norm_kind": "fro",
      "trials": 2,
      "theorem1_violation_rate": 0.5,
      "theorem2_violation_rate": 0.0,
      "mean_r_m_empirical": 0.1875
    }
  ],
  "scaling_slopes": []
}
"""
