"""Command-line harness for the similarity pipeline and its certificates.

Subcommands: train, separator, bounds, eval, experiment, khinchin.  Exit
codes: 0 success, 1 usage or data error, 2 numeric failure inside a solver.
Every output file is reproducible byte for byte from the flags and seeds;
floats are printed in shortest round-trip decimal form and no timestamps or
environment details are emitted.
"""

import argparse
import functools
import hashlib
import itertools
import math
import os
import sys
import textwrap
from dataclasses import replace

import numpy as np

from .bounds import build_bound_report, khinchin_check, report_to_json_dict, save_report
from .data import (
    GeneratorSpec,
    _COUNT,
    _GENERATOR_KIND,
    _INT,
    _NUMBER,
    _OBJECT,
    _PROBABILITY,
    _checked,
    _csv_cell,
    _is_count,
    _is_grid,
    _read_json,
    _write_json,
    generate,
    load_csv,
)
from .errors import NumericalError
from .norms import _NORM_KIND, NormKind
from .separator import (
    classify,
    empirical_hinge_error,
    load_separator,
    save_separator,
    train_separator,
    true_hinge_error,
)
from .similarity import (
    SimilarityConfig,
    empirical_similarity_error,
    load_model,
    save_model,
    train_similarity,
    true_similarity_error,
)

EXPERIMENT_CSV_COLUMNS = (
    "m",
    "d",
    "norm_kind",
    "trial",
    "e_z",
    "e_holdout",
    "similarity_gap",
    "separator_hinge_holdout",
    "x_star",
    "r_m_empirical",
    "r_m_std_error",
    "r_m_analytic",
    "r_m_used",
    "theorem1_bound",
    "theorem2_bound",
    "theorem1_holds",
    "theorem2_holds",
    "trial_seed",
)

_EXPERIMENT_HELP = f"""\
Config JSON fields:
  generator     {{"kind": "two_gaussians"|"sparse_blobs", "mean_separation": f,
                 "noise_sigma": f, "irrelevant_dims": n}}
                (dimension and seed are filled in per cell)
  m_values      nonempty list of distinct positive ints below 2**63
  d_values      nonempty list of distinct positive ints below 2**63
  norm_kinds    nonempty list of distinct kinds from {{l1, fro, mixed21, trace}}
  lambda, margin, delta    positive reals, 0 < delta < 1
  trials        runs per (m, d, norm) cell
  mc_draws      Monte-Carlo draws per Rademacher estimate
  seed          master seed; per-trial seeds are derived by hashing
                (seed, m, d, norm, trial, role) so cells never interact
  holdout_m     fresh holdout size per trial (default 10000)
  max_iters     solver iteration cap for both stages (default 500)
  step0         solver step scale (default 1.0)
  output_dir    directory for results.csv and summary.json
  Any other key is not read; stderr names each one in a warning line.

results.csv columns, in order:
{textwrap.indent(textwrap.fill(", ".join(EXPERIMENT_CSV_COLUMNS), 74), "  ")}

e_z is the training similarity error, e_holdout its fresh-sample value,
similarity_gap their difference, separator_hinge_holdout the stage-two
hinge error on the holdout.  theorem1_holds is 1 when similarity_gap is at
most theorem1_bound; theorem2_holds is 1 when separator_hinge_holdout is at
most theorem2_bound.

summary.json records, per cell, the violation frequencies of both bounds,
and per (d, norm kind) the slope of log r_m_empirical against log m.
"""


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _norm_flag(parser):
    parser.add_argument(
        "--norm",
        required=True,
        choices=[kind.value for kind in NormKind],
        help="matrix-norm regularizer",
    )


def _solver_flags(parser):
    parser.add_argument("--max-iters", type=int, default=2000)
    parser.add_argument("--step0", type=float, default=1.0)


def build_parser():
    parser = _Parser(
        prog="simbound",
        description="Bilinear similarity learning with matrix-norm regularizers and generalization certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="learn a similarity matrix from CSV data")
    p_train.add_argument("--data", required=True, help="training CSV (label,feat_1,...,feat_d)")
    _norm_flag(p_train)
    p_train.add_argument("--lambda", dest="lam", type=float, required=True)
    p_train.add_argument("--margin", type=float, required=True)
    _solver_flags(p_train)
    p_train.add_argument("--rel-tol", type=float, default=1e-8)
    p_train.add_argument("--out", required=True, help="output model JSON path")
    p_train.set_defaults(func=cmd_train)

    p_sep = sub.add_parser("separator", help="train the L1-constrained separator")
    p_sep.add_argument("--model", required=True, help="similarity model JSON")
    p_sep.add_argument("--data", required=True)
    _solver_flags(p_sep)
    p_sep.add_argument("--out", required=True, help="output separator JSON path")
    p_sep.set_defaults(func=cmd_separator)

    p_bounds = sub.add_parser("bounds", help="emit a certificate report for a model")
    p_bounds.add_argument("--model", required=True)
    p_bounds.add_argument("--data", required=True)
    p_bounds.add_argument("--delta", type=float, default=0.05)
    p_bounds.add_argument("--mc-draws", type=int, default=1000)
    p_bounds.add_argument("--seed", type=int, default=0)
    p_bounds.add_argument("--out", required=True, help="output report JSON path")
    p_bounds.set_defaults(func=cmd_bounds)

    p_eval = sub.add_parser("eval", help="evaluate a model and/or separator on a dataset")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--model", help="similarity model JSON")
    p_eval.add_argument("--separator", help="separator JSON")
    p_eval.add_argument("--out", help="write the evaluation JSON here instead of stdout")
    p_eval.set_defaults(func=cmd_eval)

    p_exp = sub.add_parser(
        "experiment",
        help="multi-trial bound certification over a (m, d, norm) grid",
        epilog=_EXPERIMENT_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_exp.add_argument("--config", required=True, help="experiment config JSON")
    p_exp.set_defaults(func=cmd_experiment)

    p_khi = sub.add_parser("khinchin", help="moment-comparison check for Rademacher sums")
    p_khi.add_argument("--f", required=True, help="comma-separated coefficients")
    p_khi.add_argument("--p", type=float, required=True)
    p_khi.add_argument("--q", type=float, required=True)
    p_khi.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p_khi.add_argument("--mc-draws", type=int, default=100000)
    p_khi.add_argument("--seed", type=int, default=0)
    p_khi.set_defaults(func=cmd_khinchin)

    return parser


def cmd_train(args):
    data = load_csv(args.data)
    config = SimilarityConfig(
        lam=args.lam,
        margin=args.margin,
        norm_kind=NormKind(args.norm),
        max_iters=args.max_iters,
        step0=args.step0,
        rel_tol=args.rel_tol,
    )
    model = train_similarity(data, config)
    save_model(model, args.out)
    print(f"objective {model.final_objective!r} after {model.iterations_run} iterations")
    return 0


def cmd_separator(args):
    model = load_model(args.model)
    data = load_csv(args.data)
    sep = train_separator(model, data, max_iters=args.max_iters, step0=args.step0)
    save_separator(sep, args.out)
    print(f"hinge_error {empirical_hinge_error(sep, data)!r}")
    return 0


def cmd_bounds(args):
    model = load_model(args.model)
    data = load_csv(args.data)
    report = build_bound_report(
        model, data, delta=args.delta, mc_draws=args.mc_draws, seed=args.seed
    )
    save_report(report, args.out)
    print(
        f"theorem1_bound {report.theorem1_bound!r} theorem2_bound {report.theorem2_bound!r}"
    )
    return 0


def cmd_eval(args):
    if args.model is None and args.separator is None:
        raise ValueError("eval needs --model and/or --separator")
    data = load_csv(args.data)
    doc = {"m": data.m, "d": data.d}
    if args.model is not None:
        model = load_model(args.model)
        doc["similarity_error"] = empirical_similarity_error(
            model.matrix, data, model.config.margin
        )
    if args.separator is not None:
        sep = load_separator(args.separator)
        doc["hinge_error"] = empirical_hinge_error(sep, data)
        doc["zero_one_error"] = float(np.mean(classify(sep, data.features) != data.labels))
    _write_json(doc, args.out)
    return 0


def derive_seed(master_seed, *parts):
    """Stable 64-bit seed from the master seed and cell coordinates.

    Hash-based so that enlarging the experiment grid never changes the seeds
    of existing cells.
    """
    text = ":".join([str(int(master_seed))] + [str(part) for part in parts])
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


# Types only: GeneratorSpec, built at load, checks the ranges.
_GENERATOR_CHECKS = (
    ("kind", _GENERATOR_KIND),
    ("mean_separation", _NUMBER),
    ("noise_sigma", _NUMBER),
    ("irrelevant_dims", _INT),
)

_COUNT_GRID = (_is_grid(_is_count), "a nonempty list of distinct positive ints below 2**63")

# Missing fields are reported in this order.
_CONFIG_CHECKS = (
    ("generator", _OBJECT),
    ("m_values", _COUNT_GRID),
    ("d_values", _COUNT_GRID),
    ("norm_kinds", (_is_grid(_NORM_KIND[0]), "a nonempty list of distinct norm kinds")),
    ("lambda", _NUMBER),
    ("margin", _NUMBER),
    ("delta", _PROBABILITY),
    ("trials", _COUNT),
    ("mc_draws", _COUNT),
    ("seed", _INT),
    ("holdout_m", _COUNT),
    ("max_iters", _COUNT),
    ("step0", _NUMBER),
    ("output_dir", (lambda value: isinstance(value, str), "a string")),
)


def _warn_unread(block, checks, context):
    """One stderr line per field of block that no row of checks names: a
    misspelled optional key would otherwise leave its default in force
    without a word."""
    read = {name for name, _ in checks}
    for name in block:
        if name not in read:
            print(f"warning: {context} field {name!r} is not read", file=sys.stderr)


def _load_experiment_config(path):
    """The checked config plus ``specs`` (a seed-0 GeneratorSpec per d) and
    ``settings`` (a SimilarityConfig per norm kind), built here so that
    their range checks run before anything is written."""
    doc = _checked(
        _read_json(path),
        _CONFIG_CHECKS,
        {"holdout_m": 10000, "max_iters": 500, "step0": 1.0},
        "experiment config",
    )
    gen = _checked(
        doc["generator"], _GENERATOR_CHECKS, {"irrelevant_dims": 0}, "generator block", "generator."
    )
    _warn_unread(doc, _CONFIG_CHECKS, "experiment config")
    _warn_unread(gen, _GENERATOR_CHECKS, "generator")
    doc["specs"] = {
        d: GeneratorSpec(d=d, **{field: gen[field] for field, _ in _GENERATOR_CHECKS})
        for d in doc["d_values"]
    }
    doc["settings"] = [
        SimilarityConfig(
            lam=doc["lambda"],
            margin=doc["margin"],
            norm_kind=kind,
            max_iters=doc["max_iters"],
            step0=doc["step0"],
        )
        for kind in doc["norm_kinds"]
    ]
    return doc


def _run_trial(config, m, d, settings, trial):
    train_seed, holdout_seed, mc_seed = (
        derive_seed(config["seed"], m, d, settings.norm_kind.value, trial, role)
        for role in ("train", "holdout", "mc")
    )
    spec = config["specs"][d]
    train_data = generate(replace(spec, seed=train_seed), m)
    holdout = generate(replace(spec, seed=holdout_seed), config["holdout_m"])
    model = train_similarity(train_data, settings)
    sep = train_separator(model, train_data, max_iters=settings.max_iters, step0=settings.step0)
    report = build_bound_report(
        model, train_data, delta=config["delta"], mc_draws=config["mc_draws"], seed=mc_seed
    )
    e_holdout = true_similarity_error(model.matrix, holdout, settings.margin)
    gap = e_holdout - report.empirical_error
    sep_holdout = true_hinge_error(sep, holdout)
    # The report supplies m, norm_kind, x_star, the Rademacher values and
    # both bounds; the CSV writer selects EXPERIMENT_CSV_COLUMNS.
    return {
        **report_to_json_dict(report),
        "d": d,
        "trial": trial,
        "e_z": report.empirical_error,
        "e_holdout": e_holdout,
        "similarity_gap": gap,
        "separator_hinge_holdout": sep_holdout,
        "theorem1_holds": gap <= report.theorem1_bound,
        "theorem2_holds": sep_holdout <= report.theorem2_bound,
        "trial_seed": train_seed,
    }


def cmd_experiment(args):
    config = _load_experiment_config(args.config)
    os.makedirs(config["output_dir"], exist_ok=True)
    rows = []
    cells = []
    # (log m, log mean r_m_empirical) per (d, kind), keyed in d-major order.
    points = {(d, kind): [] for d in config["d_values"] for kind in config["norm_kinds"]}
    for m, d, settings in itertools.product(
        config["m_values"], config["d_values"], config["settings"]
    ):
        kind = settings.norm_kind.value
        cell_rows = []
        for trial in range(config["trials"]):
            try:
                cell_rows.append(_run_trial(config, m, d, settings, trial))
            except (ValueError, NumericalError) as exc:
                raise type(exc)(f"cell m={m} d={d} norm={kind} trial={trial}: {exc}") from exc
        rows += cell_rows
        mean_r_m = float(np.mean([row["r_m_empirical"] for row in cell_rows]))
        cells.append(
            {
                "m": m,
                "d": d,
                "norm_kind": kind,
                "trials": len(cell_rows),
                "theorem1_violation_rate": float(
                    np.mean([not row["theorem1_holds"] for row in cell_rows])
                ),
                "theorem2_violation_rate": float(
                    np.mean([not row["theorem2_holds"] for row in cell_rows])
                ),
                "mean_r_m_empirical": mean_r_m,
            }
        )
        if mean_r_m > 0:
            points[d, kind].append((math.log(m), math.log(mean_r_m)))
    csv_path = os.path.join(config["output_dir"], "results.csv")
    with open(csv_path, "w", encoding="utf-8") as handle:
        handle.write(",".join(EXPERIMENT_CSV_COLUMNS) + "\n")
        for row in rows:
            handle.write(",".join(_csv_cell(row[col]) for col in EXPERIMENT_CSV_COLUMNS) + "\n")
    # Least-squares slope of log mean r_m_empirical against log m.
    slopes = [
        {"d": d, "norm_kind": kind, "slope": float(np.polyfit(*zip(*xy), 1)[0])}
        for (d, kind), xy in points.items()
        if len(xy) >= 2
    ]
    summary = {"cells": cells, "scaling_slopes": slopes}
    _write_json(summary, os.path.join(config["output_dir"], "summary.json"))
    print(f"wrote {len(rows)} rows to {csv_path}")
    return 0


def cmd_khinchin(args):
    try:
        f = [float(tok) for tok in args.f.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"could not parse --f {args.f!r} as comma-separated floats") from None
    lhs, rhs, holds = khinchin_check(
        f, args.p, args.q, mode=args.mode, mc_draws=args.mc_draws, seed=args.seed
    )
    _write_json({"lhs": lhs, "rhs": rhs, "holds": holds})
    return 0


@functools.lru_cache(maxsize=None)
def _parser():
    # Building the parser costs more than a small experiment trial's
    # bookkeeping; parse_args leaves it unchanged, so one serves every call.
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        # A count that passes its rule may still ask for more memory than
        # the machine has; numpy refuses such an array before filling it.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
