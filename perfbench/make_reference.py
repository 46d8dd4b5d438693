"""Rebuild reference.json: the stage-one objective on every pool instance.

The op check accepts an objective at most 1e-3 above the value stored here,
so a later, better solver still passes.  Run from the repository root:

    python3 perfbench/make_reference.py

It takes about a minute on a 2-core x86-64 box.  Rebuilding the file
redefines the check, so do it only together with a recorded reason.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from workloads import KINDS  # noqa: E402


def certify_reference(scratch):
    import simbound.cli

    out = {}
    captured = {}
    original = simbound.cli.train_similarity

    def record(*args, **kwargs):
        captured["model"] = original(*args, **kwargs)
        return captured["model"]

    simbound.cli.train_similarity = record
    try:
        for key in range(workloads.CERTIFY_POOL):
            out[str(key)] = {}
            for kind in KINDS:
                path = os.path.join(scratch, "config.json")
                config = workloads.certify_kind_config(key, kind, os.path.join(scratch, "out"))
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(config, handle)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = simbound.cli.main(["experiment", "--config", path])
                if code != 0:
                    raise RuntimeError(f"certify key {key} kind {kind} exited with {code}")
                out[str(key)][kind] = captured["model"].final_objective
    finally:
        simbound.cli.train_similarity = original
    return out


def tiny_reference():
    from simbound import train_similarity

    return {
        str(key): {
            kind: train_similarity(
                workloads.tiny_instance(key), workloads.tiny_config(key, kind)
            ).final_objective
            for kind in KINDS
        }
        for key in range(workloads.TINY_POOL)
    }


def chain_reference(scratch):
    import simbound.cli
    from simbound import load_model, save_csv

    out = {}
    for key in range(workloads.CHAIN_POOL):
        train, _ = workloads.chain_datasets(key)
        csv_path = os.path.join(scratch, "train.csv")
        model_path = os.path.join(scratch, "model.json")
        save_csv(train, csv_path)
        argv = ["train", "--data", csv_path, "--norm", "fro",
                "--lambda", repr(workloads.CHAIN_LAMBDA), "--margin", repr(workloads.CHAIN_MARGIN),
                "--out", model_path]
        with contextlib.redirect_stdout(io.StringIO()):
            code = simbound.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli_chain key {key} exited with {code}")
        out[str(key)] = {"fro": load_model(model_path).final_objective}
    return out


def main():
    work_root = os.path.join(ROOT, ".perfbench")
    os.makedirs(work_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="reference-", dir=work_root)
    try:
        reference = {
            "certify": certify_reference(scratch),
            "solver_tiny": tiny_reference(),
            "cli_chain": chain_reference(scratch),
        }
    finally:
        shutil.rmtree(scratch)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
