"""The three benchmark workloads: inputs from a seed, one op, its output check.

Every workload is a closed loop with one client: op i+1 starts only after
op i returns.  Op kinds run round-robin l1 -> fro -> mixed21 -> trace where a
workload has kinds, so every run of a workload uses the same op sequence.

Inputs come from a fixed pool of instances per workload, and the benchmark
seed picks the order in which the pool is visited.  A run stops only at the
end of a pass over the whole pool (``period`` ops), so every run does the
same work and run-to-run spread comes from the machine, not from which
instances a seed happened to draw.  The fixed pool also lets the benchmark
store, in ``reference.json``, the stage-one objective that the program
reached on every instance when the benchmark was defined, and check each op
against it.  ``make_reference.py`` rebuilds that file.

Layer coverage (see README.md for the full layer -> metric -> workload table):

* certify      one trial of ``simbound experiment`` in-process; every layer.
* solver_tiny  one ``train_similarity`` fit on check-02-shaped data with a
               fixed 2000 iterations; only the similarity and norms layers.
* cli_chain    ``train -> separator -> bounds -> eval`` through
               ``simbound.cli.main`` on CSV files; the data layer reads CSV
               and the cli layer writes JSON artifacts.  Run by hand only:
               README.md says why it is not in BENCHMARK.json.
"""

import csv
import hashlib
import io
import json
import math
import os

import numpy as np

KINDS = ("l1", "fro", "mixed21", "trace")

# Acceptance check 02's optimality budget; the objective check is one-sided.
OBJECTIVE_BUDGET = 1e-3
# Floating-point slack for the paper's invariants, which hold exactly in
# exact arithmetic.
INVARIANT_TOL = 1e-9

# 25 pool entries x 4 kinds: one pass is the 100 ops a run needs.
CERTIFY_POOL = 25
CERTIFY_SEED_BASE = 2026
CERTIFY_CONFIG = {
    "generator": {"kind": "two_gaussians", "mean_separation": 2.0, "noise_sigma": 1.0},
    "m_values": [100],
    "d_values": [5],
    "lambda": 0.1,
    "margin": 1.0,
    "delta": 0.05,
    "trials": 1,
    "mc_draws": 200,
    "holdout_m": 10000,
}

TINY_POOL = 25
TINY_SEED_BASE = 4000
TINY_LAMBDAS = (0.05, 0.2)
TINY_ITERS = 2000
TINY_STEP0 = 2.0

CHAIN_POOL = 4
CHAIN_SEED_BASE = 6000
CHAIN_TRAIN_M = 800
CHAIN_HOLDOUT_M = 4000
CHAIN_D = 5
CHAIN_LAMBDA = 0.1
CHAIN_MARGIN = 1.0
CHAIN_SEPARATOR_ITERS = 50
CHAIN_MC_DRAWS = 1000


def seed_order(seed, workload, size):
    """Permutation of the pool indices, fixed by the benchmark seed."""
    text = f"{int(seed)}:{workload}".encode("utf-8")
    key = int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "little")
    rng = np.random.Generator(np.random.Philox(key=key))
    return [int(k) for k in rng.permutation(size)]


def certify_kind_config(key, kind, output_dir):
    config = dict(CERTIFY_CONFIG)
    config["norm_kinds"] = [kind]
    config["seed"] = CERTIFY_SEED_BASE + key
    config["output_dir"] = output_dir
    return config


def tiny_instance(key):
    """Check-02-shaped data: 4 to 6 points in 2-d, two tight clusters."""
    from simbound import Dataset

    rng = np.random.Generator(np.random.Philox(key=TINY_SEED_BASE + key))
    m = int(rng.integers(4, 7))
    angle = rng.uniform(0.0, 2.0 * math.pi)
    scale = rng.uniform(1.2, 1.8)
    mu = scale * np.array([math.cos(angle), math.sin(angle)])
    labels = np.concatenate([np.ones(m // 2), -np.ones(m - m // 2)])
    labels = labels[rng.permutation(m)]
    features = labels[:, None] * mu[None, :] + 0.15 * rng.standard_normal((m, 2))
    return Dataset(features, labels)


def tiny_config(key, kind):
    from simbound import SimilarityConfig

    return SimilarityConfig(
        lam=TINY_LAMBDAS[key % 2],
        margin=1.0,
        norm_kind=kind,
        max_iters=TINY_ITERS,
        step0=TINY_STEP0,
        rel_tol=0.0,
    )


def chain_datasets(key):
    """(train, holdout) samples for one cli_chain input set."""
    from simbound import GeneratorSpec, generate

    def spec(seed):
        return GeneratorSpec(
            kind="two_gaussians", d=CHAIN_D, mean_separation=2.0, noise_sigma=1.0, seed=seed
        )

    base = CHAIN_SEED_BASE + 2 * key
    return generate(spec(base), CHAIN_TRAIN_M), generate(spec(base + 1), CHAIN_HOLDOUT_M)


def write_inputs(workload, seed, out_dir):
    """Generate every input file a run of the workload needs."""
    os.makedirs(out_dir, exist_ok=True)
    if workload == "certify":
        order = seed_order(seed, workload, CERTIFY_POOL)
        outputs = os.path.join(os.path.abspath(out_dir), "experiment")
        for slot, key in enumerate(order):
            for kind in KINDS:
                path = os.path.join(out_dir, f"config_{slot}_{kind}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(certify_kind_config(key, kind, outputs), handle)
        _write_order(out_dir, order)
    elif workload == "solver_tiny":
        from simbound.data import dataset_to_json_dict

        order = seed_order(seed, workload, TINY_POOL)
        docs = [dataset_to_json_dict(tiny_instance(key)) for key in order]
        with open(os.path.join(out_dir, "instances.json"), "w", encoding="utf-8") as handle:
            json.dump(docs, handle)
        _write_order(out_dir, order)
    elif workload == "cli_chain":
        from simbound import save_csv

        order = seed_order(seed, workload, CHAIN_POOL)
        for slot, key in enumerate(order):
            train, holdout = chain_datasets(key)
            save_csv(train, os.path.join(out_dir, f"train_{slot}.csv"))
            save_csv(holdout, os.path.join(out_dir, f"holdout_{slot}.csv"))
        _write_order(out_dir, order)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _write_order(out_dir, order):
    with open(os.path.join(out_dir, "order.json"), "w", encoding="utf-8") as handle:
        json.dump(order, handle)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


# ------------------------------------------------------------------ checks


def _nonfinite_fields(value, where):
    """Names of every number in a JSON document that is not finite."""
    if isinstance(value, dict):
        return [bad for k, v in value.items() for bad in _nonfinite_fields(v, f"{where}.{k}")]
    if isinstance(value, list):
        return [bad for i, v in enumerate(value) for bad in _nonfinite_fields(v, f"{where}[{i}]")]
    if isinstance(value, float) and not math.isfinite(value):
        return [where]
    return []


def check_model(model, data, reference):
    """The paper's stage-one invariants and the objective against its reference."""
    from simbound import norm, similarity_objective

    problems = []
    if not np.all(np.isfinite(model.matrix)):
        return ["similarity matrix has non-finite entries"]
    config = model.config
    radius = 1.0 / config.lam
    value = norm(model.matrix, config.norm_kind)
    if value > radius + INVARIANT_TOL * max(1.0, radius):
        problems.append(f"norm(A) = {value!r} exceeds 1/lambda = {radius!r}")
    objective = similarity_objective(model.matrix, data, config)
    if not math.isfinite(objective) or abs(objective - model.final_objective) > INVARIANT_TOL:
        problems.append(
            f"objective {objective!r} does not match reported {model.final_objective!r}"
        )
    if objective > reference + OBJECTIVE_BUDGET:
        problems.append(f"objective {objective!r} exceeds reference {reference!r} by more than 1e-3")
    return problems


def check_separator(sep, data):
    """L1-ball feasibility and the anchor identity: hinge <= stage-one error."""
    from simbound import empirical_hinge_error, empirical_similarity_error

    if not np.all(np.isfinite(sep.alpha)):
        return ["separator coefficients are not finite"]
    problems = []
    radius = 1.0 / sep.margin
    l1 = float(np.abs(sep.alpha).sum())
    if l1 > radius + INVARIANT_TOL * max(1.0, radius):
        problems.append(f"||alpha||_1 = {l1!r} exceeds 1/margin = {radius!r}")
    hinge = empirical_hinge_error(sep, data)
    e_z = empirical_similarity_error(sep.model.matrix, data, sep.margin)
    if not hinge <= e_z + INVARIANT_TOL:
        problems.append(f"separator training hinge {hinge!r} above similarity error {e_z!r}")
    return problems


# --------------------------------------------------------------- workloads


class Workload:
    """Op i runs kind ``kinds[i % len(kinds)]`` on pool slot ``slot(i)``.

    A pass over the pool is ``period`` ops; ``order`` maps a slot to its
    pool key.  Subclasses define ``run(i, timed)``, which returns
    ``(output, i)``, ``artifacts``, ``check`` and ``bytes_written``.  ``run``
    makes every call that belongs to the op through ``timed(fn, *args)``, and
    nothing else: the op's time is the sum of those calls' times, and the
    benchmark samples the host speed between them.
    """

    kinds = KINDS
    # 100 ops put ten samples beyond op_s.p90.
    min_ops = 100

    def __init__(self, inputs_dir, reference):
        self.inputs_dir = os.path.abspath(inputs_dir)
        self.order = _read_json(os.path.join(inputs_dir, "order.json"))
        self.reference = reference[self.name]
        self.period = len(self.kinds) * len(self.order)

    def kind(self, i):
        return self.kinds[i % len(self.kinds)]

    def slot(self, i):
        return (i // len(self.kinds)) % len(self.order)

    def reference_objective(self, i):
        return self.reference[str(self.order[self.slot(i)])][self.kind(i)]

    def install_capture(self):
        pass

    def remove_capture(self):
        pass


class Certify(Workload):
    """One trial of ``simbound experiment`` per op, run through ``cli.main``."""

    name = "certify"
    captured_functions = ("train_similarity", "train_separator")

    def __init__(self, inputs_dir, reference):
        import simbound.cli

        super().__init__(inputs_dir, reference)
        self.cli = simbound.cli
        self.output_dir = os.path.join(self.inputs_dir, "experiment")
        self.captured = {}
        self._originals = {}

    def install_capture(self):
        """Record what the experiment trains, so the check can audit it.

        The wrappers only store their arguments and result; they stay in
        place for the whole run, timed and traced ops alike.
        """
        for name in self.captured_functions:
            original = getattr(self.cli, name)
            self._originals[name] = original
            setattr(self.cli, name, self._recorder(name, original))

    def remove_capture(self):
        for name, original in self._originals.items():
            setattr(self.cli, name, original)

    def _recorder(self, name, fn):
        captured = self.captured

        def record(*args, **kwargs):
            result = fn(*args, **kwargs)
            captured[name] = (args, result)
            return result

        return record

    def run(self, i, timed):
        config = os.path.join(self.inputs_dir, f"config_{self.slot(i)}_{self.kind(i)}.json")
        self.captured.clear()
        return timed(self.cli.main, ["experiment", "--config", config]), i

    def artifacts(self, result):
        return {
            name: _read_bytes(os.path.join(self.output_dir, name))
            for name in ("results.csv", "summary.json")
        }

    def check(self, result):
        code, i = result
        if code != 0:
            return [f"experiment exited with code {code}"]
        problems = []
        artifacts = self.artifacts(result)
        rows = list(csv.DictReader(io.StringIO(artifacts["results.csv"].decode("utf-8"))))
        if len(rows) != 1:
            problems.append(f"results.csv holds {len(rows)} rows, expected 1")
        for row in rows:
            for column, text in row.items():
                if column != "norm_kind" and not math.isfinite(float(text)):
                    problems.append(f"results.csv {column} = {text}")
        problems += _nonfinite_fields(json.loads(artifacts["summary.json"]), "summary")
        if set(self.captured) != set(self.captured_functions):
            return problems + ["experiment did not train both stages"]
        (train_data, _), model = self.captured["train_similarity"]
        _, sep = self.captured["train_separator"]
        problems += check_model(model, train_data, self.reference_objective(i))
        return problems + check_separator(sep, train_data)

    def bytes_written(self, result):
        return sum(len(blob) for blob in self.artifacts(result).values())


class SolverTiny(Workload):
    """One fixed-iteration ``train_similarity`` fit per op, called directly."""

    name = "solver_tiny"

    def __init__(self, inputs_dir, reference):
        import simbound.similarity
        from simbound.data import dataset_from_json_dict

        super().__init__(inputs_dir, reference)
        self.similarity = simbound.similarity
        docs = _read_json(os.path.join(inputs_dir, "instances.json"))
        self.datasets = [dataset_from_json_dict(doc) for doc in docs]
        self.configs = [{kind: tiny_config(key, kind) for kind in KINDS} for key in self.order]

    def run(self, i, timed):
        slot = self.slot(i)
        config = self.configs[slot][self.kind(i)]
        return timed(self.similarity.train_similarity, self.datasets[slot], config), i

    def artifacts(self, result):
        model, _ = result
        text = json.dumps(self.similarity.model_to_json_dict(model), indent=2)
        return {"model.json": text.encode("utf-8")}

    def check(self, result):
        model, i = result
        return check_model(model, self.datasets[self.slot(i)], self.reference_objective(i))

    def bytes_written(self, result):
        return 0


class CliChain(Workload):
    """``train -> separator -> bounds -> eval`` per op, each through ``cli.main``."""

    name = "cli_chain"
    kinds = ("fro",)
    # Its ops are alike, so op_s.p90 is set by host noise alone; 40 passes
    # over the pool keep it steady.
    min_ops = 160
    artifact_names = ("model.json", "separator.json", "report.json", "eval.json")

    def __init__(self, inputs_dir, reference):
        import simbound.cli
        from simbound import load_csv

        super().__init__(inputs_dir, reference)
        self.cli = simbound.cli
        self.out = {name: os.path.join(self.inputs_dir, name) for name in self.artifact_names}
        slots = range(len(self.order))
        self.train_csv = [os.path.join(self.inputs_dir, f"train_{s}.csv") for s in slots]
        self.holdout_csv = [os.path.join(self.inputs_dir, f"holdout_{s}.csv") for s in slots]
        # Loaded once, outside the timed region, for the output checks.
        self.train_data = [load_csv(path) for path in self.train_csv]
        self.holdout_m = [load_csv(path).m for path in self.holdout_csv]

    def commands(self, i):
        train, holdout, out = self.train_csv[self.slot(i)], self.holdout_csv[self.slot(i)], self.out
        return (
            ["train", "--data", train, "--norm", "fro", "--lambda", repr(CHAIN_LAMBDA),
             "--margin", repr(CHAIN_MARGIN), "--out", out["model.json"]],
            ["separator", "--model", out["model.json"], "--data", train,
             "--max-iters", str(CHAIN_SEPARATOR_ITERS), "--out", out["separator.json"]],
            ["bounds", "--model", out["model.json"], "--data", train,
             "--mc-draws", str(CHAIN_MC_DRAWS), "--out", out["report.json"]],
            ["eval", "--data", holdout, "--model", out["model.json"],
             "--separator", out["separator.json"], "--out", out["eval.json"]],
        )

    def run(self, i, timed):
        # Each command is timed on its own: a chain is long enough for the
        # host to change state within it, and samples between the commands
        # follow such a change.
        codes = []
        for argv in self.commands(i):
            code = timed(self.cli.main, argv)
            codes.append(code)
            if code != 0:
                break
        return codes, i

    def artifacts(self, result):
        return {name: _read_bytes(path) for name, path in self.out.items()}

    def check(self, result):
        from simbound import load_model, load_separator

        codes, i = result
        if codes != [0, 0, 0, 0]:
            return [f"command exit codes {codes}"]
        data = self.train_data[self.slot(i)]
        model = load_model(self.out["model.json"])
        sep = load_separator(self.out["separator.json"])
        problems = check_model(model, data, self.reference_objective(i)) + check_separator(sep, data)
        report = _read_json(self.out["report.json"])
        evaluation = _read_json(self.out["eval.json"])
        problems += _nonfinite_fields(report, "report") + _nonfinite_fields(evaluation, "eval")
        for field in ("similarity_error", "hinge_error", "zero_one_error"):
            if not isinstance(evaluation.get(field), float):
                problems.append(f"eval has no {field}")
        if (evaluation.get("m"), evaluation.get("d")) != (self.holdout_m[self.slot(i)], CHAIN_D):
            problems.append(f"eval shape {evaluation.get('m')}x{evaluation.get('d')}")
        return problems

    def bytes_written(self, result):
        return sum(os.path.getsize(path) for path in self.out.values())


WORKLOADS = {cls.name: cls for cls in (Certify, SolverTiny, CliChain)}
