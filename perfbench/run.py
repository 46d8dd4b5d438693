"""simbound benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the repository root.  One run:

1. sets up once: a fresh interpreter imports simbound and writes the
   workload's inputs.  It sets up again, into a spare directory, after every
   ``min_ops // SETUP_REPEATS`` ops of the timed loop, up to ``SETUP_REPEATS``
   set-ups in all, so that they meet the host in different states;
   ``setup_s`` is their median wall time;
2. runs op 0 once untimed, as warm-up and as the reference for the
   byte-determinism check of the timed op 0;
3. runs ops back to back, one client in one process, until ``--seconds``
   have passed, the workload's ``min_ops`` ops are done and the last pass
   over its input pool is complete.  Only the op itself is timed, and
   scaled to quiet-host seconds (see hostspeed.py); its output check runs
   after the clock stops, and an op that raises, exits nonzero or fails the
   check counts as failed.

With ``--trace 1`` each op runs twice, untraced and then traced, and the run
reports the per-layer metrics (see spans.py) and the stage-one and separator
probes (see probes.py) instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the run's facts
(machine, sample counts, failures).  A readable table goes to standard error.
BENCHMARK.json names every metric and its unit; README.md explains the
workloads and which layer metric should move which end-to-end metric.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench")

# Past this much measuring the loop stops at the next pass end even below
# the workload's min_ops, so that a run always ends within 180 s.
MAX_LOOP_S = 110.0
SETUP_REPEATS = 7
WORKLOAD_NAMES = ("certify", "solver_tiny", "cli_chain")


class SetupError(RuntimeError):
    pass


def cap_blas_threads():
    """Let BLAS use at most as many threads as this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 1 <= current <= nproc:
            os.environ[var] = str(nproc)


def _blas_threads():
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(loadavg):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cores = len(os.sched_getaffinity(0))
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "loadavg_at_start": list(loadavg),
        "note": f"{cores} usable cores bound any parallel speed-up at {cores}x",
    }


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    return doc["end_to_end"], doc["per_layer"]


def timed_setup(workload, seed, inputs):
    """Wall seconds of one set-up, which writes the workload's inputs to inputs."""
    shutil.rmtree(inputs, ignore_errors=True)
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_inputs.py"), workload, str(seed), inputs],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise SetupError(f"set-up exited with code {proc.returncode}:\n{proc.stderr}")
    return elapsed


def untimed(fn, *args):
    return fn(*args)


def host_timer(host, parts):
    """A ``timed(fn, *args)`` for ``Workload.run`` that appends the call's
    (start, end) to parts and samples the host speed just before and after.

    The sample after one part serves as the sample before the next.
    """

    def timed(fn, *args):
        if not parts:
            host.sample()
        started = time.perf_counter()
        try:
            return fn(*args)
        finally:
            parts.append((started, time.perf_counter()))
            host.sample()

    return timed


def measure(wl, seconds, tracer, host, between_ops):
    """The op loop.  Returns per op its kind and the (start, end) of its
    timed parts, the failures and the traced totals.

    An untraced op is timed part by part (see ``Workload.run``), a traced op
    as a whole.  ``between_ops(i)`` runs, untimed, after the i-th op.
    """
    warm = wl.artifacts(wl.run(0, untimed))
    untraced = []
    traced = []
    failures = []
    attempted = 0
    bytes_written = 0
    modes = (False, True) if tracer is not None else (False,)
    started = time.perf_counter()
    i = 0
    while True:
        for trace_on in modes:
            attempted += 1
            parts = []
            try:
                if trace_on:
                    op_started = time.perf_counter()
                    result = tracer.op(wl.run, i, untimed)
                    parts.append((op_started, time.perf_counter()))
                else:
                    result = wl.run(i, host_timer(host, parts))
            except Exception as exc:  # a raising op is a failed op; keep measuring
                failures.append(f"op {i} ({wl.kind(i)}): raised {exc!r}")
                continue
            (traced if trace_on else untraced).append((wl.kind(i), parts))
            problems = wl.check(result)
            if i == 0 and wl.artifacts(result) != warm:
                problems.append("artifacts differ byte for byte from the warm-up run of op 0")
            if trace_on:
                bytes_written += wl.bytes_written(result)
            if problems:
                failures.append(f"op {i} ({wl.kind(i)}): " + "; ".join(problems))
        i += 1
        between_ops(i)
        if i % wl.period:
            continue
        wall = time.perf_counter() - started
        if wall >= MAX_LOOP_S or (wall >= seconds and (tracer is not None or i >= wl.min_ops)):
            break
    return {
        "untraced": untraced,
        "traced": traced,
        "failures": failures,
        "attempted": attempted,
        "bytes_written": bytes_written,
    }


def _wall(parts):
    return sum(end - start for start, end in parts)


def end_to_end(setup, run, scale):
    """The end-to-end metrics; scale(start, end) is the factor for each op time.

    Set-up is spawning an interpreter, importing and writing files; its time
    does not follow the host-speed kernel, so it is reported as wall time.
    """
    setup_s = statistics.median(setup)
    durations = [
        sum((end - start) * scale(start, end) for start, end in parts)
        for _, parts in run["untraced"]
    ]
    failed = len(run["failures"])
    return {
        "setup_s": setup_s,
        "ops_per_s": (run["attempted"] - failed) / sum(durations),
        "op_s.p50": statistics.median(durations),
        "op_s.p90": statistics.quantiles(durations, n=10)[-1],
        "ops_ok_frac": 1.0 - failed / run["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(summary, run, probe_metrics):
    n = summary["ops"]
    span = summary["span_s"]
    calls = summary["calls"]
    counts = summary["counts"]
    self_s = summary["self_s"]

    def per_op(value):
        return value / n

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    iters = counts.get("similarity.iters", 0)
    sep_iters = calls.get("separator.project", 0)
    draws = counts.get("bounds.mc_draws", 0)
    untraced_s = sum(_wall(parts) for _, parts in run["untraced"])
    traced_s = sum(_wall(parts) for _, parts in run["traced"])
    metrics = {
        "norms.prox_s": per_op(span.get("norms.prox", 0.0)),
        "norms.prox_calls": per_op(calls.get("norms.prox", 0)),
        "norms.norm_s": per_op(span.get("norms.norm", 0.0)),
        "norms.norm_calls": per_op(calls.get("norms.norm", 0)),
        "norms.eig_s": per_op(span.get("norms.eig", 0.0)),
        "norms.eig_calls": per_op(calls.get("norms.eig", 0)),
        "similarity.train_s": per_op(span.get("similarity.train", 0.0)),
        "similarity.iters": per_op(iters),
        "similarity.iter_us": ratio(span.get("similarity.train", 0.0), iters, 1e6),
        "similarity.subgradient_calls": per_op(calls.get("similarity.subgradient", 0)),
        "similarity.objective_calls": per_op(calls.get("similarity.objective", 0)),
        "separator.train_s": per_op(span.get("separator.train", 0.0)),
        "separator.iters": per_op(sep_iters),
        "separator.iter_us": ratio(span.get("separator.train", 0.0), sep_iters, 1e6),
        "separator.project_s": per_op(span.get("separator.project", 0.0)),
        "separator.project_calls": per_op(calls.get("separator.project", 0)),
        "separator.gram_mb_computed": counts.get("separator.alloc_peak_bytes", 0) / 1e6,
        "bounds.report_s": per_op(span.get("bounds.report", 0.0)),
        "bounds.rademacher_s": per_op(span.get("bounds.rademacher", 0.0)),
        "bounds.mc_draws": per_op(draws),
        "bounds.draw_us": ratio(span.get("bounds.rademacher", 0.0), draws, 1e6),
        "data.generate_s": per_op(span.get("data.generate", 0.0)),
        "data.load_csv_s": per_op(span.get("data.load_csv", 0.0)),
        "data.load_csv_rows_per_s": ratio(counts.get("data.load_csv_rows", 0),
                                          span.get("data.load_csv", 0.0)),
        "cli.train_s": per_op(span.get("cli.train", 0.0)),
        "cli.separator_s": per_op(span.get("cli.separator", 0.0)),
        "cli.bounds_s": per_op(span.get("cli.bounds", 0.0)),
        "cli.eval_s": per_op(span.get("cli.eval", 0.0)),
        "cli.experiment_s": per_op(span.get("cli.experiment", 0.0)),
        "cli.bytes_written": per_op(run["bytes_written"]),
        "other_s": per_op(summary["other_s"]),
        "trace.op_s": per_op(summary["op_s"]),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    for layer, seconds in self_s.items():
        metrics[f"{layer}.self_s"] = per_op(seconds)
    metrics.update(probe_metrics)
    return metrics


def run_workload(args, workload):
    loadavg = os.getloadavg()
    cap_blas_threads()
    facts = machine_facts(loadavg)
    end_to_end_decl, per_layer_decl = declared_metrics()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"work-{os.getpid()}")
    spare = f"{work}-setup"
    from hostspeed import BETA, HostSpeed

    host = HostSpeed(BETA[workload])
    try:
        # Measure this checkout's simbound, never one installed elsewhere.
        if not os.path.isfile(os.path.join(ROOT, "src", "simbound", "__init__.py")):
            raise SetupError(f"no simbound sources under {os.path.join(ROOT, 'src')}")
        setup = [timed_setup(workload, args.seed, work)]
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import simbound.bounds
        import simbound.cli
        import simbound.norms
        import simbound.separator
        import simbound.similarity
        import workloads

        with open(os.path.join(HERE, "reference.json"), "r", encoding="utf-8") as handle:
            reference = json.load(handle)
        wl = workloads.WORKLOADS[workload](work, reference)
        spacing = wl.min_ops // SETUP_REPEATS

        def between_ops(i):
            if not args.trace and i % spacing == 0 and len(setup) < SETUP_REPEATS:
                setup.append(timed_setup(workload, args.seed, spare))

        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        wl.install_capture()
        try:
            if tracer is not None:
                tracer.install(sys.modules)
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                run = measure(wl, args.seconds, tracer, host, between_ops)
        finally:
            if tracer is not None:
                tracer.remove()
            wl.remove_capture()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(spare, ignore_errors=True)

    failed = len(run["failures"])
    info = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "ops_timed": len(run["untraced"]),
        "setups_timed": len(setup),
        "ops_failed_frac": failed / run["attempted"],
        "host_slowdown": host.slowdown(),
        "op_s.p50_by_kind_raw": {
            kind: statistics.median(_wall(parts) for k, parts in run["untraced"] if k == kind)
            for kind in dict.fromkeys(k for k, _ in run["untraced"])
        },
        "failures": run["failures"][:20],
    }
    correct = failed == 0
    if tracer is None:
        computed = end_to_end(setup, run, host.scale)
        info["raw_wall"] = end_to_end(setup, run, lambda start, end: 1.0)
        declared = end_to_end_decl
    else:
        from probes import SKIPPED, run_probes

        summary = tracer.summary()
        accounted = sum(summary["self_s"].values()) + summary["other_s"]
        info["trace"] = {
            "ops_traced": summary["ops"],
            "op_wall_s": summary["op_s"],
            "layer_self_s": summary["self_s"],
            "other_s": summary["other_s"],
            "accounted_frac": accounted / summary["op_s"],
            "spans": len(tracer.names),
            "probes_skipped": SKIPPED,
        }
        correct = correct and abs(accounted - summary["op_s"]) <= 1e-6 * summary["op_s"]
        trace_dir = os.path.join(WORK_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write(os.path.join(trace_dir, f"{workload}-seed{args.seed}.tsv.gz"))
        computed = per_layer(summary, run, run_probes(args.seed))
        declared = per_layer_decl
    missing = [m["name"] for m in declared if m["name"] not in computed]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": correct, "attempted": run["attempted"], "failed": failed, "metrics": metrics}
    for name, metric in metrics.items():
        print(f"{workload:12s} {name:34s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    for failure in run["failures"][:20]:
        print(f"{workload}: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"perfbench": info}))
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Run every workload in its own process and print one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{workload} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print(lines[-2])
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args, args.workload)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
