"""Per-iteration cost probes for the solver sizes the roadmap tracks.

Stage one: microseconds per iteration for each norm kind at m=200 and
d in {5, 20, 50}, from fits with a fixed iteration count (rel_tol 0).  The
count is small where one iteration is slow: trace at d=50 costs about a
quarter of a second per iteration with the Jacobi eigensolver.

Separator: microseconds per iteration at m=200 and m=2000, Gram matrix
build included.  m=20000 is left out: its m x m Gram matrix alone needs
3.2 GB, too much for an 8 GB box with no swap.

Probes run untimed by the op loop and untraced; each reports the median of
``REPEATS`` fits.
"""

import statistics
import time

from workloads import KINDS

REPEATS = 3
PROBE_M = 200
PROBE_DIMS = (5, 20, 50)
# Iterations per stage-one fit, chosen so that no probe fit takes more than
# about a second at the seed's speed.
STAGE_ONE_ITERS = {
    "l1": {5: 100, 20: 100, 50: 100},
    "fro": {5: 100, 20: 100, 50: 100},
    "mixed21": {5: 100, 20: 100, 50: 100},
    "trace": {5: 40, 20: 6, 50: 3},
}
SEPARATOR_ITERS = {200: 200, 2000: 40}
SKIPPED = {"separator.iter_us.m20000": "m x m Gram matrix needs 3.2 GB; box has 8 GB and no swap"}


def _median_seconds(fn):
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _sample(m, d, seed):
    from simbound import GeneratorSpec, generate

    spec = GeneratorSpec(kind="two_gaussians", d=d, mean_separation=2.0, noise_sigma=1.0, seed=seed)
    return generate(spec, m)


def run_probes(seed):
    from simbound import SimilarityConfig, train_separator, train_similarity

    metrics = {}
    for d in PROBE_DIMS:
        data = _sample(PROBE_M, d, seed + d)
        for kind in KINDS:
            iters = STAGE_ONE_ITERS[kind][d]
            config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind=kind, max_iters=iters, rel_tol=0.0)
            seconds = _median_seconds(lambda: train_similarity(data, config))
            metrics[f"similarity.iter_us.{kind}.d{d}"] = seconds / iters * 1e6

    for m, iters in SEPARATOR_ITERS.items():
        data = _sample(m, 5, seed + m)
        config = SimilarityConfig(lam=0.1, margin=1.0, norm_kind="fro", max_iters=50)
        model = train_similarity(data, config)
        seconds = _median_seconds(lambda: train_separator(model, data, max_iters=iters))
        metrics[f"separator.iter_us.m{m}"] = seconds / iters * 1e6
    return metrics
