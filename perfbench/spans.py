"""Spans recorded from outside the program, by rebinding its public functions.

While a ``Tracer`` is installed, each function named in ``TRACED`` is
replaced in the module that calls it by a wrapper that records a span
(name, start, end, parent) and then calls the original.  Only calls made
inside ``Tracer.op`` are recorded, so output checks leave no spans.
``remove`` puts the originals back.  Spans stay in memory, in flat arrays, until the run
ends; ``write`` then dumps them as gzipped TSV.

A span's name is ``<layer>.<what>``; the layers are the modules of
``src/simbound``.  Self time is a span's duration minus that of its children,
and ``other`` is the part of an op that no layer span covers, so the layer
self times plus ``other`` add up to the op's wall time exactly.
"""

import gzip
import time
import tracemalloc
from array import array
from collections import defaultdict

LAYERS = ("data", "norms", "similarity", "separator", "bounds", "cli")

# (module, attribute, span name).  The attribute is rebound in the module
# that calls it: ``from .norms import prox`` in similarity.py makes
# ``simbound.similarity.prox`` the name that stage one looks up.
TRACED = (
    ("simbound.cli", "main", "cli"),
    ("simbound.cli", "generate", "data.generate"),
    ("simbound.cli", "load_csv", "data.load_csv"),
    ("simbound.cli", "train_similarity", "similarity.train"),
    ("simbound.similarity", "train_similarity", "similarity.train"),
    ("simbound.similarity", "hinge_subgradient", "similarity.subgradient"),
    ("simbound.similarity", "similarity_objective", "similarity.objective"),
    ("simbound.cli", "empirical_similarity_error", "similarity.error"),
    ("simbound.cli", "true_similarity_error", "similarity.error"),
    ("simbound.bounds", "empirical_similarity_error", "similarity.error"),
    ("simbound.similarity", "prox", "norms.prox"),
    ("simbound.similarity", "norm", "norms.norm"),
    ("simbound.norms", "sym_eigendecomposition", "norms.eig"),
    ("simbound.cli", "train_separator", "separator.train"),
    ("simbound.separator", "project_l1_ball", "separator.project"),
    ("simbound.cli", "empirical_hinge_error", "separator.error"),
    ("simbound.cli", "true_hinge_error", "separator.error"),
    ("simbound.cli", "build_bound_report", "bounds.report"),
    ("simbound.bounds", "rademacher_empirical", "bounds.rademacher"),
)

OP = "op"


class Tracer:
    def __init__(self):
        self.names = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack = []
        # Work counts read from arguments and results, keyed by span name.
        self.counts = defaultdict(float)
        self._originals = []

    # ------------------------------------------------------------ recording

    def _open(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index):
        self.end[index] = time.perf_counter_ns()
        self.stack.pop()

    def op(self, fn, *args):
        """Run one op under a root span."""
        index = self._open(OP)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _wrap(self, name, fn):
        tracer = self
        count = _COUNTERS.get(name)

        if name == "cli":
            def traced(argv=None):
                if not tracer.stack:
                    return fn(argv)
                index = tracer._open(f"cli.{argv[0]}")
                try:
                    return fn(argv)
                finally:
                    tracer._close(index)
            return traced

        if name == "separator.train":
            def traced(*args, **kwargs):
                if not tracer.stack:
                    return fn(*args, **kwargs)
                # Peak bytes allocated during the first fit only: tracemalloc
                # slows every allocation, and every op of a workload fits at
                # the same size.  numpy reports its buffers to tracemalloc, so
                # the m x m Gram matrix shows here.
                sample = "separator.alloc_peak_bytes" not in tracer.counts
                if sample:
                    tracemalloc.start()
                index = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(index)
                    if sample:
                        tracer.counts["separator.alloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
            return traced

        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------ install/remove

    def install(self, modules):
        for module_name, attr, name in TRACED:
            module = modules[module_name]
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def remove(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    # ------------------------------------------------------------- analysis

    def summary(self):
        """Per span name: total seconds and calls; per layer: self seconds.

        Also returns the number of ops, their total wall seconds and the
        seconds no layer span covers.
        """
        n = len(self.names)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        total = defaultdict(int)
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        ops = 0
        op_ns = 0
        for i in range(n):
            name = self.names[i]
            duration = self.end[i] - self.start[i]
            layer = name.split(".", 1)[0]
            self_ns[layer] += duration - child[i]
            if name == OP:
                ops += 1
                op_ns += duration
                continue
            total[name] += duration
            calls[name] += 1
        seconds = {name: ns / 1e9 for name, ns in total.items()}
        self_s = {layer: self_ns.get(layer, 0) / 1e9 for layer in LAYERS}
        return {
            "ops": ops,
            "op_s": op_ns / 1e9,
            "other_s": self_ns.get(OP, 0) / 1e9,
            "span_s": seconds,
            "calls": dict(calls),
            "self_s": self_s,
            "counts": dict(self.counts),
        }

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("span\tparent\tname\tstart_ns\tend_ns\n")
            for i, name in enumerate(self.names):
                handle.write(f"{i}\t{self.parent[i]}\t{name}\t{self.start[i]}\t{self.end[i]}\n")


def _count_iterations(counts, args, kwargs, model):
    counts["similarity.iters"] += model.iterations_run


def _count_draws(counts, args, kwargs, result):
    counts["bounds.mc_draws"] += kwargs["mc_draws"] if "mc_draws" in kwargs else args[2]


def _count_rows(counts, args, kwargs, data):
    counts["data.load_csv_rows"] += data.m


_COUNTERS = {
    "similarity.train": _count_iterations,
    "bounds.rademacher": _count_draws,
    "data.load_csv": _count_rows,
}
