"""Spans around the library's public functions, installed from outside.

`Tracer.install` replaces every public function of the traced modules at
every `remychain.*` attribute bound to the same object (modules import each
other's names, and the package re-exports them), and wraps the ensemble
methods and `BinaryTree.leaves_below` on their classes.  A span records its
name, start, end and the span that called it; spans are kept in memory and
written out when the run ends.  Self time is a span's duration minus the
time its child spans cover.  Spans are recorded only while `active` is set,
which the workload runner does around each timed operation.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("trees", "remy", "kernel", "didendritic", "ensembles", "stats", "cli")
ENSEMBLE_CLASSES = ("IntervalEnsemble", "DyadicEnsemble", "ExcursionEnsemble")
ENSEMBLE_METHODS = ("compare", "left_value", "sample_point")
# Enough for the hot paths of a full traced run; spans past the cap still
# count towards every aggregate but are not written out.
SPAN_CAP = 100_000


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self.totals: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self._stack: list[list[float]] = []  # [span index, child time]
        self.points_requested = 0
        self.compares_in_sample = 0
        self._sampling = 0
        self._caches: dict[str, object] = {}
        self.cache_delta: dict[str, list[int]] = {}
        self._cache_before: dict[str, tuple[int, int]] = {}

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or getattr(fn, "__module__", None) != mod.__name__:
                    continue
                if not (inspect.isfunction(fn) or hasattr(fn, "cache_info")):
                    continue
                if hasattr(fn, "cache_info"):
                    self._caches[f"{layer}.{name}"] = fn
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapper)
        ens = sys.modules[f"{package.__name__}.ensembles"]
        for cls_name in ENSEMBLE_CLASSES:
            cls = getattr(ens, cls_name)
            for meth in ENSEMBLE_METHODS:
                setattr(cls, meth, self._wrap(f"ensembles.{cls_name}.{meth}", vars(cls)[meth]))
        tree_cls = sys.modules[f"{package.__name__}.trees"].BinaryTree
        tree_cls.leaves_below = self._wrap("trees.leaves_below", vars(tree_cls)["leaves_below"])

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter
        is_compare = name.endswith(".compare")
        is_sampler = name == "ensembles.sample_didendritic"
        is_point_request = name == "ensembles.sample_points"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if is_compare and self._sampling:
                self.compares_in_sample += 1
            elif is_point_request:
                self.points_requested += args[1] if len(args) > 1 else kwargs["count"]
            stack = self._stack
            idx = self._open(name_id, stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            self._sampling += is_sampler
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self._sampling -= is_sampler
                stack.pop()
                dur = end - start
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    self.span_start[idx] = start
                    self.span_end[idx] = end

        return wrapper

    def _open(self, name_id: int, parent: int) -> int:
        if len(self.span_name) >= SPAN_CAP:
            self.dropped += 1
            return -1
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        return len(self.span_name) - 1

    # -- one timed operation ----------------------------------------------

    def begin(self) -> None:
        self._cache_before = {k: _hits_misses(f) for k, f in self._caches.items()}
        self.active = True

    def end(self) -> None:
        self.active = False
        for k, f in self._caches.items():
            hits, misses = _hits_misses(f)
            before = self._cache_before[k]
            delta = self.cache_delta.setdefault(k, [0, 0])
            delta[0] += hits - before[0]
            delta[1] += misses - before[1]

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        return {
            "totals": self.totals,
            "points_requested": self.points_requested,
            "compares_in_sample": self.compares_in_sample,
            "cache_delta": self.cache_delta,
            "cache_entries": {k: f.cache_info().currsize for k, f in self._caches.items()},
            "spans": len(self.span_name),
            "spans_dropped": self.dropped,
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")


def _hits_misses(fn) -> tuple[int, int]:
    info = fn.cache_info()
    return info.hits, info.misses


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer numbers of one traced run; absent layers read 0."""
    totals = summary["totals"]

    def agg(prefix: str, suffix: str = "") -> list[float]:
        out = [0, 0.0, 0.0]
        for name, (calls, total, self_s) in totals.items():
            if name.startswith(prefix) and name.endswith(suffix):
                out[0] += calls
                out[1] += total
                out[2] += self_s
        return out

    def fn(name: str) -> list[float]:
        return totals.get(name, [0, 0.0, 0.0])

    m: dict[str, float] = {}
    for layer in LAYERS:
        if layer not in ("stats", "cli"):
            m[f"{layer}.self_s"] = agg(layer + ".")[2]
    for name in ("trees.validate_tree", "trees.leaves_below", "remy.apply_forward_move",
                 "remy.apply_backward_move", "kernel.count_embeddings", "kernel.h_transform_weights"):
        m[f"{name}.calls"] = fn(name)[0]
        m[f"{name}.self_s"] = fn(name)[2]
    for name in ("trees.encode_tree", "trees.decode_tree", "trees.enumerate_trees",
                 "remy.spine_tree", "kernel.complete_tree", "didendritic.encode",
                 "didendritic.decode", "didendritic.axioms_check", "didendritic.left_of",
                 "didendritic.from_lines", "ensembles.ultrametric_tree", "stats.chi_square"):
        m[f"{name}.self_s"] = fn(name)[2]
    hits, misses = summary["cache_delta"].get("kernel.count_embeddings", [0, 0])
    m["kernel.count_embeddings.hit_ratio"] = _ratio(hits, hits + misses)
    m["kernel.count_embeddings.cache_entries"] = summary["cache_entries"].get("kernel.count_embeddings", 0)
    m["kernel.martin_kernel.total_s"] = fn("kernel.martin_kernel")[1]
    compare = agg("ensembles.", ".compare")
    m["ensembles.compare.calls"] = compare[0]
    m["ensembles.compare.self_s"] = compare[2]
    samples = fn("ensembles.sample_didendritic")[0]
    m["ensembles.compare_per_sample"] = _ratio(summary["compares_in_sample"], samples)
    m["ensembles.array_yield"] = _ratio(samples, fn("ensembles.didendritic_array_from_points")[0])
    m["ensembles.point_yield"] = _ratio(summary["points_requested"], agg("ensembles.", ".sample_point")[0])
    m["ensembles.distance_matrix.total_s"] = fn("ensembles.distance_matrix")[1]
    m["cli.self_s"] = agg("cli.")[2]
    m["cli.dispatch.calls"] = fn("cli.dispatch")[0]
    return m
