"""Spans around digitbench's public entry points, recorded from outside.

``Tracer.patched()`` replaces each entry point by a wrapper at the name its
caller looks it up under, and restores the originals on exit. Each call
records a span (name, start, end, parent, thread) in memory, plus the counts
that can be read off its arguments or result. ``layer_metrics`` turns the
spans of one repetition into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import sys
import threading
import time

from digitbench import bench, cli
from digitbench.classify.boosting import GradientBoostingClassifier
from digitbench.classify.forest import RandomForestClassifier
from digitbench.classify.knn import KnnClassifier
from digitbench.classify.svm import SvmClassifier

ROOT = "cli.main"

CLASSIFIERS = {"knn": KnnClassifier, "svm": SvmClassifier,
               "rf": RandomForestClassifier,
               "gbdt": GradientBoostingClassifier}


def _tree_nodes(model) -> int:
    trees = model.trees_
    if trees and isinstance(trees[0], list):
        trees = [t for row in trees for t in row]
    return sum(t.n_nodes for t in trees)


def _fit_counts(kind, model) -> dict:
    """Solver and tree counts read off a fitted model."""
    if kind == "svm":
        return {"n_iter": int(model.n_iter_.sum()),
                "unconverged": int(not model.converged_),
                "n_support": int(model.support_vectors_.shape[0])}
    if kind == "rf":
        return {"nodes": _tree_nodes(model)}
    if kind == "gbdt":
        return {"nodes": _tree_nodes(model),
                "final_loss": float(model.loss_trace_[-1])}
    return {}


class Tracer:
    """In-memory span recorder; one instance per traced repetition."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; yields its attribute dict for counts."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._root
        with self._lock:
            sid = next(self._ids)
        if parent is None:
            self._root = sid
        attrs: dict = {}
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            if self._root == sid:
                self._root = None
            with self._lock:
                self.spans.append({"id": sid, "name": name, "start": start,
                                   "end": end, "parent": parent,
                                   "thread": threading.get_ident(),
                                   "attrs": attrs})

    def _wrap(self, fn, name_of, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name_of(args, kwargs)) as attrs:
                result = fn(*args, **kwargs)
                if count is not None:
                    attrs.update(count(args, kwargs, result))
                return result
        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Wrap every public entry point where its caller looks it up."""
        def fixed(name):
            return lambda args, kwargs: name

        def extract_name(args, kwargs):
            return f"features.{kwargs.get('method', args[1])}"

        def images(args, kwargs, result):
            return {"images": len(args[0])}

        def cache_read(args, kwargs, result):
            return {"hits": int(result is not None),
                    "misses": int(result is None)}

        def cache_write(args, kwargs, result):
            return {"bytes": os.path.getsize(args[0])}

        targets = [
            (bench, "load_csv", fixed("datasets.load_csv"), None),
            (bench, "preprocess_all", fixed("imaging.preprocess"), images),
            (cli, "preprocess_all", fixed("imaging.preprocess"), images),
            (bench, "extract_batch", extract_name, None),
            (cli, "extract_batch", extract_name, None),
            (bench, "load_feature_cache", fixed("datasets.cache_read"),
             cache_read),
            (bench, "save_feature_cache", fixed("datasets.cache_write"),
             cache_write),
            (cli, "save_feature_cache", fixed("datasets.cache_write"),
             cache_write),
            (bench, "evaluate", fixed("metrics.evaluate"), None),
            (cli, "emit_report", fixed("bench.report"), None),
        ]
        for kind, cls in CLASSIFIERS.items():
            targets.append((cls, "fit", fixed(f"classify.{kind}.fit"),
                            lambda a, k, model, kind=kind:
                            _fit_counts(kind, model)))
            targets.append((cls, "predict",
                            fixed(f"classify.{kind}.predict"), None))

        missing = [f"{getattr(o, '__name__', o)}.{a}"
                   for o, a, _, _ in targets if not hasattr(o, a)]
        if missing:
            # the layer then reads 0; say so rather than stop the run
            print(f"warning: not traced: {', '.join(missing)}",
                  file=sys.stderr)
        targets = [t for t in targets if hasattr(t[0], t[1])]
        # an inherited method is not in the owner's own namespace; its
        # wrapper is deleted again rather than replaced
        originals = [(owner, attr, vars(owner).get(attr))
                     for owner, attr, _, _ in targets]
        try:
            for owner, attr, name_of, count in targets:
                setattr(owner, attr,
                        self._wrap(getattr(owner, attr), name_of, count))
            yield self
        finally:
            for owner, attr, original in originals:
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(
                (s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered(children.get(s["id"], ())) for s in spans}


LAYER_TIMES = {
    "datasets.load_csv_s": "datasets.load_csv",
    "imaging.preprocess_s": "imaging.preprocess",
    "features.hog_s": "features.hog",
    "features.lbp_s": "features.lbp",
    "features.gabor_s": "features.gabor",
    "datasets.cache_write_s": "datasets.cache_write",
    "datasets.cache_read_s": "datasets.cache_read",
    "classify.knn.predict_s": "classify.knn.predict",
    "classify.rf.fit_s": "classify.rf.fit",
    "classify.rf.predict_s": "classify.rf.predict",
    "classify.gbdt.fit_s": "classify.gbdt.fit",
    "classify.gbdt.predict_s": "classify.gbdt.predict",
    "classify.svm.fit_s": "classify.svm.fit",
    "classify.svm.predict_s": "classify.svm.predict",
    "metrics.evaluate_s": "metrics.evaluate",
    "bench.report_s": "bench.report",
    "bench.self_s": ROOT,
}

# spans that together make up one grid cell's work
_CELL_PREFIXES = ("classify.", "metrics.evaluate")


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one repetition; 0 for a layer it never calls."""
    own = self_times(spans)
    out = {key: sum(own[s["id"]] for s in spans if s["name"] == name)
           for key, name in LAYER_TIMES.items()}

    def total(name, attr):
        return sum(s["attrs"].get(attr, 0) for s in spans
                   if s["name"] == name)

    out["imaging.images"] = total("imaging.preprocess", "images")
    out["datasets.cache_mb_written"] = \
        total("datasets.cache_write", "bytes") / 2**20
    hits = total("datasets.cache_read", "hits")
    misses = total("datasets.cache_read", "misses")
    out["datasets.cache_hits"] = hits
    out["datasets.cache_misses"] = misses
    out["datasets.cache_hit_ratio"] = hits / (hits + misses) \
        if hits + misses else 0.0
    out["classify.rf.nodes"] = total("classify.rf.fit", "nodes")
    out["classify.gbdt.nodes"] = total("classify.gbdt.fit", "nodes")
    losses = [s["attrs"]["final_loss"] for s in spans
              if s["name"] == "classify.gbdt.fit"]
    out["classify.gbdt.final_loss"] = sum(losses) / len(losses) \
        if losses else 0.0
    for attr in ("n_iter", "unconverged", "n_support"):
        out[f"classify.svm.{attr}"] = total("classify.svm.fit", attr)

    cells = [s for s in spans if s["name"].startswith(_CELL_PREFIXES)]
    if cells:
        phase = (max(s["end"] for s in cells)
                 - min(s["start"] for s in cells))
        busy = sum(s["end"] - s["start"] for s in cells)
        out["bench.busy_ratio"] = busy / phase  # every workload runs 1 job
    else:
        out["bench.busy_ratio"] = 0.0
    return out
