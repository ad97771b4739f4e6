"""Child process of perfbench/run.py: set up or measure one workload.

    python3 perfbench/worker.py setup   WORKLOAD SEED DIR
    python3 perfbench/worker.py measure WORKLOAD SEED DIR SECONDS TRACE

``setup`` writes the workload's seeded CSV (and, for a cached workload, warms
the feature cache) several times over, keeps the first copy in DIR/input and
writes DIR/setup.json. ``measure`` repeats the workload's operation on those
inputs through ``digitbench.cli.main`` for SECONDS, checks every output and
writes DIR/measure.json. Setting up and measuring run in separate processes
so that the measuring process's peak RSS is the workload's own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
sys.path.insert(0, SRC)

import digitbench  # noqa: E402
from digitbench.cli import main as digitbench_main  # noqa: E402
from digitbench.datasets import synthetic_glyphs  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402

NOISE = 0.35
SETUPS = 3
# SHA-256 of csv_text(20, seed=0): the generator must keep producing the
# inputs the recorded baseline was measured on
GENERATOR_DIGEST = ("224d8a5d981797266e2a95f447223253"
                    "cc0b40062f3eb029e118724360fa33d1")
EXTRACT_DIMS = {"hog": 1296, "lbp": 784, "gabor": 784}


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the CLI operation repeated on them."""

    rows: int
    cells: int = 0          # grid cells of a ``bench`` workload
    config: tuple = ()      # extra config lines for a ``bench`` workload
    warm_hog: bool = False  # set-up fills the feature cache with HOG


WORKLOADS = {
    # front end only: CSV load, preprocess, three extractors, cache write
    "extract_csv": Workload(rows=600),
    # the full 3x4 grid on noisy glyphs; tree sizes cut through config keys.
    # One job, as everywhere: at jobs=2 the two cells' memory peaks overlap
    # at random, and peak RSS varied by 11% between runs (2.4% at jobs=1)
    "grid_noisy": Workload(rows=400, cells=12, config=(
        "classifier.rf.n_trees = 5", "classifier.gbdt.n_rounds = 2",
        "classifier.gbdt.max_bins = 32")),
    # hog+svm on a warm feature cache: SVM fit and its n x n Gram matrix
    "svm_glyphs": Workload(rows=3000, cells=1, warm_hog=True,
                           config=("features = hog", "classifiers = svm")),
}


def csv_text(rows: int, seed: int) -> str:
    """Seeded noisy glyphs as an 8-bit, label-first CSV with a header."""
    images, labels = synthetic_glyphs(rows, seed=seed, noise=NOISE)
    pixels = np.rint(images.reshape(rows, -1) * 255).astype(np.uint8)
    header = "label," + ",".join(f"pixel{i}" for i in range(pixels.shape[1]))
    lines = [header] + [f"{label}," + ",".join(map(str, row))
                        for label, row in zip(labels, pixels.tolist())]
    return "\n".join(lines) + "\n"


def call_cli(argv) -> int:
    """``digitbench.cli.main`` with its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return digitbench_main(argv)


def extract_argv(csv_path, method, out_dir):
    return ["extract", "--dataset", csv_path, "--method", method,
            "--out", out_dir, "--jobs", "1"]


def setup(name: str, seed: int, work: str) -> None:
    if hashlib.sha256(csv_text(20, 0).encode()).hexdigest() \
            != GENERATOR_DIGEST:
        sys.exit("synthetic_glyphs output changed; the benchmark inputs "
                 "would no longer match the recorded baseline")
    wl = WORKLOADS[name]
    seconds, digests = [], set()
    for i in range(SETUPS):
        target = os.path.join(work, "input" if i == 0 else f"setup{i}")
        os.makedirs(target)
        csv_path = os.path.join(target, "data.csv")
        t0 = time.perf_counter()
        text = csv_text(wl.rows, seed)
        with open(csv_path, "w") as fh:
            fh.write(text)
        if wl.warm_hog and call_cli(extract_argv(
                csv_path, "hog", os.path.join(target, "cache"))) != 0:
            sys.exit("warming the feature cache failed")
        seconds.append(time.perf_counter() - t0)
        digests.add(hashlib.sha256(text.encode()).hexdigest())
        if i:
            shutil.rmtree(target)
    if len(digests) != 1:
        sys.exit("the same seed gave different CSV inputs")
    inputs = os.path.join(work, "input")
    lines = [f"dataset.path = {os.path.join(inputs, 'data.csv')}",
             f"split.seed = {seed}",
             f"output.dir = {os.path.join(work, 'out')}", *wl.config]
    if wl.warm_hog:
        lines.append(f"output.cache_dir = {os.path.join(inputs, 'cache')}")
    with open(os.path.join(inputs, "run.cfg"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(work, "setup.json"), "w") as fh:
        json.dump({"seconds": seconds, "csv_sha256": digests.pop()}, fh)


def expected_split(labels: np.ndarray, fraction: float = 0.8) -> tuple:
    """(n_train, n_test) of a stratified round-half-up split."""
    train = int(np.floor(fraction * np.bincount(labels) + 0.5).sum())
    return train, int(labels.shape[0]) - train


class Checker:
    """Output checks; counts operations attempted and failed."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.labels = np.arange(wl.rows, dtype=np.int64) % 10
        self.split = expected_split(self.labels)
        self.reference: dict = {}
        self.attempted = 0
        self.failed = 0
        self.accuracies: list[float] = []

    def _count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def extract(self, method: str, rc: int, cache_dir: str) -> None:
        """Cached matrix: right shape, finite, true labels, same digest."""
        files = [f for f in os.listdir(cache_dir)
                 if f.startswith(f"features-{method}-")] \
            if os.path.isdir(cache_dir) else []
        if rc != 0 or len(files) != 1:
            return self._count(False)
        with np.load(os.path.join(cache_dir, files[0])) as data:
            X, y = data["features"], data["labels"]
        ok = (X.shape == (self.wl.rows, EXTRACT_DIMS[method])
              and bool(np.all(np.isfinite(X)))
              and np.array_equal(y, self.labels))
        digest = hashlib.sha256(np.ascontiguousarray(X).tobytes()).hexdigest()
        self._count(ok and self.reference.setdefault(method, digest)
                    == digest)

    def bench(self, out_dir: str) -> None:
        """Report rows: all ok, consistent, and byte-identical across reps."""
        try:
            with open(os.path.join(out_dir, "cells.csv")) as fh:
                cells = fh.read()
            with open(os.path.join(out_dir, "plot_accuracy.csv")) as fh:
                plot = fh.read()
        except FileNotFoundError:
            cells = plot = ""
        first = "files" not in self.reference
        same = self.reference.setdefault("files", (cells, plot)) \
            == (cells, plot)
        rows = cells.splitlines()[1:]
        plot_acc = {tuple(r.split(",")[:2]): r.split(",")[2]
                    for r in plot.splitlines()[1:]}
        for i in range(self.wl.cells):
            f = rows[i].split(",") if len(rows) == self.wl.cells else []
            ok = (same and len(f) == 9 and f[2] == "ok"
                  and plot_acc.get((f[0], f[1])) == f[3]
                  and (int(f[7]), int(f[8])) == self.split)
            if ok and first:
                self.accuracies.append(float(f[3]))
            self._count(ok)


def measure(name: str, seed: int, work: str, seconds: float,
            trace: bool) -> None:
    wl = WORKLOADS[name]
    inputs = os.path.join(work, "input")
    csv_path = os.path.join(inputs, "data.csv")
    check = Checker(wl)

    def rep(tracer: Tracer | None) -> float:
        """One repetition; returns the seconds spent inside the CLI."""
        spent = 0.0
        if wl.cells:
            calls = [["bench", "--config", os.path.join(inputs, "run.cfg")]]
        else:
            cache = os.path.join(work, "cache")
            calls = [extract_argv(csv_path, m, cache) for m in EXTRACT_DIMS]
        codes = []
        for argv in calls:
            span = tracer.span("cli.main") if tracer else \
                contextlib.nullcontext()
            t0 = time.perf_counter()
            with span:
                codes.append(call_cli(argv))
            spent += time.perf_counter() - t0
        if wl.cells:
            out = os.path.join(work, "out")
            check.bench(out)
            shutil.rmtree(out, ignore_errors=True)
        else:
            for method, rc in zip(EXTRACT_DIMS, codes):
                check.extract(method, rc, cache)
            shutil.rmtree(cache, ignore_errors=True)
        return spent

    start = time.perf_counter()
    plain_until = start + (seconds / 2 if trace else seconds)
    walls, traced_walls, layers, spans = [], [], [], []
    while not walls or time.perf_counter() < plain_until:
        walls.append(rep(None))
    while trace and (not traced_walls
                     or time.perf_counter() < start + seconds):
        tracer = Tracer()
        with tracer.patched():
            traced_walls.append(rep(tracer))
        layers.append(layer_metrics(tracer.spans))
        spans.append(tracer.spans)

    result = {
        "walls": walls, "traced_walls": traced_walls,
        "attempted": check.attempted, "failed": check.failed,
        "mean_accuracy": statistics.fmean(check.accuracies)
        if check.accuracies else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "layers": {key: statistics.median(r[key] for r in layers)
                   for key in layers[0]} if layers else {},
    }
    with open(os.path.join(work, "measure.json"), "w") as fh:
        json.dump(result, fh)
    if trace:
        with open(os.path.join(work, "spans.json"), "w") as fh:
            json.dump(spans, fh)


if __name__ == "__main__":
    if not os.path.abspath(digitbench.__file__).startswith(SRC + os.sep):
        sys.exit(f"digitbench imported from {digitbench.__file__}, "
                 f"not from {SRC}")
    phase, workload, seed, work = sys.argv[1:5]
    if phase == "setup":
        setup(workload, int(seed), work)
    else:
        measure(workload, int(seed), work, float(sys.argv[5]),
                sys.argv[6] == "1")
