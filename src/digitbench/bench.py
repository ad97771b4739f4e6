"""Benchmark grid: preprocess, extract, train, evaluate, report.

One run loads a dataset, preprocesses it once (skipped when the feature
cache holds every configured matrix), extracts every configured feature
once, then fits every (feature, classifier) cell on the train side and
scores it on the test side. Cells run concurrently up to the configured
degree; a failing cell records its cause and the grid continues. Reports
carry no timing data in the CSV outputs, so identical configs produce
byte-identical files at any parallelism.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .classify import make_classifier
from .config import RunConfig
from .datasets import (feature_cache_path, file_digest, load_csv,
                       load_feature_cache, preprocess_all,
                       save_feature_cache, split_indices, synthetic_glyphs,
                       synthetic_squares)
from .errors import ParameterError
from .features import RAW as RAW_TAG
from .features import extract_batch, make_descriptor
from .imaging import Preprocessor
from .metrics import EvaluationReport, evaluate


@dataclass
class CellResult:
    """Outcome of one (feature, classifier) grid cell."""

    feature: str
    classifier: str
    report: EvaluationReport | None = None
    error: str | None = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class GridResult:
    """All cell outcomes plus provenance and stage timings."""

    cells: list[CellResult]
    config: RunConfig
    source: str
    n_train: int
    n_test: int
    stage_seconds: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return all(cell.ok for cell in self.cells)


def load_run_images(cfg: RunConfig):
    """(images, labels, source tag) for the configured dataset."""
    if cfg.dataset_path is not None:
        images, labels = load_csv(cfg.dataset_path, cfg.schema, cfg.side)
        name = os.path.basename(str(cfg.dataset_path))
        return images, labels, f"{name}:{file_digest(cfg.dataset_path)[:12]}"
    if cfg.synthetic == "squares":
        images, labels = synthetic_squares(cfg.samples, seed=cfg.split.seed)
    else:
        images, labels = synthetic_glyphs(cfg.samples, seed=cfg.split.seed)
    return images, labels, f"synthetic-{cfg.synthetic}:n={cfg.samples}" \
                           f":seed={cfg.split.seed}"


def feature_cache_file(cache_dir, cfg: RunConfig, source: str, method: str,
                       params=None) -> str:
    """Cache file for one extractor's matrix of the configured dataset.

    The key covers everything that determines the matrix: the source tag,
    the test file, the CSV schema and side, the preprocessing parameters and
    the extractor's parameters with its defaults filled in (so ``{}`` and the
    explicit defaults share one file).
    """
    inputs = {"source": source,
              "test": file_digest(cfg.test_path) if cfg.test_path else None,
              "schema": cfg.schema, "side": int(cfg.side),
              "preprocess": Preprocessor(**cfg.preprocess).get_params()}
    digest = hashlib.sha256(
        json.dumps(inputs, sort_keys=True).encode()).hexdigest()
    return feature_cache_path(cache_dir, digest, method,
                              make_descriptor(method, params).get_params())


def run_grid(cfg: RunConfig) -> GridResult:
    """Execute the full feature-by-classifier benchmark grid."""
    cfg.validate()
    stage = {}
    t0 = time.perf_counter()
    images, labels, source = load_run_images(cfg)
    test_images = None
    if cfg.test_path is not None:
        test_images, test_labels = load_csv(cfg.test_path, cfg.schema,
                                            cfg.side)
        train_idx = np.arange(labels.shape[0])
        test_idx = np.arange(test_labels.shape[0]) + labels.shape[0]
        labels = np.concatenate([labels, test_labels])
    else:
        train_idx, test_idx = split_indices(labels, cfg.split)
    stage["load"] = time.perf_counter() - t0

    methods = list(cfg.features)
    if cfg.raw_baseline and RAW_TAG not in [m for m, _ in methods]:
        methods.append((RAW_TAG, {}))
    matrices, paths = {}, {}
    for method, params in methods:
        if cfg.cache_dir and method != RAW_TAG:
            paths[method] = feature_cache_file(cfg.cache_dir, cfg, source,
                                               method, params)
            cached = load_feature_cache(paths[method], labels)
            if cached is not None:
                matrices[method] = cached[0]

    t0 = time.perf_counter()
    if any(method not in matrices for method, _ in methods):
        pre = Preprocessor(**cfg.preprocess)
        pre_images = preprocess_all(images, pre)
        if test_images is not None:
            pre_images = np.concatenate(
                [pre_images, preprocess_all(test_images, pre)])
    stage["preprocess"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for method, params in methods:
        if method in matrices:
            continue
        if method == RAW_TAG:
            matrices[method] = pre_images.reshape(pre_images.shape[0], -1)
            continue
        matrices[method] = extract_batch(pre_images, method, params or None)
        if cfg.cache_dir:
            os.makedirs(cfg.cache_dir, exist_ok=True)
            save_feature_cache(paths[method], matrices[method], labels)
    stage["extract"] = time.perf_counter() - t0

    n_classes = int(labels.max()) + 1

    def run_cell(pair) -> CellResult:
        (method, _), (kind, params) = pair
        t = time.perf_counter()
        try:
            X = matrices[method]
            clf = make_classifier(kind, **params)
            clf.fit(X[train_idx], labels[train_idx])
            report = evaluate(labels[test_idx], clf.predict(X[test_idx]),
                              n_classes,
                              metadata={"feature": method, "classifier": kind,
                                        "source": source,
                                        "seed": int(cfg.split.seed)})
            return CellResult(method, kind, report=report,
                              seconds=time.perf_counter() - t)
        except Exception as exc:
            cause = "".join(traceback.format_exception_only(exc)).strip()
            return CellResult(method, kind, error=cause,
                              seconds=time.perf_counter() - t)

    pairs = [(feat, clf) for feat in methods for clf in cfg.classifiers]
    t0 = time.perf_counter()
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=int(cfg.jobs)) as pool:
            cells = list(pool.map(run_cell, pairs))
    else:
        cells = [run_cell(p) for p in pairs]
    stage["train_eval"] = time.perf_counter() - t0

    return GridResult(cells=cells, config=cfg, source=source,
                      n_train=int(train_idx.shape[0]),
                      n_test=int(test_idx.shape[0]), stage_seconds=stage)


def _accuracy_text(cell: CellResult) -> str:
    return f"{cell.report.accuracy:.6f}" if cell.ok else "failed"


def _macro_text(cell: CellResult, attr: str) -> str:
    return f"{getattr(cell.report, attr):.6f}" if cell.ok else "failed"


def format_markdown(res: GridResult) -> str:
    """Per-classifier tables, best-model summary, optional raw ablation."""
    lines = ["# Benchmark report", "",
             f"- source: `{res.source}`",
             f"- split seed: {res.config.split.seed}",
             f"- train/test: {res.n_train}/{res.n_test}", ""]
    kinds = [k for k, _ in res.config.classifiers]
    features = [m for m, _ in res.config.features]
    by_key = {(c.feature, c.classifier): c for c in res.cells}

    for kind in kinds:
        lines += [f"## {kind} accuracy by feature", "",
                  "| feature | accuracy | macro precision | macro recall "
                  "| macro F1 |",
                  "|---|---|---|---|---|"]
        for method in features:
            cell = by_key[(method, kind)]
            lines.append(
                f"| {method} | {_accuracy_text(cell)} "
                f"| {_macro_text(cell, 'macro_precision')} "
                f"| {_macro_text(cell, 'macro_recall')} "
                f"| {_macro_text(cell, 'macro_f1')} |")
        lines.append("")

    lines += ["## Best model", "", "| classifier | feature | accuracy |",
              "|---|---|---|"]
    best = best_cells(res)
    for kind in kinds:
        cell = best.get(kind)
        if cell is not None:
            lines.append(f"| {kind} | {cell.feature} "
                         f"| {_accuracy_text(cell)} |")
    overall = max((c for c in res.cells if c.ok),
                  key=lambda c: c.report.accuracy, default=None)
    if overall is not None:
        lines += ["", f"Overall best: **{overall.feature} + "
                      f"{overall.classifier}** at "
                      f"{overall.report.accuracy:.6f}."]
    lines.append("")

    raw_cells = {c.classifier: c for c in res.cells if c.feature == RAW_TAG}
    if raw_cells:
        lines += ["## With and without feature extraction", "",
                  "| classifier | best feature | accuracy | raw pixels "
                  "| delta |", "|---|---|---|---|---|"]
        for kind in kinds:
            cell, raw = best.get(kind), raw_cells.get(kind)
            if cell is None or raw is None or not (cell.ok and raw.ok):
                continue
            delta = cell.report.accuracy - raw.report.accuracy
            lines.append(f"| {kind} | {cell.feature} "
                         f"| {cell.report.accuracy:.6f} "
                         f"| {raw.report.accuracy:.6f} | {delta:+.6f} |")
        lines.append("")

    failed = [c for c in res.cells if not c.ok]
    if failed:
        lines += ["## Failed cells", ""]
        lines += [f"- {c.feature} + {c.classifier}: {c.error}"
                  for c in failed]
        lines.append("")

    lines += ["## Stage timings (informational)", ""]
    lines += [f"- {name}: {secs:.2f}s"
              for name, secs in res.stage_seconds.items()]
    lines += [f"- cell {c.feature}+{c.classifier}: {c.seconds:.2f}s"
              for c in res.cells]
    lines.append("")
    return "\n".join(lines)


def best_cells(res: GridResult) -> dict[str, CellResult]:
    """Best feature per classifier by accuracy; ties keep config order.

    Raw-baseline cells are excluded: they are the comparison point.
    """
    out: dict[str, CellResult] = {}
    for cell in res.cells:
        if not cell.ok or cell.feature == RAW_TAG:
            continue
        cur = out.get(cell.classifier)
        if cur is None or cell.report.accuracy > cur.report.accuracy:
            out[cell.classifier] = cell
    return out


def format_cells_csv(res: GridResult) -> str:
    rows = ["feature,classifier,status,accuracy,macro_precision,"
            "macro_recall,macro_f1,n_train,n_test"]
    for c in res.cells:
        if c.ok:
            r = c.report
            rows.append(f"{c.feature},{c.classifier},ok,{r.accuracy:.6f},"
                        f"{r.macro_precision:.6f},{r.macro_recall:.6f},"
                        f"{r.macro_f1:.6f},{res.n_train},{res.n_test}")
        else:
            rows.append(f"{c.feature},{c.classifier},failed,,,,,"
                        f"{res.n_train},{res.n_test}")
    return "\n".join(rows) + "\n"


def format_plot_csv(res: GridResult) -> str:
    rows = ["feature,classifier,accuracy"]
    rows += [f"{c.feature},{c.classifier},{c.report.accuracy:.6f}"
             for c in res.cells if c.ok]
    return "\n".join(rows) + "\n"


def emit_report(res: GridResult, out_dir=None, formats=("markdown", "csv")):
    """Write report files; returns the written paths."""
    if not res.cells:
        raise ParameterError("grid result has no cells to report")
    out_dir = str(out_dir if out_dir is not None else res.config.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if "markdown" in formats:
        path = os.path.join(out_dir, "tables.md")
        with open(path, "w") as fh:
            fh.write(format_markdown(res))
        written.append(path)
    if "csv" in formats:
        for name, text in (("cells.csv", format_cells_csv(res)),
                           ("plot_accuracy.csv", format_plot_csv(res))):
            path = os.path.join(out_dir, name)
            with open(path, "w") as fh:
                fh.write(text)
            written.append(path)
    return written
