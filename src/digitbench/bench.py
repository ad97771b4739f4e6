"""Benchmark grid: preprocess, extract, train, evaluate, report.

One run loads a dataset, preprocesses it once and extracts every configured
feature once (a feature cache skips the matrices it holds, and its cached
preprocessed stack skips the load and the preprocessing), then fits every
(feature, classifier) cell on the train side and scores it on the test
side. Cells run one after another in config order; a failing cell records
its cause and the grid continues. Reports carry no timing data in the CSV
outputs, so identical configs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from .classify import GBDT, RF, SVM, make_classifier
from .config import RunConfig
from .datasets import (CACHE_VERSION, file_digest, load_csv,
                       load_feature_cache, preprocess_all,
                       save_feature_cache, split_indices, synthetic_glyphs,
                       synthetic_squares)
from .errors import ParameterError
from .features import RAW as RAW_TAG
from .features import extract_batch
from .metrics import EvaluationReport, evaluate


@dataclass
class CellResult:
    """Outcome of one (feature, classifier) grid cell."""

    feature: str
    classifier: str
    report: EvaluationReport | None = None
    error: str | None = None
    seconds: float = 0.0
    warnings: list[str] = field(default_factory=list)
    fitted: dict = field(default_factory=dict)  # ``fit_summary`` of the model

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
    """(images, labels) of the configured dataset."""
    if cfg.dataset_path is not None:
        return load_csv(cfg.dataset_path, cfg.schema, cfg.side)
    make = synthetic_squares if cfg.synthetic == "squares" \
        else synthetic_glyphs
    return make(cfg.samples, seed=cfg.split.seed)


def run_source(cfg: RunConfig) -> tuple[str, str]:
    """(cache key, report tag) of the configured dataset, found without
    loading it: the file name with the full SHA-256 of the CSV (the tag
    keeps its first 12 hex characters), or the synthetic generator's
    parameters."""
    if cfg.dataset_path is not None:
        name = os.path.basename(str(cfg.dataset_path))
        digest = file_digest(cfg.dataset_path)
        return f"{name}:{digest}", f"{name}:{digest[:12]}"
    tag = f"synthetic-{cfg.synthetic}:n={cfg.samples}:seed={cfg.split.seed}"
    return tag, tag


def feature_cache_file(cache_dir, cfg: RunConfig, source: str,
                       test_digest: str | None, method: str) -> str:
    """Cache file for one extractor's matrix of the configured dataset.

    The name is one SHA-256 over everything that determines the matrix: the
    dataset's cache key (``run_source``), the test file's digest (None
    without one), the CSV schema and side, the parameters of
    ``cfg.preprocessor_``, the method and its descriptor's parameters (so
    ``{}`` and the explicit defaults share one file) and ``CACHE_VERSION``.
    """
    inputs = {"source": source,
              "test": test_digest,
              "schema": cfg.schema, "side": int(cfg.side),
              "preprocess": cfg.preprocessor_.get_params(),
              "method": method,
              "params": cfg.descriptors_[method].get_params(),
              "version": CACHE_VERSION}
    digest = hashlib.sha256(
        json.dumps(inputs, sort_keys=True).encode()).hexdigest()
    return os.path.join(cache_dir, f"features-{method}-{digest[:16]}.npz")


def _agrees(hit, labels, rows: int, width: int) -> bool:
    """Whether a cache entry holds these labels and dataset row count, and a
    matrix of one ``width``-column row per label."""
    return (hit[2] == rows and hit[0].shape == (labels.shape[0], width)
            and np.array_equal(hit[1], labels))


def feature_phases(cfg: RunConfig, methods, stage: dict):
    """The two phases of ``feature_matrices``, one per ``next``.

    Phase 1 yields ({method: cached matrix}, labels, source tag, dataset
    row count) for the method names of ``cfg``, validated first; the test rows
    follow the dataset's. An entry is kept if it agrees (``_agrees``) with
    the reference at its ``cfg.widths_``: the method entries when all
    agree, else the stack (the ``raw`` entry) when all entries read agree
    with it, else the dataset, loaded once. Phase 2 extracts each missing
    matrix into that dict and caches it, from the stack or the images
    preprocessed once (cached as the stack; preprocess time is 0.0 when
    nothing was). Whatever else it held is then freed.
    """
    cfg.validate()  # builds what this run uses, from cfg as it is now
    t0 = time.perf_counter()
    key, source = run_source(cfg)
    side = int(cfg.preprocessor_.target_side)
    paths = {}
    if cfg.cache_dir:  # the test file is hashed once, not once per method
        test_digest = file_digest(cfg.test_path) if cfg.test_path else None
        paths = {m: feature_cache_file(cfg.cache_dir, cfg, key, test_digest,
                                       m) for m in [RAW_TAG, *methods]}
    hits = {m: load_feature_cache(paths[m]) for m in methods if paths}

    def agreeing(labels, rows):  # {method: matrix} of the agreeing entries
        return {m: hit[0] for m, hit in hits.items()
                if hit and _agrees(hit, labels, rows, cfg.widths_[m])}

    ref = next((hit for hit in hits.values() if hit), None)
    if paths and (not ref or len(agreeing(*ref[1:])) < len(methods)):
        if RAW_TAG not in hits:  # the stack is read at most once
            hits[RAW_TAG] = load_feature_cache(paths[RAW_TAG])
        ref = hits[RAW_TAG]
    if ref and len(agreeing(*ref[1:])) == sum(map(bool, hits.values())):
        images, (labels, rows) = None, ref[1:]
    else:
        images, labels = load_run_images(cfg)
        rows = labels.shape[0]
        if cfg.test_path is not None:
            test_x, test_y = load_csv(cfg.test_path, cfg.schema, cfg.side)
            images = np.concatenate([images, test_x])
            labels = np.concatenate([labels, test_y])
    matrices = agreeing(labels, rows)
    stage["load"] = time.perf_counter() - t0
    yield matrices, labels, source, rows

    t0 = time.perf_counter()
    missing = [m for m in methods if m not in matrices]
    stage["preprocess"] = 0.0
    if RAW_TAG in matrices:
        images = matrices[RAW_TAG].reshape(-1, side, side)
    elif missing:
        images = preprocess_all(images, cfg.preprocessor_)
        if paths:
            os.makedirs(cfg.cache_dir, exist_ok=True)
            save_feature_cache(paths[RAW_TAG], images.reshape(len(images), -1),
                               labels, rows)
        stage["preprocess"] = time.perf_counter() - t0
    if RAW_TAG not in methods:
        matrices.pop(RAW_TAG, None)

    t0 = time.perf_counter()
    for method in missing:
        matrices[method] = extract_batch(images, method,
                                         cfg.descriptors_[method])
        if paths and method != RAW_TAG:  # raw's file is the stack
            save_feature_cache(paths[method], matrices[method], labels, rows)
    stage["extract"] = time.perf_counter() - t0


def feature_matrices(cfg: RunConfig, methods, stage: dict):
    """The tuple phase 1 of ``feature_phases`` yields, after phase 2 ran."""
    (found,) = feature_phases(cfg, methods, stage)  # runs both phases
    return found


def fit_summary(kind: str, clf) -> dict:
    """Solver and tree-size counts of a fitted classifier; {} for KNN."""
    if kind == SVM:
        return {"smo_steps": int(clf.n_iter_.sum()),
                "converged": bool(clf.converged_),
                "support_vectors": int(clf.support_vectors_.shape[0])}
    if kind not in (RF, GBDT):
        return {}
    trees = clf.trees_
    out = {"trees": len(trees), "nodes": sum(t.n_nodes for t in trees),
           "deepest": max((t.max_depth() for t in trees), default=0)}
    if kind == GBDT:
        out["final_loss"] = float(clf.loss_trace_[-1])
    return out


def _fit_text(s: dict) -> str:
    if "smo_steps" in s:
        return (f"{s['smo_steps']} SMO steps, "
                f"{'' if s['converged'] else 'not '}converged, "
                f"{s['support_vectors']} support vectors")
    text = f"{s['trees']} trees, {s['nodes']} nodes, deepest {s['deepest']}"
    if "final_loss" in s:
        text += f", final training loss {s['final_loss']:.6f}"
    return text


def _run_cell(method, kind, params, X_train, y_train, X_test, y_test,
              n_classes) -> CellResult:
    """Fit one classifier on the train rows and score it on the test rows;
    a failure is recorded in the result, not raised."""
    t = time.perf_counter()
    try:
        clf = make_classifier(kind, **params)
        clf.fit(X_train, y_train)
        warnings = []
        if not getattr(clf, "converged_", True):
            cap = int(clf.n_iter_.max())  # max_iter as fit validated it
            capped = clf.classes_[clf.n_iter_ >= cap].tolist()
            warnings.append(f"SMO stopped at max_iter={cap} "
                            f"before converging for classes {capped}")
        report = evaluate(y_test, clf.predict(X_test), n_classes)
        return CellResult(method, kind, report=report,
                          seconds=time.perf_counter() - t, warnings=warnings,
                          fitted=fit_summary(kind, clf))
    except Exception as exc:
        cause = "".join(traceback.format_exception_only(exc)).strip()
        return CellResult(method, kind, error=cause,
                          seconds=time.perf_counter() - t)


def run_grid(cfg: RunConfig) -> GridResult:
    """Execute the full feature-by-classifier benchmark grid.

    Each method's matrix is reordered once, train rows first, and freed
    when its cells are done; every cell gets contiguous views of it.
    """
    methods = [m for m, _ in cfg.features]
    if cfg.raw_baseline and RAW_TAG not in methods:
        methods.append(RAW_TAG)
    stage = {}
    phases = feature_phases(cfg, methods, stage)
    matrices, labels, source, n_train = next(phases)
    order = None  # a test file's rows already follow the dataset's
    if cfg.test_path is None:  # before extraction: a bad split costs none
        train_idx, test_idx = split_indices(labels, cfg.split)
        order = np.concatenate([train_idx, test_idx])
        n_train = train_idx.shape[0]
        labels = labels[order]
    next(phases, None)  # phase 2 extracts the missing matrices
    y_train, y_test = labels[:n_train], labels[n_train:]
    n_classes = int(labels.max()) + 1

    cells = []
    t0 = time.perf_counter()
    for method in methods:
        X = matrices.pop(method)
        if order is not None:
            X = X[order]
        for kind, params in cfg.classifiers:
            cells.append(_run_cell(method, kind, params, X[:n_train], y_train,
                                   X[n_train:], y_test, n_classes))
    stage["train_eval"] = time.perf_counter() - t0

    return GridResult(cells=cells, config=cfg, source=source,
                      n_train=int(n_train), n_test=int(y_test.shape[0]),
                      stage_seconds=stage)


def _macro_text(cell: CellResult, attr: str) -> str:
    return f"{getattr(cell.report, attr):.6f}" if cell.ok else "failed"


def format_markdown(res: GridResult) -> str:
    """Per-classifier tables, best models, raw ablation, per-cell notes."""
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
                f"| {method} | {_macro_text(cell, 'accuracy')} "
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
                         f"| {_macro_text(cell, 'accuracy')} |")
    # ties go to the first in config order, as in best_cells
    overall = max((c for c in res.cells if best.get(c.classifier) is c),
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

    suspect = res.config.suspect_settings_
    if suspect:
        lines += ["## Suspect settings", "", *(f"- {s}" for s in suspect), ""]

    notes = {"Failed cells": [(c, c.error) for c in res.cells if not c.ok],
             "Warnings": [(c, w) for c in res.cells for w in c.warnings],
             "Fitted models": [(c, _fit_text(c.fitted)) for c in res.cells
                               if c.fitted]}
    for title, items in notes.items():
        if items:
            lines += [f"## {title}", ""]
            lines += [f"- {c.feature} + {c.classifier}: {text}"
                      for c, text in items]
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


def emit_report(res: GridResult, out_dir=None):
    """Write tables.md, cells.csv and plot_accuracy.csv; returns the paths."""
    if not res.cells:
        raise ParameterError("grid result has no cells to report")
    out_dir = str(out_dir if out_dir is not None else res.config.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, text in (("tables.md", format_markdown(res)),
                       ("cells.csv", format_cells_csv(res)),
                       ("plot_accuracy.csv", format_plot_csv(res))):
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        written.append(path)
    return written
