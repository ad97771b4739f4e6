"""Confusion matrices and classification metrics.

Rows of the confusion matrix are true classes, columns are predictions.
Per-class precision/recall/F1 use a zero-denominator-means-zero convention;
macro aggregates are unweighted class means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass
class EvaluationReport:
    """All headline metrics for one classifier evaluation."""

    confusion: np.ndarray  # int64 counts[true class, predicted class]
    accuracy: float
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_f1: float


def confusion(y_true, y_pred, n_classes: int) -> np.ndarray:
    """Count matrix with counts[t][p] = #{i : y_true[i]=t, y_pred[i]=p}."""
    y_true = np.asarray(y_true, dtype=np.int64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.int64).ravel()
    if y_true.shape != y_pred.shape:
        raise ShapeError(
            f"label arrays differ in length: {y_true.shape[0]} vs {y_pred.shape[0]}")
    if n_classes < 1:
        raise ShapeError(f"n_classes must be >= 1, got {n_classes}")
    for name, arr in (("y_true", y_true), ("y_pred", y_pred)):
        if arr.size and (arr.min() < 0 or arr.max() >= n_classes):
            raise ShapeError(f"{name} labels must lie in [0, {n_classes - 1}]")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    return counts


def report(counts: np.ndarray) -> EvaluationReport:
    """Accuracy plus per-class and macro precision/recall/F1 from counts."""
    total = counts.sum()
    if total <= 0:
        raise ShapeError("confusion matrix is empty")
    tp = np.diag(counts).astype(np.float64)
    pred_totals = counts.sum(axis=0).astype(np.float64)
    true_totals = counts.sum(axis=1).astype(np.float64)

    precision = np.divide(tp, pred_totals, out=np.zeros_like(tp),
                          where=pred_totals > 0)
    recall = np.divide(tp, true_totals, out=np.zeros_like(tp),
                       where=true_totals > 0)
    pr_sum = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr_sum, out=np.zeros_like(tp),
                   where=pr_sum > 0)

    return EvaluationReport(
        confusion=counts,
        accuracy=float(tp.sum() / total),
        precision=precision,
        recall=recall,
        f1=f1,
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
    )


def evaluate(y_true, y_pred, n_classes: int) -> EvaluationReport:
    """confusion + report in one call."""
    return report(confusion(y_true, y_pred, n_classes))
