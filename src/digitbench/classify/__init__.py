"""Classifiers behind one fit/predict contract: KNN, SVM, RF, GBDT."""

from __future__ import annotations

from ..errors import ParameterError
from .boosting import GradientBoostingClassifier
from .forest import RandomForestClassifier
from .knn import KnnClassifier
from .svm import SvmClassifier

KNN = "knn"
SVM = "svm"
RF = "rf"
GBDT = "gbdt"

KINDS = (KNN, SVM, RF, GBDT)

_CLASSIFIERS = {
    KNN: KnnClassifier,
    SVM: SvmClassifier,
    RF: RandomForestClassifier,
    GBDT: GradientBoostingClassifier,
}


def make_classifier(kind: str, **params):
    """Build a classifier by kind name with keyword overrides."""
    try:
        cls = _CLASSIFIERS[kind]
    except KeyError:
        raise ParameterError(
            f"unknown classifier kind {kind!r}, expected one of {KINDS}") from None
    return cls(**params)


__all__ = [
    "GBDT", "KINDS", "KNN", "RF", "SVM",
    "GradientBoostingClassifier", "KnnClassifier", "RandomForestClassifier",
    "SvmClassifier", "make_classifier",
]
