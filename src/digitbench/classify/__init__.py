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


def classifier_kind(clf) -> str:
    for kind, cls in _CLASSIFIERS.items():
        if type(clf) is cls:
            return kind
    raise ParameterError(f"unrecognized classifier type {type(clf).__name__}")


__all__ = [
    "GBDT", "KINDS", "KNN", "RF", "SVM",
    "GradientBoostingClassifier", "KnnClassifier", "RandomForestClassifier",
    "SvmClassifier", "classifier_kind", "make_classifier",
]
