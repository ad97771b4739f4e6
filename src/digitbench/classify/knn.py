"""Exact k-nearest-neighbor classification under Minkowski distance."""

from __future__ import annotations

import numpy as np

from ..base import ClassifierMixin, Estimator
from ..errors import ParameterError, StateError
from ..validation import check_is_fitted, check_matrix, check_X_y

# elements per distance block (at least one query), which holds three
# temporaries this size; chosen by measurement on HOG rows, where it was
# faster than larger blocks at a fraction of their peak memory
_BLOCK_BUDGET = 1_000_000


class KnnClassifier(Estimator, ClassifierMixin):
    """Majority vote over the k nearest training points.

    Distances are exact Minkowski-p. Ties are deterministic: equal distances
    rank by lower training index; tied vote counts go to the tied class whose
    nearest member sits earliest in the neighbor ordering. ``predict_scores``
    returns vote counts plus a sub-unit rank bonus, so the reported label is
    always the argmax of the scores under that tie rule.
    """

    _SAVED = {"train_X": "_X", "train_y": "_y"}

    def __init__(self, k: int = 5, minkowski_p: float = 2.0):
        self.k = k
        self.minkowski_p = minkowski_p

    def fit(self, X, y):
        if int(self.k) < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        if not float(self.minkowski_p) >= 1.0:  # NaN fails too
            raise ParameterError(
                f"minkowski_p must be >= 1, got {self.minkowski_p}")
        X, y = check_X_y(X, y)
        if X.shape[0] == 0:
            raise StateError("cannot fit on an empty training set")
        self.classes_ = np.unique(y)
        self._X = X
        self._y = y
        return self

    def _neighbor_order(self, Q: np.ndarray) -> np.ndarray:
        """Ranked training indices (n_queries, k), nearest first."""
        n, d = self._X.shape
        k = int(self.k)
        p = float(self.minkowski_p)
        block = max(1, _BLOCK_BUDGET // max(1, n * d))
        out = np.empty((Q.shape[0], k), dtype=np.intp)
        for start in range(0, Q.shape[0], block):
            chunk = Q[start:start + block]
            diff = np.abs(chunk[:, None, :] - self._X[None, :, :])
            # ranking is monotone in the p-th power, so the root is skipped;
            # summing over the last axis keeps reductions bit-reproducible
            dist = (diff ** p).sum(axis=2)
            # stable sort: equal distances keep lower training index first
            order = np.argsort(dist, axis=1, kind="stable")
            out[start:start + chunk.shape[0]] = order[:, :k]
        return out

    def predict_scores(self, X) -> np.ndarray:
        check_is_fitted(self, "_X")
        Q = check_matrix(X, expected_cols=self._X.shape[1])
        k = int(self.k)
        if k > self._X.shape[0]:
            raise ParameterError(
                f"k={k} exceeds the training set size {self._X.shape[0]}")
        ranked = self._neighbor_order(Q)
        n_classes = self.classes_.shape[0]
        labels = np.searchsorted(self.classes_, self._y[ranked])  # (nq, k)
        rows = np.arange(Q.shape[0])
        votes = np.zeros((Q.shape[0], n_classes))
        bonus = np.zeros_like(votes)
        # the bonus is < 1, so it only separates classes with equal votes;
        # walking ranks from last to first leaves each class the bonus of its
        # best (lowest, unique) rank, making the argmax the tied class with
        # the closest nearest member
        for rank in range(k - 1, -1, -1):
            votes[rows, labels[:, rank]] += 1.0
            bonus[rows, labels[:, rank]] = (k - rank) / (k + 1.0)
        return votes + bonus
