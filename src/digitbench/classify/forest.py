"""Random forest of Gini-split decision trees with bagging.

Each tree draws a seeded bootstrap sample and, at every node, evaluates a
random feature subset; candidate thresholds are the midpoints between
consecutive sorted unique values (kept only when they fall strictly between
the two values, so every candidate actually separates). All ties resolve to
the first candidate in (feature ascending, threshold ascending) order.
"""

from __future__ import annotations

import math

import numpy as np

from ..base import ClassifierMixin, Estimator
from ..validation import check_int
from ._tree import Tree, grow_tree


def best_gini_split(X_cols: np.ndarray, y: np.ndarray):
    """Lowest weighted child Gini over midpoint candidates.

    X_cols holds the candidate feature columns in ascending feature order.
    Returns (column_position, threshold) or None when no candidate separates
    the node. Ties go to the lowest column, then the lowest threshold.
    """
    m = X_cols.shape[0]
    order = np.argsort(X_cols.T, axis=1, kind="stable")  # (columns, rows)
    vals = np.take_along_axis(X_cols.T, order, axis=1)
    thr = (vals[:, :-1] + vals[:, 1:]) / 2.0              # (columns, gaps)
    valid = (thr > vals[:, :-1]) & (thr < vals[:, 1:])
    if not valid.any():
        return None
    # squared class counts left of each gap, one class at a time; integer
    # counts keep the sums exact
    ranked = y[order[:, :-1]]
    totals = np.bincount(y)
    sl = np.zeros(thr.shape, dtype=np.int64)
    for k in np.flatnonzero(totals):
        sl += np.cumsum(ranked == k, axis=1) ** 2
    # and right of it: the sum of (total - left) ** 2 over the classes,
    # expanded, as sum(left * total) is a running sum of each row's total
    sr = totals @ totals - 2 * np.cumsum(totals[ranked], axis=1) + sl
    nl = np.arange(1, m, dtype=np.float64)
    nr = m - nl
    weighted = ((nl - sl / nl) + (nr - sr / nr)) / m
    weighted[~valid] = np.inf
    pos, gap = divmod(int(np.argmin(weighted)), m - 1)  # row-major minimum
    return pos, float(thr[pos, gap])


def _grow_tree(X: np.ndarray, y: np.ndarray, rows: np.ndarray,
               n_classes: int, max_depth: int, n_candidate_features: int,
               rng: np.random.Generator, varies: np.ndarray) -> Tree:
    """One tree grown on the sample ``rows`` of (X, y); repeats allowed.

    ``varies`` marks the columns of X that are not constant. The others
    have no candidate at any node, so each node drops them after its draw.
    """
    n_features = X.shape[1]

    def find_split(rows: np.ndarray):
        if (y[rows] == y[rows[0]]).all():  # pure node: no draw from rng
            return None
        if n_candidate_features >= n_features:
            feats = np.arange(n_features)
        else:
            feats = np.sort(rng.choice(n_features, n_candidate_features,
                                       replace=False))
        # with no column left, best_gini_split finds no candidate
        feats = feats[varies[feats]]
        found = best_gini_split(X[np.ix_(rows, feats)], y[rows])
        if found is None:
            return None
        pos, threshold = found
        return feats[pos], threshold, X[rows, feats[pos]] < threshold

    return grow_tree(rows, max_depth, lambda rows: np.bincount(
        y[rows], minlength=n_classes).astype(np.float64), find_split)


class RandomForestClassifier(Estimator, ClassifierMixin):
    """Bagged Gini decision trees; plurality vote over per-tree labels.

    Tree t draws its RNG stream from (seed, t), so the fitted model is
    byte-identical for a given seed regardless of scheduling. With
    ``bootstrap=False`` and ``max_features=None`` a single tree is a plain
    deterministic CART fit, directly comparable to an exhaustive oracle.
    """

    n_trees: int = 200
    max_depth: int = 10
    max_features: int | str | None = "sqrt"
    bootstrap: bool = True
    seed: int = 0

    def _candidate_count(self, n_features: int) -> int:
        mf = self.max_features
        if mf is None:
            return n_features
        if mf == "sqrt":
            # ceil(sqrt(d)) in exact integer arithmetic
            return math.isqrt(n_features - 1) + 1
        return check_int(mf, "max_features", 1, n_features)

    def check_params(self) -> tuple:
        if self.max_features not in (None, "sqrt"):
            check_int(self.max_features, "max_features", 1)
        return (check_int(self.n_trees, "n_trees", 1),
                check_int(self.max_depth, "max_depth", 1),
                check_int(self.seed, "seed", 0))

    def fit(self, X, y):
        X, y_idx = self._fit_data(X, y)
        n_trees, max_depth, seed = self.check_params()
        n_classes = self.classes_.shape[0]
        n = X.shape[0]
        n_candidates = self._candidate_count(X.shape[1])
        varies = X.max(axis=0) > X.min(axis=0)

        trees = []
        for t in range(n_trees):
            rng = np.random.default_rng([seed, t])
            rows = rng.integers(0, n, n) if self.bootstrap else np.arange(n)
            trees.append(_grow_tree(X, y_idx, rows, n_classes, max_depth,
                                    n_candidates, rng, varies))
        self.trees_ = trees
        self.n_features_ = X.shape[1]
        return self

    def predict_scores(self, X) -> np.ndarray:
        """Per-class vote counts over the ensemble."""
        X = self._predict_data(X)
        n_classes = self.classes_.shape[0]
        votes = np.zeros((X.shape[0], n_classes))
        rows = np.arange(X.shape[0])
        for tree in self.trees_:
            labels = np.argmax(tree.leaf_values(X), axis=1)
            votes[rows, labels] += 1.0
        return votes
