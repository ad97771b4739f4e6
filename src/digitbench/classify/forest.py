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
from ..errors import ParameterError, StateError
from ..validation import check_is_fitted, check_matrix, check_X_y
from ._tree import Tree, TreeBuilder


def best_gini_split(X_cols: np.ndarray, y: np.ndarray, n_classes: int):
    """Lowest weighted child Gini over midpoint candidates.

    X_cols holds the candidate feature columns in ascending feature order.
    Returns (column_position, threshold, weighted_gini) or None when no
    candidate separates the node.
    """
    m, n_cols = X_cols.shape
    best = None
    order = np.argsort(X_cols, axis=0, kind="stable")
    onehot = np.zeros((m, n_classes))
    for pos in range(n_cols):
        idx = order[:, pos]
        vals = X_cols[idx, pos]
        thr = (vals[:-1] + vals[1:]) / 2.0
        valid = (thr > vals[:-1]) & (thr < vals[1:])
        if not valid.any():
            continue
        onehot[:] = 0.0
        onehot[np.arange(m), y[idx]] = 1.0
        left_counts = np.cumsum(onehot, axis=0)[:-1]  # counts left of each gap
        total = left_counts[-1] + onehot[-1]
        nl = np.arange(1, m, dtype=np.float64)
        nr = m - nl
        sl = (left_counts ** 2).sum(axis=1)
        sr = ((total[None, :] - left_counts) ** 2).sum(axis=1)
        weighted = ((nl - sl / nl) + (nr - sr / nr)) / m
        weighted[~valid] = np.inf
        at = int(np.argmin(weighted))  # first minimum: lowest threshold wins
        if best is None or weighted[at] < best[2]:
            best = (pos, float(thr[at]), float(weighted[at]))
    return best


def _grow_tree(X: np.ndarray, y: np.ndarray, rows: np.ndarray,
               n_classes: int, max_depth: int, n_candidate_features: int,
               rng: np.random.Generator) -> Tree:
    """One tree grown on the sample ``rows`` of (X, y); repeats allowed."""
    n_features = X.shape[1]
    builder = TreeBuilder(value_dim=n_classes)

    def grow(rows: np.ndarray, depth: int) -> int:
        counts = np.bincount(y[rows], minlength=n_classes).astype(np.float64)
        if depth >= max_depth or rows.shape[0] < 2 or counts.max() == rows.shape[0]:
            return builder.add_leaf(counts)
        if n_candidate_features >= n_features:
            feats = np.arange(n_features)
        else:
            feats = np.sort(rng.choice(n_features, n_candidate_features,
                                       replace=False))
        found = best_gini_split(X[np.ix_(rows, feats)], y[rows], n_classes)
        if found is None:
            return builder.add_leaf(counts)
        pos, threshold, _ = found
        feature = int(feats[pos])
        node = builder.add_split(feature, threshold, counts)
        go_left = X[rows, feature] < threshold
        left = grow(rows[go_left], depth + 1)
        right = grow(rows[~go_left], depth + 1)
        builder.set_children(node, left, right)
        return node

    grow(rows, 0)
    return builder.freeze()


class RandomForestClassifier(Estimator, ClassifierMixin):
    """Bagged Gini decision trees; plurality vote over per-tree labels.

    Tree t draws its RNG stream from (seed, t), so the fitted model is
    byte-identical for a given seed regardless of scheduling. With
    ``bootstrap=False`` and ``max_features=None`` a single tree is a plain
    deterministic CART fit, directly comparable to an exhaustive oracle.
    """

    def __init__(self, n_trees: int = 200, max_depth: int = 10,
                 max_features="sqrt", bootstrap: bool = True, seed: int = 0):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed

    def _candidate_count(self, n_features: int) -> int:
        mf = self.max_features
        if mf is None:
            return n_features
        if mf == "sqrt":
            # ceil(sqrt(d)) in exact integer arithmetic
            return math.isqrt(n_features - 1) + 1
        count = int(mf)
        if not 1 <= count <= n_features:
            raise ParameterError(
                f"max_features must lie in [1, {n_features}], got {count}")
        return count

    def fit(self, X, y):
        if int(self.n_trees) < 1:
            raise ParameterError(f"n_trees must be >= 1, got {self.n_trees}")
        if int(self.max_depth) < 1:
            raise ParameterError(f"max_depth must be >= 1, got {self.max_depth}")
        X, y = check_X_y(X, y)
        if X.shape[0] == 0:
            raise StateError("cannot fit on an empty training set")
        self.classes_, y_idx = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        n_classes = self.classes_.shape[0]
        n = X.shape[0]
        n_candidates = self._candidate_count(X.shape[1])

        trees = []
        for t in range(int(self.n_trees)):
            rng = np.random.default_rng([int(self.seed), t])
            rows = rng.integers(0, n, n) if self.bootstrap else np.arange(n)
            trees.append(_grow_tree(X, y_idx, rows, n_classes,
                                    int(self.max_depth), n_candidates, rng))
        self.trees_ = trees
        return self

    def predict_scores(self, X) -> np.ndarray:
        """Per-class vote counts over the ensemble."""
        check_is_fitted(self, "trees_")
        X = check_matrix(X, expected_cols=self.n_features_)
        n_classes = self.classes_.shape[0]
        votes = np.zeros((X.shape[0], n_classes))
        rows = np.arange(X.shape[0])
        for tree in self.trees_:
            labels = np.argmax(tree.leaf_values(X), axis=1)
            votes[rows, labels] += 1.0
        return votes

    def predict(self, X) -> np.ndarray:
        scores = self.predict_scores(X)
        return self.classes_[np.argmax(scores, axis=1)]
