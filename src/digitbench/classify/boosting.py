"""Gradient-boosted decision trees with softmax multiclass loss.

Per round and class, a regression tree is fitted to the loss gradients on a
row/column subsample. Split search runs on globally pre-binned features:
columns with few distinct values keep exact midpoint cut points (equivalent
to exhaustive threshold search), wide columns fall back to quantile cuts.
Split gain and leaf values follow the second-order formulation
gain = G_L^2/(H_L+lam) + G_R^2/(H_R+lam) - G^2/(H+lam), leaf = -G/(H+lam).
"""

from __future__ import annotations

import math

import numpy as np

from ..base import ClassifierMixin, Estimator
from ..errors import ParameterError, StateError
from ..validation import check_is_fitted, check_matrix, check_X_y
from ._tree import Tree, grow_tree

_PROB_FLOOR = 1e-12


def prebin_features(X: np.ndarray, max_bins: int):
    """Global cut points and bin ids per feature.

    Cut points are midpoints between consecutive unique values (kept only
    when strictly between them); columns with more than max_bins distinct
    values use up to max_bins-1 quantile cuts instead. Bin b holds values in
    [cut[b-1], cut[b]), so "x < cut[b]" and "bin <= b" route identically.
    """
    n, d = X.shape
    cuts: list[np.ndarray] = []
    binned = np.empty((n, d), dtype=np.int64)
    for j in range(d):
        u = np.unique(X[:, j])
        if u.shape[0] <= max_bins:
            mid = (u[:-1] + u[1:]) / 2.0
            c = mid[(mid > u[:-1]) & (mid < u[1:])]
        else:
            qs = np.quantile(X[:, j], np.arange(1, max_bins) / max_bins)
            c = np.unique(qs)
        cuts.append(c)
        binned[:, j] = np.digitize(X[:, j], c)
    return binned, cuts


def softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _grow_boost_tree(binned: np.ndarray, cuts: list[np.ndarray],
                     cols: np.ndarray, rows: np.ndarray, g: np.ndarray,
                     h: np.ndarray, max_depth: int, lam: float,
                     width: int) -> Tree:
    """Regression tree on (rows x cols) of the pre-binned matrix.

    g/h are aligned with ``rows``; ``width`` exceeds every bin id. Thresholds
    are stored against original column ids so the tree predicts from raw
    feature matrices.
    """
    n_cols = cols.shape[0]
    offsets = np.arange(n_cols, dtype=np.int64) * width
    sub = binned[np.ix_(rows, cols)] + offsets[None, :]

    def find_split(member: np.ndarray):
        g_node, h_node = g[member], h[member]
        g_total, h_total = g_node.sum(), h_node.sum()
        m = member.shape[0]
        flat = sub[member].ravel()
        size = n_cols * width
        gl, hl, nl = (np.bincount(flat, weights=w, minlength=size)
                      .reshape(n_cols, width).cumsum(axis=1)[:, :-1]
                      for w in (np.repeat(g_node, n_cols),
                                np.repeat(h_node, n_cols), None))
        gr = g_total - gl
        hr = h_total - hl
        nr = m - nl
        gain = gl ** 2 / (hl + lam) + gr ** 2 / (hr + lam) \
            - g_total ** 2 / (h_total + lam)
        gain[(nl < 1) | (nr < 1)] = -np.inf
        # row-major argmax: ties go to the lowest column, then lowest cut
        at = int(np.argmax(gain))
        col_pos, cut_idx = divmod(at, width - 1)
        if not gain[col_pos, cut_idx] > 0.0:
            return None
        column = int(cols[col_pos])
        go_left = sub[member, col_pos] - offsets[col_pos] <= cut_idx
        return column, cuts[column][cut_idx], go_left

    return grow_tree(np.arange(rows.shape[0]), max_depth, lambda member: [
        -g[member].sum() / (h[member].sum() + lam)], find_split)


class GradientBoostingClassifier(Estimator, ClassifierMixin):
    """Softmax boosting: one depth-limited regression tree per class per round.

    Initial scores are log class priors. The tree for (round r, class c)
    derives its RNG stream from (seed, r, c) and consumes it in row-sample,
    column-sample order, so no tree's draws depend on another's; a
    subsample fraction of 1.0 draws nothing from the stream. ``trees_`` is
    one flat list in round-major order: tree ``r * n_classes + c`` belongs to
    round r, class c (empty for a single class). ``loss_trace_`` records the
    training log-loss before each round plus the final value.
    """

    _SAVED = {"n_features": "n_features_", "init_scores": "init_scores_",
              "loss_trace": "loss_trace_"}
    _SAVES_TREES = True

    def __init__(self, n_rounds: int = 200, max_depth: int = 5,
                 learning_rate: float = 0.3, row_subsample: float = 0.8,
                 col_subsample: float = 0.8, reg_lambda: float = 1.0,
                 max_bins: int = 256, seed: int = 0):
        self.n_rounds = n_rounds
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.row_subsample = row_subsample
        self.col_subsample = col_subsample
        self.reg_lambda = reg_lambda
        self.max_bins = max_bins
        self.seed = seed

    def _check_params(self):
        if int(self.n_rounds) < 1:
            raise ParameterError(f"n_rounds must be >= 1, got {self.n_rounds}")
        if int(self.max_depth) < 1:
            raise ParameterError(f"max_depth must be >= 1, got {self.max_depth}")
        if not float(self.learning_rate) > 0:
            raise ParameterError(
                f"learning_rate must be > 0, got {self.learning_rate}")
        for name in ("row_subsample", "col_subsample"):
            frac = float(getattr(self, name))
            if not 0.0 < frac <= 1.0:
                raise ParameterError(f"{name} must lie in (0, 1], got {frac}")
        if not float(self.reg_lambda) >= 0:  # NaN fails too
            raise ParameterError(
                f"reg_lambda must be >= 0, got {self.reg_lambda}")
        if not 2 <= int(self.max_bins) <= 256:
            raise ParameterError(
                f"max_bins must lie in [2, 256], got {self.max_bins}")

    def fit(self, X, y):
        self._check_params()
        X, y = check_X_y(X, y)
        n, d = X.shape
        if n == 0:
            raise StateError("cannot fit on an empty training set")
        self.classes_, y_idx = np.unique(y, return_inverse=True)
        self.n_features_ = d
        n_classes = self.classes_.shape[0]
        rounds = int(self.n_rounds)
        lr = float(self.learning_rate)
        lam = float(self.reg_lambda)

        priors = np.bincount(y_idx, minlength=n_classes) / n
        self.init_scores_ = np.log(np.maximum(priors, _PROB_FLOOR))
        if n_classes < 2:
            self.trees_ = []
            self.loss_trace_ = np.zeros(rounds + 1)
            return self

        binned, cuts = prebin_features(X, int(self.max_bins))
        # histograms as wide as the most-cut column; at least one cut slot,
        # so a split search on all-constant columns finds nothing
        width = max(2, 1 + max(c.shape[0] for c in cuts))
        scores = np.tile(self.init_scores_, (n, 1))
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), y_idx] = 1.0
        row_count = math.ceil(float(self.row_subsample) * n)
        col_count = math.ceil(float(self.col_subsample) * d)

        trees: list[Tree] = []
        trace = np.empty(rounds + 1)
        for r in range(rounds):
            p = softmax(scores)
            trace[r] = self._log_loss(p, y_idx)
            for c in range(n_classes):
                rng = np.random.default_rng([int(self.seed), r, c])
                if row_count < n:
                    rows = np.sort(rng.choice(n, row_count, replace=False))
                else:
                    rows = np.arange(n)
                if col_count < d:
                    cols = np.sort(rng.choice(d, col_count, replace=False))
                else:
                    cols = np.arange(d)
                g = p[:, c] - onehot[:, c]
                h = p[:, c] * (1.0 - p[:, c])
                tree = _grow_boost_tree(binned, cuts, cols, rows, g[rows],
                                        h[rows], int(self.max_depth), lam,
                                        width)
                scores[:, c] += lr * tree.leaf_values(X)[:, 0]
                trees.append(tree)
        trace[rounds] = self._log_loss(softmax(scores), y_idx)

        self.trees_ = trees
        self.loss_trace_ = trace
        return self

    @staticmethod
    def _log_loss(p: np.ndarray, y_idx: np.ndarray) -> float:
        picked = np.maximum(p[np.arange(p.shape[0]), y_idx], _PROB_FLOOR)
        return float(-np.log(picked).mean())

    def predict_scores(self, X) -> np.ndarray:
        """Additive ensemble scores per class (pre-softmax)."""
        check_is_fitted(self, "trees_")
        X = check_matrix(X, expected_cols=self.n_features_)
        n_classes = self.classes_.shape[0]
        scores = np.tile(self.init_scores_, (X.shape[0], 1))
        lr = float(self.learning_rate)
        for i, tree in enumerate(self.trees_):
            scores[:, i % n_classes] += lr * tree.leaf_values(X)[:, 0]
        return scores
