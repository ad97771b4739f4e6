"""Gradient-boosted decision trees with softmax multiclass loss.

Per round and class, a regression tree is fitted to the loss gradients on a
row/column subsample. Split search runs on globally pre-binned features:
columns with few distinct values keep exact midpoint cut points (equivalent
to exhaustive threshold search), wide columns fall back to quantile cuts.
Split gain and leaf values follow the second-order formulation
gain = G_L^2/(H_L+lam) + G_R^2/(H_R+lam) - G^2/(H+lam), leaf = -G/(H+lam).

Bin ids are uint8 (at most 256 bins). A node's gradient and hessian
histograms are bin-major, one row per bin, so the left sums over cuts are
contiguous row additions. They are filled one block of columns at a time
(XGBoost's column blocks, Chen & Guestrin, KDD 2016), so the slot ids and
repeated weights of a block stay within ``BLOCK_ELEMENTS`` (one column for
a node with more rows than that); every slot still receives its additions
in row order. A cut leaves rows on both sides exactly when it
lies in [min bin, max bin) of the node's rows in that column, so no count
histogram is built.
"""

from __future__ import annotations

import math

import numpy as np

from .. import base
from ..base import ClassifierMixin, Estimator
from ..validation import check_float, check_int
from ._tree import Tree, grow_tree

_PROB_FLOOR = 1e-12


def prebin_features(X: np.ndarray, max_bins: int):
    """Global cut points and uint8 bin ids per feature.

    Cut points are midpoints between consecutive unique values (kept only
    when strictly between them); columns with more than max_bins distinct
    values use up to max_bins-1 quantile cuts instead. Bin b holds values in
    [cut[b-1], cut[b]), so "x < cut[b]" and "bin <= b" route identically.
    """
    n, d = X.shape
    cuts: list[np.ndarray] = []
    binned = np.empty((n, d), dtype=np.uint8)
    levels = np.arange(1, max_bins) / max_bins
    # the binning pass holds a few float64 temporaries of one column block
    step = max(1, base.BLOCK_ELEMENTS // n)
    for start in range(0, d, step):
        block = X[:, start:start + step]
        S = np.sort(block, axis=0)
        # an equal adjacent pair has its midpoint on an endpoint, so
        # ``strict`` marks exactly the gaps between consecutive unique values
        mids = (S[:-1] + S[1:]) / 2.0
        strict = (mids > S[:-1]) & (mids < S[1:])
        wide = 1 + np.count_nonzero(S[1:] != S[:-1], axis=0) > max_bins
        # a wide column's cuts are the unique values of its quantiles. Order
        # statistics do not depend on the order of a column, except for
        # which of -0.0 and 0.0 is picked (sorting may even turn one into the
        # other), so a column holding -0.0 keeps its own order; the rest
        # partition fast, already sorted
        has_neg_zero = ((block == 0.0) & np.signbit(block)).any(axis=0)
        qs = np.sort(np.quantile(np.where(has_neg_zero, block, S)[:, wide],
                                 levels, axis=0), axis=0)
        first = np.ones(qs.shape, dtype=bool)
        first[1:] = qs[1:] != qs[:-1]
        wide_pos = np.cumsum(wide) - 1
        for j in range(block.shape[1]):
            c = qs[first[:, wide_pos[j]], wide_pos[j]] if wide[j] \
                else mids[strict[:, j], j]
            cuts.append(c)
            binned[:, start + j] = np.searchsorted(c, block[:, j],
                                                   side="right")
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
    sub = binned[np.ix_(rows, cols)]
    # uint8 like the bins, so the comparisons below need no casts
    cut_ids = np.arange(width - 1, dtype=np.uint8)[:, None]

    def find_split(member: np.ndarray):
        g_node, h_node = g[member], h[member]
        g_total, h_total = g_node.sum(), h_node.sum()
        bins = sub[member]
        gl, hl = np.empty((width, n_cols)), np.empty((width, n_cols))
        step = max(1, base.BLOCK_ELEMENTS // member.shape[0])
        for c0 in range(0, n_cols, step):
            block = bins[:, c0:c0 + step]
            k = block.shape[1]
            # bin-major slots: slot b * k + j holds bin b of the block's
            # column j
            flat = (block.astype(np.intp) * k + np.arange(k)).ravel()
            for out, w in ((gl, g_node), (hl, h_node)):
                out[:, c0:c0 + k] = np.bincount(
                    flat, weights=np.repeat(w, k),
                    minlength=width * k).reshape(width, k)
        # left sums per cut: cumsum's additions, one contiguous row at a time
        for b in range(1, width - 1):
            gl[b] += gl[b - 1]
            hl[b] += hl[b - 1]
        gl, hl = gl[:-1], hl[:-1]
        # with lam = 0 a cut with an empty side divides by zero; the mask
        # below overwrites its gain
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = gl ** 2 / (hl + lam) + (g_total - gl) ** 2 \
                / (h_total - hl + lam) - g_total ** 2 / (h_total + lam)
        # both children hold rows exactly for cuts in [min bin, max bin)
        gain[(cut_ids < bins.min(axis=0)) | (cut_ids >= bins.max(axis=0))] \
            = -np.inf
        # argmax in (column, cut) order: ties and a NaN gain resolve to the
        # lowest column, then the lowest cut
        col_pos, cut_idx = divmod(int(np.argmax(gain.T)), width - 1)
        if not gain[cut_idx, col_pos] > 0.0:
            return None
        column = int(cols[col_pos])
        return column, cuts[column][cut_idx], bins[:, col_pos] <= cut_idx

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
    ``learning_rate_`` is the rate the trees were fitted with, which
    ``predict_scores`` applies.
    """

    n_rounds: int = 200
    max_depth: int = 5
    learning_rate: float = 0.3
    row_subsample: float = 0.8
    col_subsample: float = 0.8
    reg_lambda: float = 1.0
    max_bins: int = 256
    seed: int = 0

    def fit(self, X, y):
        X, y_idx = self._fit_data(X, y)
        rounds = check_int(self.n_rounds, "n_rounds", 1)
        max_depth = check_int(self.max_depth, "max_depth", 1)
        lr = check_float(self.learning_rate, "learning_rate", gt=0)
        row_frac = check_float(self.row_subsample, "row_subsample", gt=0, le=1)
        col_frac = check_float(self.col_subsample, "col_subsample", gt=0, le=1)
        lam = check_float(self.reg_lambda, "reg_lambda", ge=0)
        max_bins = check_int(self.max_bins, "max_bins", 2, 256)
        seed = check_int(self.seed, "seed", 0)
        n, d = X.shape
        n_classes = self.classes_.shape[0]

        priors = np.bincount(y_idx, minlength=n_classes) / n
        self.init_scores_ = np.log(np.maximum(priors, _PROB_FLOOR))
        self.learning_rate_ = lr
        if n_classes < 2:
            self.trees_ = []
            self.loss_trace_ = np.zeros(rounds + 1)
            self.n_features_ = d
            return self

        binned, cuts = prebin_features(X, max_bins)
        # histograms as wide as the most-cut column; at least one cut slot,
        # so a split search on all-constant columns finds nothing
        width = max(2, 1 + max(c.shape[0] for c in cuts))
        scores = np.tile(self.init_scores_, (n, 1))
        row_count = math.ceil(row_frac * n)
        col_count = math.ceil(col_frac * d)

        trees: list[Tree] = []
        trace = np.empty(rounds + 1)
        for r in range(rounds):
            p = softmax(scores)
            trace[r] = self._log_loss(p, y_idx)
            for c in range(n_classes):
                rng = np.random.default_rng([seed, r, c])
                if row_count < n:
                    rows = np.sort(rng.choice(n, row_count, replace=False))
                else:
                    rows = np.arange(n)
                if col_count < d:
                    cols = np.sort(rng.choice(d, col_count, replace=False))
                else:
                    cols = np.arange(d)
                g = p[:, c] - (y_idx == c)
                h = p[:, c] * (1.0 - p[:, c])
                tree = _grow_boost_tree(binned, cuts, cols, rows, g[rows],
                                        h[rows], max_depth, lam, width)
                scores[:, c] += lr * tree.leaf_values(X)[:, 0]
                trees.append(tree)
        trace[rounds] = self._log_loss(softmax(scores), y_idx)

        self.trees_ = trees
        self.loss_trace_ = trace
        self.n_features_ = d
        return self

    @staticmethod
    def _log_loss(p: np.ndarray, y_idx: np.ndarray) -> float:
        picked = np.maximum(p[np.arange(p.shape[0]), y_idx], _PROB_FLOOR)
        return float(-np.log(picked).mean())

    def predict_scores(self, X) -> np.ndarray:
        """Additive ensemble scores per class (pre-softmax)."""
        X = self._predict_data(X)
        n_classes = self.classes_.shape[0]
        scores = np.tile(self.init_scores_, (X.shape[0], 1))
        lr = self.learning_rate_
        for i, tree in enumerate(self.trees_):
            scores[:, i % n_classes] += lr * tree.leaf_values(X)[:, 0]
        return scores
