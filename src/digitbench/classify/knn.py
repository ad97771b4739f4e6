"""Exact k-nearest-neighbor classification under Minkowski distance."""

from __future__ import annotations

import numpy as np

from .. import base
from ..base import ClassifierMixin, Estimator
from ..validation import check_float, check_int


def _exact_distances(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """p-th power Minkowski distances between broadcast rows of a and b."""
    # ranking is monotone in the p-th power, so the root is skipped; summing
    # over the last axis keeps reductions bit-reproducible
    return (np.abs(a - b) ** p).sum(axis=-1)


class KnnClassifier(Estimator, ClassifierMixin):
    """Majority vote over the k nearest training points.

    Distances are exact Minkowski-p. For p = 2 a matrix product shortlists
    the rows that can rank in the top k, with a rounding-error bound wide
    enough to miss none, and the exact distance ranks the shortlist, so the
    result is the full exact search's. Ties are deterministic: equal distances
    rank by lower training index; tied vote counts go to the tied class whose
    nearest member sits earliest in the neighbor ordering. ``predict_scores``
    returns vote counts plus a sub-unit rank bonus, so the reported label is
    always the argmax of the scores under that tie rule.
    """

    k: int = 5
    minkowski_p: float = 2.0

    def fit(self, X, y):
        X, y_idx = self._fit_data(X, y)
        check_int(self.k, "k", 1)
        check_float(self.minkowski_p, "minkowski_p", ge=1)
        self._X = X
        self._y = y_idx  # class index of each training row
        self.n_features_ = X.shape[1]
        return self

    def _neighbor_order(self, Q: np.ndarray) -> np.ndarray:
        """Ranked training indices (n_queries, k), nearest first."""
        if float(self.minkowski_p) == 2.0:
            return self._euclidean_order(Q)
        n, d = self._X.shape
        k = int(self.k)
        p = float(self.minkowski_p)
        # a distance block (at least one query) holds three temporaries of
        # up to BLOCK_ELEMENTS elements each
        block = max(1, base.BLOCK_ELEMENTS // max(1, n * d))
        out = np.empty((Q.shape[0], k), dtype=np.intp)
        for start in range(0, Q.shape[0], block):
            chunk = Q[start:start + block]
            dist = _exact_distances(chunk[:, None, :], self._X[None, :, :], p)
            # stable sort: equal distances keep lower training index first
            order = np.argsort(dist, axis=1, kind="stable")
            out[start:start + chunk.shape[0]] = order[:, :k]
        return out

    def _euclidean_order(self, Q: np.ndarray) -> np.ndarray:
        """The p = 2 ranking through a GEMM shortlist, then exact re-rank.

        A query block's squared distances are first approximated as
        |q|^2 + |x|^2 - 2 q.x with one matrix product. ``err`` bounds the
        rounding of that approximation plus that of the exact sum, so every
        training row that can rank in the top k by exact distance has
        approx - err at most the k-th smallest approx + err. Those rows are
        re-ranked, in ascending training index, by the exact distance that
        the general path computes, which gives its ranking bit for bit.
        """
        X = self._X
        n, d = X.shape
        k = int(self.k)
        x_sq = np.einsum("ij,ij->i", X, X)
        q_sq = np.einsum("ij,ij->i", Q, Q)
        # generous constant over the (d + 2)-term rounding bounds of both
        # computations; the tiny term covers underflow
        scale = 8.0 * (d + 2) * np.finfo(np.float64).eps
        floor = 8.0 * (d + 2) * np.finfo(np.float64).tiny
        # query-by-row blocks and re-rank pair blocks of at most
        # BLOCK_ELEMENTS elements (README "Classifiers" has the timings)
        block = max(1, base.BLOCK_ELEMENTS // n)
        pair_block = max(1, base.BLOCK_ELEMENTS // max(1, d))
        out = np.empty((Q.shape[0], k), dtype=np.intp)
        for start in range(0, Q.shape[0], block):
            chunk = Q[start:start + block]
            with np.errstate(over="ignore", invalid="ignore"):
                norms = q_sq[start:start + block, None] + x_sq[None, :]
                # approx = norms - 2 q.x and err = norms * scale + floor,
                # each in place over one block
                approx = chunk @ X.T
                approx *= 2.0
                np.subtract(norms, approx, out=approx)
                # an overflowed approximation bounds nothing: as NaN it
                # sorts last, so it never sets hi, and its row is kept
                approx[~np.isfinite(approx)] = np.nan
                err = np.multiply(norms, scale, out=norms)
                err += floor
                hi = np.partition(approx + err, k - 1, axis=1)[:, k - 1:k]
                # written so that a NaN bound keeps the row
                query, cand = np.nonzero(~(approx - err > hi))
            dist = np.empty(cand.shape[0])
            for at in range(0, cand.shape[0], pair_block):
                pairs = slice(at, at + pair_block)
                dist[pairs] = _exact_distances(chunk[query[pairs]],
                                               X[cand[pairs]], 2.0)
            # per query by exact distance, equal ones by training index
            ranked = cand[np.lexsort((dist, query))]
            first = np.searchsorted(query, np.arange(chunk.shape[0]))
            out[start:start + chunk.shape[0]] = \
                ranked[first[:, None] + np.arange(k)]
        return out

    def predict_scores(self, X) -> np.ndarray:
        Q = self._predict_data(X)
        # k may not exceed the training set size
        k = check_int(self.k, "k", 1, self._X.shape[0])
        labels = self._y[self._neighbor_order(Q)]  # (nq, k) class indices
        n_classes = self.classes_.shape[0]
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
