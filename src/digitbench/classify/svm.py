"""One-vs-rest soft-margin SVM with an RBF kernel, trained by SMO.

Each class gets a binary subproblem (that class +1, rest -1). One
sequential minimal optimization loop with maximal-violating-pair
working-set selection solves all of them in lockstep over a shared
(classes, n) state and one precomputed, exactly symmetric kernel matrix;
a subproblem drops out when it converges. Each subproblem follows the
same arithmetic as a solver of its own, so its alphas, bias and step
count do not depend on the others. Only support vectors survive into the
fitted state.
"""

from __future__ import annotations

import numpy as np

from ..base import ClassifierMixin, Estimator
from ..errors import StateError
from ..validation import check_float, check_int

SV_THRESHOLD = 1e-8
_QUAD_FLOOR = 1e-12
# elements per row block of an in-place Gram matrix build
_GRAM_BLOCK = 1_000_000


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """K[i, j] = exp(-gamma * ||A_i - B_j||^2).

    Each entry is exp(-gamma * max(|A_i|^2 + |B_j|^2 - 2 A_i.B_j, 0)),
    computed in that order in place over one ``A @ B.T`` buffer, _GRAM_BLOCK
    entries of rows at a time: the only temporary is one block of
    |A_i|^2 + |B_j|^2.
    """
    a = (A * A).sum(axis=1)
    b = (B * B).sum(axis=1)
    K = A @ B.T
    rows = max(1, _GRAM_BLOCK // max(1, K.shape[1]))
    for start in range(0, K.shape[0], rows):
        blk = K[start:start + rows]
        blk *= 2.0
        np.subtract(a[start:start + rows, None] + b[None, :], blk, out=blk)
        np.maximum(blk, 0.0, out=blk)
        blk *= -gamma
        np.exp(blk, out=blk)
    return K


def resolve_gamma(X: np.ndarray, gamma) -> float:
    """'scale' -> 1 / (n_features * Var(X)), numeric passes through."""
    if gamma == "scale":
        var = float(X.var())
        d = X.shape[1]
        return 1.0 / (d * var) if var > 0 else 1.0 / d
    return check_float(gamma, "gamma", gt=0)


def _apply_clips(a_i, a_j, rules):
    """Set (a_i, a_j) to (clip_i, clip_j) wherever cond holds; the conds of
    one call exclude each other."""
    new_i, new_j = a_i, a_j
    for cond, clip_i, clip_j in rules:
        new_i = np.where(cond, clip_i, new_i)
        new_j = np.where(cond, clip_j, new_j)
    return new_i, new_j


def _clip_pair(opposite, old_i, old_j, a_i, a_j, C):
    """Clip each unconstrained pair step (a_i, a_j) back into [0, C]^2.

    Opposite labels keep a_i - a_j, equal labels keep a_i + a_j. The second
    round of rules tests the outcome of the first.
    """
    diff = old_i - old_j
    total = old_i + old_j
    grow = diff > 0
    big = total > C
    same = ~opposite
    a_i, a_j = _apply_clips(a_i, a_j, (
        (opposite & grow & (a_j < 0), diff, 0.0),
        (opposite & ~grow & (a_i < 0), 0.0, -diff),
        (same & big & (a_i > C), C, total - C),
        (same & ~big & (a_j < 0), total, 0.0)))
    return _apply_clips(a_i, a_j, (
        (opposite & grow & (a_i > C), C, C - diff),
        (opposite & ~grow & (a_j > C), C + diff, C),
        (same & big & (a_j > C), total - C, C),
        (same & ~big & (a_i < 0), 0.0, total)))


def _pair_masks(pos, alpha, C):
    """Additive selection masks: 0 where alpha may still move up (low: down)
    along y, -inf (low: +inf) where it may not."""
    can_grow, can_shrink = alpha < C, alpha > 0
    return (np.where(np.where(pos, can_grow, can_shrink), 0.0, -np.inf),
            np.where(np.where(pos, can_shrink, can_grow), 0.0, np.inf))


def smo_solve(K: np.ndarray, Y: np.ndarray, C: float, tol: float,
              max_iter: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimize 1/2 a^T Q a - e^T a, 0 <= a <= C, y^T a = 0, Q = yy^T * K,
    for every row y of the (problems, n) label matrix Y, in lockstep.

    Each step takes, for every problem not yet converged, the pair of
    maximal KKT violation and solves it in closed form; a problem stops when
    its violation gap drops to tol. Each problem sees the arithmetic it would
    see if solved alone. K must be finite and exactly symmetric: row K[i]
    stands for column K[:, i]. Returns per-problem (alpha, bias, iterations,
    converged); iterations is max_iter for a problem that did not converge.
    """
    n_problems, n = Y.shape
    alpha_out = np.zeros((n_problems, n))
    bias_out = np.zeros(n_problems)
    iters_out = np.full(n_problems, max_iter, dtype=np.int64)
    converged_out = np.zeros(n_problems, dtype=bool)

    live = np.arange(n_problems)  # problem of each row of the state below
    alpha = np.zeros((n_problems, n))
    grad = -np.ones((n_problems, n))  # d/da of the dual at alpha = 0
    neg_y = -Y
    up_mask, low_mask = _pair_masks(Y > 0, alpha, C)
    m = M = np.zeros(n_problems)

    for step in range(1, max_iter + 1):
        rows = np.arange(live.shape[0])
        v = neg_y * grad
        # v is finite, so a mask only hides entries from argmax/argmin
        i = np.argmax(v + up_mask, axis=1)
        j = np.argmin(v + low_mask, axis=1)
        m, M = v[rows, i], v[rows, j]
        done = m - M <= tol
        if done.any():
            finished = live[done]
            alpha_out[finished] = alpha[done]
            bias_out[finished] = (m[done] + M[done]) / 2.0
            iters_out[finished] = step - 1
            converged_out[finished] = True
            keep = ~done
            if not keep.any():
                break
            live, Y, neg_y, alpha, grad, up_mask, low_mask = (
                a[keep] for a in (live, Y, neg_y, alpha, grad, up_mask,
                                  low_mask))
            i, j, m, M = i[keep], j[keep], m[keep], M[keep]
            rows = rows[:live.shape[0]]

        K_i, K_j = K[i], K[j]
        y_i, y_j = Y[rows, i], Y[rows, j]
        g_i, g_j = grad[rows, i], grad[rows, j]
        old_i, old_j = alpha[rows, i], alpha[rows, j]
        # curvature along the feasible pair direction is ||phi_i - phi_j||^2
        # in kernel space for either label combination
        quad = np.maximum(K_i[rows, i] + K_j[rows, j] - 2.0 * K_i[rows, j],
                          _QUAD_FLOOR)
        opposite = y_i != y_j
        delta = np.where(opposite, -g_i - g_j, g_i - g_j) / quad
        a_i, a_j = _clip_pair(
            opposite, old_i, old_j,
            np.where(opposite, old_i + delta, old_i - delta), old_j + delta, C)
        for idx, y_idx, a in ((i, y_i, a_i), (j, y_j, a_j)):
            alpha[rows, idx] = a
            up_mask[rows, idx], low_mask[rows, idx] = _pair_masks(
                y_idx > 0, a, C)
        # grad += q_i * (a_i - old_i) + q_j * (a_j - old_j) with
        # q_i = y * (y_i * K_i), computed in place in the gathered rows
        K_i *= y_i[:, None]
        K_i *= Y
        K_i *= (a_i - old_i)[:, None]
        K_j *= y_j[:, None]
        K_j *= Y
        K_j *= (a_j - old_j)[:, None]
        K_i += K_j
        grad += K_i
    else:
        alpha_out[live] = alpha
        bias_out[live] = (m + M) / 2.0
    return alpha_out, bias_out, iters_out, converged_out


class SvmClassifier(Estimator, ClassifierMixin):
    """RBF-kernel SVM, one binary SMO problem per class.

    ``gamma="scale"`` resolves to 1/(n_features * Var(X)). The decision value
    for class c is sum_i coef_ci * K(sv_i, x) + b_c and the label is the
    argmax over classes (lowest index on exact ties).
    """

    def __init__(self, C: float = 10.0, gamma="scale", tol: float = 1e-3,
                 max_iter: int = 200_000):
        self.C = C
        self.gamma = gamma
        self.tol = tol
        self.max_iter = max_iter

    def fit(self, X, y):
        X, y_idx = self._fit_data(X, y)
        C = check_float(self.C, "C", gt=0)
        tol = check_float(self.tol, "tol", gt=0)
        max_iter = check_int(self.max_iter, "max_iter", 1)
        n_classes = self.classes_.shape[0]
        if n_classes < 2:
            raise StateError("SVM training needs at least two classes")

        gamma = resolve_gamma(X, self.gamma)
        # X @ X.T is a symmetric rank-k product, so K is exactly symmetric,
        # as smo_solve requires
        K = rbf_kernel(X, X, gamma)
        np.fill_diagonal(K, 1.0)

        Y = np.where(y_idx[None, :] == np.arange(n_classes)[:, None],
                     1.0, -1.0)
        alpha, intercepts, iteration_counts, converged = smo_solve(
            K, Y, C, tol, max_iter)
        coefs = alpha * Y

        support = np.nonzero(np.any(np.abs(coefs) > SV_THRESHOLD, axis=0))[0]
        self.gamma_ = gamma
        self.support_ = support
        self.support_vectors_ = X[support]
        self.dual_coef_ = coefs[:, support]
        self.intercept_ = intercepts
        self.n_iter_ = iteration_counts
        self.converged_ = bool(converged.all())
        self.n_features_ = X.shape[1]
        return self

    def predict_scores(self, X) -> np.ndarray:
        """(n_samples, n_classes) one-vs-rest decision values."""
        Q = self._predict_data(X)
        Kq = rbf_kernel(self.support_vectors_, Q, self.gamma_)
        return (self.dual_coef_ @ Kq).T + self.intercept_[None, :]
