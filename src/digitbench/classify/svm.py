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

import math

import numpy as np

from .. import base
from ..base import ClassifierMixin, Estimator
from ..errors import ShapeError, StateError
from ..validation import check_float, check_int

SV_THRESHOLD = 1e-8
_QUAD_FLOOR = 1e-12


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """K[i, j] = exp(-gamma * ||A_i - B_j||^2).

    Each entry is exp(-gamma * max(|A_i|^2 + |B_j|^2 - 2 A_i.B_j, 0)),
    computed in that order in place over one ``A @ B.T`` buffer,
    ``base.BLOCK_ELEMENTS`` entries of rows at a time: the only temporary is
    one block of |A_i|^2 + |B_j|^2. Raises ShapeError when a squared row
    norm is so large that those terms could overflow.
    """
    with np.errstate(over="ignore"):
        a = (A * A).sum(axis=1)
        b = (B * B).sum(axis=1)
    # |2 A_i.B_j| <= |A_i|^2 + |B_j|^2, so with this headroom no term of
    # any entry overflows, and every entry is finite
    if not math.isfinite(2.0 * (float(a.max(initial=0.0))
                                + float(b.max(initial=0.0)))):
        raise ShapeError("squared row norms overflow float64 in the RBF "
                         "kernel; rescale the features")
    K = A @ B.T
    rows = max(1, base.BLOCK_ELEMENTS // max(1, K.shape[1]))
    for start in range(0, K.shape[0], rows):
        blk = K[start:start + rows]
        blk *= 2.0
        np.subtract(a[start:start + rows, None] + b[None, :], blk, out=blk)
        np.maximum(blk, 0.0, out=blk)
        blk *= -gamma
        np.exp(blk, out=blk)
    return K


def resolve_gamma(X: np.ndarray, gamma) -> float:
    """'scale' -> 1 / (n_features * Var(X)), numeric passes through.

    Raises ShapeError when 'scale' gives 0 or an overflow.
    """
    if gamma == "scale":
        with np.errstate(over="ignore"):
            var = float(X.var())
        d = X.shape[1]
        gamma = 1.0 / (d * var) if var > 0 else 1.0 / d
        # an overflowing variance gives 0, a tiny one an overflowing gamma
        if not 0.0 < gamma < math.inf:
            raise ShapeError(f"gamma='scale' leaves float64's range: Var(X) "
                             f"= {var:g} gives gamma = {gamma:g}; rescale "
                             f"the features")
        return gamma
    return check_float(gamma, "gamma", gt=0)


def _sides(y, a, v, C):
    """(up, low) entries of an alpha a with violation v: v where a may still
    move up (low: down) along y, -inf (low: +inf) where it may not."""
    up, down = (a < C, a > 0) if y > 0 else (a > 0, a < C)
    return v if up else -math.inf, v if down else math.inf


def _pair_update(C, v_i, v_j, y_i, y_j, old_i, old_j, k_ii, k_jj, k_ij):
    """One problem's SMO step on its pair, in plain floats and branch for
    branch as smo_oracle: the clip keeps a_i + a_j for equal labels and
    a_i - a_j for opposite ones. v is the violation -y * grad. Returns the new
    (a_i, a_j), the (up, low) entries of each and the two y * (a - old)."""
    # curvature along the feasible pair direction is ||phi_i - phi_j||^2 in
    # kernel space for either label pair
    quad = max(k_ii + k_jj - 2.0 * k_ij, _QUAD_FLOOR)
    g_i, g_j = -y_i * v_i, -y_j * v_j
    if y_i == y_j:
        delta = (g_i - g_j) / quad
        a_i, a_j = old_i - delta, old_j + delta
        total = old_i + old_j
        if total > C:
            if a_i > C:
                a_i, a_j = C, total - C
            if a_j > C:
                a_i, a_j = total - C, C
        else:
            if a_j < 0:
                a_i, a_j = total, 0.0
            if a_i < 0:
                a_i, a_j = 0.0, total
    else:
        delta = (-g_i - g_j) / quad
        a_i, a_j = old_i + delta, old_j + delta
        diff = old_i - old_j
        if diff > 0:
            if a_j < 0:
                a_i, a_j = diff, 0.0
            if a_i > C:
                a_i, a_j = C, C - diff
        else:
            if a_i < 0:
                a_i, a_j = 0.0, -diff
            if a_j > C:
                a_i, a_j = C + diff, C
    return (a_i, a_j, *_sides(y_i, a_i, v_i, C), *_sides(y_j, a_j, v_j, C),
            y_i * (a_i - old_i), y_j * (a_j - old_j))


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
    # v = -y * grad (grad = -1 at alpha = 0) is kept where alpha may still
    # move up along y in v_up (-inf elsewhere), where it may move down in
    # v_low (+inf elsewhere); every alpha is in one set at least. As +-1
    # factors are exact and rounding is symmetric in sign, subtracting
    # y * (grad step) gives -y * (new grad) bit for bit, bar zero's sign
    v_up = np.where(Y > 0, Y, -np.inf)  # every alpha starts at 0 < C
    v_low = np.where(Y > 0, np.inf, Y)
    m = M = np.zeros(n_problems)

    for step in range(1, max_iter + 1):
        rows = np.arange(live.shape[0])
        i = np.argmax(v_up, axis=1)
        j = np.argmin(v_low, axis=1)
        m, M = v_up[rows, i], v_low[rows, j]
        done = m - M <= tol
        if done.any():
            finished = live[done]
            alpha_out[finished] = alpha[done]
            bias_out[finished] = (m[done] + M[done]) / 2.0
            iters_out[finished] = step - 1
            converged_out[finished] = True
            if done.all():
                break
            live, Y, alpha, v_up, v_low, i, j, m, M = (
                a[~done] for a in (live, Y, alpha, v_up, v_low, i, j, m, M))
            rows = rows[:live.shape[0]]

        r = live.shape[0]  # i != j in every live row, as m > M there
        K_ij = K[np.concatenate((i, j))]  # rows K[i], then rows K[j]
        updates = [_pair_update(C, *args) for args in zip(
            m.tolist(), M.tolist(), Y[rows, i].tolist(), Y[rows, j].tolist(),
            alpha[rows, i].tolist(), alpha[rows, j].tolist(),
            K_ij[rows, i].tolist(), K_ij[rows + r, j].tolist(),
            K_ij[rows, j].tolist())]
        a_i, a_j, up_i, low_i, up_j, low_j, step_i, step_j = zip(*updates)
        alpha[rows, i], alpha[rows, j] = a_i, a_j
        v_up[rows, i], v_low[rows, i] = up_i, low_i
        v_up[rows, j], v_low[rows, j] = up_j, low_j
        # y * (grad step) = y_i * (a_i - old_i) * K_i + the same for j, in
        # place in the gathered rows; an infinite entry stays infinite
        K_ij *= np.array(step_i + step_j)[:, None]
        K_ij[:r] += K_ij[r:]
        v_up -= K_ij[:r]
        v_low -= K_ij[:r]
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

    C: float = 10.0
    gamma: float | str = "scale"
    tol: float = 1e-3
    max_iter: int = 200_000

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
        # the Gram is freed before the support vectors are copied out of X
        del K
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
