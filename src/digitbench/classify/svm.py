"""One-vs-rest soft-margin SVM with an RBF kernel, trained by SMO.

Each class gets a binary subproblem (that class +1, rest -1) solved by
sequential minimal optimization with maximal-violating-pair working-set
selection, sharing one precomputed kernel matrix. Only support vectors
survive into the fitted state.
"""

from __future__ import annotations

import numpy as np

from ..base import ClassifierMixin, Estimator
from ..errors import ParameterError, StateError
from ..validation import check_is_fitted, check_matrix, check_X_y

SV_THRESHOLD = 1e-8
_QUAD_FLOOR = 1e-12


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """K[i, j] = exp(-gamma * ||A_i - B_j||^2)."""
    sq = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] \
        - 2.0 * (A @ B.T)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def resolve_gamma(X: np.ndarray, gamma) -> float:
    """'scale' -> 1 / (n_features * Var(X)), numeric passes through."""
    if gamma == "scale":
        var = float(X.var())
        d = X.shape[1]
        return 1.0 / (d * var) if var > 0 else 1.0 / d
    value = float(gamma)
    if value <= 0:
        raise ParameterError(f"gamma must be positive, got {value}")
    return value


def smo_solve(K: np.ndarray, y: np.ndarray, C: float, tol: float,
              max_iter: int) -> tuple[np.ndarray, float, int, bool]:
    """Minimize 1/2 a^T Q a - e^T a, 0 <= a <= C, y^T a = 0, Q = yy^T * K.

    Working pairs are chosen by maximal KKT violation; the loop stops when
    the violation gap drops to tol. Returns (alpha, bias, iterations, converged).
    """
    n = K.shape[0]
    alpha = np.zeros(n)
    grad = -np.ones(n)  # d/da of the dual at alpha = 0
    pos = y > 0
    m = M = 0.0
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        can_grow = alpha < C
        can_shrink = alpha > 0
        up = (can_grow & pos) | (can_shrink & ~pos)
        low = (can_grow & ~pos) | (can_shrink & pos)
        v = -y * grad
        i = int(np.argmax(np.where(up, v, -np.inf)))
        j = int(np.argmin(np.where(low, v, np.inf)))
        m, M = v[i], v[j]
        if m - M <= tol:
            converged = True
            iterations -= 1
            break

        q_i = y * (y[i] * K[:, i])
        q_j = y * (y[j] * K[:, j])
        old_i, old_j = alpha[i], alpha[j]
        # curvature along the feasible pair direction is ||phi_i - phi_j||^2
        # in kernel space for either label combination
        quad = max(K[i, i] + K[j, j] - 2.0 * K[i, j], _QUAD_FLOOR)
        if y[i] != y[j]:
            delta = (-grad[i] - grad[j]) / quad
            diff = old_i - old_j
            a_i, a_j = old_i + delta, old_j + delta
            if diff > 0:
                if a_j < 0:
                    a_j, a_i = 0.0, diff
            else:
                if a_i < 0:
                    a_i, a_j = 0.0, -diff
            if diff > 0:
                if a_i > C:
                    a_i, a_j = C, C - diff
            else:
                if a_j > C:
                    a_j, a_i = C, C + diff
        else:
            delta = (grad[i] - grad[j]) / quad
            total = old_i + old_j
            a_i, a_j = old_i - delta, old_j + delta
            if total > C:
                if a_i > C:
                    a_i, a_j = C, total - C
                if a_j > C:
                    a_j, a_i = C, total - C
            else:
                if a_j < 0:
                    a_j, a_i = 0.0, total
                if a_i < 0:
                    a_i, a_j = 0.0, total
        alpha[i], alpha[j] = a_i, a_j
        grad += q_i * (a_i - old_i) + q_j * (a_j - old_j)

    bias = (m + M) / 2.0
    return alpha, float(bias), iterations, converged


class SvmClassifier(Estimator, ClassifierMixin):
    """RBF-kernel SVM, one binary SMO problem per class.

    ``gamma="scale"`` resolves to 1/(n_features * Var(X)). The decision value
    for class c is sum_i coef_ci * K(sv_i, x) + b_c and the label is the
    argmax over classes (lowest index on exact ties).
    """

    _SAVED = {"support": "support_", "support_vectors": "support_vectors_",
              "dual_coef": "dual_coef_", "intercept": "intercept_",
              "n_iter": "n_iter_", "gamma": "gamma_", "converged": "converged_"}

    def __init__(self, C: float = 10.0, gamma="scale", tol: float = 1e-3,
                 max_iter: int = 200_000):
        self.C = C
        self.gamma = gamma
        self.tol = tol
        self.max_iter = max_iter

    def fit(self, X, y):
        C = float(self.C)
        if C <= 0:
            raise ParameterError(f"C must be positive, got {C}")
        if float(self.tol) <= 0:
            raise ParameterError(f"tol must be positive, got {self.tol}")
        if int(self.max_iter) < 1:
            raise ParameterError(f"max_iter must be >= 1, got {self.max_iter}")
        X, y = check_X_y(X, y)
        if X.shape[0] == 0:
            raise StateError("cannot fit on an empty training set")
        classes, y_idx = np.unique(y, return_inverse=True)
        if classes.shape[0] < 2:
            raise StateError("SVM training needs at least two classes")

        gamma = resolve_gamma(X, self.gamma)
        K = rbf_kernel(X, X, gamma)
        np.fill_diagonal(K, 1.0)

        n_classes = classes.shape[0]
        coefs = np.zeros((n_classes, X.shape[0]))
        intercepts = np.zeros(n_classes)
        iteration_counts = np.zeros(n_classes, dtype=np.int64)
        converged = True
        for c in range(n_classes):
            y_bin = np.where(y_idx == c, 1.0, -1.0)
            alpha, bias, iters, ok = smo_solve(K, y_bin, C, float(self.tol),
                                               int(self.max_iter))
            coefs[c] = alpha * y_bin
            intercepts[c] = bias
            iteration_counts[c] = iters
            converged = converged and ok

        support = np.nonzero(np.any(np.abs(coefs) > SV_THRESHOLD, axis=0))[0]
        self.classes_ = classes
        self.gamma_ = gamma
        self.support_ = support
        self.support_vectors_ = X[support]
        self.dual_coef_ = coefs[:, support]
        self.intercept_ = intercepts
        self.n_iter_ = iteration_counts
        self.converged_ = converged
        return self

    def predict_scores(self, X) -> np.ndarray:
        """(n_samples, n_classes) one-vs-rest decision values."""
        check_is_fitted(self, "support_vectors_")
        Q = check_matrix(X, expected_cols=self.support_vectors_.shape[1])
        Kq = rbf_kernel(self.support_vectors_, Q, self.gamma_)
        return (self.dual_coef_ @ Kq).T + self.intercept_[None, :]
