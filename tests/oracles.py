"""Independent reference implementations used to cross-check the estimators.

Everything here is written for clarity over speed: plain loops, exhaustive
scans, exact rational arithmetic where ties matter. None of it shares code
with the package under test.
"""

from fractions import Fraction

import numpy as np

from digitbench.classify._tree import LEAF
from digitbench.classify.svm import rbf_kernel


def knn_oracle(X_train, y_train, queries, k, p):
    """Quadratic scan with the documented tie rules."""
    labels = np.empty(len(queries), dtype=np.int64)
    for qi, q in enumerate(queries):
        dist = np.array([np.sum(np.abs(q - x) ** p) for x in X_train])
        order = np.argsort(dist, kind="stable")[:k]
        votes = {}
        for rank, idx in enumerate(order):
            lbl = int(y_train[idx])
            count, best_rank = votes.get(lbl, (0, rank))
            votes[lbl] = (count + 1, min(best_rank, rank))
        top = max(count for count, _ in votes.values())
        tied = [(best_rank, lbl) for lbl, (count, best_rank) in votes.items()
                if count == top]
        labels[qi] = min(tied)[1]
    return labels


def cart_oracle(X, y, n_classes, max_depth):
    """Exhaustive CART with exact-rational Gini, mirroring the stated rules:
    candidates are strictly-interior midpoints, scanned feature-ascending then
    threshold-ascending, strict improvement only; left means value < threshold.
    Returns flat node lists in preorder (feature, threshold, left, right, counts).
    """
    nodes = {"feature": [], "threshold": [], "left": [], "right": [],
             "counts": []}

    def weighted_gini(labels_left, labels_right):
        total = len(labels_left) + len(labels_right)
        acc = Fraction(0)
        for side in (labels_left, labels_right):
            m = len(side)
            sq = sum(Fraction(int(np.sum(side == c))) ** 2
                     for c in range(n_classes))
            acc += Fraction(m) - sq / m
        return acc / total

    def grow(rows, depth):
        labels = y[rows]
        counts = [int(np.sum(labels == c)) for c in range(n_classes)]
        node = len(nodes["feature"])
        for key, val in (("feature", LEAF), ("threshold", 0.0), ("left", LEAF),
                         ("right", LEAF), ("counts", counts)):
            nodes[key].append(val)
        if depth >= max_depth or len(rows) < 2 or max(counts) == len(rows):
            return node
        best = None
        for f in range(X.shape[1]):
            vals = np.sort(np.unique(X[rows, f]))
            for a, b in zip(vals[:-1], vals[1:]):
                thr = (a + b) / 2.0
                if not (a < thr < b):
                    continue
                go_left = X[rows, f] < thr
                score = weighted_gini(labels[go_left], labels[~go_left])
                if best is None or score < best[0]:
                    best = (score, f, thr, go_left)
        if best is None:
            return node
        _, f, thr, go_left = best
        nodes["feature"][node] = f
        nodes["threshold"][node] = thr
        nodes["left"][node] = grow(rows[go_left], depth + 1)
        nodes["right"][node] = grow(rows[~go_left], depth + 1)
        return node

    grow(np.arange(len(y)), 0)
    return nodes


def stump_oracle(X, y, n_classes, lam):
    """Best first-round stump per class by exhaustive threshold scan.

    Gradients are taken at the prior-initialized scores, candidates are the
    strictly-interior midpoints between consecutive unique values, ties keep
    the lowest feature then the lowest threshold, and a split must improve.
    Returns (feature, threshold, left_leaf, right_leaf) or None per class.
    """
    n = len(y)
    priors = np.bincount(y, minlength=n_classes) / n
    out = []
    for c in range(n_classes):
        g = priors[c] - (y == c).astype(float)
        h = np.full(n, priors[c] * (1.0 - priors[c]))
        g_total, h_total = g.sum(), h.sum()
        base = g_total ** 2 / (h_total + lam)
        best = None
        for f in range(X.shape[1]):
            u = np.unique(X[:, f])
            mid = (u[:-1] + u[1:]) / 2.0
            for cut in mid[(mid > u[:-1]) & (mid < u[1:])]:
                left = X[:, f] < cut
                if not (0 < left.sum() < n):
                    continue
                gl, hl = g[left].sum(), h[left].sum()
                gr, hr = g_total - gl, h_total - hl
                gain = gl ** 2 / (hl + lam) + gr ** 2 / (hr + lam) - base
                if gain > 0 and (best is None or gain > best[0]):
                    best = (gain, f, cut, -gl / (hl + lam), -gr / (hr + lam))
        out.append(best and best[1:])
    return out


def prebin_oracle(X, max_bins):
    """Global cut points and bin ids, one column at a time.

    Midpoints between consecutive unique values, kept when strictly between
    them; a column with more than max_bins distinct values takes the unique
    values of its max_bins-1 quantile cuts instead. Bins follow
    ``np.digitize``. Returns (int64 bins, list of cut arrays).
    """
    n, d = X.shape
    cuts = []
    binned = np.empty((n, d), dtype=np.int64)
    for j in range(d):
        u = np.unique(X[:, j])
        if u.shape[0] <= max_bins:
            mid = (u[:-1] + u[1:]) / 2.0
            c = mid[(mid > u[:-1]) & (mid < u[1:])]
        else:
            c = np.unique(np.quantile(X[:, j],
                                      np.arange(1, max_bins) / max_bins))
        cuts.append(c)
        binned[:, j] = np.digitize(X[:, j], c)
    return binned, cuts


def boost_tree_oracle(binned, cuts, cols, rows, g, h, max_depth, lam, width):
    """One boosting regression tree from column-major count, gradient and
    hessian histograms, grown by plain preorder recursion.

    Split search scans every (column, cut) in that order, requires rows on
    both sides, and keeps the first maximal gain if it is positive; a NaN
    gain met first stops the node. g/h are aligned with ``rows``. Returns
    (feature, threshold, left, right, value) as in a fitted ``Tree``.
    """
    n_cols = cols.shape[0]
    offsets = np.arange(n_cols, dtype=np.int64) * width
    sub = binned[np.ix_(rows, cols)].astype(np.int64) + offsets[None, :]
    nodes = {"feature": [], "threshold": [], "left": [], "right": [],
             "value": []}

    def find_split(member):
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
        at = int(np.argmax(gain))
        col_pos, cut_idx = divmod(at, width - 1)
        if not gain[col_pos, cut_idx] > 0.0:
            return None
        column = int(cols[col_pos])
        go_left = sub[member, col_pos] - offsets[col_pos] <= cut_idx
        return column, cuts[column][cut_idx], go_left

    def grow(member, depth):
        node = len(nodes["feature"])
        for key, val in (("feature", LEAF), ("threshold", 0.0),
                         ("left", LEAF), ("right", LEAF),
                         ("value", [-g[member].sum()
                                    / (h[member].sum() + lam)])):
            nodes[key].append(val)
        split = None if depth >= max_depth or member.shape[0] < 2 \
            else find_split(member)
        if split is not None:
            column, threshold, go_left = split
            nodes["feature"][node] = column
            nodes["threshold"][node] = threshold
            nodes["left"][node] = grow(member[go_left], depth + 1)
            nodes["right"][node] = grow(member[~go_left], depth + 1)
        return node

    grow(np.arange(rows.shape[0]), 0)
    return (np.asarray(nodes["feature"], dtype=np.int32),
            np.asarray(nodes["threshold"], dtype=np.float64),
            np.asarray(nodes["left"], dtype=np.int32),
            np.asarray(nodes["right"], dtype=np.int32),
            np.asarray(nodes["value"], dtype=np.float64))


def smo_oracle(K, y, C, tol, max_iter):
    """Minimize 1/2 a^T Q a - e^T a, 0 <= a <= C, y^T a = 0, Q = yy^T * K.

    One binary problem, one scalar step at a time: the solver the lockstep
    ``smo_solve`` must match bit for bit on every row of its label matrix.
    Working pairs are chosen by maximal KKT violation; the loop stops when
    the violation gap drops to tol. Returns (alpha, bias, iterations,
    converged).
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
        quad = max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
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


def random_feasible_alpha(rng, y, C):
    """Uniform draw rescaled so sum(alpha * y) == 0 within both bounds."""
    alpha = rng.uniform(0.0, C, size=len(y))
    pos_total = alpha[y > 0].sum()
    neg_total = alpha[y < 0].sum()
    if pos_total > neg_total:
        alpha[y > 0] *= neg_total / pos_total if pos_total > 0 else 0.0
    elif neg_total > pos_total:
        alpha[y < 0] *= pos_total / neg_total if neg_total > 0 else 0.0
    return alpha


def dual_objective(alpha, K, y):
    q = alpha * y
    return alpha.sum() - 0.5 * q @ K @ q


def kkt_satisfied(K, y, alpha, bias, C, tol, slack=1e-9):
    f = (alpha * y) @ K + bias
    yf = y * f
    for i in range(len(y)):
        if alpha[i] < 1e-8:
            if yf[i] < 1.0 - tol - slack:
                return False
        elif alpha[i] > C - 1e-8:
            if yf[i] > 1.0 + tol + slack:
                return False
        elif abs(yf[i] - 1.0) > tol + slack:
            return False
    return True


def two_class_problem(rng, n=20, gamma=0.5):
    X = np.concatenate([rng.normal(0.0, 1.0, (n // 2, 3)),
                        rng.normal(1.5, 1.0, (n - n // 2, 3))])
    y = np.concatenate([np.full(n // 2, -1.0), np.full(n - n // 2, 1.0)])
    K = rbf_kernel(X, X, gamma)
    np.fill_diagonal(K, 1.0)
    return X, y, K


def ten_class_problem():
    """Overlapping 6-d blobs, 200 train rows and 50 queries; the ten
    one-vs-rest subproblems converge after 77 to 365 SMO steps."""
    rng = np.random.default_rng(8)
    centers = rng.normal(0.0, 1.5, (10, 6))
    y = rng.integers(0, 10, 200)
    X = centers[y] + rng.normal(0.0, 1.0, (200, 6))
    Q = rng.normal(0.0, 2.0, (50, 6))
    return X, y, Q
