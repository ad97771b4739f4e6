"""Array-backed decision trees shared by the forest and boosting learners.

A tree is stored as parallel node arrays. Internal nodes route a sample left
when ``x[feature] < threshold`` and right otherwise; every node carries a
payload row (class counts for the forest's classification trees, a single
leaf value for the boosting ensemble's regression trees).

Both learners grow their trees with ``grow_tree``, which owns the recursion,
the depth and two-row stops and the preorder node numbering. A learner
supplies only its payload and its split search: Gini over midpoints between
a node's own adjacent values for the forest, second-order gain over global
pre-binned cuts for boosting (uint8 bins, bin-major gradient and hessian
histograms, and a node's min and max bin per column in place of counts).
A tree's split-search scratch is freed when ``grow_tree`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

LEAF = -1


@dataclass
class Tree:
    feature: np.ndarray    # (n_nodes,) int32, LEAF marks a leaf
    threshold: np.ndarray  # (n_nodes,) float64
    left: np.ndarray       # (n_nodes,) int32
    right: np.ndarray      # (n_nodes,) int32
    value: np.ndarray      # (n_nodes, value_dim) float64

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node index for every row of X."""
        idx = np.zeros(X.shape[0], dtype=np.intp)
        while True:
            feat = self.feature[idx]
            rows = np.nonzero(feat != LEAF)[0]
            if rows.size == 0:
                return idx
            at = idx[rows]
            go_left = X[rows, feat[rows]] < self.threshold[at]
            idx[rows] = np.where(go_left, self.left[at], self.right[at])

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.apply(X)]

    def max_depth(self) -> int:
        depths = np.zeros(self.n_nodes, dtype=np.int64)
        deepest = 0
        for node in range(self.n_nodes):  # children follow parents
            if self.feature[node] != LEAF:
                depths[self.left[node]] = depths[node] + 1
                depths[self.right[node]] = depths[node] + 1
            else:
                deepest = max(deepest, int(depths[node]))
        return deepest


def grow_tree(rows: np.ndarray, max_depth: int,
              node_value: Callable[[np.ndarray], object],
              find_split: Callable[[np.ndarray], tuple | None]) -> Tree:
    """Grow one tree over the sample ``rows`` (indices a learner understands).

    Every node stores ``node_value(rows)`` as its payload row. A node becomes
    a leaf at ``max_depth``, with fewer than two rows, or when
    ``find_split(rows)`` returns None; otherwise the returned
    ``(feature, threshold, go_left)`` splits it, ``go_left`` being a boolean
    mask over ``rows``. Nodes are numbered in preorder, so children follow
    their parent and the left subtree precedes the right one.
    """
    nodes: list[list] = []  # [feature, threshold, left, right] per node
    values: list[np.ndarray] = []

    def grow(rows: np.ndarray, depth: int) -> int:
        node = len(nodes)
        nodes.append([LEAF, 0.0, LEAF, LEAF])
        values.append(np.asarray(node_value(rows), dtype=np.float64))
        split = None if depth >= max_depth or rows.shape[0] < 2 \
            else find_split(rows)
        if split is not None:
            feature, threshold, go_left = split
            # list items evaluate left to right: the left subtree comes first
            nodes[node] = [int(feature), float(threshold),
                           grow(rows[go_left], depth + 1),
                           grow(rows[~go_left], depth + 1)]
        return node

    grow(rows, 0)
    # grow refers to itself; breaking that cycle frees the split search's
    # scratch now rather than at the next cyclic garbage collection
    del grow
    feature, threshold, left, right = zip(*nodes)
    return Tree(feature=np.asarray(feature, dtype=np.int32),
                threshold=np.asarray(threshold, dtype=np.float64),
                left=np.asarray(left, dtype=np.int32),
                right=np.asarray(right, dtype=np.int32),
                value=np.stack(values))
