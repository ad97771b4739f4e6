import numpy as np
import pytest
from oracles import cart_oracle

from digitbench import ParameterError, StateError
from digitbench.classify import (GradientBoostingClassifier,
                                 RandomForestClassifier)
from digitbench.classify._tree import LEAF, Tree


def single_cart_tree(X, y, max_depth):
    clf = RandomForestClassifier(n_trees=1, max_depth=max_depth,
                                 max_features=None, bootstrap=False, seed=0)
    return clf.fit(X, y), clf.trees_[0]


def walk_depth(tree):
    """Deepest leaf's depth, found by following child links from the root."""
    deepest, stack = 0, [(0, 0)]
    while stack:
        node, depth = stack.pop()
        if tree.feature[node] == LEAF:
            deepest = max(deepest, depth)
        else:
            stack += [(tree.left[node], depth + 1),
                      (tree.right[node], depth + 1)]
    return deepest


class TestCartOracle:
    def test_tree_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        X = rng.random((30, 4))
        y = rng.integers(0, 3, 30)
        _, tree = single_cart_tree(X, y, max_depth=3)
        oracle = cart_oracle(X, y, 3, max_depth=3)
        assert np.array_equal(tree.feature, oracle["feature"])
        assert np.array_equal(tree.threshold, oracle["threshold"])
        assert np.array_equal(tree.left, oracle["left"])
        assert np.array_equal(tree.right, oracle["right"])
        assert np.array_equal(tree.value, np.array(oracle["counts"], dtype=float))

    def test_tree_matches_oracle_more_seeds(self):
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            X = rng.random((24, 3))
            y = rng.integers(0, 2, 24)
            _, tree = single_cart_tree(X, y, max_depth=2)
            oracle = cart_oracle(X, y, 2, max_depth=2)
            assert np.array_equal(tree.feature, oracle["feature"])
            assert np.array_equal(tree.threshold, oracle["threshold"])

    def test_discrete_features_match_oracle(self):
        # few unique values produce many exact Gini ties across candidates
        rng = np.random.default_rng(4)
        X = rng.integers(0, 3, (30, 4)).astype(float)
        y = rng.integers(0, 3, 30)
        _, tree = single_cart_tree(X, y, max_depth=3)
        oracle = cart_oracle(X, y, 3, max_depth=3)
        assert np.array_equal(tree.feature, oracle["feature"])
        assert np.array_equal(tree.threshold, oracle["threshold"])
        assert np.array_equal(tree.left, oracle["left"])


class TestConstantColumns:
    """Constant columns are dropped from each node's feature draw; the trees
    are the ones the whole draw gives."""

    @staticmethod
    def border_columns(seed, n=40):
        # an all-zero band like LBP's border, a column of -0.0 and 0.0, and
        # columns that vary
        rng = np.random.default_rng(seed)
        X = np.zeros((n, 8))
        X[:, 4] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        X[:, 5] = rng.random(n)
        X[:, 6:] = rng.integers(0, 3, (n, 2))
        return X, rng.integers(0, 3, n)

    def test_tree_matches_exhaustive_oracle(self):
        X, y = self.border_columns(11)
        _, tree = single_cart_tree(X, y, max_depth=4)
        oracle = cart_oracle(X, y, 3, max_depth=4)
        assert tree.n_nodes > 5
        got = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
        want = [np.asarray(oracle[key], dtype=dtype) for key, dtype in (
            ("feature", np.int32), ("threshold", np.float64),
            ("left", np.int32), ("right", np.int32), ("counts", np.float64))]
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_draw_of_constant_columns_grows_a_leaf(self):
        X, y = self.border_columns(12)
        clf = RandomForestClassifier(n_trees=12, max_features=1,
                                     seed=3).fit(X, y)
        for t, tree in enumerate(clf.trees_):
            # the root's draw, after the bootstrap rows
            rng = np.random.default_rng([3, t])
            rng.integers(0, 40, 40)
            feature = rng.choice(8, 1, replace=False)[0]
            if feature < 5:
                assert tree.n_nodes == 1
            else:
                assert tree.n_nodes > 1
        assert 0 < sum(t.n_nodes == 1 for t in clf.trees_) < 12


class TestForestBehavior:
    def test_single_class_all_leaves(self):
        rng = np.random.default_rng(5)
        X = rng.random((12, 3))
        y = np.full(12, 7)
        clf = RandomForestClassifier(n_trees=10).fit(X, y)
        assert all(t.n_nodes == 1 and t.feature[0] == LEAF for t in clf.trees_)
        assert np.all(clf.predict(rng.random((6, 3))) == 7)

    def test_depth1_forced_split(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        clf, tree = single_cart_tree(X, y, max_depth=1)
        assert tree.feature[0] == 0
        assert 1.0 < tree.threshold[0] < 10.0
        assert np.array_equal(clf.predict(X), y)

    def test_max_depth_respected(self):
        rng = np.random.default_rng(6)
        X = rng.random((200, 5))
        y = rng.integers(0, 4, 200)
        clf = RandomForestClassifier(n_trees=12, max_depth=4).fit(X, y)
        assert max(t.depth for t in clf.trees_) <= 4

    def test_seeded_determinism(self):
        rng = np.random.default_rng(7)
        X = rng.random((60, 6))
        y = rng.integers(0, 3, 60)
        a = RandomForestClassifier(n_trees=8, seed=11).fit(X, y)
        b = RandomForestClassifier(n_trees=8, seed=11).fit(X, y)
        for ta, tb in zip(a.trees_, b.trees_):
            assert ta.feature.tobytes() == tb.feature.tobytes()
            assert ta.threshold.tobytes() == tb.threshold.tobytes()
            assert ta.value.tobytes() == tb.value.tobytes()

    def test_memorizes_distinct_points(self):
        rng = np.random.default_rng(8)
        X = rng.random((10, 3))
        y = rng.integers(0, 3, 10)
        clf = RandomForestClassifier(n_trees=1, max_depth=10,
                                     max_features=None, bootstrap=False)
        assert np.mean(clf.fit(X, y).predict(X) == y) == 1.0

    def test_votes_total_n_trees(self):
        rng = np.random.default_rng(9)
        X = rng.random((40, 4))
        y = rng.integers(0, 3, 40)
        clf = RandomForestClassifier(n_trees=15).fit(X, y)
        scores = clf.predict_scores(rng.random((9, 4)))
        assert np.all(scores.sum(axis=1) == 15)
        assert np.array_equal(clf.predict(X[:5]),
                              clf.classes_[np.argmax(clf.predict_scores(X[:5]),
                                                     axis=1)])

    def test_label_mapping_preserved(self):
        rng = np.random.default_rng(10)
        X = rng.random((30, 3))
        y = rng.choice([4, 9], 30)
        clf = RandomForestClassifier(n_trees=5).fit(X, y)
        assert set(np.unique(clf.predict(X))) <= {4, 9}

    def test_sqrt_feature_count(self):
        clf = RandomForestClassifier()
        assert clf._candidate_count(1296) == 36
        assert clf._candidate_count(10) == 4
        assert clf._candidate_count(1) == 1

    def test_errors(self):
        with pytest.raises(StateError):
            RandomForestClassifier().fit(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(ParameterError):
            RandomForestClassifier(n_trees=0).fit(np.zeros((4, 2)), [0, 1, 0, 1])
        with pytest.raises(ParameterError):
            RandomForestClassifier(max_features=9).fit(np.zeros((4, 2)),
                                                       [0, 1, 0, 1])
        with pytest.raises(StateError):
            RandomForestClassifier().predict(np.zeros((2, 2)))


class TestTreePlumbing:
    def test_apply_routing(self):
        # node 0 splits on x[0] < 0.5 into leaves 1 and 2
        tree = Tree(feature=np.array([0, LEAF, LEAF], dtype=np.int32),
                    threshold=np.array([0.5, 0.0, 0.0]),
                    left=np.array([1, LEAF, LEAF], dtype=np.int32),
                    right=np.array([2, LEAF, LEAF], dtype=np.int32),
                    value=np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 2.0]]),
                    depth=1)
        X = np.array([[0.2], [0.5], [0.9]])
        assert np.array_equal(tree.apply(X), [1, 2, 2])  # x < thr goes left
        assert np.array_equal(tree.leaf_values(X)[0], [3, 0])

    def test_recorded_depth_matches_a_walk(self):
        # random labels grow bushy trees, most stopping short of max_depth
        rng = np.random.default_rng(8)
        X = rng.random((300, 6))
        y = rng.integers(0, 5, 300)
        forest = RandomForestClassifier(n_trees=8, max_depth=40, seed=0)
        gbdt = GradientBoostingClassifier(n_rounds=3, max_depth=10, seed=0)
        trees = [*forest.fit(X, y).trees_, *gbdt.fit(X, y).trees_]
        assert [t.depth for t in trees] == [walk_depth(t) for t in trees]
        assert len({t.depth for t in trees}) > 3
        assert min(t.n_nodes for t in trees) > 60

    def test_deep_tree_grows_without_recursion(self):
        # alternating labels on one column: every split peels off one row,
        # a chain 2,999 nodes deep, far past Python's recursion limit
        X = np.arange(3000.0)[:, None]
        y = np.arange(3000) % 2
        clf, tree = single_cart_tree(X, y, max_depth=100_000)
        assert tree.depth == 2999
        assert np.array_equal(clf.predict(X), y)
