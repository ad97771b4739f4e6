import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from oracles import boost_tree_oracle, prebin_oracle, stump_oracle

from digitbench import ParameterError, ShapeError, StateError, base
from digitbench.classify import GradientBoostingClassifier, boosting
from digitbench.classify._tree import grow_tree
from digitbench.classify.boosting import (_grow_boost_tree, prebin_features,
                                          softmax)


class TestStumpOracle:
    def test_first_round_matches_exhaustive_scan(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            X = rng.random((40, 5))
            y = rng.integers(0, 3, 40)
            clf = GradientBoostingClassifier(n_rounds=1, max_depth=1,
                                             row_subsample=1.0,
                                             col_subsample=1.0).fit(X, y)
            for c, expected in enumerate(stump_oracle(X, y, 3, lam=1.0)):
                tree = clf.trees_[c]
                assert expected is not None
                feature, threshold, left, right = expected
                assert tree.feature[0] == feature
                assert tree.threshold[0] == threshold
                assert tree.value[tree.left[0], 0] == pytest.approx(left,
                                                                    abs=1e-12)
                assert tree.value[tree.right[0], 0] == pytest.approx(right,
                                                                     abs=1e-12)

    def test_balanced_binary_split_by_hand(self):
        # priors 0.5 each: per class g = +-0.5, h = 0.25 at every point.
        # The centre cut gives gain 2*(1/1.5) and leaves -+2/3 with lam=1.
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        clf = GradientBoostingClassifier(n_rounds=1, max_depth=1,
                                         learning_rate=0.5,
                                         row_subsample=1.0,
                                         col_subsample=1.0).fit(X, y)
        tree0 = clf.trees_[0]
        assert tree0.threshold[0] == 1.5
        assert tree0.value[tree0.left[0], 0] == pytest.approx(2.0 / 3.0)
        assert tree0.value[tree0.right[0], 0] == pytest.approx(-2.0 / 3.0)
        scores = clf.predict_scores(X[:1])
        assert scores[0, 0] == pytest.approx(math.log(0.5) + 0.5 * 2.0 / 3.0)
        assert scores[0, 1] == pytest.approx(math.log(0.5) - 0.5 * 2.0 / 3.0)


class TestPrebin:
    def test_exact_cuts_for_few_uniques(self):
        X = np.array([[0.0], [1.0], [1.0], [4.0]])
        binned, cuts = prebin_features(X, max_bins=256)
        assert np.array_equal(cuts[0], [0.5, 2.5])
        assert np.array_equal(binned[:, 0], [0, 1, 1, 2])

    def test_bin_route_matches_threshold_route(self):
        rng = np.random.default_rng(3)
        X = rng.random((50, 2))
        binned, cuts = prebin_features(X, max_bins=256)
        for j in range(2):
            for b, cut in enumerate(cuts[j]):
                assert np.array_equal(binned[:, j] <= b, X[:, j] < cut)

    def test_degenerate_midpoint_dropped(self):
        lo = 1.0
        hi = np.nextafter(lo, 2.0)  # midpoint rounds onto an endpoint
        X = np.array([[lo], [hi], [3.0]])
        _, cuts = prebin_features(X, max_bins=256)
        assert cuts[0].shape[0] == 1
        assert hi < cuts[0][0] < 3.0

    def test_quantile_fallback_caps_cut_count(self):
        rng = np.random.default_rng(4)
        X = rng.random((500, 1))
        binned, cuts = prebin_features(X, max_bins=16)
        assert cuts[0].shape[0] <= 15
        assert binned[:, 0].max() <= 15


def awkward_columns(seed, n=60):
    """Columns that exercise every cut rule: constant, two values one ulp
    apart, few repeated values, a heavy repeat that collapses quantile
    cuts, negative zero beside zero, and continuous draws."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 8))
    X[:, 0] = 0.25
    X[:, 1] = np.where(rng.random(n) < 0.5, 1.0, np.nextafter(1.0, 2.0))
    X[: n // 3, 1] = 3.0
    X[:, 2] = np.round(X[:, 2] * 2)
    X[: 2 * n // 3, 3] = 0.0
    X[:, 4] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    X[: n // 4, 4] = rng.random(n // 4)
    return X


class TestPrebinMatchesOracle:
    @pytest.mark.parametrize("max_bins", [2, 16, 32, 256])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_cuts_and_bins_equal(self, max_bins, seed):
        X = awkward_columns(seed)
        binned, cuts = prebin_features(X, max_bins)
        want_binned, want_cuts = prebin_oracle(X, max_bins)
        assert binned.dtype == np.uint8
        assert np.array_equal(binned, want_binned)
        assert len(cuts) == len(want_cuts)
        for got, want in zip(cuts, want_cuts):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("budget", [1, 180])
    def test_column_blocks(self, monkeypatch, budget):
        # one column per block, then blocks of three columns and a ragged end
        monkeypatch.setattr(base, "BLOCK_ELEMENTS", budget)
        X = awkward_columns(2)
        binned, cuts = prebin_features(X, 16)
        want_binned, want_cuts = prebin_oracle(X, 16)
        assert np.array_equal(binned, want_binned)
        assert [c.tobytes() for c in cuts] == [c.tobytes() for c in want_cuts]

    def test_full_range_of_bins_fits_uint8(self):
        X = np.arange(600.0).reshape(300, 2)
        binned, cuts = prebin_features(X, 256)
        assert [c.shape[0] for c in cuts] == [255, 255]
        assert np.array_equal(binned, prebin_oracle(X, 256)[0])


# with lam=0 the oracle's gain for a cut with an empty side divides by zero
# and warns before its mask replaces it
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                            "ignore:divide by zero:RuntimeWarning")
class TestBoostTreeMatchesOracle:
    @staticmethod
    def both(X, max_bins, lam, rng, g=None, h=None, max_depth=4,
             n_rows=None):
        binned, cuts = prebin_features(X, max_bins)
        width = max(2, 1 + max(c.shape[0] for c in cuts))
        n, d = X.shape
        rows = np.sort(rng.choice(n, n - 8 if n_rows is None else n_rows,
                                  replace=False))
        cols = np.sort(rng.choice(d, d - 2, replace=False))
        g = rng.normal(size=rows.shape[0]) if g is None else g
        h = rng.random(rows.shape[0]) if h is None else h
        tree = _grow_boost_tree(binned, cuts, cols, rows, g, h, max_depth,
                                lam, width)
        want = boost_tree_oracle(*prebin_oracle(X, max_bins), cols, rows, g,
                                 h, max_depth, lam, width)
        got = (tree.feature, tree.threshold, tree.left, tree.right,
               tree.value)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        return tree

    @pytest.mark.parametrize("max_bins", [2, 16, 32, 256])
    @pytest.mark.parametrize("lam", [1.0, 0.0])
    def test_trees_equal(self, max_bins, lam):
        rng = np.random.default_rng(max_bins)
        tree = self.both(awkward_columns(max_bins), max_bins, lam, rng)
        assert tree.n_nodes > 1

    def test_tied_gains_equal(self):
        # integer gradients on repeated values give many equal gains
        rng = np.random.default_rng(7)
        X = np.round(rng.random((60, 6)) * 3)
        g = rng.integers(-2, 3, 52).astype(float)
        self.both(X, 16, 1.0, rng, g=g, h=np.ones(52))

    def test_nan_gain_stops_like_oracle(self):
        # lam=0 with zero gradient and hessian on the rows of lowest value:
        # the cut isolating them has gain 0/0, and a NaN gain ends the node
        # where a positive gain would have split it
        rng = np.random.default_rng(8)
        X = awkward_columns(8)
        X[:, 5] = X[:, 6] = np.arange(60.0)
        zero = np.arange(52) < 10
        g = np.where(zero, 0.0, rng.normal(size=52))
        h = np.where(zero, 0.0, rng.random(52))
        nodes = [self.both(X, 32, lam, np.random.default_rng(9), g=g,
                           h=h).n_nodes for lam in (0.0, 1.0)]
        assert nodes[0] == 1 < nodes[1]


def border_columns(seed, n=60):
    """An all-zero band of five columns like LBP's border, then a column of
    -0.0 and 0.0 (equal, so no cut either), then columns with cuts."""
    rng = np.random.default_rng(seed)
    X = np.zeros((n, 10))
    X[:, 4] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    X[:, 5:] = rng.normal(size=(n, 5))
    X[:, 7] = np.round(X[:, 7])
    return X


class TestCutlessColumnsMatchOracle:
    """fit drops the columns without a cut from each tree's column draw;
    every first-round tree still equals the oracle's on the whole draw."""

    @pytest.mark.parametrize("col_subsample", [1.0, 0.2])
    def test_first_round_trees_equal(self, col_subsample):
        X = border_columns(1)
        y = np.random.default_rng(2).integers(0, 3, 60)
        clf = GradientBoostingClassifier(
            n_rounds=1, max_depth=4, row_subsample=1.0,
            col_subsample=col_subsample, max_bins=32, seed=1).fit(X, y)
        binned, cuts = prebin_oracle(X, 32)
        width = max(2, 1 + max(c.shape[0] for c in cuts))
        p = softmax(np.tile(clf.init_scores_, (60, 1)))
        draws = []
        for c, tree in enumerate(clf.trees_):
            # the draw fit makes: no row draw at a fraction of 1.0
            rng = np.random.default_rng([1, 0, c])
            cols = np.sort(rng.choice(10, 2, replace=False)) \
                if col_subsample < 1.0 else np.arange(10)
            draws.append(cols)
            g = p[:, c] - (y == c)
            h = p[:, c] * (1.0 - p[:, c])
            want = boost_tree_oracle(binned, cuts, cols, np.arange(60), g, h,
                                     4, 1.0, width)
            got = (tree.feature, tree.threshold, tree.left, tree.right,
                   tree.value)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        if col_subsample < 1.0:
            # class 2 draws a zero column and the signed-zero one, and
            # grows a leaf
            assert np.array_equal(draws[2], [1, 4])
            assert clf.trees_[2].n_nodes == 1
            assert all(t.n_nodes > 1 for t in clf.trees_[:2])


# the oracle warns as in TestBoostTreeMatchesOracle
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                            "ignore:divide by zero:RuntimeWarning")
class TestOccupiedBinSearch:
    """Nodes with fewer rows than a quarter of the histogram width search
    only their occupied bins; the trees equal the oracle's dense search."""

    @staticmethod
    def searches(monkeypatch):
        used = []
        for name in ("_bin_sums", "_occupied_sums"):
            def spy(bins, *args, _search=getattr(boosting, name), _name=name):
                used.append((_name, bins.shape[0]))
                return _search(bins, *args)
            monkeypatch.setattr(boosting, name, spy)
        return used

    @pytest.mark.parametrize("max_bins", [32, 256])
    @pytest.mark.parametrize("lam", [1.0, 0.0])
    def test_trees_equal_on_both_sides_of_the_switch(self, monkeypatch,
                                                     max_bins, lam):
        used = self.searches(monkeypatch)
        rng = np.random.default_rng(max_bins + 1)
        X = rng.normal(size=(300, 6))
        X[:, 2] = np.round(X[:, 2] * 4)
        tree = TestBoostTreeMatchesOracle.both(X, max_bins, lam, rng,
                                               max_depth=9)
        assert tree.n_nodes > 40
        width = max_bins  # 300 distinct values fill every bin
        assert {m * 4 < width for name, m in used if name == "_occupied_sums"} \
            == {True}
        assert {m * 4 >= width for name, m in used if name == "_bin_sums"} \
            == {True}
        assert {name for name, _ in used} == {"_bin_sums", "_occupied_sums"}

    @pytest.mark.parametrize("max_bins", [32, 256])
    def test_tied_gains_equal(self, monkeypatch, max_bins):
        # integer gradients on few repeated values: many equal gains, and
        # equal dense gains between occupied bins
        used = self.searches(monkeypatch)
        rng = np.random.default_rng(10)
        X = np.round(rng.random((200, 6)) * 60)
        g = rng.integers(-2, 3, 192).astype(float)
        tree = TestBoostTreeMatchesOracle.both(X, max_bins, 1.0, rng, g=g,
                                               h=np.ones(192), max_depth=9)
        assert tree.n_nodes > 20
        assert {name for name, _ in used} == {"_bin_sums", "_occupied_sums"}

    def test_nan_gain_stops_like_oracle(self, monkeypatch):
        # as TestBoostTreeMatchesOracle's, at a root of 40 rows in a width
        # of 256, which the occupied-bin search handles
        used = self.searches(monkeypatch)
        rng = np.random.default_rng(11)
        X = rng.normal(size=(300, 4))
        X[:, 1] = X[:, 2] = np.arange(300.0)
        # the rows that ``both`` draws from a generator seeded 12
        rows = np.sort(np.random.default_rng(12).choice(300, 40,
                                                        replace=False))
        g = np.where(rows < 100, 0.0, rng.normal(size=40))
        h = np.where(rows < 100, 0.0, rng.random(40))
        nodes = [TestBoostTreeMatchesOracle.both(
            X, 256, lam, np.random.default_rng(12), g=g, h=h,
            n_rows=40).n_nodes for lam in (0.0, 1.0)]
        assert nodes[0] == 1 < nodes[1]
        assert used[0] == ("_occupied_sums", 40)


class TestGrowTreeScratch:
    def test_split_scratch_freed_without_cyclic_gc(self):
        refs = []

        def split_search():
            scratch = np.zeros(1000)
            refs.append(weakref.ref(scratch))

            def find_split(rows):
                return (0, 0.5, scratch[rows] < 0.5) if rows.shape[0] > 2 \
                    else None
            return find_split

        enabled = gc.isenabled()
        gc.disable()
        try:
            tree = grow_tree(np.arange(8), 3, lambda rows: [0.0],
                             split_search())
            assert tree.n_nodes > 1
            assert refs[0]() is None
        finally:
            if enabled:
                gc.enable()


class TestBoostingBehavior:
    @staticmethod
    def blobs(seed, n_per=50):
        rng = np.random.default_rng(seed)
        centers = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        X = np.vstack([c + 0.5 * rng.standard_normal((n_per, 2))
                       for c in centers])
        y = np.repeat(np.arange(3), n_per)
        return X, y

    def test_loss_trace_non_increasing_full_sample(self):
        X, y = self.blobs(0, n_per=34)
        clf = GradientBoostingClassifier(n_rounds=30, max_depth=3,
                                         row_subsample=1.0,
                                         col_subsample=1.0).fit(X, y)
        trace = clf.loss_trace_
        assert trace.shape == (31,)
        assert np.all(np.diff(trace) <= 1e-12)
        assert trace[0] == pytest.approx(math.log(3.0))
        assert trace[-1] < 0.1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_lambda_fits_without_warnings(self):
        # reg_lambda = 0 is accepted; the empty-side cuts it divides by
        # zero for are masked, so it must not warn either
        X, y = self.blobs(3)
        clf = GradientBoostingClassifier(n_rounds=3, max_depth=3,
                                         reg_lambda=0.0).fit(X, y)
        assert np.mean(clf.predict(X) == y) > 0.9

    def test_separable_blobs_learned(self):
        X, y = self.blobs(1)
        clf = GradientBoostingClassifier(n_rounds=20, max_depth=3).fit(X, y)
        assert np.mean(clf.predict(X) == y) > 0.97

    def test_seeded_determinism_with_subsampling(self):
        rng = np.random.default_rng(2)
        X = rng.random((80, 6))
        y = rng.integers(0, 4, 80)
        kw = dict(n_rounds=6, max_depth=3, row_subsample=0.8,
                  col_subsample=0.5, seed=9)
        a = GradientBoostingClassifier(**kw).fit(X, y)
        b = GradientBoostingClassifier(**kw).fit(X, y)
        assert a.predict_scores(X).tobytes() == b.predict_scores(X).tobytes()
        assert a.loss_trace_.tobytes() == b.loss_trace_.tobytes()

    def test_max_depth_respected(self):
        rng = np.random.default_rng(5)
        X = rng.random((120, 4))
        y = rng.integers(0, 3, 120)
        clf = GradientBoostingClassifier(n_rounds=4, max_depth=2).fit(X, y)
        assert max(t.max_depth() for t in clf.trees_) <= 2

    def test_memorizes_distinct_points(self):
        rng = np.random.default_rng(6)
        X = rng.random((12, 3))
        y = rng.integers(0, 3, 12)
        clf = GradientBoostingClassifier(n_rounds=40, max_depth=4,
                                         row_subsample=1.0,
                                         col_subsample=1.0).fit(X, y)
        assert np.mean(clf.predict(X) == y) == 1.0

    def test_single_class_shortcut(self):
        X = np.random.default_rng(7).random((10, 2))
        y = np.full(10, 3)
        clf = GradientBoostingClassifier(n_rounds=5).fit(X, y)
        assert clf.trees_ == []
        assert clf.loss_trace_.shape == (6,)
        assert np.all(clf.loss_trace_ == 0.0)
        assert np.all(clf.predict(X) == 3)

    def test_constant_columns_grow_leaves(self):
        # no column has a cut, so every tree is a single leaf
        X = np.zeros((10, 3))
        y = np.arange(10) % 2
        clf = GradientBoostingClassifier(n_rounds=3,
                                         row_subsample=1.0).fit(X, y)
        assert all(t.n_nodes == 1 for t in clf.trees_)
        assert np.all(clf.predict(X) == 0)

    def test_init_scores_are_log_priors(self):
        X = np.random.default_rng(8).random((8, 2))
        y = np.array([0, 0, 0, 0, 0, 0, 1, 1])
        clf = GradientBoostingClassifier(n_rounds=1).fit(X, y)
        assert clf.init_scores_ == pytest.approx([math.log(0.75),
                                                  math.log(0.25)])

    def test_softmax_rows_normalized(self):
        scores = np.random.default_rng(9).standard_normal((20, 4)) * 50
        p = softmax(scores)
        assert np.all(p > 0)
        assert p.sum(axis=1) == pytest.approx(np.ones(20))

    def test_predict_uses_fitted_learning_rate(self):
        # the rate read at predict time used to rescale every tree
        rng = np.random.default_rng(31)
        X, y = rng.random((30, 4)), rng.integers(0, 3, 30)
        clf = GradientBoostingClassifier(n_rounds=3).fit(X, y)
        want = clf.predict_scores(X)
        clf.learning_rate = math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert clf.predict_scores(X).tobytes() == want.tobytes()

    def test_errors(self):
        X = np.zeros((4, 2))
        y = [0, 1, 0, 1]
        with pytest.raises(ParameterError):
            GradientBoostingClassifier(n_rounds=0).fit(X, y)
        with pytest.raises(ParameterError):
            GradientBoostingClassifier(row_subsample=0.0).fit(X, y)
        with pytest.raises(ParameterError):
            GradientBoostingClassifier(col_subsample=1.5).fit(X, y)
        with pytest.raises(ParameterError):
            GradientBoostingClassifier(max_bins=300).fit(X, y)
        with pytest.raises(ParameterError):
            GradientBoostingClassifier(learning_rate=0.0).fit(X, y)
        with pytest.raises(StateError):
            GradientBoostingClassifier().fit(np.zeros((0, 2)),
                                             np.zeros(0, dtype=int))
        with pytest.raises(StateError):
            GradientBoostingClassifier().predict(X)
        clf = GradientBoostingClassifier(n_rounds=1).fit(
            np.random.default_rng(10).random((6, 3)), [0, 1, 0, 1, 0, 1])
        with pytest.raises(ShapeError):
            clf.predict(np.zeros((2, 5)))
