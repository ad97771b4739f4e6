import numpy as np
import pytest
from oracles import knn_oracle

from digitbench import ParameterError, ShapeError, StateError
from digitbench.classify import KnnClassifier
from digitbench.classify import knn as knn_module


class TestKnnBasics:
    def test_nearest_point(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0]])
        y = np.array([0, 0, 1])
        clf = KnnClassifier(k=1).fit(X, y)
        assert clf.predict([[0.1, 0.0]])[0] == 0

    def test_query_on_training_point(self):
        rng = np.random.default_rng(0)
        X = rng.random((20, 3))
        y = rng.integers(0, 4, 20)
        clf = KnnClassifier(k=1).fit(X, y)
        assert np.array_equal(clf.predict(X), y)

    def test_distance_tie_lower_index_wins(self):
        X = np.array([[0.0, 2.0], [0.0, -2.0]])
        y = np.array([1, 0])
        clf = KnnClassifier(k=1).fit(X, y)
        assert clf.predict([[0.0, 0.0]])[0] == 1

    def test_vote_tie_closest_class_wins(self):
        X = np.array([[1.0, 0.0], [2.0, 0.0]])
        y = np.array([3, 5])
        clf = KnnClassifier(k=2).fit(X, y)
        scores = clf.predict_scores([[0.0, 0.0]])[0]
        assert clf.predict([[0.0, 0.0]])[0] == 3
        assert scores[0] > scores[1]  # classes_ sorted: [3, 5]

    def test_label_is_argmax_of_scores(self):
        rng = np.random.default_rng(1)
        X = rng.random((40, 4))
        y = rng.integers(0, 3, 40)
        clf = KnnClassifier(k=5).fit(X, y)
        Q = rng.random((25, 4))
        scores = clf.predict_scores(Q)
        assert np.array_equal(clf.predict(Q),
                              clf.classes_[np.argmax(scores, axis=1)])

    def test_scores_vote_counts(self):
        rng = np.random.default_rng(2)
        X = rng.random((30, 3))
        y = rng.integers(0, 3, 30)
        clf = KnnClassifier(k=5).fit(X, y)
        scores = clf.predict_scores(rng.random((10, 3)))
        # integer part of each row's scores must total k
        assert np.all(np.floor(scores).sum(axis=1) == 5)

    def test_smoothing_beats_memorizing_near_mislabeled_point(self):
        # one mislabeled training point sits next to a validation query:
        # its single nearest neighbor answers wrong, a 5-vote answers right
        X_train = np.array([
            [0.0, 0.0], [0.2, 0.0], [0.0, 0.2], [-0.2, 0.0], [0.0, -0.2],
            [1.0, 1.0],
            [10.0, 10.0], [10.2, 10.0], [10.0, 10.2], [9.8, 10.0],
            [10.0, 9.8],
        ])
        y_train = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1])
        X_valid = np.array([[0.9, 0.9], [0.0, 0.1], [10.1, 10.1]])
        y_valid = np.array([0, 0, 1])
        accs = {k: np.mean(KnnClassifier(k=k).fit(X_train, y_train)
                           .predict(X_valid) == y_valid) for k in (1, 5)}
        assert accs[1] == pytest.approx(2.0 / 3.0)
        assert accs[5] == 1.0


class TestKnnOracle:
    def test_matches_bruteforce_50_points(self):
        rng = np.random.default_rng(3)
        X = rng.random((50, 2))
        y = rng.integers(0, 3, 50)
        Q = rng.random((40, 2))
        clf = KnnClassifier(k=5).fit(X, y)
        assert np.array_equal(clf.predict(Q), knn_oracle(X, y, Q, 5, 2.0))

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_matches_bruteforce_minkowski(self, p):
        rng = np.random.default_rng(4)
        X = rng.random((60, 5))
        y = rng.integers(0, 4, 60)
        Q = rng.random((30, 5))
        clf = KnnClassifier(k=3, minkowski_p=p).fit(X, y)
        assert np.array_equal(clf.predict(Q), knn_oracle(X, y, Q, 3, p))

    def test_blocked_distance_path(self):
        # force multiple query blocks through the block budget path
        rng = np.random.default_rng(5)
        X = rng.random((200, 30))
        y = rng.integers(0, 5, 200)
        Q = rng.random((150, 30))
        clf = KnnClassifier(k=7).fit(X, y)
        assert np.array_equal(clf.predict(Q), knn_oracle(X, y, Q, 7, 2.0))


def broadcast_order(X, Q, k):
    """Ranked neighbours from the full squared-difference tensor."""
    with np.errstate(over="ignore"):
        dist = (np.abs(Q[:, None, :] - X[None, :, :]) ** 2.0).sum(axis=2)
    return np.argsort(dist, axis=1, kind="stable")[:, :k]


class TestKnnEuclideanShortlist:
    @staticmethod
    def near_ties(rng):
        # points far from the origin, close to each other: |q|^2 + |x|^2
        # - 2 q.x cancels about 18 digits, so its rounding error (~1e2)
        # dwarfs the spread of the true squared distances (~1e1)
        base = np.full(4, 3e8)
        X = base + rng.random((300, 4)) * 2.0
        Q = base + rng.random((40, 4)) * 2.0
        return X, rng.integers(0, 4, 300), Q

    def test_fixed_shortlist_would_fail(self):
        # sanity check on the data: the k + m smallest approximations,
        # re-ranked exactly, miss true neighbours
        X, _, Q = self.near_ties(np.random.default_rng(11))
        k, m = 5, 5
        approx = (Q * Q).sum(1)[:, None] + (X * X).sum(1)[None, :] \
            - 2.0 * Q @ X.T
        short = np.sort(np.argpartition(approx, k + m, axis=1)[:, :k + m],
                        axis=1)
        dist = (np.abs(Q[:, None, :] - X[short]) ** 2.0).sum(axis=2)
        picked = np.take_along_axis(
            short, np.argsort(dist, axis=1, kind="stable")[:, :k], axis=1)
        assert not np.array_equal(picked, broadcast_order(X, Q, k))

    def test_error_bounded_shortlist_exact(self):
        X, y, Q = self.near_ties(np.random.default_rng(11))
        clf = KnnClassifier(k=5).fit(X, y)
        assert np.array_equal(clf._neighbor_order(Q), broadcast_order(X, Q, 5))
        assert np.array_equal(clf.predict(Q), knn_oracle(X, y, Q, 5, 2.0))

    def test_overflowing_norms_rank_exactly(self):
        # squared norms overflow to inf, so the GEMM bound says nothing and
        # every row must go to the exact re-rank; the distances stay finite
        rng = np.random.default_rng(12)
        X = 1e160 + rng.random((50, 3)) * 1e150
        Q = 1e160 + rng.random((20, 3)) * 1e150
        clf = KnnClassifier(k=4).fit(X, rng.integers(0, 3, 50))
        want = broadcast_order(X, Q, 4)
        assert np.isfinite(
            ((Q[:, None, :] - X[None]) ** 2).sum(axis=2)).all()
        assert np.array_equal(clf._neighbor_order(Q), want)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_small_budget_matches_oracle(self, monkeypatch, p):
        # a budget below one query's row count and one pair block's width
        monkeypatch.setattr(knn_module, "_BLOCK_BUDGET", 50)
        rng = np.random.default_rng(13)
        X = np.round(rng.random((80, 6)) * 3)
        y = rng.integers(0, 4, 80)
        Q = np.round(rng.random((30, 6)) * 3)
        clf = KnnClassifier(k=6, minkowski_p=p).fit(X, y)
        assert np.array_equal(clf.predict(Q), knn_oracle(X, y, Q, 6, p))


class TestKnnErrors:
    def test_empty_training_set(self):
        with pytest.raises(StateError):
            KnnClassifier().fit(np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_unfitted_predict(self):
        with pytest.raises(StateError):
            KnnClassifier().predict([[1.0, 2.0]])

    def test_k_exceeds_train_size(self):
        clf = KnnClassifier(k=9).fit(np.zeros((3, 2)), [0, 1, 0])
        with pytest.raises(ParameterError):
            clf.predict([[0.0, 0.0]])

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            KnnClassifier(k=0).fit(np.zeros((2, 2)), [0, 1])
        with pytest.raises(ParameterError):
            KnnClassifier(minkowski_p=0.5).fit(np.zeros((2, 2)), [0, 1])

    def test_dim_mismatch(self):
        clf = KnnClassifier(k=1).fit(np.zeros((4, 3)), [0, 1, 0, 1])
        with pytest.raises(ShapeError):
            clf.predict(np.zeros((2, 5)))
