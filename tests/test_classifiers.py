import math
import tracemalloc

import numpy as np
import pytest

from digitbench import ParameterError, ShapeError, StateError, base
from digitbench.classify import (GBDT, KINDS, KNN, RF, SVM,
                                  GradientBoostingClassifier, KnnClassifier,
                                  RandomForestClassifier, SvmClassifier,
                                  make_classifier)
from digitbench.classify.svm import rbf_kernel
from digitbench.features import (GaborDescriptor, HogDescriptor,
                                 LbpDescriptor, RawDescriptor)
from digitbench.imaging import Preprocessor


def three_clusters(seed=0, n_per=12):
    # tight blobs with non-contiguous labels to exercise class mapping
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 1.0], [0.0, 4.0, 2.0]])
    X = np.vstack([c + 0.3 * rng.standard_normal((n_per, 3))
                   for c in centers])
    y = np.repeat([2, 5, 9], n_per)
    return X, y


# enough to fit the three clusters, fewer trees than the defaults
_CHEAP = {RF: {"n_trees": 3}, GBDT: {"n_rounds": 3}}


class TestFactory:
    def test_kinds_construct_with_params(self):
        assert make_classifier(KNN, k=7).k == 7
        assert make_classifier(RF, n_trees=3).n_trees == 3
        assert make_classifier(GBDT, learning_rate=0.1).learning_rate == 0.1
        assert make_classifier(SVM, C=2.0).C == 2.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError, match="unknown classifier kind"):
            make_classifier("perceptron")

    def test_unknown_param_rejected(self):
        with pytest.raises(TypeError):
            make_classifier(KNN, depth=3)


class TestCrossCutting:
    @pytest.mark.parametrize("kind,params", [
        (KNN, {"k": 1}),
        (SVM, {"C": 100.0}),
        (RF, {"n_trees": 1, "max_depth": 12, "max_features": None,
              "bootstrap": False}),
        (GBDT, {"n_rounds": 40, "max_depth": 4, "row_subsample": 1.0,
                "col_subsample": 1.0}),
    ])
    def test_memorizes_small_training_set(self, kind, params):
        X, y = three_clusters(n_per=4)
        clf = make_classifier(kind, **params).fit(X, y)
        assert np.mean(clf.predict(X) == y) == 1.0

    @pytest.mark.parametrize("kind, params, one_class", [
        (KNN, {"k": 0}, False),
        (SVM, {}, True),
        (RF, {"max_features": 4}, False),  # the data has 3 columns
        (GBDT, {"learning_rate": math.inf}, False),
    ])
    def test_failed_fit_leaves_model_unfitted(self, kind, params, one_class):
        # a new model, and one refitted after a good fit: predict must say
        # "not fitted", not fail on a half-set attribute or use stale state
        X, y = three_clusters(n_per=4)
        fitted = make_classifier(kind, **_CHEAP.get(kind, {})).fit(X, y)
        for clf in (make_classifier(kind), fitted):
            for name, value in params.items():
                setattr(clf, name, value)
            with pytest.raises((ParameterError, StateError)):
                clf.fit(X, np.zeros_like(y) if one_class else y)
            with pytest.raises(StateError, match="not fitted"):
                clf.predict(X)


    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_columns_rejected(self, kind):
        # used to raise ZeroDivisionError (SVM), ValueError (RF, GBDT), or
        # fit a KNN that predicted class 0 for every row
        with pytest.raises(ShapeError, match="no feature columns"):
            make_classifier(kind).fit(np.zeros((6, 0)), [0, 1] * 3)


class TestBlockBudget:
    """``base.BLOCK_ELEMENTS`` bounds every blocked classifier temporary and
    never changes a bit."""

    @staticmethod
    def fitted_bytes():
        rng = np.random.default_rng(21)
        # integer-valued columns (few distinct values, exact cuts) beside
        # wide ones (quantile cuts)
        X = np.hstack([rng.random((90, 6)), np.round(rng.random((90, 5)) * 4)])
        y = rng.integers(0, 3, 90)
        gbdt = GradientBoostingClassifier(
            n_rounds=3, max_depth=4, max_bins=16, row_subsample=0.9,
            col_subsample=0.75).fit(X, y)
        out = [a.tobytes() for tree in gbdt.trees_ for a in (
            tree.feature, tree.threshold, tree.left, tree.right, tree.value)]
        out.append(gbdt.loss_trace_.tobytes())
        knn = KnnClassifier(k=7).fit(X, y)
        out.append(knn._neighbor_order(rng.random((25, 11)) * 4).tobytes())
        for n, d in ((12, 30), (50, 4)):  # n < d, then n > d
            A = rng.random((n, d))
            svm = SvmClassifier().fit(A, np.arange(n) % 3)
            out += [rbf_kernel(A, A, 0.4).tobytes(),
                    rbf_kernel(A[:5], A, 0.4).tobytes(), svm.support_.tobytes(),
                    svm.dual_coef_.tobytes(), svm.intercept_.tobytes()]
        return out

    # a few elements: one column, row, query or pair per block for the
    # larger inputs; for tree nodes of 2 to 10 rows, blocks of several of
    # the 9 sampled columns and a ragged last block
    @pytest.mark.parametrize("budget", [7, 20])
    def test_tiny_budget_gives_the_same_bits(self, monkeypatch, budget):
        want = self.fitted_bytes()
        monkeypatch.setattr(base, "BLOCK_ELEMENTS", budget)
        assert self.fitted_bytes() == want

    @staticmethod
    def traced_peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_one_boosting_round_stays_below_its_input(self):
        # a few thousand rows by several hundred columns: unblocked, the
        # root's int64 slot ids and each of its repeated weight arrays would
        # be 0.64 X.nbytes at the default subsampling, while the budget's
        # temporaries are a few MiB and each uint8 copy of the bins at most
        # an eighth of X
        rng = np.random.default_rng(22)
        X = rng.random((5000, 800))
        y = rng.integers(0, 3, 5000)
        limit = 0.75 * X.nbytes
        clf = GradientBoostingClassifier(n_rounds=1, max_depth=2, max_bins=16)
        assert self.traced_peak(lambda: clf.fit(X, y)) < limit

    @pytest.mark.parametrize("p, queries", [(2.0, 300), (1.0, 10)])
    def test_knn_predict_stays_below_its_input(self, p, queries):
        # a block of a million shortlist distances would be a quarter of X,
        # and the block holds several such temporaries; for p != 2, one
        # query's differences from every row would each be as large as X
        rng = np.random.default_rng(23)
        X = rng.random((5000, 800))
        limit = 0.75 * X.nbytes
        clf = KnnClassifier(minkowski_p=p).fit(X, rng.integers(0, 3, 5000))
        Q = rng.random((queries, 800))
        assert self.traced_peak(lambda: clf.predict(Q)) < limit


@pytest.mark.parametrize("value", [math.nan, math.inf, 2.5])
@pytest.mark.parametrize("kind, name", [
    (KNN, "k"), (RF, "n_trees"), (RF, "max_depth"), (GBDT, "n_rounds"),
    (GBDT, "max_depth"), (GBDT, "max_bins"), (SVM, "max_iter")])
def test_integer_hyperparameter_must_be_whole(kind, name, value):
    # int() used to truncate 2.5 to 2 without a word and to raise a bare
    # ValueError or OverflowError for NaN and inf
    X, y = three_clusters(n_per=4)
    with pytest.raises(ParameterError, match=f"{name} must be .*whole"):
        make_classifier(kind, **{name: value}).fit(X, y)


@pytest.mark.parametrize("value", [True, np.True_])
@pytest.mark.parametrize("kind, name", [
    (KNN, "k"), (KNN, "minkowski_p"), (SVM, "C"), (RF, "n_trees"),
    (GBDT, "learning_rate")])
def test_number_hyperparameter_rejects_a_bool(kind, name, value):
    # True used to pass as 1: k = True ran as k = 1
    with pytest.raises(ParameterError, match=f"{name} must be"):
        make_classifier(kind, **{name: value}).check_params()


@pytest.mark.parametrize("cls, name", [
    (Preprocessor, "deskew_enabled"), (HogDescriptor, "signed_gradients"),
    (RandomForestClassifier, "bootstrap")])
def test_flag_hyperparameter_takes_only_a_bool(cls, name):
    # "no" and 2 used to be read as true, 0 as false
    def run(est):
        if isinstance(est, RandomForestClassifier):
            return est.fit(*three_clusters(n_per=4))
        return est.transform(np.zeros((1, 28, 28)))

    extra = {"n_trees": 3} if cls is RandomForestClassifier else {}
    for value in ("no", 2, 0):
        with pytest.raises(ParameterError,
                           match=f"{name} must be true or false"):
            run(cls(**{name: value}, **extra))
    run(cls(**{name: np.False_}, **extra))  # NumPy's bool is a bool


@pytest.mark.parametrize("kind", [RF, GBDT])
def test_negative_seed_rejected(kind):
    # numpy's generator takes no negative seed; this used to surface as its
    # bare ValueError
    X, y = three_clusters(n_per=4)
    with pytest.raises(ParameterError, match="seed must be >= 0"):
        make_classifier(kind, seed=-1).fit(X, y)


# every estimator's hyperparameters, in constructor order
_PARAM_NAMES = {
    Preprocessor: ("target_side", "gaussian_sigma", "deskew_enabled"),
    HogDescriptor: ("cell_side", "block_side", "n_bins", "block_stride",
                    "signed_gradients"),
    LbpDescriptor: ("neighbors", "radius", "mode"),
    GaborDescriptor: ("frequency", "theta", "bandwidth", "n_stds"),
    RawDescriptor: (),
    KnnClassifier: ("k", "minkowski_p"),
    SvmClassifier: ("C", "gamma", "tol", "max_iter"),
    RandomForestClassifier: ("n_trees", "max_depth", "max_features",
                             "bootstrap", "seed"),
    GradientBoostingClassifier: ("n_rounds", "max_depth", "learning_rate",
                                 "row_subsample", "col_subsample",
                                 "reg_lambda", "max_bins", "seed"),
}


@pytest.mark.parametrize("cls", list(_PARAM_NAMES), ids=lambda c: c.__name__)
def test_estimator_contract(cls):
    est = cls()
    params = est.get_params()
    assert tuple(params) == _PARAM_NAMES[cls]
    assert cls(**params).get_params() == params
    args = ", ".join(f"{k}={v!r}" for k, v in params.items())
    assert repr(est) == f"{cls.__name__}({args})"
    # identity equality: equal hyperparameters are still two estimators
    assert hash(est) == hash(est)
    assert est == est and est != cls()
