import numpy as np
import pytest

from digitbench import ParameterError
from digitbench.classify import GBDT, KNN, RF, SVM, make_classifier


def three_clusters(seed=0, n_per=12):
    # tight blobs with non-contiguous labels to exercise class mapping
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 1.0], [0.0, 4.0, 2.0]])
    X = np.vstack([c + 0.3 * rng.standard_normal((n_per, 3))
                   for c in centers])
    y = np.repeat([2, 5, 9], n_per)
    return X, y


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

