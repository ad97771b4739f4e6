import json

import numpy as np
import pytest

from digitbench import ParameterError, ParseError
from digitbench.classify import (GBDT, KINDS, KNN, RF, SVM, classifier_kind,
                                 make_classifier)
from digitbench.classify.io import FORMAT_VERSION, load_model, save_model


def three_clusters(seed=0, n_per=12):
    # tight blobs with non-contiguous labels to exercise class mapping
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 1.0], [0.0, 4.0, 2.0]])
    X = np.vstack([c + 0.3 * rng.standard_normal((n_per, 3))
                   for c in centers])
    y = np.repeat([2, 5, 9], n_per)
    return X, y


FIT_PARAMS = {
    KNN: {"k": 3},
    SVM: {"C": 10.0, "max_iter": 5000},
    RF: {"n_trees": 10, "max_depth": 6, "seed": 4},
    GBDT: {"n_rounds": 5, "max_depth": 3, "seed": 4},
}

# the model file format: saved array dtypes per kind besides the JSON "meta"
# string; files written earlier load only while these stay the same
_TREES = {"tree_offsets": "int64", "node_feature": "int32",
          "node_threshold": "float64", "node_left": "int32",
          "node_right": "int32", "node_value": "float64"}
LAYOUT = {
    KNN: {"train_X": "float64", "train_y": "int64"},
    SVM: {"support": "int64", "support_vectors": "float64",
          "dual_coef": "float64", "intercept": "float64", "n_iter": "int64",
          "gamma": "float64", "converged": "bool"},
    RF: {"n_features": "int64", **_TREES},
    GBDT: {"n_features": "int64", "init_scores": "float64",
           "loss_trace": "float64", **_TREES},
}


class TestRoundTrip:
    @pytest.mark.parametrize("kind", KINDS)
    def test_reload_predicts_identically(self, kind, tmp_path):
        X, y = three_clusters()
        queries = three_clusters(seed=1)[0]
        model = make_classifier(kind, **FIT_PARAMS[kind]).fit(X, y)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert classifier_kind(loaded) == kind
        assert np.array_equal(loaded.classes_, model.classes_)
        assert loaded.get_params() == model.get_params()
        assert (loaded.predict_scores(queries).tobytes()
                == model.predict_scores(queries).tobytes())
        assert np.array_equal(loaded.predict(queries), model.predict(queries))

    def test_svm_solver_state_preserved(self, tmp_path):
        X, y = three_clusters()
        model = make_classifier(SVM, **FIT_PARAMS[SVM]).fit(X, y)
        path = tmp_path / "svm.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.gamma_ == model.gamma_
        assert loaded.converged_ == model.converged_
        assert np.array_equal(loaded.n_iter_, model.n_iter_)
        assert np.array_equal(loaded.intercept_, model.intercept_)
        assert np.array_equal(loaded.support_, model.support_)

    def test_gbdt_rounds_rechunked(self, tmp_path):
        X, y = three_clusters()
        model = make_classifier(GBDT, **FIT_PARAMS[GBDT]).fit(X, y)
        path = tmp_path / "gbdt.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert len(loaded.trees_) == 15  # 5 rounds x 3 classes, round-major
        assert np.array_equal(loaded.loss_trace_, model.loss_trace_)
        assert np.array_equal(loaded.init_scores_, model.init_scores_)

    def test_single_class_gbdt_round_trip(self, tmp_path):
        X, _ = three_clusters()
        model = make_classifier(GBDT, n_rounds=3).fit(X, np.full(len(X), 7))
        path = tmp_path / "gbdt1.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.trees_ == []
        assert np.array_equal(loaded.loss_trace_, model.loss_trace_)
        assert (loaded.predict_scores(X).tobytes()
                == model.predict_scores(X).tobytes())
        assert np.all(loaded.predict(X) == 7)

    @pytest.mark.parametrize("kind", KINDS)
    def test_file_layout_unchanged(self, kind, tmp_path):
        X, y = three_clusters()
        model = make_classifier(kind, **FIT_PARAMS[kind]).fit(X, y)
        save_model(model, tmp_path / "model.npz")
        with np.load(tmp_path / "model.npz", allow_pickle=False) as data:
            assert data["meta"].dtype.kind == "U"
            got = {k: data[k].dtype.name for k in data.files if k != "meta"}
        assert got == LAYOUT[kind]

    @pytest.mark.parametrize("kind,key", [
        (KNN, "train_y"), (SVM, "gamma"), (RF, "node_value"),
        (GBDT, "loss_trace"), (RF, "tree_offsets"), (GBDT, "tree_offsets")])
    def test_missing_array_is_parse_error(self, kind, key, tmp_path):
        X, y = three_clusters()
        model = make_classifier(kind, **FIT_PARAMS[kind]).fit(X, y)
        save_model(model, tmp_path / "model.npz")
        with np.load(tmp_path / "model.npz", allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files if k != key}
        np.savez(tmp_path / "damaged.npz", **arrays)
        with pytest.raises(ParseError, match="not a recognized model file"):
            load_model(tmp_path / "damaged.npz")

    def test_rejects_future_format_version(self, tmp_path):
        X, y = three_clusters()
        model = make_classifier(KNN).fit(X, y)
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files if k != "meta"}
            meta = json.loads(str(data["meta"]))
        meta["format_version"] = FORMAT_VERSION + 1
        tampered = tmp_path / "tampered.npz"
        np.savez(tampered, meta=json.dumps(meta), **arrays)
        with pytest.raises(ParseError, match="format version"):
            load_model(tampered)

    def test_rejects_unknown_param(self, tmp_path):
        X, y = three_clusters()
        save_model(make_classifier(KNN).fit(X, y), tmp_path / "model.npz")
        with np.load(tmp_path / "model.npz", allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files if k != "meta"}
            meta = json.loads(str(data["meta"]))
        meta["params"]["depth"] = 3
        np.savez(tmp_path / "tampered.npz", meta=json.dumps(meta), **arrays)
        with pytest.raises(ParseError, match="not a recognized model file"):
            load_model(tmp_path / "tampered.npz")

    def test_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_text("not a model")
        with pytest.raises(ParseError):
            load_model(path)

    def test_rejects_npz_without_meta(self, tmp_path):
        path = tmp_path / "bare.npz"
        np.savez(path, values=np.arange(3))
        with pytest.raises(ParseError):
            load_model(path)


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

    def test_kind_of_each_instance(self):
        for kind in KINDS:
            assert classifier_kind(make_classifier(kind)) == kind


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

