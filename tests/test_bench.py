import os
import weakref
import zipfile
from types import SimpleNamespace

import numpy as np
import pytest

from digitbench import ParameterError, ParseError, bench, cli
from digitbench.bench import (CellResult, GridResult, best_cells, emit_report,
                              feature_cache_file, format_cells_csv,
                              format_markdown, format_plot_csv, run_grid)
from digitbench.classify import (GradientBoostingClassifier, KnnClassifier,
                                 RandomForestClassifier, SvmClassifier,
                                 make_classifier)
from digitbench.config import (RunConfig, coerce_scalar, config_from_mapping,
                               parse_config_text)
from digitbench.datasets import (CACHE_VERSION, SplitSpec, file_digest,
                                 load_feature_cache, preprocess_all,
                                 save_feature_cache, split_indices,
                                 synthetic_glyphs)
from digitbench.features import (GaborDescriptor, HogDescriptor,
                                 LbpDescriptor, RawDescriptor, extract_batch,
                                 make_descriptor)
from digitbench.imaging import Preprocessor

BUILT = (HogDescriptor, LbpDescriptor, GaborDescriptor, RawDescriptor,
         Preprocessor)


def write_csv(path, images, labels):
    """A label-first 8-bit CSV of the given images, without a header."""
    quantized = np.clip(np.rint(images * 255), 0, 255).astype(int)
    rows = [",".join([str(label)] + [str(v) for v in pixels.ravel()])
            for label, pixels in zip(labels, quantized)]
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def split_csvs(tmp_path):
    """Dataset and test-file config keys for 30 + 10 glyph CSV rows."""
    images, labels = synthetic_glyphs(40, seed=0)
    paths = {"dataset_path": str(tmp_path / "train.csv"),
             "test_path": str(tmp_path / "test.csv")}
    write_csv(paths["dataset_path"], images[:30], labels[:30])
    write_csv(paths["test_path"], images[30:], labels[30:])
    return {"synthetic": None, **paths}


def count_calls(monkeypatch, name):
    """Wrap ``bench.<name>``; returns the list its calls append to."""
    calls, real = [], getattr(bench, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(bench, name, counted)
    return calls


def forbid_loading(monkeypatch):
    """Make every way of reading or generating a dataset fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("a warm run must not load the dataset")

    for name in ("load_csv", "synthetic_glyphs", "synthetic_squares"):
        monkeypatch.setattr(bench, name, refuse)


def forbid_preprocessing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the cached stack must not be preprocessed")

    monkeypatch.setattr(bench, "preprocess_all", refuse)


def count_builds(monkeypatch, classes=BUILT):
    """{class name: instances built from here on} for each of ``classes``."""
    built = dict.fromkeys((cls.__name__ for cls in classes), 0)
    for cls in classes:
        def counted(self, *args, real=cls.__init__, **kwargs):
            built[type(self).__name__] += 1
            real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


def small_cfg(**overrides):
    base = dict(synthetic="squares", samples=80,
                features=[("hog", {}), ("gabor", {})],
                classifiers=[("knn", {"k": 3}), ("svm", {})],
                split=SplitSpec(0.8, seed=0))
    base.update(overrides)
    return RunConfig(**base)


class TestConfigFormat:
    def test_scalar_coercion(self):
        assert coerce_scalar("true") is True
        assert coerce_scalar("off") is False
        assert coerce_scalar("42") == 42
        assert coerce_scalar("0.25") == 0.25
        assert coerce_scalar("scale") == "scale"

    def test_full_file_round_trip(self, tmp_path):
        text = """
        # benchmark demo
        dataset.synthetic = glyphs
        dataset.samples = 500
        features = hog, lbp           # order defines report order
        feature.hog.cell_side = 7
        classifiers = svm, rf
        classifier.rf.n_trees = 25
        split.seed = 9
        split.train_fraction = 0.75
        preprocess.deskew = false
        output.dir = reports
        raw_baseline = true
        """
        p = tmp_path / "run.cfg"
        p.write_text(text)
        cfg = config_from_mapping(parse_config_text(p.read_text()))
        assert cfg.synthetic == "glyphs" and cfg.samples == 500
        assert cfg.features == [("hog", {"cell_side": 7}), ("lbp", {})]
        assert cfg.classifiers == [("svm", {}), ("rf", {"n_trees": 25})]
        assert cfg.split.seed == 9
        assert cfg.split.train_fraction == 0.75
        assert cfg.preprocess == {"deskew_enabled": False}
        assert cfg.out_dir == "reports"
        assert cfg.raw_baseline is True

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParseError, match="unknown config key"):
            config_from_mapping({"seeds": 3})
        with pytest.raises(ParseError, match="unknown config key"):
            config_from_mapping({"dataset.url": "x"})
        with pytest.raises(ParseError, match="unknown config key"):
            config_from_mapping({"split.ratio": 0.5})
        # top-level keys take no dotted suffix, and cells run serially
        for key, value in [("features.extra", "lbp"), ("jobs", 2),
                           ("classifiers.typo", "svm"),
                           ("raw_baseline.on", True)]:
            with pytest.raises(ParseError,
                               match=f"unknown config key '{key}'"):
                config_from_mapping({"dataset.synthetic": "glyphs",
                                     key: value})

    def test_params_for_unlisted_entries_rejected(self):
        with pytest.raises(ParseError, match="not in the feature list"):
            config_from_mapping({"dataset.synthetic": "glyphs",
                                 "features": ["hog"],
                                 "feature.lbp.mode": "flat"})
        with pytest.raises(ParseError, match="not in the classifier list"):
            config_from_mapping({"dataset.synthetic": "glyphs",
                                 "classifiers": ["svm"],
                                 "classifier.knn.k": 3})

    def test_unknown_parameter_names_rejected(self):
        # used to load, preprocess and split the data, then end in a bare
        # TypeError from extract_batch, or in a failed knn cell
        for key in ("feature.hog.cellside", "classifier.knn.kk"):
            with pytest.raises(ParameterError, match=f"'{key}'"):
                config_from_mapping({"dataset.synthetic": "squares",
                                     "features": ["hog"],
                                     "classifiers": ["knn"],
                                     key: 4}).validate()

    def test_unknown_parameter_rejected_before_any_data(self, monkeypatch):
        def refuse(cfg):
            raise AssertionError("read the data of an invalid config")

        monkeypatch.setattr(bench, "load_run_images", refuse)
        cfg = RunConfig(synthetic="squares", samples=20,
                        features=[("hog", {"cellside": 4})],
                        classifiers=[("knn", {})])
        with pytest.raises(ParameterError, match="'feature.hog.cellside'"):
            run_grid(cfg)

    @pytest.mark.parametrize("cached", [False, True])
    def test_bad_kernel_value_rejected_before_any_data(self, tmp_path,
                                                       monkeypatch, cached):
        # each used to load the data, then raise where the kernel first ran
        # (with a cache directory, the two sigma cases still did)
        def refuse(cfg):
            raise AssertionError("read the data of an invalid config")

        monkeypatch.setattr(bench, "load_run_images", refuse)
        cache, out = tmp_path / "cache", tmp_path / "out"
        lines = (f"dataset.synthetic = squares\nclassifiers = knn\n"
                 f"output.dir = {out}\n"
                 + (f"output.cache_dir = {cache}\n" if cached else ""))
        for key, value, message in [
                ("preprocess.gaussian_sigma", 1e-170, "sigma is too small"),
                ("preprocess.gaussian_sigma", 1e300, r"kernel radius 3 \*"),
                ("feature.gabor.frequency", 1e200, r"frequency=1e\+200"),
                ("feature.hog.cell_side", 5, "cell_side 5 must divide"),
                ("preprocess.target_side", 30, "cell_side 4 must divide "
                                               "the image sides, got 30x30"),
                ("feature.lbp.radius", 14, "radius must be positive and < 14"),
                ("feature.lbp.mode", "bogus", "mode must be one of")]:
            _, *method, param = key.split(".")  # a config built in code
            features = [(m, {param: value} if [m] == method else {})
                        for m in ("hog", "lbp", "gabor")]
            cfg = small_cfg(cache_dir=str(cache) if cached else None,
                            features=features,
                            preprocess={} if method else {param: value})
            with pytest.raises(ParameterError, match=message):
                run_grid(cfg)
            (tmp_path / "run.cfg").write_text(f"{lines}{key} = {value}\n")
            assert cli.main(["bench", "--config",
                             str(tmp_path / "run.cfg")]) == 2
            assert not cache.exists() and not out.exists()

    def test_bad_classifier_value_rejected_before_any_data(self, monkeypatch):
        # each used to pass validate, load the data and fail its cell at fit
        def refuse(cfg):
            raise AssertionError("read the data of an invalid config")

        monkeypatch.setattr(bench, "load_run_images", refuse)
        for kind, params, message in [
                ("knn", {"k": 0}, "classifier.knn: k must be >= 1"),
                ("svm", {"C": [1, 10]}, r"C must be positive and finite, "
                                        r"got \[1, 10\]"),
                ("svm", {"gamma": "auto"}, "gamma must be positive"),
                ("rf", {"max_features": "log2"}, "max_features must be"),
                ("gbdt", {"max_bins": 300}, "max_bins must be in")]:
            cfg = RunConfig(synthetic="squares", samples=20,
                            features=[("hog", {})],
                            classifiers=[(kind, params)])
            with pytest.raises(ParameterError, match=message):
                run_grid(cfg)

    def test_repeated_names_rejected_before_any_data(self, monkeypatch):
        # a config built in code used to skip this rule: two knn cells wrote
        # two "hog,knn" rows, and two hog entries ended in a bare KeyError
        def refuse(cfg):
            raise AssertionError("read the data of an invalid config")

        monkeypatch.setattr(bench, "load_run_images", refuse)
        for key, entries in [
                ("features", [("hog", {}), ("hog", {"cell_side": 7})]),
                ("classifiers", [("knn", {"k": 1}), ("knn", {"k": 15})])]:
            with pytest.raises(ParameterError, match=f"config key '{key}' "
                               "lists '(hog|knn)' twice"):
                run_grid(small_cfg(**{key: entries}))

    def test_split_set_in_code_rejected_before_any_data(self, monkeypatch):
        # a split value set after construction used to skip SplitSpec's
        # checks and reach the data
        def refuse(cfg):
            raise AssertionError("read the data of an invalid config")

        monkeypatch.setattr(bench, "load_run_images", refuse)
        for name, value, message in [
                ("seed", -1, "seed must be >= 0"),
                ("train_fraction", 1.5, "train_fraction must be positive")]:
            cfg = small_cfg()
            setattr(cfg.split, name, value)
            with pytest.raises(ParameterError, match=message):
                run_grid(cfg)

    def test_repeated_names_rejected(self):
        for key, names in [("features", ["hog", "lbp", "hog"]),
                           ("classifiers", ["knn", "svm", "knn"])]:
            with pytest.raises(ParameterError, match=f"config key '{key}' "
                               f"lists '{names[0]}' twice"):
                config_from_mapping({"dataset.synthetic": "glyphs",
                                     key: names}).validate()

    def test_line_errors(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_config_text("jobs = 1\nnot a pair\n")
        with pytest.raises(ParseError, match="duplicate"):
            parse_config_text("jobs = 1\njobs = 2\n")
        with pytest.raises(ParseError, match="empty key"):
            parse_config_text("= 3\n")

    def test_single_feature_string_accepted(self):
        cfg = config_from_mapping({"dataset.synthetic": "squares",
                                   "features": "hog",
                                   "classifiers": "knn"})
        assert cfg.features == [("hog", {})]
        assert cfg.classifiers == [("knn", {})]

    def test_wrong_typed_values_name_the_key(self):
        for key, value in [("dataset.samples", "x"),
                           ("split.train_fraction", "abc"),
                           ("preprocess.gaussian_sigma", True)]:
            with pytest.raises(ParseError, match=f"config key '{key}'"):
                config_from_mapping({"dataset.synthetic": "glyphs",
                                     key: value})

    def test_integer_keys_take_only_integral_numbers(self):
        for key in ("dataset.samples", "preprocess.target_side",
                    "split.seed"):
            for value in (1.5, "3", True):
                with pytest.raises(ParseError, match="needs an integer"):
                    config_from_mapping({"dataset.synthetic": "glyphs",
                                         key: value})
        cfg = config_from_mapping({"dataset.synthetic": "glyphs",
                                   "split.seed": 4.0})
        assert cfg.split.seed == 4 and type(cfg.split.seed) is int

    def test_side_is_no_config_key(self):
        # a CSV's side comes from its rows
        with pytest.raises(ParseError,
                           match="unknown config key 'dataset.side'"):
            config_from_mapping({"dataset.path": "d.csv",
                                 "dataset.side": 28})

    @pytest.mark.parametrize("key, value", [
        ("classifier.knn.k", "yes"), ("classifier.svm.C", "on"),
        ("feature.hog.cell_side", "yes"), ("classifier.rf.bootstrap", "2"),
        ("feature.hog.signed_gradients", "nope")])
    def test_bool_and_number_values_not_swapped(self, key, value):
        # each used to run: k = yes as k = 1, cell_side = yes as 1-pixel
        # cells, bootstrap = 2 and signed_gradients = nope as true
        section, name, param = key.split(".")
        cfg = config_from_mapping(parse_config_text(
            f"dataset.synthetic = squares\n{section}s = {name}\n"
            f"{key} = {value}\n"))
        with pytest.raises(ParameterError, match=f"{param} must be"):
            cfg.validate()

    def test_raw_baseline_set_in_code_takes_only_a_bool(self):
        # "false" used to build the raw descriptor, as for True
        with pytest.raises(ParameterError,
                           match="raw_baseline must be true or false"):
            RunConfig(synthetic="squares", raw_baseline="false").validate()
        cfg = RunConfig(synthetic="squares", raw_baseline=np.False_)
        assert "raw" not in cfg.validate().descriptors_

    def test_boolean_keys_take_only_boolean_tokens(self):
        for key in ("raw_baseline", "split.stratified", "preprocess.deskew"):
            for value in ("nope", 2, 0, 1.0):
                with pytest.raises(ParseError, match="needs true/false"):
                    config_from_mapping({"dataset.synthetic": "glyphs",
                                         key: value})
        cfg = config_from_mapping(parse_config_text(
            "dataset.synthetic = glyphs\nraw_baseline = off\n"
            "split.stratified = no\npreprocess.deskew = yes\n"))
        assert cfg.raw_baseline is False and cfg.split.stratified is False
        assert cfg.preprocess == {"deskew_enabled": True}

    def test_validation_errors(self):
        with pytest.raises(ParameterError, match="dataset.*got neither"):
            RunConfig().validate()
        # the file used to run and the synthetic set was ignored
        with pytest.raises(ParameterError, match="dataset.*got both"):
            RunConfig(dataset_path="d.csv", synthetic="glyphs").validate()
        with pytest.raises(ParameterError, match="feature"):
            RunConfig(synthetic="glyphs", features=[]).validate()
        with pytest.raises(ParameterError, match="classifier"):
            RunConfig(synthetic="glyphs", classifiers=[]).validate()
        with pytest.raises(ParameterError, match="unknown feature"):
            RunConfig(synthetic="glyphs",
                      features=[("sift", {})]).validate()


class TestRunGrid:
    def test_cell_count_and_reports(self):
        res = run_grid(small_cfg())
        assert len(res.cells) == 4
        assert res.all_ok
        assert res.n_train == 64 and res.n_test == 16
        for cell in res.cells:
            assert 0.0 <= cell.report.accuracy <= 1.0

    def test_each_estimator_built_once(self, tmp_path, monkeypatch):
        # a cached run used to build each descriptor 4 times and the
        # Preprocessor 6 times; validate's objects now serve the whole run
        built = count_builds(monkeypatch)
        cfg = small_cfg(samples=40, cache_dir=str(tmp_path / "cache"),
                        raw_baseline=True, classifiers=[("knn", {"k": 1})],
                        features=[("hog", {}), ("lbp", {}), ("gabor", {})])
        assert run_grid(cfg).all_ok
        assert built == dict.fromkeys(built, 1)

    def test_extract_builds_only_its_method(self, tmp_path, monkeypatch,
                                            capsys):
        # extract used to validate the default hog, lbp and gabor list
        built = count_builds(monkeypatch)
        assert cli.main(["extract", "--synthetic", "squares", "--samples",
                         "20", "--method", "lbp",
                         "--out", str(tmp_path / "cache")]) == 0
        # raw's parameters key the cached stack
        assert built == {"HogDescriptor": 0, "LbpDescriptor": 1,
                         "GaborDescriptor": 0, "RawDescriptor": 1,
                         "Preprocessor": 1}
        assert "cached 20 x 784 lbp features" in capsys.readouterr().out

    def test_bench_builds_each_once(self, tmp_path, monkeypatch, capsys):
        # the CLI used to validate in config_from_mapping and again in
        # run_grid: each descriptor and the Preprocessor 2 times, each
        # classifier once more than its cells
        classifiers = (KnnClassifier, SvmClassifier, RandomForestClassifier,
                       GradientBoostingClassifier)
        built = count_builds(monkeypatch, BUILT + classifiers)
        assert cli.main(["bench", "--synthetic", "squares", "--samples", "20",
                         "--out", str(tmp_path / "out")]) == 0
        assert built.pop("RawDescriptor") == 0
        for cls in classifiers:  # validate's, then one per feature's cell
            assert built.pop(cls.__name__) == 4
        assert built == dict.fromkeys(built, 1)

    def test_visualize_builds_only_its_method(self, tmp_path, monkeypatch,
                                              capsys):
        # visualize used to validate the default hog, lbp and gabor list,
        # then build its method's descriptor again
        built = count_builds(monkeypatch)
        assert cli.main(["visualize", "--synthetic", "squares", "--samples",
                         "20", "--method", "lbp",
                         "--out", str(tmp_path / "viz")]) == 0
        assert built == {"HogDescriptor": 0, "LbpDescriptor": 1,
                         "GaborDescriptor": 0, "RawDescriptor": 0,
                         "Preprocessor": 1}

    def test_raw_baseline_adds_cells(self):
        res = run_grid(small_cfg(raw_baseline=True))
        assert len(res.cells) == 6
        assert {c.feature for c in res.cells} == {"hog", "gabor", "raw"}

    def test_failed_cell_does_not_abort(self):
        # k above the 64 train rows fails at predict, for both features
        cfg = small_cfg(classifiers=[("knn", {"k": 1000}), ("svm", {})])
        res = run_grid(cfg)
        assert not res.all_ok
        failed = [c for c in res.cells if not c.ok]
        assert len(failed) == 2
        assert all("k must be in [1, 64]" in c.error for c in failed)
        assert sum(c.ok for c in res.cells) == 2

    def test_determinism_across_runs(self):
        blobs = []
        for _ in range(2):
            res = run_grid(small_cfg(samples=60))
            blobs.append(format_cells_csv(res) + format_plot_csv(res))
        assert blobs[0] == blobs[1]

    def test_explicit_test_file(self, tmp_path):
        cfg = small_cfg(**split_csvs(tmp_path),
                        classifiers=[("knn", {"k": 1})])
        res = run_grid(cfg)
        assert res.n_train == 30 and res.n_test == 10
        assert res.all_ok

    def test_test_file_hashed_once(self, tmp_path, monkeypatch):
        # one digest of the test CSV serves every method's cache file
        paths = split_csvs(tmp_path)
        hashed = []

        def counting_digest(path):
            hashed.append(str(path))
            return file_digest(path)

        monkeypatch.setattr(bench, "file_digest", counting_digest)
        run_grid(small_cfg(**paths, cache_dir=str(tmp_path / "cache"),
                           features=[("hog", {}), ("lbp", {}), ("gabor", {})],
                           classifiers=[("knn", {"k": 1})]))
        assert hashed.count(paths["test_path"]) == 1
        # three methods and the features-raw-* stack entry
        assert len(os.listdir(tmp_path / "cache")) == 4

    def test_feature_cache_reused(self, tmp_path):
        cache = tmp_path / "cache"
        cfg = small_cfg(cache_dir=str(cache), samples=40,
                        features=[("hog", {})],
                        classifiers=[("knn", {"k": 1})])
        first = run_grid(cfg)
        files = sorted(os.listdir(cache))
        assert len(files) == 2  # hog and the features-raw-* stack entry
        second = run_grid(small_cfg(cache_dir=str(cache), samples=40,
                                    features=[("hog", {})],
                                    classifiers=[("knn", {"k": 1})]))
        assert sorted(os.listdir(cache)) == files
        assert (format_cells_csv(first) == format_cells_csv(second))

    def test_cache_keyed_on_preprocessing(self, tmp_path):
        # a shared cache must not hand deskewed features to a run that
        # turned deskewing off
        cache = tmp_path / "cache"
        for deskew in (True, False):
            run_grid(small_cfg(synthetic="glyphs", samples=40,
                               cache_dir=str(cache), features=[("hog", {})],
                               classifiers=[("knn", {"k": 1})],
                               preprocess={"deskew_enabled": deskew}))
        files = sorted(p.name for p in cache.glob("features-hog-*"))
        assert len(files) == 2
        on, off = (load_feature_cache(cache / f)[0] for f in files)
        assert not np.array_equal(on, off)
        images, _ = synthetic_glyphs(40, seed=0)
        expect = extract_batch(
            preprocess_all(images, Preprocessor(deskew_enabled=False)), "hog")
        assert any(np.array_equal(X, expect) for X in (on, off))

    def test_truncated_cache_file_recomputed(self, tmp_path):
        # an interrupted write must not break every later run
        cfg = small_cfg(cache_dir=str(tmp_path / "cache"), samples=40,
                        features=[("hog", {})]).validate()
        expect = bench.feature_matrices(cfg, ["hog"], {})[0]["hog"]
        (path,) = (tmp_path / "cache").glob("features-hog-*")
        (stack,) = (tmp_path / "cache").glob("features-raw-*")
        path.write_bytes(path.read_bytes()[:100])
        assert load_feature_cache(path) is None
        again = bench.feature_matrices(cfg, ["hog"], {})[0]["hog"]
        assert np.array_equal(again, expect)
        assert sorted(os.listdir(tmp_path / "cache")) == sorted(
            [path.name, stack.name])
        assert np.array_equal(load_feature_cache(path)[0], expect)


class TestWarmCache:
    @pytest.mark.parametrize("source", ["csv", "synthetic"])
    def test_warm_run_loads_no_dataset(self, tmp_path, monkeypatch, capsys,
                                       source):
        cache = str(tmp_path / "cache")
        if source == "csv":
            images, labels = synthetic_glyphs(40, seed=0)
            write_csv(tmp_path / "d.csv", images, labels)
            dataset = {"synthetic": None,
                       "dataset_path": str(tmp_path / "d.csv")}
            flags = ["--dataset", str(tmp_path / "d.csv")]
        else:
            dataset = {"samples": 40}
            flags = ["--synthetic", "squares", "--samples", "40"]
        cfg = small_cfg(**dataset, cache_dir=cache,
                        classifiers=[("knn", {"k": 1})])
        cold = run_grid(cfg)
        forbid_loading(monkeypatch)
        warm = run_grid(cfg)
        assert format_cells_csv(warm) == format_cells_csv(cold)
        assert format_plot_csv(warm) == format_plot_csv(cold)
        assert warm.source == cold.source
        assert list(warm.stage_seconds) == ["load", "preprocess", "extract",
                                            "train_eval"]
        assert cli.main(["extract", *flags, "--method", "hog",
                         "--out", cache]) == 0
        assert "cached 40 x 1296 hog features" in capsys.readouterr().out
        # hog, gabor and the features-raw-* stack entry
        assert len(os.listdir(cache)) == 3

    def test_warm_run_keeps_test_file_split(self, tmp_path, monkeypatch):
        cfg = small_cfg(**split_csvs(tmp_path),
                        cache_dir=str(tmp_path / "cache"),
                        classifiers=[("knn", {"k": 1}), ("svm", {})])
        cold = run_grid(cfg)
        forbid_loading(monkeypatch)
        warm = run_grid(cfg)
        assert (warm.n_train, warm.n_test) == (30, 10)
        assert format_cells_csv(warm) == format_cells_csv(cold)

    @pytest.mark.parametrize("stale", ["version 2", "no row count",
                                       "version not a scalar",
                                       "row count not a scalar"])
    def test_stale_cache_file_is_a_miss_and_rewritten(self, tmp_path,
                                                      monkeypatch, stale):
        # a 1-d version or row count used to end in a TypeError from int()
        cfg = small_cfg(samples=40, cache_dir=str(tmp_path / "cache"),
                        features=[("hog", {})],
                        classifiers=[("knn", {"k": 1})])
        cold = run_grid(cfg)
        (path,) = (tmp_path / "cache").glob("features-hog-*")
        (stack,) = (tmp_path / "cache").glob("features-raw-*")
        X, y, rows = load_feature_cache(path)
        fields = {"version": np.array(2), "features": X, "labels": y,
                  "rows": np.array(rows)}
        if stale != "version 2":
            fields["version"] = np.array(CACHE_VERSION)
        if stale == "no row count":
            del fields["rows"]
        elif stale == "version not a scalar":
            fields["version"] = np.array([CACHE_VERSION])
        elif stale == "row count not a scalar":
            fields["rows"] = np.array([rows])
        np.savez(path, **fields)
        assert load_feature_cache(path) is None
        loads = count_calls(monkeypatch, "synthetic_squares")
        warm = run_grid(cfg)
        assert len(loads) == 0  # hog is extracted from the cached stack
        assert format_cells_csv(warm) == format_cells_csv(cold)
        assert sorted(os.listdir(tmp_path / "cache")) == sorted(
            [path.name, stack.name])
        X2, y2, rows2 = load_feature_cache(path)
        assert np.array_equal(X2, X) and np.array_equal(y2, y)
        assert rows2 == rows == 40

    def test_write_deletes_other_versions_files(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        fields = {"features": np.zeros((2, 3)), "labels": np.arange(2),
                  "rows": np.array(2)}
        np.savez(cache / "features-hog-0000000000000000.npz",
                 version=np.array(2), **fields)
        np.savez(cache / "features-lbp-1111111111111111.npz",
                 version=np.array(CACHE_VERSION), **fields)
        (cache / "features-hog-2222222222222222.npz.7.tmp").write_text("")
        assert cli.main(["extract", "--synthetic", "squares", "--samples",
                         "40", "--method", "hog", "--out", str(cache)]) == 0
        kept = {"features-hog-2222222222222222.npz.7.tmp",
                "features-lbp-1111111111111111.npz"}
        (written,) = {p.name for p in cache.glob("features-hog-*")} - kept
        assert written != "features-hog-0000000000000000.npz"
        # plus the features-raw-* stack entry
        assert len(os.listdir(cache)) == 4
        assert load_feature_cache(cache / written)[0].shape == (40, 1296)

    @pytest.mark.parametrize("member", ["version", "rows"])
    def test_sweep_leaves_a_non_scalar_entry_alone(self, tmp_path, member):
        # the sweep's int() used to raise a TypeError through extract
        cache = tmp_path / "cache"
        cache.mkdir()
        fields = {"version": np.array(CACHE_VERSION),
                  "features": np.zeros((3, 2)), "labels": np.arange(3),
                  "rows": np.array(3)}
        fields[member] = fields[member].reshape(1)
        odd = cache / "features-lbp-1111111111111111.npz"
        np.savez(odd, **fields)
        assert cli.main(["extract", "--synthetic", "squares", "--samples",
                         "40", "--method", "hog", "--out", str(cache)]) == 0
        assert odd.exists()
        # plus the new hog file and the features-raw-* stack entry
        assert len(os.listdir(cache)) == 3

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch,
                                              capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        foreign = cache / "features-hog-2222222222222222.npz.7.tmp"
        foreign.write_text("")

        # the first member write fails, as on a full disk; the foreign
        # .tmp is another writer's and stays
        def full_disk(self, data):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(zipfile._ZipWriteFile, "write", full_disk)
        assert cli.main(["extract", "--synthetic", "squares", "--samples",
                         "40", "--method", "hog", "--out", str(cache)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert os.listdir(cache) == [foreign.name]

    def test_cache_key_holds_the_full_digest(self, tmp_path, monkeypatch):
        # two files whose digests share the 12 characters a report shows
        monkeypatch.setattr(bench, "file_digest",
                            lambda path: "0" * 12 + file_digest(path)[12:])
        cache = str(tmp_path / "cache")
        results = []
        for seed in (0, 1):
            os.makedirs(tmp_path / str(seed))
            path = tmp_path / str(seed) / "data.csv"
            write_csv(path, *synthetic_glyphs(40, seed=seed))
            results.append(run_grid(small_cfg(
                synthetic=None, dataset_path=str(path), cache_dir=cache,
                features=[("hog", {})], classifiers=[("knn", {"k": 1})])))
        # a hog file and a features-raw-* stack entry per dataset
        assert len(os.listdir(cache)) == 4
        assert {r.source for r in results} == {"data.csv:000000000000"}

    @pytest.mark.parametrize("tamper", ["reversed labels", "fewer labels",
                                        "other row count", "stack labels",
                                        "short matrix", "short stack",
                                        "narrow matrix", "wide matrix",
                                        "narrow stack"])
    def test_disagreeing_cache_files_fall_back_to_loading(self, tmp_path,
                                                          monkeypatch,
                                                          tamper):
        # "short matrix" used to end in an IndexError at the reorder, and
        # "short stack" and "narrow stack" in a ValueError at its reshape;
        # a narrow or wide matrix used to be fitted as it was
        cache = tmp_path / "cache"
        cfg = small_cfg(samples=40, cache_dir=str(cache),
                        features=[("hog", {}), ("lbp", {})],
                        classifiers=[("knn", {"k": 1})])
        cold = run_grid(cfg)
        (lbp,) = cache.glob("features-lbp-*.npz")
        (stack,) = cache.glob("features-raw-*.npz")
        X, y, rows = load_feature_cache(lbp)
        images = load_feature_cache(stack)[0]
        if tamper in ("short stack", "narrow stack"):
            # true labels and row count, one image or one pixel column
            # short; lbp comes from it
            save_feature_cache(stack, images[:-1] if tamper == "short stack"
                               else images[:, :-1], y, rows)
            os.remove(lbp)
        else:
            wide = np.hstack([X, X[:, :1]])
            save_feature_cache(lbp, *{"reversed labels": (X, y[::-1], rows),
                                      "fewer labels": (X, y[:-1], rows),
                                      "other row count": (X, y, rows - 1),
                                      "stack labels": (X, y[::-1], rows),
                                      "short matrix": (X[:-1], y, rows),
                                      "narrow matrix": (X[:, :5], y, rows),
                                      "wide matrix": (wide, y, rows)}[tamper])
        if tamper == "stack labels":
            # the stack then agrees with the lbp file but not the hog file
            save_feature_cache(stack, images, y[::-1], rows)
        loads = count_calls(monkeypatch, "synthetic_squares")
        extracted = count_calls(monkeypatch, "extract_batch")
        warm = run_grid(cfg)
        assert len(loads) == 1
        assert [args[1] for args in extracted] == ["lbp"]
        assert format_cells_csv(warm) == format_cells_csv(cold)
        assert np.array_equal(load_feature_cache(lbp)[1], y)
        assert load_feature_cache(lbp)[2] == rows
        assert load_feature_cache(lbp)[0].tobytes() == X.tobytes()
        if tamper in ("stack labels", "short stack", "narrow stack"):
            # preprocessed again
            assert np.array_equal(load_feature_cache(stack)[1], y)
            assert load_feature_cache(stack)[0].tobytes() == images.tobytes()

    @pytest.mark.parametrize("test_file", [False, True])
    @pytest.mark.parametrize("method", ["hog", "lbp", "gabor"])
    def test_matrix_from_cached_stack_is_identical(self, tmp_path,
                                                   monkeypatch, method,
                                                   test_file):
        paths = split_csvs(tmp_path)
        if not test_file:
            paths["test_path"] = None
        other = "lbp" if method == "hog" else "hog"

        def matrix(m, cache_dir, stage):
            cfg = small_cfg(**paths, cache_dir=cache_dir,
                            features=[(m, {})]).validate()
            return bench.feature_matrices(cfg, [m], stage)[0][m]

        cold = matrix(method, None, {})
        cache = str(tmp_path / "cache")
        matrix(other, cache, {})  # writes the stack
        forbid_loading(monkeypatch)
        forbid_preprocessing(monkeypatch)
        stage = {}
        warm = matrix(method, cache, stage)
        assert warm.shape == cold.shape and warm.dtype == cold.dtype
        assert warm.tobytes() == cold.tobytes()
        assert stage["preprocess"] == 0.0

    def test_second_extract_reads_the_cached_stack(self, tmp_path,
                                                   monkeypatch, capsys):
        write_csv(tmp_path / "d.csv", *synthetic_glyphs(40, seed=0))
        argv = ["extract", "--dataset", str(tmp_path / "d.csv"),
                "--out", str(tmp_path / "cache")]
        assert cli.main([*argv, "--method", "hog"]) == 0
        forbid_loading(monkeypatch)
        forbid_preprocessing(monkeypatch)
        assert cli.main([*argv, "--method", "lbp"]) == 0
        assert "cached 40 x 784 lbp features" in capsys.readouterr().out

    def test_raw_baseline_file_is_the_stack(self, tmp_path, monkeypatch):
        # read and written at most once per run
        cache = tmp_path / "cache"
        cfg = small_cfg(samples=40, cache_dir=str(cache), raw_baseline=True,
                        classifiers=[("knn", {"k": 1})])
        writes = count_calls(monkeypatch, "save_feature_cache")
        cold = run_grid(cfg)
        assert sorted(str(args[0]) for args in writes) == sorted(
            map(str, cache.iterdir()))
        assert len(writes) == 3  # hog, gabor and raw
        (hog,) = cache.glob("features-hog-*")
        hog.unlink()
        reads = count_calls(monkeypatch, "load_feature_cache")
        forbid_loading(monkeypatch)
        warm = run_grid(cfg)
        assert len(reads) == 3
        assert format_cells_csv(warm) == format_cells_csv(cold)

    def test_all_hit_run_reads_no_stack(self, tmp_path, monkeypatch):
        cfg = small_cfg(samples=40, cache_dir=str(tmp_path / "cache"),
                        classifiers=[("knn", {"k": 1})])
        run_grid(cfg)
        (stack,) = (tmp_path / "cache").glob("features-raw-*")
        reads = count_calls(monkeypatch, "load_feature_cache")
        run_grid(cfg)
        assert len(reads) == len(cfg.features)
        assert str(stack) not in [str(args[0]) for args in reads]

    def test_cached_matrix_is_freed_before_the_first_fit(self, tmp_path,
                                                          monkeypatch):
        # the cells fit on the reordered copy; nothing else may keep the
        # matrix read from the cache alive through the fits
        cfg = small_cfg(samples=40, cache_dir=str(tmp_path / "cache"),
                        features=[("hog", {})],
                        classifiers=[("knn", {"k": 1})])
        run_grid(cfg)
        read, real_load = [], bench.load_feature_cache

        def load(path):
            hit = real_load(path)
            read.append(weakref.ref(hit[0]))
            return hit

        freed, real = [], bench.make_classifier

        class Spy:
            def __init__(self, clf):
                self.clf = clf

            def fit(self, X, y):
                freed.append(read[0]() is None)
                self.clf.fit(X, y)
                return self

            def predict(self, X):
                return self.clf.predict(X)

        monkeypatch.setattr(bench, "load_feature_cache", load)
        monkeypatch.setattr(bench, "make_classifier",
                            lambda kind, **params: Spy(real(kind, **params)))
        assert run_grid(cfg).all_ok
        assert len(read) == 1 and freed == [True]

    def test_cells_get_views_of_one_reordered_matrix(self, monkeypatch):
        seen = []
        real = bench.make_classifier

        class Spy:
            def __init__(self, clf):
                self.clf = clf

            def fit(self, X, y):
                seen.append(X)
                self.clf.fit(X, y)
                return self

            def predict(self, X):
                seen.append(X)
                return self.clf.predict(X)

            def __getattr__(self, name):  # the fit summary's attributes
                return getattr(self.clf, name)

        monkeypatch.setattr(bench, "make_classifier",
                            lambda kind, **params: Spy(real(kind, **params)))
        cfg = small_cfg(features=[("hog", {})],
                        classifiers=[("knn", {"k": 1}), ("svm", {})])
        res = run_grid(cfg)
        assert res.all_ok and len(seen) == 4
        # fit and predict of both cells see slices of one array
        base = seen[0].base
        assert base is not None and all(X.base is base for X in seen)
        assert all(X.flags.c_contiguous for X in seen)
        matrices, labels = bench.feature_matrices(cfg, ["hog"], {})[:2]
        X_all = matrices["hog"]
        train_idx, test_idx = split_indices(labels, cfg.split)
        assert np.array_equal(seen[0], X_all[train_idx])
        assert np.array_equal(seen[1], X_all[test_idx])
        assert np.array_equal(seen[2], seen[0])


class TestFeatureCacheFile:
    def test_key_depends_on_inputs(self, tmp_path):
        # the key reads the preprocessor and descriptors validate built
        def path(source="s1", test=None, method="hog", hog=None, **kw):
            cfg = small_cfg(features=[("hog", hog or {}), ("lbp", {})], **kw)
            return feature_cache_file(tmp_path, cfg.validate(), source, test,
                                      method)

        base = path()
        assert os.path.basename(base).startswith("features-hog-")
        assert path("s2") != base
        assert path(test="t1") != base
        assert path(preprocess={"deskew_enabled": False}) != base
        assert path(method="lbp") != base
        assert path(hog={"cell_side": 7}) != base
        assert path(hog=make_descriptor("hog").get_params()) == base


class TestReports:
    def test_files_written(self, tmp_path):
        res = run_grid(small_cfg(out_dir=str(tmp_path / "out")))
        paths = emit_report(res)
        names = sorted(os.path.basename(p) for p in paths)
        assert names == ["cells.csv", "plot_accuracy.csv", "tables.md"]
        for p in paths:
            assert os.path.exists(p)

    def test_csv_row_counts(self, tmp_path):
        res = run_grid(small_cfg(raw_baseline=True))
        cells = format_cells_csv(res).strip().splitlines()
        assert len(cells) == 1 + len(res.cells)
        plot = format_plot_csv(res).strip().splitlines()
        assert len(plot) == 1 + sum(c.ok for c in res.cells)

    def test_best_model_agrees_with_csv_rescan(self):
        res = run_grid(small_cfg(samples=120))
        best = best_cells(res)
        rows = [line.split(",") for line
                in format_cells_csv(res).strip().splitlines()[1:]]
        for kind, cell in best.items():
            kind_rows = [r for r in rows if r[1] == kind and r[2] == "ok"
                         and r[0] != "raw"]
            assert max(float(r[3]) for r in kind_rows) == pytest.approx(
                cell.report.accuracy, abs=5e-7)

    def test_best_tie_keeps_config_order(self):
        res = run_grid(small_cfg(samples=80))
        # force a tie by duplicating accuracies: rebuild cells manually
        a, b = res.cells[0], res.cells[2]
        b.report = a.report
        best = best_cells(res)
        assert best[a.classifier].feature == a.feature

    def test_overall_best_excludes_raw_pixels(self):
        def cell(feature, accuracy):
            report = SimpleNamespace(accuracy=accuracy, macro_precision=0.5,
                                     macro_recall=0.5, macro_f1=0.5)
            return CellResult(feature, "knn", report)

        cfg = small_cfg(features=[("hog", {})], classifiers=[("knn", {})],
                        raw_baseline=True).validate()
        res = GridResult([cell("hog", 0.75), cell("raw", 1.0)], cfg,
                         "synthetic", 8, 4)
        text = format_markdown(res)
        assert "| knn | hog | 0.750000 |" in text
        assert "Overall best: **hog + knn** at 0.750000." in text

    def test_markdown_sections(self):
        res = run_grid(small_cfg(raw_baseline=True))
        text = format_markdown(res)
        assert "## knn accuracy by feature" in text
        assert "## Best model" in text
        assert "## With and without feature extraction" in text
        assert "## Stage timings" in text
        assert "Overall best:" in text
        assert "## Warnings" not in text

    def test_gabor_above_nyquist_flagged_outside_csvs(self):
        heading = "## Suspect settings"
        flag = ("- feature.gabor.frequency = 0.9 cycles/px is above the "
                "Nyquist limit of 0.5: the filter aliases")
        for frequency, flagged in ((None, True), (0.9, True), (0.4, False)):
            params = {} if frequency is None else {"frequency": frequency}
            res = run_grid(small_cfg(features=[("gabor", params)],
                                     classifiers=[("knn", {"k": 1})]))
            text = format_markdown(res)
            assert (heading in text, flag in text) == (flagged, flagged)
            assert "frequency" not in format_cells_csv(res) \
                + format_plot_csv(res)

    def test_unconverged_svm_warned_outside_csvs(self):
        capped = small_cfg(classifiers=[("svm", {"max_iter": 5})])
        res = run_grid(capped)
        text = format_markdown(res)
        assert "## Warnings" in text
        for method in ("hog", "gabor"):
            assert (f"- {method} + svm: SMO stopped at max_iter=5 before "
                    "converging for classes [0, 1]") in text
        default = run_grid(small_cfg(classifiers=[("svm", {})]))
        assert not any(c.warnings for c in default.cells)
        for fmt in (format_cells_csv, format_plot_csv):
            assert "max_iter" not in fmt(res)

    def test_capped_svm_warning_prints_validated_max_iter(self):
        # the config file's 5.0 is fitted as 5 steps and reported as 5
        cfg = config_from_mapping(parse_config_text(
            "dataset.synthetic = squares\ndataset.samples = 80\n"
            "features = hog\nclassifiers = svm\n"
            "classifier.svm.max_iter = 5.0\n"))
        assert cfg.classifiers == [("svm", {"max_iter": 5.0})]
        text = format_markdown(run_grid(cfg))
        assert ("- hog + svm: SMO stopped at max_iter=5 before converging "
                "for classes [0, 1]") in text

    def test_single_cell_singleton_tables(self):
        cfg = small_cfg(features=[("hog", {})],
                        classifiers=[("knn", {"k": 1})])
        res = run_grid(cfg)
        assert len(res.cells) == 1
        text = format_markdown(res)
        assert text.count("| hog |") == 2  # per-classifier table + best
        assert len(format_plot_csv(res).strip().splitlines()) == 2

    def test_failed_cells_reported(self):
        cfg = small_cfg(classifiers=[("knn", {"k": 1000})])
        res = run_grid(cfg)
        text = format_markdown(res)
        assert "## Failed cells" in text
        csv = format_cells_csv(res)
        assert csv.count(",failed,") == 2

    def test_empty_result_rejected(self):
        res = run_grid(small_cfg())
        res.cells = []
        with pytest.raises(ParameterError):
            emit_report(res)


class TestFitSummary:
    def test_summary_matches_models_fitted_directly(self):
        params = {"svm": {}, "rf": {"n_trees": 3, "max_depth": 4},
                  "gbdt": {"n_rounds": 2, "max_depth": 2}}
        cfg = small_cfg(features=[("hog", {})],
                        classifiers=list(params.items()))
        res = run_grid(cfg)
        matrices, labels = bench.feature_matrices(cfg, ["hog"], {})[:2]
        train_idx, _ = split_indices(labels, cfg.split)
        X, y = matrices["hog"][train_idx], labels[train_idx]
        direct = {kind: make_classifier(kind, **p).fit(X, y)
                  for kind, p in params.items()}
        by_kind = {c.classifier: c.fitted for c in res.cells}
        svm, rf, gbdt = direct["svm"], direct["rf"], direct["gbdt"]
        assert by_kind["svm"] == {
            "smo_steps": int(svm.n_iter_.sum()), "converged": True,
            "support_vectors": svm.support_vectors_.shape[0]}
        assert by_kind["rf"]["trees"] == 3
        assert by_kind["gbdt"]["trees"] == 2 * 2  # rounds x classes
        for kind in ("rf", "gbdt"):
            trees = direct[kind].trees_
            assert by_kind[kind]["nodes"] == sum(t.n_nodes for t in trees)
            assert 1 <= by_kind[kind]["deepest"] <= params[kind]["max_depth"]
        text = format_markdown(res)
        assert text.index("## Fitted models") > text.index("## Best model")
        assert (f"- hog + svm: {int(svm.n_iter_.sum())} SMO steps, "
                f"converged, {svm.support_vectors_.shape[0]} support "
                "vectors") in text
        assert "- hog + rf: 3 trees," in text
        assert (f"- hog + gbdt: 4 trees, {by_kind['gbdt']['nodes']} nodes, "
                f"deepest {by_kind['gbdt']['deepest']}, final training loss "
                f"{gbdt.loss_trace_[-1]:.6f}") in text
        for fmt in (format_cells_csv, format_plot_csv):
            assert "trees" not in fmt(res) and "SMO" not in fmt(res)

    def test_failed_and_knn_cells_print_no_line(self):
        # more candidate features than HOG's columns fails the rf fit
        cfg = small_cfg(features=[("hog", {})],
                        classifiers=[("knn", {"k": 1}),
                                     ("rf", {"max_features": 10 ** 6}),
                                     ("gbdt", {"n_rounds": 1,
                                               "max_depth": 2})])
        res = run_grid(cfg)
        assert [c.fitted == {} for c in res.cells] == [True, True, False]
        fitted = res.cells[2].fitted
        section = format_markdown(res).split("## Fitted models\n")[1]
        section = section.split("\n## ")[0]
        assert section.strip().splitlines() == [
            f"- hog + gbdt: {fitted['trees']} trees, {fitted['nodes']} nodes, "
            f"deepest {fitted['deepest']}, final training loss "
            f"{fitted['final_loss']:.6f}"]

    def test_knn_only_grid_has_no_section(self):
        res = run_grid(small_cfg(classifiers=[("knn", {"k": 1})]))
        assert "## Fitted models" not in format_markdown(res)

    def test_capped_svm_not_converged(self):
        res = run_grid(small_cfg(classifiers=[("svm", {"max_iter": 5})]))
        text = format_markdown(res)
        for cell in res.cells:
            assert cell.fitted["converged"] is False
            assert (f"- {cell.feature} + svm: {cell.fitted['smo_steps']} SMO "
                    "steps, not converged,") in text
