import os

import numpy as np
import pytest

from digitbench import ParameterError, ParseError, bench, cli
from digitbench.bench import (best_cells, emit_report, feature_cache_file,
                              format_cells_csv, format_markdown,
                              format_plot_csv, run_grid)
from digitbench.config import (RunConfig, coerce_scalar, config_from_mapping,
                               parse_config_text)
from digitbench.datasets import (CACHE_VERSION, SplitSpec, file_digest,
                                 load_feature_cache, preprocess_all,
                                 save_feature_cache, split_indices,
                                 synthetic_glyphs)
from digitbench.features import extract_batch, make_descriptor
from digitbench.imaging import Preprocessor


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

    def test_repeated_names_rejected(self):
        for key, names in [("features", ["hog", "lbp", "hog"]),
                           ("classifiers", ["knn", "svm", "knn"])]:
            with pytest.raises(ParseError, match=f"config key '{key}' "
                               f"lists '{names[0]}' twice"):
                config_from_mapping({"dataset.synthetic": "glyphs",
                                     key: names})

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
        for key in ("dataset.side", "dataset.samples",
                    "preprocess.target_side", "split.seed"):
            for value in (1.5, "3", True):
                with pytest.raises(ParseError, match="needs an integer"):
                    config_from_mapping({"dataset.synthetic": "glyphs",
                                         key: value})
        cfg = config_from_mapping({"dataset.synthetic": "glyphs",
                                   "split.seed": 4.0})
        assert cfg.split.seed == 4 and type(cfg.split.seed) is int

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
        with pytest.raises(ParameterError, match="dataset"):
            RunConfig().validate()
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

    def test_raw_baseline_adds_cells(self):
        res = run_grid(small_cfg(raw_baseline=True))
        assert len(res.cells) == 6
        assert {c.feature for c in res.cells} == {"hog", "gabor", "raw"}

    def test_failed_cell_does_not_abort(self):
        cfg = small_cfg(classifiers=[("knn", {"k": 0}), ("knn", {"k": 1})])
        res = run_grid(cfg)
        assert not res.all_ok
        failed = [c for c in res.cells if not c.ok]
        assert len(failed) == 2  # k=0 fails for both features
        assert all("k must be >= 1" in c.error for c in failed)
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
        assert len(os.listdir(tmp_path / "cache")) == 3

    def test_feature_cache_reused(self, tmp_path):
        cache = tmp_path / "cache"
        cfg = small_cfg(cache_dir=str(cache), samples=40,
                        features=[("hog", {})],
                        classifiers=[("knn", {"k": 1})])
        first = run_grid(cfg)
        files = sorted(os.listdir(cache))
        assert len(files) == 1
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
        files = sorted(os.listdir(cache))
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
                        features=[("hog", {})])
        expect = bench.feature_matrices(cfg, cfg.features, {})[0]["hog"]
        (path,) = (tmp_path / "cache").iterdir()
        path.write_bytes(path.read_bytes()[:100])
        assert load_feature_cache(path) is None
        again = bench.feature_matrices(cfg, cfg.features, {})[0]["hog"]
        assert np.array_equal(again, expect)
        assert os.listdir(tmp_path / "cache") == [path.name]
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
        assert len(os.listdir(cache)) == 2

    def test_warm_run_keeps_test_file_split(self, tmp_path, monkeypatch):
        cfg = small_cfg(**split_csvs(tmp_path),
                        cache_dir=str(tmp_path / "cache"),
                        classifiers=[("knn", {"k": 1}), ("svm", {})])
        cold = run_grid(cfg)
        forbid_loading(monkeypatch)
        warm = run_grid(cfg)
        assert (warm.n_train, warm.n_test) == (30, 10)
        assert format_cells_csv(warm) == format_cells_csv(cold)

    @pytest.mark.parametrize("stale", ["version 2", "no row count"])
    def test_stale_cache_file_is_a_miss_and_rewritten(self, tmp_path,
                                                      monkeypatch, stale):
        cfg = small_cfg(samples=40, cache_dir=str(tmp_path / "cache"),
                        features=[("hog", {})],
                        classifiers=[("knn", {"k": 1})])
        cold = run_grid(cfg)
        (path,) = (tmp_path / "cache").iterdir()
        X, y, rows = load_feature_cache(path)
        fields = {"version": np.array(2), "features": X, "labels": y,
                  "rows": np.array(rows)}
        if stale == "no row count":
            fields["version"] = np.array(CACHE_VERSION)
            del fields["rows"]
        np.savez(path, **fields)
        assert load_feature_cache(path) is None
        loads = count_calls(monkeypatch, "synthetic_squares")
        warm = run_grid(cfg)
        assert len(loads) == 1
        assert format_cells_csv(warm) == format_cells_csv(cold)
        assert os.listdir(tmp_path / "cache") == [path.name]
        X2, y2, rows2 = load_feature_cache(path)
        assert np.array_equal(X2, X) and np.array_equal(y2, y)
        assert rows2 == rows == 40

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
        assert len(os.listdir(cache)) == 2
        assert {r.source for r in results} == {"data.csv:000000000000"}

    @pytest.mark.parametrize("tamper", ["reversed labels", "fewer labels",
                                        "other row count"])
    def test_disagreeing_cache_files_fall_back_to_loading(self, tmp_path,
                                                          monkeypatch,
                                                          tamper):
        cache = tmp_path / "cache"
        cfg = small_cfg(samples=40, cache_dir=str(cache),
                        features=[("hog", {}), ("lbp", {})],
                        classifiers=[("knn", {"k": 1})])
        cold = run_grid(cfg)
        (lbp,) = cache.glob("features-lbp-*.npz")
        X, y, rows = load_feature_cache(lbp)
        save_feature_cache(lbp, X, *{"reversed labels": (y[::-1], rows),
                                     "fewer labels": (y[:-1], rows),
                                     "other row count": (y, rows - 1)}[tamper])
        loads = count_calls(monkeypatch, "synthetic_squares")
        extracted = count_calls(monkeypatch, "extract_batch")
        warm = run_grid(cfg)
        assert len(loads) == 1
        assert [args[1] for args in extracted] == ["lbp"]
        assert format_cells_csv(warm) == format_cells_csv(cold)
        assert np.array_equal(load_feature_cache(lbp)[1], y)
        assert load_feature_cache(lbp)[2] == rows

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

        monkeypatch.setattr(bench, "make_classifier",
                            lambda kind, **params: Spy(real(kind, **params)))
        cfg = small_cfg(features=[("hog", {})],
                        classifiers=[("knn", {"k": 1}), ("knn", {"k": 3})])
        res = run_grid(cfg)
        assert res.all_ok and len(seen) == 4
        # fit and predict of both cells see slices of one array
        base = seen[0].base
        assert base is not None and all(X.base is base for X in seen)
        assert all(X.flags.c_contiguous for X in seen)
        matrices, labels = bench.feature_matrices(cfg, cfg.features, {})[:2]
        X_all = matrices["hog"]
        train_idx, test_idx = split_indices(labels, cfg.split)
        assert np.array_equal(seen[0], X_all[train_idx])
        assert np.array_equal(seen[1], X_all[test_idx])
        assert np.array_equal(seen[2], seen[0])


class TestFeatureCacheFile:
    def test_key_depends_on_inputs(self, tmp_path):
        cfg = small_cfg()
        base = feature_cache_file(tmp_path, cfg, "s1", None, "hog", {})
        assert os.path.basename(base).startswith("features-hog-")
        assert feature_cache_file(tmp_path, cfg, "s2", None, "hog", {}) != base
        assert feature_cache_file(tmp_path, cfg, "s1", "t1", "hog", {}) != base
        assert feature_cache_file(
            tmp_path, small_cfg(preprocess={"deskew_enabled": False}), "s1",
            None, "hog", {}) != base
        assert feature_cache_file(tmp_path, cfg, "s1", None, "lbp", {}) != base
        assert feature_cache_file(tmp_path, cfg, "s1", None, "hog",
                                  {"cell_side": 7}) != base
        defaults = make_descriptor("hog").get_params()
        assert feature_cache_file(tmp_path, cfg, "s1", None, "hog",
                                  defaults) == base
        assert feature_cache_file(tmp_path, cfg, "s1", None, "hog",
                                  {}) == base


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

    def test_markdown_sections(self):
        res = run_grid(small_cfg(raw_baseline=True))
        text = format_markdown(res)
        assert "## knn accuracy by feature" in text
        assert "## Best model" in text
        assert "## With and without feature extraction" in text
        assert "## Stage timings" in text
        assert "Overall best:" in text
        assert "## Warnings" not in text

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

    def test_single_cell_singleton_tables(self):
        cfg = small_cfg(features=[("hog", {})],
                        classifiers=[("knn", {"k": 1})])
        res = run_grid(cfg)
        assert len(res.cells) == 1
        text = format_markdown(res)
        assert text.count("| hog |") == 2  # per-classifier table + best
        assert len(format_plot_csv(res).strip().splitlines()) == 2

    def test_failed_cells_reported(self):
        cfg = small_cfg(classifiers=[("knn", {"k": 0})])
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
