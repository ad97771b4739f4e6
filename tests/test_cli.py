import os

import pytest

from digitbench import bench
from digitbench.cli import _config_from_args, build_parser, main
from digitbench.config import RunConfig
from digitbench.datasets import SplitSpec
from digitbench.imaging import Preprocessor


def write_cfg(path, extra=""):
    path.write_text(
        "dataset.synthetic = squares\n"
        "dataset.samples = 80\n"
        "features = hog, gabor\n"
        "classifiers = knn, svm\n"
        "classifier.knn.k = 3\n"
        "split.seed = 0\n" + extra)


class TestBenchVerb:
    def test_happy_path_exit_zero(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_cfg(cfg, f"output.dir = {tmp_path / 'out'}\n")
        assert main(["bench", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "hog+knn" in out and "accuracy" in out
        for name in ("tables.md", "cells.csv", "plot_accuracy.csv"):
            assert (tmp_path / "out" / name).exists()

    def test_failing_cell_exit_one(self, tmp_path, capsys):
        # k above the 64 train rows passes validate and fails at predict
        cfg = tmp_path / "run.cfg"
        write_cfg(cfg, f"output.dir = {tmp_path / 'out'}\n")
        cfg.write_text(cfg.read_text().replace("k = 3", "k = 1000"))
        code = main(["bench", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out
        assert (tmp_path / "out" / "cells.csv").exists()

    def test_flag_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_cfg(cfg)
        out_dir = tmp_path / "flagged"
        assert main(["bench", "--config", str(cfg), "--seed", "5",
                     "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert (out_dir / "tables.md").exists()
        text = (out_dir / "tables.md").read_text()
        assert "split seed: 5" in text

    def test_jobs_flag_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_cfg(cfg)
        with pytest.raises(SystemExit) as info:
            main(["bench", "--config", str(cfg), "--jobs", "2",
                  "--out", str(tmp_path / "out")])
        assert info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_dataset_flag_without_config(self, tmp_path, capsys):
        assert main(["bench", "--synthetic", "squares", "--samples", "60",
                     "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()

    def test_raw_baseline_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dataset.synthetic = squares\n"
                       "dataset.samples = 60\n"
                       "features = lbp\n"
                       "classifiers = knn\n")
        out_dir = tmp_path / "o"
        assert main(["bench", "--config", str(cfg),
                     "--raw-baseline", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert "raw," in (out_dir / "plot_accuracy.csv").read_text()

    def test_missing_config_exit_two(self, capsys):
        assert main(["bench", "--config", "/no/such/file.cfg"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus.key = 1\n")
        assert main(["bench", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_wrong_typed_value_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dataset.synthetic = glyphs\ndataset.samples = x\n")
        assert main(["bench", "--config", str(cfg)]) == 2
        assert "error: config key 'dataset.samples'" in capsys.readouterr().err

    def test_infinite_gaussian_sigma_exit_two(self, tmp_path, capsys):
        # used to end in a bare OverflowError traceback from the kernel size
        cfg = tmp_path / "run.cfg"
        write_cfg(cfg, "preprocess.gaussian_sigma = inf\n")
        assert main(["bench", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert "error: gaussian_sigma must be" in capsys.readouterr().err

    def test_huge_gaussian_sigma_exit_two(self, tmp_path, capsys):
        # finite, but no machine holds its kernel: used to end in a bare
        # ValueError traceback
        cfg = tmp_path / "run.cfg"
        write_cfg(cfg, "preprocess.gaussian_sigma = 1e300\n")
        assert main(["bench", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert "error: kernel radius 3 * sigma" in capsys.readouterr().err

    def test_underflowing_kernel_sigma_exit_two(self, tmp_path, capsys):
        # 2 * sigma**2 rounds to 0: the Gabor matrix used to be all NaN,
        # cached, and read back by every rerun to fail its cells; the blur
        # failed later as "images[0] contains non-finite values"
        cfg, cache = tmp_path / "run.cfg", tmp_path / "cache"
        for key, value, named in [
                ("feature.gabor.frequency", "1e200", "frequency=1e+200"),
                ("preprocess.gaussian_sigma", "1e-170", "sigma=1e-170")]:
            write_cfg(cfg, f"{key} = {value}\noutput.cache_dir = {cache}\n")
            assert main(["bench", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert "sigma is too small" in err and named in err
            assert not cache.exists() and not (tmp_path / "out").exists()

    def test_bad_classifier_value_exit_two(self, tmp_path, capsys):
        # used to load the data, report "hog+knn FAILED" and exit 1
        cfg = tmp_path / "run.cfg"
        write_cfg(cfg, "classifier.svm.C = 1, 10\n")
        cfg.write_text(cfg.read_text().replace("k = 3", "k = 0"))
        assert main(["bench", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert "k must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_parameter_exit_two(self, tmp_path, capsys):
        # used to end in a bare TypeError traceback from extract_batch
        cfg = tmp_path / "run.cfg"
        write_cfg(cfg, "feature.hog.cellside = 4\n")
        assert main(["bench", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert "'feature.hog.cellside'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_exit_two(self, tmp_path, capsys):
        # used to end in numpy's bare "expected non-negative integer"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dataset.synthetic = squares\nsplit.seed = -1\n")
        for args in (["--config", str(cfg)],
                     ["--synthetic", "squares", "--seed", "-1"]):
            assert main(["bench", *args, "--samples", "20",
                         "--out", str(tmp_path / "out")]) == 2
            assert "error: seed must be >= 0" in capsys.readouterr().err

    def test_empty_test_side_exit_two(self, tmp_path, monkeypatch, capsys):
        # used to fit every cell, fail each with "confusion matrix is
        # empty", report train/test 20/0 and exit 1; then to extract and
        # cache every feature before the split failed
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dataset.synthetic = squares\ndataset.samples = 20\n"
                       "features = hog, lbp, gabor\nclassifiers = knn, svm\n"
                       "split.train_fraction = 0.96\n"
                       f"output.cache_dir = {tmp_path / 'cache'}\n")

        def refuse(*args, **kwargs):
            raise AssertionError("ran on an empty split side")

        for name in ("make_classifier", "extract_batch", "preprocess_all"):
            monkeypatch.setattr(bench, name, refuse)
        assert main(["bench", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error: train_fraction 0.96 leaves the test side" in err
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "cache").exists()


def flags_config(argv):
    """(RunConfig, parsed arguments) of a command line."""
    args = build_parser().parse_args(argv)
    return _config_from_args(args), args


class TestFlagsAreConfigKeys:
    # a flag's dest is the config key it sets, so a misspelled dest would
    # drop the flag silently; each test compares every RunConfig field
    def test_bench_flags(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("dataset.synthetic = glyphs\nfeatures = lbp\n"
                            "split.seed = 1\noutput.dir = o\n")
        cfg, _ = flags_config([
            "bench", "--config", str(cfg_file), "--dataset", "d.csv",
            "--schema", "label_last", "--samples", "30", "--side", "16",
            "--seed", "7", "--out", "r", "--raw-baseline"])
        # the file's features stay; its synthetic set gives way to --dataset
        assert cfg == RunConfig(dataset_path="d.csv", schema="label_last",
                                samples=30, side=16, features=[("lbp", {})],
                                split=SplitSpec(seed=7), out_dir="r",
                                raw_baseline=True)
        cfg, _ = flags_config(["bench", "--synthetic", "squares"])
        assert cfg == RunConfig(synthetic="squares")
        # the metavar names the key a flag sets
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        assert "--seed SPLIT.SEED" in capsys.readouterr().out

    def test_extract_flags(self):
        cfg, args = flags_config([
            "extract", "--synthetic", "glyphs", "--schema", "label_last",
            "--samples", "30", "--side", "16", "--method", "lbp",
            "--jobs", "1", "--out", "c"])
        # --method is the run's feature list
        assert cfg == RunConfig(synthetic="glyphs", schema="label_last",
                                samples=30, side=16, cache_dir="c",
                                features=[("lbp", {})])
        assert args.jobs == 1
        cfg, _ = flags_config(["extract", "--dataset", "d.csv"])
        assert cfg == RunConfig(dataset_path="d.csv", cache_dir="cache",
                                features=[("hog", {})])

    def test_visualize_flags(self):
        cfg, args = flags_config([
            "visualize", "--dataset", "d.csv", "--schema", "label_last",
            "--samples", "30", "--side", "16", "--index", "3",
            "--method", "gabor", "--out", "v"])
        # --method is the run's feature list; visualize's --out is its
        # image directory, not output.dir
        assert cfg == RunConfig(dataset_path="d.csv", schema="label_last",
                                samples=30, side=16,
                                features=[("gabor", {})])
        assert (args.index, args.features, args.out) == (3, "gabor", "v")
        cfg, _ = flags_config(["visualize", "--synthetic", "squares"])
        assert cfg == RunConfig(synthetic="squares", features=[("hog", {})])


class TestOtherVerbs:
    def test_visualize_three_files(self, tmp_path, capsys):
        out_dir = tmp_path / "viz"
        assert main(["visualize", "--synthetic", "glyphs", "--samples", "5",
                     "--index", "2", "--method", "hog",
                     "--out", str(out_dir)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert len(printed) == 3
        assert len(list(out_dir.iterdir())) == 3

    def test_visualize_bad_index(self, tmp_path, capsys):
        assert main(["visualize", "--synthetic", "glyphs", "--samples", "5",
                     "--index", "99", "--out", str(tmp_path)]) == 2
        assert "--index" in capsys.readouterr().err

    def test_extract_writes_cache(self, tmp_path, capsys):
        # --jobs is accepted and has no effect
        out_dir = tmp_path / "cache"
        assert main(["extract", "--synthetic", "squares", "--samples", "20",
                     "--method", "lbp", "--out", str(out_dir),
                     "--jobs", "1"]) == 0
        assert "cached 20 x 784 lbp features" in capsys.readouterr().out
        assert len(os.listdir(out_dir)) == 2  # lbp and the features-raw-* stack

    def test_extract_reuses_warm_cache(self, tmp_path, monkeypatch, capsys):
        argv = ["extract", "--synthetic", "squares", "--samples", "20",
                "--method", "hog", "--out", str(tmp_path / "cache")]
        assert main(argv) == 0
        files = os.listdir(tmp_path / "cache")

        def no_preprocessing(*args, **kwargs):
            raise AssertionError("preprocessed despite a warm cache")

        # the method every preprocessing path ends in
        monkeypatch.setattr(Preprocessor, "transform", no_preprocessing)
        assert main(argv) == 0
        assert os.listdir(tmp_path / "cache") == files
        assert capsys.readouterr().out.count("cached 20 x ") == 2

    def test_dataset_and_synthetic_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["extract", "--dataset", str(tmp_path / "d.csv"),
                  "--synthetic", "squares", "--out", str(tmp_path)])
        assert info.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_extract_then_bench_hits_cache(self, tmp_path, monkeypatch):
        # the extract verb's defaults and a bench run with default hog
        # parameters share one cache file, so the bench needs no images
        cache = tmp_path / "cache"
        assert main(["extract", "--synthetic", "glyphs", "--samples", "40",
                     "--method", "hog", "--out", str(cache)]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dataset.synthetic = glyphs\ndataset.samples = 40\n"
                       "features = hog\nclassifiers = knn\n"
                       f"output.dir = {tmp_path / 'out'}\n"
                       f"output.cache_dir = {cache}\n")

        def no_preprocessing(*args, **kwargs):
            raise AssertionError("preprocessed despite a warm cache")

        monkeypatch.setattr(bench, "preprocess_all", no_preprocessing)
        monkeypatch.setattr(bench, "extract_batch", no_preprocessing)
        assert main(["bench", "--config", str(cfg)]) == 0
        assert len(os.listdir(cache)) == 2  # hog and the features-raw-* stack

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
