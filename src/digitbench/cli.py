"""Command-line benchmark harness.

Verbs: ``bench`` runs the feature-by-classifier grid and writes reports,
``extract`` precomputes a feature cache, ``visualize`` renders one digit's
pipeline stages to PGM files, ``inspect-model`` summarizes a saved model.
Exit status is 0 only when everything asked for succeeded.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .bench import emit_report, feature_matrices, load_run_images, run_grid
from .classify import classifier_kind
from .classify.io import load_model
from .config import RunConfig, config_from_mapping, parse_config_text
from .datasets import SCHEMAS
from .errors import ParameterError, ParseError, ShapeError, SplitError
from .features import METHODS
from .imaging import Preprocessor
from .viz import visualize


def _add_dataset_flags(parser):
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--dataset", help="digit CSV path")
    source.add_argument("--synthetic", choices=("glyphs", "squares"),
                        help="use a built-in generated dataset")
    parser.add_argument("--schema", choices=SCHEMAS,
                        help="CSV label position")
    parser.add_argument("--samples", type=int,
                        help="synthetic dataset size")
    parser.add_argument("--side", type=int, help="image side length in the "
                        "CSV (default 28)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digitbench",
        description="Handcrafted-feature digit recognition benchmarks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    bench = sub.add_parser("bench", help="run the benchmark grid")
    bench.add_argument("--config", help="run configuration file")
    _add_dataset_flags(bench)
    bench.add_argument("--seed", type=int, help="split seed override")
    bench.add_argument("--out", help="report directory")
    bench.add_argument("--raw-baseline", action="store_true", default=None,
                       help="also run classifiers on raw pixels")

    extract = sub.add_parser("extract", help="precompute a feature cache")
    _add_dataset_flags(extract)
    extract.add_argument("--method", choices=METHODS, default="hog")
    extract.add_argument("--jobs", type=int,
                         help="accepted for compatibility; has no effect")
    extract.add_argument("--out", dest="cache_dir", default="cache",
                         metavar="DIR", help="cache directory")

    viz = sub.add_parser("visualize",
                         help="render pipeline stages for one digit")
    _add_dataset_flags(viz)
    viz.add_argument("--index", type=int, default=0,
                     help="which sample to render")
    viz.add_argument("--method", choices=METHODS, default="hog")
    viz.add_argument("--out", default="viz", help="output directory")

    inspect = sub.add_parser("inspect-model",
                             help="summarize a saved model file")
    inspect.add_argument("model", help="path to a saved .npz model")
    return parser


# argparse dest -> config key; a flag that is not given keeps the value
# from --config or the default
_FLAG_KEYS = {"dataset": "dataset.path", "synthetic": "dataset.synthetic",
              "schema": "dataset.schema", "samples": "dataset.samples",
              "side": "dataset.side", "seed": "split.seed",
              "out": "output.dir", "cache_dir": "output.cache_dir",
              "raw_baseline": "raw_baseline"}


def _config_from_args(args) -> RunConfig:
    pairs = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            pairs = parse_config_text(fh.read())
    flags = {key: getattr(args, dest) for dest, key in _FLAG_KEYS.items()
             if getattr(args, dest, None) is not None}
    if "dataset.path" in flags or "dataset.synthetic" in flags:
        # a dataset flag replaces the file's dataset, of either kind
        pairs.pop("dataset.path", None)
        pairs.pop("dataset.synthetic", None)
    return config_from_mapping({**pairs, **flags})


def cmd_bench(args) -> int:
    cfg = _config_from_args(args)
    res = run_grid(cfg)
    paths = emit_report(res)
    width = max(len(f"{c.feature}+{c.classifier}") for c in res.cells)
    for cell in res.cells:
        name = f"{cell.feature}+{cell.classifier}"
        value = (f"accuracy {cell.report.accuracy:.4f}" if cell.ok
                 else f"FAILED: {cell.error}")
        print(f"{name:<{width}}  {value}")
    print(f"reports: {', '.join(paths)}")
    return 0 if res.all_ok else 1


def cmd_extract(args) -> int:
    cfg = _config_from_args(args)
    X = feature_matrices(cfg, [(args.method, {})], {})[0][args.method]
    print(f"cached {X.shape[0]} x {X.shape[1]} {args.method} features "
          f"in {cfg.cache_dir}")
    return 0


def cmd_visualize(args) -> int:
    cfg = _config_from_args(args)
    images, labels = load_run_images(cfg)
    if not 0 <= args.index < len(images):
        raise ParameterError(
            f"--index {args.index} outside [0, {len(images) - 1}]")
    stem = f"sample{args.index}-label{labels[args.index]}"
    paths = visualize(images[args.index], args.method, out_dir=args.out,
                      stem=stem, pre=Preprocessor(**cfg.preprocess))
    for path in paths:
        print(path)
    return 0


def cmd_inspect(args) -> int:
    model = load_model(args.model)
    kind = classifier_kind(model)
    print(f"kind: {kind}")
    print(f"classes: {np.asarray(model.classes_).tolist()}")
    params = model.get_params()
    for name in sorted(params):
        print(f"param {name}: {params[name]}")
    if hasattr(model, "trees_"):
        nodes = sum(t.n_nodes for t in model.trees_)
        print(f"trees: {len(model.trees_)} with {nodes} nodes")
    if hasattr(model, "support_vectors_"):
        print(f"support vectors: {model.support_vectors_.shape[0]}")
        print(f"converged: {model.converged_}")
    if hasattr(model, "loss_trace_") and len(model.loss_trace_):
        print(f"final training loss: {model.loss_trace_[-1]:.6f}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"bench": cmd_bench, "extract": cmd_extract,
                "visualize": cmd_visualize, "inspect-model": cmd_inspect}
    try:
        return handlers[args.verb](args)
    except (ParameterError, ParseError, ShapeError, SplitError,
            FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
