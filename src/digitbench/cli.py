"""Command-line benchmark harness.

Verbs: ``bench`` runs the feature-by-classifier grid and writes reports,
``extract`` precomputes a feature cache, ``visualize`` renders one digit's
pipeline stages to PGM files. Exit status is 0 only when everything asked
for succeeded.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .bench import emit_report, feature_matrices, load_run_images, run_grid
from .config import (KEYS, SYNTHETIC_SETS, RunConfig, config_from_mapping,
                     parse_config_text)
from .datasets import SCHEMAS
from .errors import ParameterError, ParseError, ShapeError, SplitError
from .features import METHODS
from .validation import check_int
from .viz import visualize


def _add_dataset_flags(parser):
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--dataset", dest="dataset.path",
                        help="digit CSV path")
    source.add_argument("--synthetic", dest="dataset.synthetic",
                        choices=SYNTHETIC_SETS,
                        help="use a built-in generated dataset")
    parser.add_argument("--schema", dest="dataset.schema", choices=SCHEMAS,
                        help="CSV label position")
    parser.add_argument("--samples", dest="dataset.samples", type=int,
                        help="synthetic dataset size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digitbench",
        description="Handcrafted-feature digit recognition benchmarks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    bench = sub.add_parser("bench", help="run the benchmark grid")
    bench.add_argument("--config", help="run configuration file")
    _add_dataset_flags(bench)
    bench.add_argument("--seed", dest="split.seed", type=int,
                       help="split seed override")
    bench.add_argument("--out", dest="output.dir", help="report directory")
    bench.add_argument("--raw-baseline", action="store_true", default=None,
                       help="also run classifiers on raw pixels")

    extract = sub.add_parser("extract", help="precompute a feature cache")
    _add_dataset_flags(extract)
    # the one method it extracts is the run's feature list
    extract.add_argument("--method", dest="features", choices=METHODS,
                         default="hog")
    extract.add_argument("--jobs", type=int,
                         help="accepted for compatibility; has no effect")
    extract.add_argument("--out", dest="output.cache_dir", default="cache",
                         help="cache directory")

    viz = sub.add_parser("visualize",
                         help="render pipeline stages for one digit")
    _add_dataset_flags(viz)
    viz.add_argument("--index", type=int, default=0,
                     help="which sample to render")
    viz.add_argument("--method", dest="features", choices=METHODS,
                     default="hog")
    viz.add_argument("--out", default="viz", help="output directory")
    return parser


def _config_from_args(args) -> RunConfig:
    pairs = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            pairs = parse_config_text(fh.read())
    # a flag's dest is the config key it sets; a flag that is not given
    # keeps the value from --config or the default
    flags = {key: value for key, value in vars(args).items()
             if key in KEYS and value is not None}
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
    X = feature_matrices(cfg, [args.features], {})[0][args.features]
    print(f"cached {X.shape[0]} x {X.shape[1]} {args.features} features "
          f"in {cfg.cache_dir}")
    return 0


def cmd_visualize(args) -> int:
    cfg = _config_from_args(args).validate()
    images, labels = load_run_images(cfg)
    check_int(args.index, "--index", 0, len(images) - 1)
    stem = f"sample{args.index}-label{labels[args.index]}"
    paths = visualize(images[args.index], args.features,
                      cfg.descriptors_[args.features], out_dir=args.out,
                      stem=stem, pre=cfg.preprocessor_)
    for path in paths:
        print(path)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"bench": cmd_bench, "extract": cmd_extract,
                "visualize": cmd_visualize}
    try:
        return handlers[args.verb](args)
    except (ParameterError, ParseError, ShapeError, SplitError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
