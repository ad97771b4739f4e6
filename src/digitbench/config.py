"""Benchmark run configuration and its flat key-value file format.

The file grammar is one ``dotted.key = value`` pair per line; ``#`` starts
a comment, blank lines are skipped. Values are coerced to bool/int/float
when they parse as one, and comma-separated values form a list. Example::

    dataset.synthetic = glyphs
    dataset.samples = 2000
    features = hog, lbp, gabor
    classifiers = svm, rf
    classifier.svm.C = 10
    split.seed = 0

Unknown keys are rejected so typos fail loudly instead of silently running
a default, and a fixed key whose value has the wrong type (a fraction for an
integer, anything but a true/false token for a flag) is a ``ParseError``
naming the key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classify import KINDS, make_classifier
from .datasets import LABEL_FIRST, SCHEMAS, SYNTHETIC_SIDE, SplitSpec
from .errors import ParameterError, ParseError
from .features import GABOR, RAW, make_descriptor
from .imaging import Preprocessor
from .validation import check_bool

SYNTHETIC_SETS = ("glyphs", "squares")


@dataclass
class RunConfig:
    """Everything one benchmark run needs, resolvable before any work."""

    dataset_path: str | None = None
    test_path: str | None = None
    schema: str = LABEL_FIRST
    synthetic: str | None = None
    samples: int = 2000
    preprocess: dict = field(default_factory=dict)
    features: list = field(default_factory=lambda: [("hog", {}), ("lbp", {}),
                                                    ("gabor", {})])
    classifiers: list = field(default_factory=lambda: [(k, {}) for k in KINDS])
    split: SplitSpec = field(default_factory=SplitSpec)
    out_dir: str = "out"
    cache_dir: str | None = None
    raw_baseline: bool = False

    def validate(self) -> "RunConfig":
        """Check every name and value that needs no data; returns self.

        Like ``fit``, it sets what the run uses: ``preprocessor_``,
        ``descriptors_`` (raw's too with ``raw_baseline`` or a cache
        directory, as the stack's cache entry is keyed on raw's params),
        their ``widths_`` on one ``SYNTHETIC_SIDE`` zero image, where every
        kernel and geometry check fires, and ``suspect_settings_``.
        """
        if not self.features:
            raise ParameterError("config lists no feature methods")
        if not self.classifiers:
            raise ParameterError("config lists no classifiers")
        raw = [(RAW, {})] if (self.raw_baseline or self.cache_dir) \
            and RAW not in dict(self.features) else []
        built = {}
        for section, make, entries in (
                ("feature", make_descriptor, [*self.features, *raw]),
                ("classifier", lambda kind, params: make_classifier(
                    kind, **params), self.classifiers)):
            names = [name for name, _ in entries]
            for name, params in entries:
                if names.count(name) > 1:
                    raise ParameterError(
                        f"config key '{section}s' lists {name!r} twice")
                try:
                    built[name] = make(name, params)
                except TypeError:  # a parameter its dataclass lacks
                    accepted = make(name, {}).get_params()
                    param = next(p for p in params if p not in accepted)
                    raise ParameterError(
                        f"config key '{section}.{name}.{param}': {name} "
                        f"takes no parameter {param!r}, expected one "
                        f"of {tuple(accepted)}") from None
        # the values too, where no data is needed to check them
        for kind, _ in self.classifiers:
            try:
                built[kind].check_params()
            except ParameterError as exc:
                raise ParameterError(f"classifier.{kind}: {exc}") from None
        if self.schema not in SCHEMAS:
            raise ParameterError(
                f"schema must be one of {SCHEMAS}, got {self.schema!r}")
        if self.synthetic is not None and self.synthetic not in SYNTHETIC_SETS:
            raise ParameterError(
                f"synthetic set must be one of {SYNTHETIC_SETS}, "
                f"got {self.synthetic!r}")
        if (self.dataset_path is None) == (self.synthetic is None):
            given = "neither" if self.synthetic is None else "both"
            raise ParameterError("config needs exactly one of 'dataset.path' "
                                 f"and 'dataset.synthetic', got {given}")
        self.split.__post_init__()  # a value set after construction too
        check_bool(self.raw_baseline, "raw_baseline")
        # straight through the kernels: ``transform`` is the data's way in
        self.preprocessor_ = Preprocessor(**self.preprocess)
        blank = self.preprocessor_._transform_stack(  # resizes any input side
            np.zeros((1, SYNTHETIC_SIDE, SYNTHETIC_SIDE)))
        self.descriptors_ = {m: built[m] for m, _ in [*self.features, *raw]}
        self.widths_ = {m: desc._transform_stack(blank).shape[1]
                        for m, desc in self.descriptors_.items()}
        self.suspect_settings_ = [
            f"feature.gabor.frequency = {desc.frequency:g} cycles/px is above "
            "the Nyquist limit of 0.5: the filter aliases"
            for m, desc in self.descriptors_.items()
            if m == GABOR and desc.frequency > 0.5]
        return self


def coerce_scalar(text: str):
    """bool/int/float when the token reads as one, else the bare string."""
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_config_text(text: str) -> dict:
    """Flat dotted-key mapping from config file text."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParseError(f"line {lineno}: empty key")
        if key in out:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        if "," in value:
            out[key] = [coerce_scalar(v.strip()) for v in value.split(",")
                        if v.strip()]
        else:
            out[key] = coerce_scalar(value)
    return out


def _names(value) -> list:
    """A feature or classifier list: names in order, no parameters yet."""
    return [(str(v), {}) for v in (value if isinstance(value, list)
                                   else [value])]


def _integer(value) -> int:
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise ValueError("an integer")


def _number(value) -> float:
    if type(value) in (int, float):
        return float(value)
    raise ValueError("a number")


def _boolean(value) -> bool:
    """Only the tokens that ``coerce_scalar`` reads as True or False."""
    if isinstance(flag := coerce_scalar(str(value)), bool):
        return flag
    raise ValueError("true/false, yes/no or on/off")


def _attr(name: str, convert):
    return lambda cfg, value: setattr(cfg, name, convert(value))


def _preprocess(name: str, convert):
    return lambda cfg, value: cfg.preprocess.update({name: convert(value)})


def _split(name: str, convert):
    return lambda cfg, value: setattr(cfg.split, name, convert(value))


# every fixed key, how its value is checked and where it goes; besides
# these, only feature.<method>.<param> and classifier.<kind>.<param> are
# accepted
KEYS = {
    "features": _attr("features", _names),
    "classifiers": _attr("classifiers", _names),
    "raw_baseline": _attr("raw_baseline", _boolean),
    "dataset.path": _attr("dataset_path", str),
    "dataset.test_path": _attr("test_path", str),
    "dataset.schema": _attr("schema", str),
    "dataset.synthetic": _attr("synthetic", str),
    "dataset.samples": _attr("samples", _integer),
    "preprocess.target_side": _preprocess("target_side", _integer),
    "preprocess.gaussian_sigma": _preprocess("gaussian_sigma", _number),
    "preprocess.deskew": _preprocess("deskew_enabled", _boolean),
    "split.train_fraction": _split("train_fraction", _number),
    "split.seed": _split("seed", _integer),
    "split.stratified": _split("stratified", _boolean),
    "output.dir": _attr("out_dir", str),
    "output.cache_dir": _attr("cache_dir", str),
}


def config_from_mapping(pairs: dict) -> RunConfig:
    """Build a RunConfig from parsed dotted keys; the run validates it."""
    cfg = RunConfig()
    params: dict[str, dict[str, dict]] = {"feature": {}, "classifier": {}}

    for key, value in pairs.items():
        parts = key.split(".")
        if key in KEYS:
            try:
                KEYS[key](cfg, value)
            except ValueError as exc:
                raise ParseError(
                    f"config key {key!r} needs {exc}, got {value!r}") from None
        elif len(parts) == 3 and parts[0] in params:
            params[parts[0]].setdefault(parts[1], {})[parts[2]] = value
        else:
            raise ParseError(f"unknown config key {key!r}")

    order = {"feature": [m for m, _ in cfg.features],
             "classifier": [k for k, _ in cfg.classifiers]}
    for section, names in params.items():
        for name in names:
            if name not in order[section]:
                raise ParseError(
                    f"{section}.{name} configured but {name!r} is not in "
                    f"the {section} list")
    cfg.features = [(m, params["feature"].get(m, {}))
                    for m in order["feature"]]
    cfg.classifiers = [(k, params["classifier"].get(k, {}))
                       for k in order["classifier"]]
    return cfg
