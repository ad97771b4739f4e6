"""Digit dataset handling: CSV loading, stratified splits, synthetic sets.

CSV rows hold one image each as ``side*side + 1`` numeric fields with the
label in the first or last position. Pixel scale is auto-detected: files in
8-bit range are divided by 255. Splits are seeded and stratified by default,
with round-half-up per-class train counts. Two deterministic synthetic
generators stand in for real digit scans where none are available.
"""

from __future__ import annotations

import hashlib
import os
import warnings
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ParseError, SplitError
from .base import IMAGE_BLOCK
from .imaging import Preprocessor, _blur, _sample_bilinear

LABEL_FIRST = "label_first"
LABEL_LAST = "label_last"
SCHEMAS = (LABEL_FIRST, LABEL_LAST)

N_CLASSES = 10
CACHE_VERSION = 3


@dataclass
class SplitSpec:
    """How to cut a dataset into train and test parts."""

    train_fraction: float = 0.8
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        frac = float(self.train_fraction)
        if not 0.0 < frac < 1.0:
            raise ParameterError(
                f"train_fraction must lie in (0, 1), got {frac}")


def file_digest(path) -> str:
    """Hex SHA-256 of the file contents."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _parse_csv_rows(path, n_fields: int):
    """Line-by-line parse with 1-based row numbers in every error: the error
    and fallback path of ``load_csv``.

    A single leading row that does not parse as numbers is treated as a
    header and skipped. A UTF-8 byte-order mark is not part of the first row.
    Fields go through Python ``float()``, so spellings that ``np.loadtxt``
    rejects (non-ASCII digits, ``1_0``) load here, only slower.
    """
    rows = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                values = [float(p) for p in parts]
            except ValueError:
                if lineno == 1:
                    continue
                raise ParseError(
                    f"row {lineno}: non-numeric field") from None
            if len(values) != n_fields:
                raise ParseError(
                    f"row {lineno}: expected {n_fields} fields, "
                    f"got {len(values)}")
            rows.append((lineno, values))
    if not rows:
        raise ParseError("no data rows found")
    return rows


# np.loadtxt strips these ASCII separators around a field and float() does
# not, so a line holding one is left to the line parser
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _float_lines(fh):
    """The lines of ``fh``; ValueError at one that np.loadtxt would read
    where ``float()`` would not."""
    for line in fh:
        for ch in _LOADTXT_ONLY_SPACE:
            if ch in line:
                raise ValueError(f"line holds {ch!r}")
        yield line


def _read_matrix(path, n_fields: int):
    """The data rows as one float64 matrix from a single ``np.loadtxt``
    pass, or None where the line parser has to decide: a field loadtxt
    cannot read, no rows, or a field count other than ``n_fields``.

    Line 1 is skipped when it alone does not parse as numbers (the header
    rule); loadtxt skips empty lines itself.
    """
    with open(path, encoding="utf-8-sig") as fh:
        first = fh.readline()
        try:
            [float(p) for p in first.strip().split(",")]
            fh.seek(0)
        except ValueError:
            pass  # a header or a blank line 1: start after it
        try:
            with warnings.catch_warnings():
                # no rows: the line parser reports it
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data")
                data = np.loadtxt(_float_lines(fh), dtype=np.float64,
                                  delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
    if data.shape[0] == 0 or data.shape[1] != n_fields:
        return None
    return data


def _columns(data, schema):
    """(labels, pixels) views of a row matrix."""
    if schema == LABEL_FIRST:
        return data[:, 0], data[:, 1:]
    return data[:, -1], data[:, :-1]


def _first_bad_row(labels, pixels):
    """(row index, reason) of the first row whose label lies outside [0, 9]
    or whose pixel lies outside [0, 255], or None."""
    bad = (labels != np.floor(labels)) | (labels < 0) | (labels >= N_CLASSES)
    if np.any(bad):
        at = int(np.argmax(bad))
        return at, f"label {labels[at]:g} outside [0, {N_CLASSES - 1}]"
    bad = ~((pixels >= 0) & (pixels <= 255))  # NaN fails both
    if np.any(bad):
        at = np.argwhere(bad)[0]
        return at[0], (f"pixel value {pixels[at[0], at[1]]} "
                       f"outside [0, 255]")
    return None


def load_csv(path, schema: str = LABEL_FIRST, side: int = 28):
    """Read an image-per-row digit CSV into ((n, side, side) images, labels).

    Values are scaled to [0, 1]; 8-bit files are detected by their maximum
    exceeding 1. Labels outside [0, 9], ragged rows, and non-numeric fields
    raise a parse error naming the offending row.

    A well-formed file is read by one vectorised ``np.loadtxt`` parse. Any
    file that parse cannot read, and any file that fails a label or pixel
    check, is read again by the line parser, which names the row of an
    error and accepts every spelling ``float()`` does.
    """
    if schema not in SCHEMAS:
        raise ParameterError(f"schema must be one of {SCHEMAS}, got {schema!r}")
    side = int(side)
    if side < 1:
        raise ParameterError(f"side must be >= 1, got {side}")
    n_fields = side * side + 1
    data = _read_matrix(path, n_fields)
    if data is None or _first_bad_row(*_columns(data, schema)):
        rows = _parse_csv_rows(path, n_fields)
        data = np.array([values for _, values in rows])
        bad = _first_bad_row(*_columns(data, schema))
        if bad:
            at, reason = bad
            raise ParseError(f"row {rows[at][0]}: {reason}")
    labels, pixels = _columns(data, schema)
    if pixels.size and pixels.max() > 1.0:
        pixels = pixels / 255.0
    return pixels.reshape(-1, side, side), labels.astype(np.int64)


def preprocess_all(images, pre: Preprocessor | None = None) -> np.ndarray:
    """Run the imaging pipeline over a batch, order preserved.

    A failure names the offending image's index.
    """
    if pre is None:
        pre = Preprocessor()
    return pre.transform(images)


def split_indices(labels, spec: SplitSpec):
    """Seeded train/test index arrays (each sorted ascending).

    Stratified mode draws round-half-up ``train_fraction`` of every class;
    classes with fewer than two samples cannot be stratified.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if n < 2:
        raise SplitError(f"need at least 2 samples to split, got {n}")
    rng = np.random.default_rng(int(spec.seed))
    frac = float(spec.train_fraction)
    if not spec.stratified:
        perm = rng.permutation(n)
        n_train = int(np.floor(frac * n + 0.5))
        return np.sort(perm[:n_train]), np.sort(perm[n_train:])
    train_parts, test_parts = [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.shape[0] < 2:
            raise SplitError(
                f"class {cls} has {idx.shape[0]} sample(s); stratified "
                f"splitting needs at least 2")
        perm = rng.permutation(idx)
        n_train = int(np.floor(frac * idx.shape[0] + 0.5))
        train_parts.append(perm[:n_train])
        test_parts.append(perm[n_train:])
    return (np.sort(np.concatenate(train_parts)),
            np.sort(np.concatenate(test_parts)))


# seven-segment layout: (row_start, row_stop, col_start, col_stop) on a
# 28-pixel canvas, two-pixel stroke
_SEGMENTS = {
    "top": (4, 6, 8, 20),
    "mid": (13, 15, 8, 20),
    "bottom": (22, 24, 8, 20),
    "top_left": (4, 14, 8, 10),
    "top_right": (4, 14, 18, 20),
    "bottom_left": (14, 24, 8, 10),
    "bottom_right": (14, 24, 18, 20),
}

_DIGIT_SEGMENTS = {
    0: ("top", "top_left", "top_right", "bottom_left", "bottom_right",
        "bottom"),
    1: ("top_right", "bottom_right"),
    2: ("top", "top_right", "mid", "bottom_left", "bottom"),
    3: ("top", "top_right", "mid", "bottom_right", "bottom"),
    4: ("top_left", "top_right", "mid", "bottom_right"),
    5: ("top", "top_left", "mid", "bottom_right", "bottom"),
    6: ("top", "top_left", "mid", "bottom_left", "bottom_right", "bottom"),
    7: ("top", "top_right", "bottom_right"),
    8: ("top", "top_left", "top_right", "mid", "bottom_left", "bottom_right",
        "bottom"),
    9: ("top", "top_left", "top_right", "mid", "bottom_right", "bottom"),
}


def glyph_template(digit: int, side: int = 28) -> np.ndarray:
    """Clean seven-segment rendering of a digit, white on black."""
    if digit not in _DIGIT_SEGMENTS:
        raise ParameterError(f"digit must lie in [0, 9], got {digit}")
    scale = side / 28.0
    img = np.zeros((side, side))
    for name in _DIGIT_SEGMENTS[digit]:
        r0, r1, c0, c1 = (int(round(v * scale)) for v in _SEGMENTS[name])
        img[r0:r1, c0:c1] = 1.0
    return img


def _warp_affine(stack: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Inverse-map each image of a stack by its own (2, 3) affine matrix,
    about the image centre."""
    _, h, w = stack.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h) - cy, np.arange(w) - cx, indexing="ij")
    m = mats[:, :, :, None, None]
    src_y = m[:, 0, 0] * yy + m[:, 0, 1] * xx + m[:, 0, 2] + cy
    src_x = m[:, 1, 0] * yy + m[:, 1, 1] * xx + m[:, 1, 2] + cx
    return _sample_bilinear(stack, src_y, src_x, fill=0.0)


def synthetic_glyphs(n_samples: int = 2000, seed: int = 0, side: int = 28,
                     noise: float = 0.12):
    """Digit-glyph image set with affine, exposure, and pixel-noise jitter.

    Balanced over the ten classes (remainder goes to the low digits),
    deterministic for a given (n_samples, seed, side, noise). Per-image
    contrast and brightness vary so scans of different exposure coexist.
    """
    if int(n_samples) < 1:
        raise ParameterError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(int(seed))
    templates = np.stack([glyph_template(d, side) for d in range(N_CLASSES)])
    labels = np.arange(int(n_samples)) % N_CLASSES
    images = np.empty((int(n_samples), side, side))
    for start in range(0, len(labels), IMAGE_BLOCK):
        digits = labels[start:start + IMAGE_BLOCK]
        mats, exposure, pixel_noise = [], [], []
        # draws stay in per-image order, so every seed keeps its images
        for _ in digits:
            angle = rng.uniform(-0.18, 0.18)
            shear = rng.uniform(-0.18, 0.18)
            sy, sx = rng.uniform(0.85, 1.15, size=2)
            ty, tx = rng.uniform(-2.0, 2.0, size=2)
            cos, sin = np.cos(angle), np.sin(angle)
            # inverse map: rotation+shear composed with per-axis scale,
            # then shift
            mats.append([[cos / sy, -sin / sy, ty],
                         [(sin + shear * cos) / sx,
                          (cos - shear * sin) / sx, tx]])
            exposure.append((rng.uniform(0.55, 1.0), rng.uniform(0.0, 0.15)))
            pixel_noise.append(rng.normal(0.0, noise, (side, side)))
        block = _blur(_warp_affine(templates[digits], np.array(mats)), 0.6)
        contrast, brightness = np.array(exposure).T[:, :, None, None]
        images[start:start + IMAGE_BLOCK] = np.clip(
            contrast * block + brightness + np.array(pixel_noise), 0.0, 1.0)
    return images, labels.astype(np.int64)


def synthetic_squares(n_samples: int = 200, seed: int = 0, side: int = 28):
    """Two-class toy set: filled squares (0) versus hollow squares (1).

    Near-centred with small size and position jitter, so every reasonable
    feature/classifier pairing separates the classes.
    """
    if int(n_samples) < 1:
        raise ParameterError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(int(seed))
    labels = np.arange(int(n_samples)) % 2
    images = np.zeros((int(n_samples), side, side))
    centre = (side - 14) // 2
    for i, hollow in enumerate(labels):
        size = int(rng.integers(13, 16))
        r0 = centre + int(rng.integers(-2, 3))
        c0 = centre + int(rng.integers(-2, 3))
        images[i, r0:r0 + size, c0:c0 + size] = 1.0
        if hollow:
            images[i, r0 + 3:r0 + size - 3, c0 + 3:c0 + size - 3] = 0.0
        images[i] = np.clip(
            images[i] + rng.normal(0.0, 0.02, (side, side)), 0.0, 1.0)
    return images, labels.astype(np.int64)


def save_feature_cache(path, features: np.ndarray, labels: np.ndarray,
                       rows: int):
    """Store a matrix with its labels and the dataset's row count ``rows``
    (with a test file, the test rows follow the dataset's).

    Written beside ``path``, then renamed into place: an interrupted write
    leaves no truncated archive under the cache name."""
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, version=np.array(CACHE_VERSION), features=features,
                 labels=labels, rows=np.array(rows))
    os.replace(tmp, path)


def load_feature_cache(path):
    """(features, labels, dataset row count), or None when absent,
    unreadable, from another version or without a row count."""
    if not os.path.exists(path):
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            if int(data["version"]) != CACHE_VERSION:
                return None
            return data["features"], data["labels"], int(data["rows"])
    except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile):
        return None
