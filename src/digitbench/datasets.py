"""Digit dataset handling: CSV loading, stratified splits, synthetic sets.

CSV rows hold one image each as ``side*side + 1`` numeric fields, the side
read from the row width, with the label first or last. 8-bit pixel files
are detected and divided by 255. Splits are seeded and stratified by
default, with round-half-up per-class train counts. Two deterministic
synthetic generators stand in for real digit scans where none are available.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import math
import os
import warnings
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ParseError, SplitError
from .base import IMAGE_BLOCK
from .imaging import Preprocessor, _blur, _sample_bilinear
from .validation import check_bool, check_float, check_int

LABEL_FIRST = "label_first"
LABEL_LAST = "label_last"
SCHEMAS = (LABEL_FIRST, LABEL_LAST)

N_CLASSES = 10
CACHE_VERSION = 4
SYNTHETIC_SIDE = 28  # the side of every synthetic image


@dataclass
class SplitSpec:
    """How to cut a dataset into train and test parts."""

    train_fraction: float = 0.8
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        check_float(self.train_fraction, "train_fraction", gt=0, lt=1)
        check_int(self.seed, "seed", 0)
        check_bool(self.stratified, "stratified")


def file_digest(path) -> str:
    """Hex SHA-256 of the file contents."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# np.loadtxt strips these ASCII separators around a field and float() does
# not: a line that still holds one once stripped is malformed, not data
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _data_lines(fh):
    """(line number, stripped line) of each data row of a CSV opened as text.

    Blank and whitespace-only lines are skipped, and so is line 1 when
    ``float()`` cannot read one of its fields (the header rule): no row that
    ``float()`` reads is dropped as a header.
    """
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if lineno == 1:
            try:
                [float(p) for p in line.split(",")]
            except ValueError:
                continue  # a header or a blank line 1
        if line:
            yield lineno, line


def _guarded(line: str) -> str:
    if any(ch in line for ch in _LOADTXT_ONLY_SPACE):
        raise ValueError(f"line holds a separator: {line!r}")
    return line


def _parse(lines) -> np.ndarray:
    """One float64 matrix row per line, through ``np.loadtxt``; ValueError at
    a field it cannot read."""
    with warnings.catch_warnings():
        # no rows: the line scan reports it
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(map(_guarded, lines), dtype=np.float64,
                          delimiter=",", comments=None, ndmin=2)


def _row_error(path, bad=None) -> ParseError:
    """The error naming the row that made the single parse fail.

    With ``bad``, the (row index, reason) of ``_first_bad_row``, that row's
    line; otherwise the first line that does not parse alone or does not
    hold the first row's field count. Reads the file again and keeps no row.
    """
    with open(path, encoding="utf-8-sig") as fh:
        for at, (lineno, line) in enumerate(_data_lines(fh)):
            if bad is not None:
                if at == bad[0]:
                    return ParseError(f"row {lineno}: {bad[1]}")
                continue
            try:
                width = _parse([line]).shape[1]
            except ValueError:
                return ParseError(f"row {lineno}: non-numeric field")
            n_fields = n_fields if at else width
            if width != n_fields:
                return ParseError(
                    f"row {lineno}: expected {n_fields} fields, got {width}")
    return ParseError("no data rows found")


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


def load_csv(path, schema: str = LABEL_FIRST):
    """Read an image-per-row digit CSV into ((n, side, side) images, labels).

    The row width gives the side. Values are scaled to [0, 1]; 8-bit files
    are detected by their maximum exceeding 1. A width other than
    ``side*side + 1`` is a parse error, and so are labels outside [0, 9],
    ragged rows and non-numeric fields, each naming the offending row.

    The rows are read by one ``np.loadtxt`` pass over the data lines, so a
    field is a number as loadtxt spells it (non-ASCII digits and ``1_0`` are
    not). When that pass fails, or a label or pixel is out of range, the
    file is scanned again only to name the row. The images are a strided
    view into the parsed matrix, scaled in place, so no second matrix exists.
    """
    if schema not in SCHEMAS:
        raise ParameterError(f"schema must be one of {SCHEMAS}, got {schema!r}")
    with open(path, encoding="utf-8-sig") as fh:
        try:
            data = _parse(line for _, line in _data_lines(fh))
        except ValueError:
            data = None
    if data is None or data.shape[0] == 0:
        raise _row_error(path)
    side = math.isqrt(data.shape[1] - 1)
    if not side or side * side + 1 != data.shape[1]:
        raise ParseError(f"row width {data.shape[1]} is not side*side + 1")
    bad = _first_bad_row(*_columns(data, schema))
    if bad:
        raise _row_error(path, bad)
    labels, pixels = _columns(data, schema)
    if pixels.size and pixels.max() > 1.0:
        np.divide(pixels, 255.0, out=pixels)
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
    classes with fewer than two samples cannot be stratified. A
    ``train_fraction`` that leaves either side empty is a ``SplitError``.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if n < 2:
        raise SplitError(f"need at least 2 samples to split, got {n}")
    rng = np.random.default_rng(int(spec.seed))
    frac = float(spec.train_fraction)
    groups = [np.flatnonzero(labels == cls) for cls in np.unique(labels)] \
        if spec.stratified else [np.arange(n)]
    train, test = [], []
    for idx in groups:
        if idx.shape[0] < 2:
            raise SplitError(
                f"class {labels[idx[0]]} has {idx.shape[0]} sample(s); "
                f"stratified splitting needs at least 2")
        perm = rng.permutation(idx)
        n_train = int(np.floor(frac * idx.shape[0] + 0.5))
        train.append(perm[:n_train])
        test.append(perm[n_train:])
    train, test = np.concatenate(train), np.concatenate(test)
    for side, idx in (("train", train), ("test", test)):
        if idx.shape[0] == 0:
            raise SplitError(f"train_fraction {frac:g} leaves the {side} "
                             f"side of {n} samples empty")
    return np.sort(train), np.sort(test)


# seven-segment layout: (row_start, row_stop, col_start, col_stop) on a
# SYNTHETIC_SIDE canvas, two-pixel stroke
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


def glyph_template(digit: int) -> np.ndarray:
    """Clean seven-segment rendering of a digit, white on black."""
    digit = check_int(digit, "digit", 0, 9)
    img = np.zeros((SYNTHETIC_SIDE, SYNTHETIC_SIDE))
    for name in _DIGIT_SEGMENTS[digit]:
        r0, r1, c0, c1 = _SEGMENTS[name]
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


def synthetic_glyphs(n_samples: int = 2000, seed: int = 0,
                     noise: float = 0.12):
    """Digit-glyph image set with affine, exposure, and pixel-noise jitter.

    Images are ``SYNTHETIC_SIDE`` pixels square, balanced over the ten
    classes (remainder goes to the low digits) and deterministic for a given
    (n_samples, seed, noise). Per-image contrast and brightness vary so
    scans of different exposure coexist. ``noise``, the pixel-noise standard
    deviation, is at least 0.
    """
    n_samples = check_int(n_samples, "n_samples", 1)
    noise = check_float(noise, "noise", ge=0)
    rng = np.random.default_rng(check_int(seed, "seed", 0))
    templates = np.stack([glyph_template(d) for d in range(N_CLASSES)])
    labels = np.arange(n_samples) % N_CLASSES
    side = SYNTHETIC_SIDE
    images = np.empty((n_samples, side, side))
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


def synthetic_squares(n_samples: int = 200, seed: int = 0):
    """Two-class toy set: filled squares (0) versus hollow squares (1).

    Near-centred with small size and position jitter, so every reasonable
    feature/classifier pairing separates the classes.
    """
    n_samples = check_int(n_samples, "n_samples", 1)
    rng = np.random.default_rng(check_int(seed, "seed", 0))
    labels = np.arange(n_samples) % 2
    side = SYNTHETIC_SIDE
    images = np.zeros((n_samples, side, side))
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


# what reading a cache file raises when it is truncated, not an archive,
# lacks a member, or holds a non-scalar version or row count
_UNREADABLE = (OSError, ValueError, EOFError, KeyError, TypeError,
               zipfile.BadZipFile)


def save_feature_cache(path, features: np.ndarray, labels: np.ndarray,
                       rows: int):
    """Store a matrix with its labels and the dataset's row count ``rows``
    (with a test file, the test rows follow the dataset's).

    The archive is the one ``np.savez`` writes (stored ``.npy`` members
    ``version``, ``features``, ``labels`` and ``rows``), but each member is
    written from its array's own buffer, so the write holds no serialized
    copy; only an array that is not C-contiguous is copied first. Written
    beside ``path``, then renamed into place: an interrupted write leaves
    no truncated archive under the cache name, and a write that raises
    deletes its temporary file. Then every ``features-*.npz`` beside it of
    another version or without a row count is deleted, so no older
    version's files pile up."""
    tmp = f"{path}.{os.getpid()}.tmp"
    members = {"version": np.array(CACHE_VERSION), "features": features,
               "labels": labels, "rows": np.array(rows)}
    try:
        with zipfile.ZipFile(tmp, "w", zipfile.ZIP_STORED,
                             allowZip64=True) as archive:
            for name, arr in members.items():
                # 0-d arrays are C-contiguous, so they stay 0-d
                if not arr.flags.c_contiguous:
                    arr = np.ascontiguousarray(arr)
                with archive.open(f"{name}.npy", "w",
                                  force_zip64=True) as fh:
                    np.lib.format.write_array_header_1_0(
                        fh, np.lib.format.header_data_from_array_1_0(arr))
                    # a flat byte view: memoryview.cast refuses an array
                    # with a zero-length axis
                    fh.write(arr.reshape(-1).view(np.uint8))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    cache_dir = glob.escape(os.path.dirname(path))
    for other in glob.glob(os.path.join(cache_dir, "features-*.npz")):
        try:  # reads neither matrix
            with np.load(other, allow_pickle=False) as data:
                outdated = (int(data["version"]) != CACHE_VERSION
                            or "rows" not in data.files)
            if outdated:
                os.remove(other)
        except _UNREADABLE:
            pass  # unreadable, or already removed by another writer


def load_feature_cache(path):
    """(features, labels, dataset row count), or None when absent,
    unreadable (truncated, or with a version or row count that is not a
    scalar), from another version or without a row count."""
    if not os.path.exists(path):
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            if int(data["version"]) != CACHE_VERSION:
                return None
            return data["features"], data["labels"], int(data["rows"])
    except _UNREADABLE:
        return None
