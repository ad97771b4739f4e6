"""Plain-PGM rendering of images and feature-space views.

``visualize`` writes exactly three files per call: the original image, its
preprocessed form, and a feature rendering. HOG becomes a grid of oriented
line glyphs (one per cell, line strength tracking bin weight), LBP becomes
its code image, Gabor the filter response; raw repeats the preprocessed
image.
"""

from __future__ import annotations

import os

import numpy as np

from .features import GABOR, HOG, LBP, make_descriptor
from .imaging import Preprocessor
from .validation import check_image_batch

_HOG_CELL_PIXELS = 16


def write_pgm(path, img: np.ndarray) -> None:
    """Write a [0, 1] grayscale image as ASCII PGM (P2, maxval 255)."""
    img = check_image_batch(np.asarray(img)[None])[0]
    levels = np.clip(np.rint(img * 255.0), 0, 255).astype(int)
    h, w = levels.shape
    lines = [f"{' '.join(str(v) for v in row)}" for row in levels]
    with open(path, "w") as fh:
        fh.write(f"P2\n{w} {h}\n255\n" + "\n".join(lines) + "\n")


def render_hog(img: np.ndarray, descriptor) -> np.ndarray:
    """Oriented-line glyph per cell; line direction shows the edge, not the
    gradient, so strokes align with the strokes of the glyph itself. Each
    weighted (cell, bin) is a line through the cell's centre, all sampled as
    one (lines, samples) array; a pixel keeps the strongest line through it.
    """
    hists = descriptor._cell_histograms(
        check_image_batch(np.asarray(img)[None]))[0]
    cells_y, cells_x, n_bins = hists.shape
    peak = hists.max()
    if peak > 0:
        hists = hists / peak
    side = _HOG_CELL_PIXELS
    canvas = np.zeros((cells_y * side, cells_x * side))
    period = np.pi if not descriptor.signed_gradients else 2 * np.pi
    cy, cx, b = np.nonzero(hists > 0)
    angle = ((b + 0.5) * period / n_bins + np.pi / 2.0)[:, None]
    half_len = side / 2 - 1.0
    ts = np.linspace(-half_len, half_len, max(int(half_len * 4), 2))
    ys = np.rint((cy * side + side / 2 - 0.5)[:, None] + ts * np.sin(angle))
    xs = np.rint((cx * side + side / 2 - 0.5)[:, None] + ts * np.cos(angle))
    np.maximum.at(canvas, (np.clip(ys, 0, canvas.shape[0] - 1).astype(int),
                           np.clip(xs, 0, canvas.shape[1] - 1).astype(int)),
                  hists[cy, cx, b][:, None])
    return canvas


def render_lbp(img: np.ndarray, descriptor) -> np.ndarray:
    codes = descriptor._codes(check_image_batch(np.asarray(img)[None]))[0]
    return codes / float(2 ** int(descriptor.neighbors) - 1)


def render_gabor(img: np.ndarray, descriptor) -> np.ndarray:
    img = np.asarray(img)
    response = descriptor.transform(img[None]).reshape(img.shape)
    lo, hi = response.min(), response.max()
    if hi - lo < 1e-12:
        return np.zeros_like(response)
    return (response - lo) / (hi - lo)


def render_feature(img: np.ndarray, method: str, params=None) -> np.ndarray:
    """Feature-space view of one preprocessed image."""
    desc = make_descriptor(method, params)
    if method == HOG:
        return render_hog(img, desc)
    if method == LBP:
        return render_lbp(img, desc)
    if method == GABOR:
        return render_gabor(img, desc)
    return check_image_batch(np.asarray(img)[None])[0].copy()


def visualize(img, method: str = HOG, params=None, out_dir=".",
              stem: str = "digit", pre: Preprocessor | None = None):
    """Write original, preprocessed, and feature views; returns the 3 paths."""
    img = check_image_batch(np.asarray(img)[None])[0]
    if pre is None:
        pre = Preprocessor()
    processed = pre.transform(img[None])[0]
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for tag, view in (("original", img), ("preprocessed", processed),
                      (method, render_feature(processed, method, params))):
        path = os.path.join(out_dir, f"{stem}-{tag}.pgm")
        write_pgm(path, view)
        paths.append(path)
    return paths
