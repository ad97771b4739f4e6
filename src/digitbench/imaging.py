"""Grayscale image preprocessing: resize, denoise, deskew.

Every preprocessing kernel takes and returns an (n, H, W) float64 stack with
intensities in [0, 1], and ``Preprocessor.transform`` runs them over blocks
of such a stack. 8-bit inputs are expected to be divided by 255 at ingestion
(see datasets). The features share two primitives defined here: bilinear
sampling (LBP) and reflect-padded convolution (Gabor, and the blur).
"""

from __future__ import annotations

import numpy as np

from .base import Estimator, TransformerMixin
from .validation import (check_bool, check_float, check_int, check_radius,
                         check_spread)


def _sample_bilinear(img: np.ndarray, ys: np.ndarray, xs: np.ndarray,
                     fill: float | None = None) -> np.ndarray:
    """Sample every image of an (n, H, W) stack at fractional (ys, xs).

    The coordinate arrays broadcast against the (n, h, w) output: an (h, w)
    grid is shared by every image, an (n, h, w) one is per image. With
    fill=None coordinates are clamped to the borders; otherwise samples whose
    2x2 support exits the image blend toward ``fill``. The incremental form
    (base + fraction * difference) is exact for constant neighborhoods.
    """
    n, h, w = img.shape
    if fill is None:
        ys = np.clip(ys, 0.0, h - 1.0)
        xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    fy = ys - y0
    fx = xs - x0
    if fill is None:
        y1 = np.minimum(y0 + 1, h - 1)
        x1 = np.minimum(x0 + 1, w - 1)
    else:
        # a one-pixel border of fill: every index outside the image clips
        # onto it, so no mask is needed
        img = np.pad(img, ((0, 0), (1, 1), (1, 1)), constant_values=fill)
        y0, x0, y1, x1 = (np.clip(v, 0, lim) for v, lim in (
            (y0 + 1, h + 1), (x0 + 1, w + 1), (y0 + 2, h + 1),
            (x0 + 2, w + 1)))
        h, w = h + 2, w + 2
    flat = img.reshape(n, h * w)
    rows = np.arange(n).reshape(n, 1, 1) * (h * w)

    def at(yy, xx):
        idx = yy * w + xx
        if idx.ndim == 2:  # one grid for every image
            return flat[:, idx]
        return flat.ravel().take(idx + rows)

    v00, v01, v10, v11 = at(y0, x0), at(y0, x1), at(y1, x0), at(y1, x1)
    top = v00 + fx * (v01 - v00)
    bot = v10 + fx * (v11 - v10)
    return top + fy * (bot - top)


def convolve2d_reflect(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Same-size 2-D convolution with reflect padding.

    Convolves one (H, W) image or every image of a stack (..., H, W).
    """
    kh, kw = kernel.shape
    ry, rx = kh // 2, kw // 2
    lead = ((0, 0),) * (img.ndim - 2)
    padded = np.pad(img, lead + ((ry, ry), (rx, rx)), mode="reflect")
    flipped = kernel[::-1, ::-1]
    h, w = img.shape[-2:]
    out = np.zeros(img.shape, dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            weight = flipped[i, j]
            if weight != 0.0:
                out += weight * padded[..., i:i + h, j:j + w]
    return out


def _resize(stack: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize; ``src = (dst + 0.5) * (in / out) - 0.5``, clamped."""
    _, h, w = stack.shape
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    return np.clip(_sample_bilinear(stack, yy, xx), 0.0, 1.0)


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Discrete Gaussian of radius ceil(3*sigma), normalized to sum 1."""
    sigma = check_float(sigma, "sigma", gt=0)
    radius = check_radius(3.0 * sigma, "3 * sigma", sigma=sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    two_var = check_spread(2.0 * sigma * sigma, sigma=sigma)
    kernel = np.exp(-(offsets**2) / two_var)
    return kernel / kernel.sum()


def _blur(stack: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian convolution with reflect padding; shape is kept.

    Columns, then rows: the other order rounds differently."""
    k = gaussian_kernel_1d(sigma)
    return np.clip(convolve2d_reflect(convolve2d_reflect(stack, k[None, :]),
                                      k[:, None]), 0.0, 1.0)


def _skew(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-image (mu11/mu02 skew, intensity centroid row) of a stack.

    The skew is 0 for a blank image and for one with no vertical spread.
    """
    _, h, w = stack.shape
    ys = np.arange(h, dtype=np.float64)[:, None]
    xs = np.arange(w, dtype=np.float64)[None, :]
    total = stack.sum(axis=(1, 2))
    inked = total > 1e-12
    total = np.where(inked, total, 1.0)
    cy = ((ys * stack).sum(axis=(1, 2)) / total)[:, None, None]
    cx = ((xs * stack).sum(axis=(1, 2)) / total)[:, None, None]
    mu11 = ((xs - cx) * (ys - cy) * stack).sum(axis=(1, 2))
    mu02 = (((ys - cy) ** 2) * stack).sum(axis=(1, 2))
    spread = inked & (mu02 >= 1e-12)
    skew = np.where(spread, mu11 / np.where(spread, mu02, 1.0), 0.0)
    return skew, cy[:, 0, 0]


def _deskew(stack: np.ndarray) -> np.ndarray:
    """Cancel each skew by the shear x' = x - skew * (y - centroid_y)."""
    skew, cy = _skew(stack)
    _, h, w = stack.shape
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    src_x = xx + skew[:, None, None] * (yy - cy[:, None, None])
    out = np.clip(_sample_bilinear(stack, yy, src_x, fill=0.0), 0.0, 1.0)
    unskewed = skew == 0.0
    out[unskewed] = stack[unskewed]
    return out


class Preprocessor(Estimator, TransformerMixin):
    """Digit image pipeline: resize to a square side, Gaussian denoise, deskew.

    Stateless; ``transform`` maps an (n, H, W) stack of [0, 1] images to an
    (n, target_side, target_side) array. A stack already at the target side
    skips the resize, which would return it bit for bit.
    """

    target_side: int = 28
    gaussian_sigma: float = 0.8
    deskew_enabled: bool = True

    def _check_params(self) -> None:
        check_int(self.target_side, "target_side", 8)
        check_float(self.gaussian_sigma, "gaussian_sigma", gt=0)
        check_bool(self.deskew_enabled, "deskew_enabled")

    def _transform_stack(self, stack: np.ndarray) -> np.ndarray:
        self._check_params()
        side = int(self.target_side)
        if stack.shape[1:] != (side, side):
            stack = _resize(stack, side, side)
        out = _blur(stack, self.gaussian_sigma)
        return _deskew(out) if self.deskew_enabled else out
