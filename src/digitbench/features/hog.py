"""Histogram of oriented gradients descriptor.

Gradients use centered differences with replicate borders. Each pixel votes
its gradient magnitude into the two orientation bins nearest its (by default
unsigned) gradient angle, accumulated per cell. Overlapping blocks of cells
are L2-Hys normalized and concatenated.
"""

from __future__ import annotations

import numpy as np

from ..base import Estimator, TransformerMixin
from ..errors import ParameterError
from ..validation import check_bool, check_int

L2_HYS_CLIP = 0.2
_NORM_EPS = 1e-12


def image_gradients(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centered-difference gradients (gx, gy) with replicate borders.

    Works on one (H, W) image or on any stack of them (..., H, W).
    """
    h, w = img.shape[-2:]
    gx = np.zeros_like(img)
    gy = np.zeros_like(img)
    if w >= 2:
        gx[..., 1:-1] = img[..., 2:] - img[..., :-2]
        gx[..., 0] = img[..., 1] - img[..., 0]
        gx[..., -1] = img[..., -1] - img[..., -2]
    if h >= 2:
        gy[..., 1:-1, :] = img[..., 2:, :] - img[..., :-2, :]
        gy[..., 0, :] = img[..., 1, :] - img[..., 0, :]
        gy[..., -1, :] = img[..., -1, :] - img[..., -2, :]
    return gx, gy


class HogDescriptor(Estimator, TransformerMixin):
    """HOG feature extractor over square cells and overlapping blocks.

    Parameters
    ----------
    cell_side : pixels per cell edge; must divide both image sides.
    block_side : cells per block edge.
    n_bins : orientation histogram bins (>= 2).
    block_stride : block step in cells.
    signed_gradients : bin over [0, 360) instead of the default [0, 180).
    """

    cell_side: int = 4
    block_side: int = 2
    n_bins: int = 9
    block_stride: int = 1
    signed_gradients: bool = False

    def _check_geometry(self, h: int, w: int) -> tuple[int, int]:
        cs = check_int(self.cell_side, "cell_side", 1)
        check_int(self.n_bins, "n_bins", 2)
        check_int(self.block_stride, "block_stride", 1)
        check_bool(self.signed_gradients, "signed_gradients")
        if h % cs or w % cs:
            raise ParameterError(
                f"cell_side {cs} must divide the image sides, got {h}x{w}")
        cells_y, cells_x = h // cs, w // cs
        check_int(self.block_side, "block_side", 1, min(cells_y, cells_x))
        return cells_y, cells_x

    def _cell_histograms(self, stack: np.ndarray) -> np.ndarray:
        """Per-cell orientation histograms before block normalization.

        Returns an (n, cells_y, cells_x, n_bins) array of magnitude-weighted
        votes for a validated (n, H, W) stack.
        """
        n, h, w = stack.shape
        cells_y, cells_x = self._check_geometry(h, w)
        cs = int(self.cell_side)
        n_bins = int(self.n_bins)

        gx, gy = image_gradients(stack)
        mag = np.hypot(gx, gy)
        period = 2.0 * np.pi if self.signed_gradients else np.pi
        ang = np.mod(np.arctan2(gy, gx), period)

        # soft orientation binning: split each vote between the two bins whose
        # centers bracket the angle, circularly
        pos = ang * (n_bins / period) - 0.5
        lower = np.floor(pos)
        frac = pos - lower
        lo_bin = lower.astype(np.int64) % n_bins
        hi_bin = (lo_bin + 1) % n_bins

        # one bincount for the whole stack: image i owns slots from i * n_slots
        ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        n_slots = cells_y * cells_x * n_bins
        slot = ((ys // cs) * cells_x + (xs // cs)) * n_bins \
            + np.arange(n).reshape(n, 1, 1) * n_slots
        hist = np.bincount((slot + lo_bin).ravel(),
                           weights=(mag * (1.0 - frac)).ravel(),
                           minlength=n * n_slots)
        hist += np.bincount((slot + hi_bin).ravel(),
                            weights=(mag * frac).ravel(), minlength=n * n_slots)
        return hist.reshape(n, cells_y, cells_x, n_bins)

    def _transform_stack(self, stack: np.ndarray) -> np.ndarray:
        hist = self._cell_histograms(stack)
        n, cells_y, cells_x, n_bins = hist.shape
        bs = int(self.block_side)
        stride = int(self.block_stride)
        first_y = np.arange((cells_y - bs) // stride + 1) * stride
        first_x = np.arange((cells_x - bs) // stride + 1) * stride
        cell = np.arange(bs)
        # (n, blocks_y, blocks_x, bs, bs, n_bins): each block's cells in order
        blocks = hist[:, (first_y[:, None] + cell)[:, None, :, None],
                      (first_x[:, None] + cell)[None, :, None, :], :]
        return _l2_hys(blocks.reshape(-1, bs * bs * n_bins)).reshape(n, -1)


def _norms(rows: np.ndarray) -> np.ndarray:
    # one dot per row, the same reduction np.linalg.norm makes for a vector;
    # a batched einsum or sum sums in another order and changes the last bit
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def _l2_hys(rows: np.ndarray) -> np.ndarray:
    """L2-Hys of each row: normalize, clip at L2_HYS_CLIP, renormalize."""
    norm = _norms(rows)
    blank = norm < _NORM_EPS
    rows = rows / np.where(blank, 1.0, norm)[:, None]
    np.minimum(rows, L2_HYS_CLIP, out=rows)
    rows /= np.where(blank, 1.0, _norms(rows))[:, None]
    rows[blank] = 0.0
    return rows
