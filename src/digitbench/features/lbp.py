"""Local binary patterns on a circular sampling ring.

Each interior pixel is compared against `neighbors` points sampled (with
bilinear value interpolation) on a circle of the given radius; the comparison
bits form an integer code. Pixels whose ring would leave the image get code 0.
"""

from __future__ import annotations

import numpy as np

from ..base import Estimator, TransformerMixin
from ..errors import ParameterError
from ..imaging import _sample_bilinear
from ..validation import check_float, check_int

MODES = ("flat", "histogram")


def ring_offsets(neighbors: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """(dy, dx) sample offsets, counterclockwise from the +x axis."""
    angles = 2.0 * np.pi * np.arange(neighbors) / neighbors
    return radius * np.sin(angles), radius * np.cos(angles)


class LbpDescriptor(Estimator, TransformerMixin):
    """Local binary pattern extractor.

    Parameters
    ----------
    neighbors : ring sample count, 1..24 (codes fit an int64 comfortably).
    radius : ring radius in pixels; 2 * radius must be under the image side.
    mode : "flat" returns the code image scaled to [0, 1] and flattened;
        "histogram" returns a normalized 2**neighbors bin code histogram.
    """

    neighbors: int = 10
    radius: float = 3.0
    mode: str = "flat"

    def _check_params(self) -> int:
        """The checked neighbor count; the radius is checked per image size."""
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        return check_int(self.neighbors, "neighbors", 1, 24)

    def _codes(self, stack: np.ndarray) -> np.ndarray:
        """Integer code per pixel of each image; border pixels get 0."""
        p = self._check_params()
        _, h, w = stack.shape
        # the ring fits in the image: 2 * radius < side
        r = check_float(self.radius, "radius", gt=0, lt=min(h, w) / 2)
        dy, dx = ring_offsets(p, r)

        # only the interior band keeps its ring inside the image; every
        # other pixel gets code 0, so only the interior is sampled
        lo = int(np.ceil(r))
        ys, xs = np.meshgrid(np.arange(lo, h - lo, dtype=np.float64),
                             np.arange(lo, w - lo, dtype=np.float64),
                             indexing="ij")
        center = stack[:, lo:h - lo, lo:w - lo]
        inner = np.zeros(center.shape, dtype=np.int64)
        for k in range(p):
            sample = _sample_bilinear(stack, ys + dy[k], xs + dx[k])
            inner |= (sample >= center).astype(np.int64) << k
        codes = np.zeros(stack.shape, dtype=np.int64)
        codes[:, lo:h - lo, lo:w - lo] = inner
        return codes

    def _transform_stack(self, stack: np.ndarray) -> np.ndarray:
        p = self._check_params()
        codes = self._codes(stack).reshape(len(stack), -1)
        n_codes = 1 << p
        if self.mode == "histogram":
            # one bincount for the stack: image i owns bins from i * n_codes
            offsets = np.arange(len(stack))[:, None] * n_codes
            hist = np.bincount((codes + offsets).ravel(),
                               minlength=len(stack) * n_codes)
            return hist.reshape(len(stack), n_codes).astype(np.float64) \
                / codes.shape[1]
        return codes.astype(np.float64) / (n_codes - 1)
