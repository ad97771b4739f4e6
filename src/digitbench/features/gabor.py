"""Gabor filter bank response features.

The complex kernel is a sigma-isotropic Gaussian envelope times a plane wave
along the rotated x axis; sigma is tied to the spatial frequency bandwidth.
Images are convolved with the real part under reflect padding.
"""

from __future__ import annotations

import math

import numpy as np

from ..base import Estimator, TransformerMixin
from ..errors import ParameterError


# kernel radius limit in pixels: a 2049 x 2049 kernel, far wider than any
# digit image
MAX_RADIUS = 1024


def bandwidth_sigma(frequency: float, bandwidth: float) -> float:
    """Envelope sigma for a given half-response spatial-frequency bandwidth.

    From a bandwidth of 54 octaves on the ratio rounds to exactly 1.0, so
    capping the power at 2**64 changes no result and cannot overflow. A
    bandwidth so small that the power rounds to 1.0 gives an infinite sigma.
    """
    power = 2.0 ** min(bandwidth, 64.0)
    ratio = (power + 1.0) / (power - 1.0) if power > 1.0 else math.inf
    return (1.0 / (np.pi * frequency)) * math.sqrt(math.log(2.0) / 2.0) * ratio


def gabor_kernel(frequency: float = 0.9, theta: float = 0.0,
                 bandwidth: float = 1.0, n_stds: float = 3.0) -> np.ndarray:
    """Complex Gabor kernel, sized to cover n_stds envelope deviations."""
    for name, value in (("frequency", frequency), ("bandwidth", bandwidth),
                        ("n_stds", n_stds)):
        if not 0 < value < math.inf:  # NaN fails too
            raise ParameterError(
                f"{name} must be positive and finite, got {value}")
    if not math.isfinite(theta):
        raise ParameterError(f"theta must be finite, got {theta}")
    sigma = bandwidth_sigma(frequency, bandwidth)
    if not n_stds * sigma <= MAX_RADIUS:  # inf and NaN fail too
        raise ParameterError(
            f"kernel radius n_stds * sigma = {n_stds * sigma} must be at "
            f"most {MAX_RADIUS} pixels (n_stds={n_stds}, "
            f"frequency={frequency}, bandwidth={bandwidth})")
    radius = int(math.ceil(n_stds * sigma))
    coords = np.arange(-radius, radius + 1, dtype=np.float64)
    x, y = np.meshgrid(coords, coords)
    rot_x = x * np.cos(theta) + y * np.sin(theta)
    rot_y = -x * np.sin(theta) + y * np.cos(theta)
    envelope = np.exp(-(rot_x ** 2 + rot_y ** 2) / (2.0 * sigma ** 2))
    return envelope * np.exp(1j * 2.0 * np.pi * frequency * rot_x)


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


class GaborDescriptor(Estimator, TransformerMixin):
    """Flattened real-part Gabor response of each image.

    Parameters
    ----------
    frequency : plane-wave spatial frequency in cycles per pixel.
    theta : filter orientation in radians.
    bandwidth : spatial-frequency bandwidth in octaves, controls sigma.
    n_stds : kernel support radius in envelope standard deviations.
    """

    def __init__(self, frequency: float = 0.9, theta: float = 0.0,
                 bandwidth: float = 1.0, n_stds: float = 3.0):
        self.frequency = frequency
        self.theta = theta
        self.bandwidth = bandwidth
        self.n_stds = n_stds

    def _transform_stack(self, stack: np.ndarray) -> np.ndarray:
        kernel = gabor_kernel(self.frequency, self.theta, self.bandwidth,
                              self.n_stds)
        return convolve2d_reflect(stack, kernel.real).reshape(len(stack), -1)
