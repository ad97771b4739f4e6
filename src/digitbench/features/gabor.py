"""Gabor filter bank response features.

The complex kernel is a sigma-isotropic Gaussian envelope times a plane wave
along the rotated x axis; sigma is tied to the spatial frequency bandwidth.
Images are convolved with the real part under reflect padding.
"""

from __future__ import annotations

import math

import numpy as np

from ..base import Estimator, TransformerMixin
from ..imaging import convolve2d_reflect
from ..validation import check_float, check_radius, check_spread


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
    frequency = check_float(frequency, "frequency", gt=0)
    bandwidth = check_float(bandwidth, "bandwidth", gt=0)
    n_stds = check_float(n_stds, "n_stds", gt=0)
    theta = check_float(theta, "theta")
    sigma = bandwidth_sigma(frequency, bandwidth)
    radius = check_radius(n_stds * sigma, "n_stds * sigma", n_stds=n_stds,
                          frequency=frequency, bandwidth=bandwidth)
    coords = np.arange(-radius, radius + 1, dtype=np.float64)
    x, y = np.meshgrid(coords, coords)
    rot_x = x * np.cos(theta) + y * np.sin(theta)
    rot_y = -x * np.sin(theta) + y * np.cos(theta)
    two_var = check_spread(2.0 * sigma ** 2, frequency=frequency,
                           bandwidth=bandwidth)
    envelope = np.exp(-(rot_x ** 2 + rot_y ** 2) / two_var)
    return envelope * np.exp(1j * 2.0 * np.pi * frequency * rot_x)


class GaborDescriptor(Estimator, TransformerMixin):
    """Flattened real-part Gabor response of each image.

    Parameters
    ----------
    frequency : plane-wave spatial frequency in cycles per pixel.
    theta : filter orientation in radians.
    bandwidth : spatial-frequency bandwidth in octaves, controls sigma.
    n_stds : kernel support radius in envelope standard deviations.
    """

    frequency: float = 0.9
    theta: float = 0.0
    bandwidth: float = 1.0
    n_stds: float = 3.0

    def _transform_stack(self, stack: np.ndarray) -> np.ndarray:
        kernel = gabor_kernel(self.frequency, self.theta, self.bandwidth,
                              self.n_stds)
        return convolve2d_reflect(stack, kernel.real).reshape(len(stack), -1)
