"""Feature descriptors: HOG, LBP, Gabor, and raw pixels.

``make_descriptor`` resolves a method name to its extractor and
``extract_batch`` runs a whole batch through it. Every extractor works on
(n, H, W) image stacks, a block of images at a time, and each image is
processed independently, so a row never depends on the rest of the batch.
"""

from __future__ import annotations

import numpy as np

from ..base import Estimator, TransformerMixin
from ..errors import ParameterError
from .gabor import GaborDescriptor, bandwidth_sigma, convolve2d_reflect, gabor_kernel
from .hog import HogDescriptor, image_gradients
from .lbp import LbpDescriptor, ring_offsets

HOG = "hog"
LBP = "lbp"
GABOR = "gabor"
RAW = "raw"

METHODS = (HOG, LBP, GABOR, RAW)


class RawDescriptor(Estimator, TransformerMixin):
    """Identity feature: each image flattened to a pixel vector."""

    def _transform_stack(self, stack: np.ndarray) -> np.ndarray:
        return stack.reshape(len(stack), -1)


_DESCRIPTORS = {
    HOG: HogDescriptor,
    LBP: LbpDescriptor,
    GABOR: GaborDescriptor,
    RAW: RawDescriptor,
}


def make_descriptor(method: str, params=None):
    """Resolve (method, params) to a descriptor instance.

    ``params`` may be None (defaults), a dict of constructor arguments, or
    a descriptor of the method's class, built already and returned as is.
    """
    try:
        cls = _DESCRIPTORS[method]
    except KeyError:
        raise ParameterError(
            f"unknown feature method {method!r}, expected one of {METHODS}") from None
    if params is None:
        return cls()
    if isinstance(params, dict):
        return cls(**params)
    if type(params) is cls:
        return params
    raise ParameterError(f"params must be None, a dict or a {cls.__name__}, "
                         f"got {type(params).__name__}")


def extract_batch(images, method: str, params=None) -> np.ndarray:
    """Feature matrix (n_images, dim) for a batch."""
    return make_descriptor(method, params).transform(images)


__all__ = [
    "GABOR", "HOG", "LBP", "METHODS", "RAW",
    "GaborDescriptor", "HogDescriptor", "LbpDescriptor", "RawDescriptor",
    "bandwidth_sigma", "convolve2d_reflect", "extract_batch", "gabor_kernel",
    "image_gradients", "make_descriptor", "ring_offsets",
]
