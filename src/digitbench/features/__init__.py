"""Feature descriptors: HOG, LBP, Gabor, and raw pixels.

``extract`` dispatches one image through a named extractor and tags the
result; ``extract_batch`` runs a whole batch through it. Every extractor
works on (n, H, W) image stacks, a block of images at a time, and each image
is processed independently, so a row never depends on the rest of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..base import Estimator, TransformerMixin
from ..errors import ParameterError, ShapeError
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


@dataclass
class FeatureVector:
    """One extractor's output for one image, tagged with its method name."""

    values: np.ndarray
    method: str
    dim: int = field(init=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        if not np.all(np.isfinite(self.values)):
            raise ShapeError("feature values must be finite")
        self.dim = self.values.shape[0]


def make_descriptor(method: str, params=None):
    """Resolve (method, params) to a descriptor instance.

    ``params`` may be None (defaults), a dict of constructor arguments, or an
    already-built descriptor whose type must match the method name.
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
    if isinstance(params, tuple(_DESCRIPTORS.values())):
        if not isinstance(params, cls):
            raise ParameterError(
                f"params of type {type(params).__name__} do not match method {method!r}")
        return params
    raise ParameterError(
        f"params must be None, a dict, or a descriptor, got {type(params).__name__}")


def extract(img, method: str, params=None) -> FeatureVector:
    """Run one image through the named extractor."""
    desc = make_descriptor(method, params)
    return FeatureVector(desc.transform_one(img), method)


def extract_batch(images, method: str, params=None) -> np.ndarray:
    """Feature matrix (n_images, dim) for a batch."""
    return make_descriptor(method, params).transform(images)


__all__ = [
    "GABOR", "HOG", "LBP", "METHODS", "RAW",
    "FeatureVector", "GaborDescriptor", "HogDescriptor", "LbpDescriptor",
    "RawDescriptor", "bandwidth_sigma", "convolve2d_reflect", "extract",
    "extract_batch", "gabor_kernel", "image_gradients", "make_descriptor",
    "ring_offsets",
]
