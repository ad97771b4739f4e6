"""Frozen outputs of the image pipeline.

The SHA-256 digests below were recorded from the per-image implementation
that the stacked (n, H, W) kernels replaced, on x86-64 with NumPy 2.4 and
OpenBLAS. They pin every preprocessed pixel and every feature value bit for
bit, across several processing blocks, blank and constant images, and input
sizes other than the target side (one stack per size, results concatenated
in input order).
"""

import hashlib

import numpy as np
import pytest

from digitbench.base import IMAGE_BLOCK
from digitbench.datasets import synthetic_glyphs
from digitbench.features import extract_batch
from digitbench.imaging import Preprocessor


def sha(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def mixed_batch():
    glyphs, _ = synthetic_glyphs(150, seed=7, noise=0.35)
    rng = np.random.default_rng(11)
    batch = np.concatenate([glyphs, np.zeros((1, 28, 28)),
                            np.full((1, 28, 28), 0.4),
                            rng.random((3, 28, 28))])
    assert len(batch) > 2 * IMAGE_BLOCK
    return batch


@pytest.fixture(scope="module")
def preprocessed(mixed_batch):
    return Preprocessor().transform(mixed_batch)


def test_synthetic_glyphs_unchanged():
    images, _ = synthetic_glyphs(150, seed=7, noise=0.35)
    assert sha(images) == ("c110a1012d01ff83f4dc93482853ce24"
                           "b65e7f61907815705ca8ba82a1654a94")


def test_preprocessing_unchanged(mixed_batch, preprocessed):
    assert sha(preprocessed) == ("fb46e02c76b6467b9ddb6741c99a0bf5"
                                 "c9b5abb00c3af4959b4fb4aa068a00f7")
    alt = Preprocessor(target_side=32, gaussian_sigma=1.3,
                       deskew_enabled=False).transform(mixed_batch)
    assert sha(alt) == ("429d6755ffc46f7cd86ec1c7e43c863b"
                        "bc916bb92e59a5d9b0522e8eb1c7f2be")


def test_mixed_sizes_unchanged():
    rng = np.random.default_rng(12)
    images = [rng.random(s) for s in ((40, 30), (28, 28), (64, 64), (40, 30))]
    out = np.concatenate([Preprocessor().transform(img[None])
                          for img in images])
    assert sha(out) == (
        "ce59395a00a12cbcb44e45e1d6d9f4921dcfb5ef49f4985abf1be5ff5d02944a")


@pytest.mark.parametrize("method, params, digest", [
    ("hog", None,
     "f7ca2847c4d471f7a2bd27b37f0e8da1d43c5e074efba09064b4e7b6bf3cf61d"),
    ("lbp", None,
     "f46fbaaaaf7fa6dd134212bb7b5cfac103566df72c412eee2285c6435de970bf"),
    ("gabor", None,
     "fe23e1e89cb67071c744c0b636ee80cf2a4df43ad6223964cd32ab1cf1fab762"),
    ("hog", {"cell_side": 7, "block_stride": 2, "signed_gradients": True},
     "632aed0e8c924c44ca84256e20f63d737e4e1794a83a92cf33f508add186a98e"),
    ("lbp", {"mode": "histogram", "neighbors": 8, "radius": 1.0},
     "5d29253c071b7a5a1821b9a85d288069a62c43d92d81db7cb59a75a45ffac770"),
    ("gabor", {"frequency": 0.3, "theta": 0.7},
     "b380dfa8cd8e817c7115bf5c9dc4cc5a1b48dfd6864dd10f860141d8601b7326"),
])
def test_features_unchanged(preprocessed, method, params, digest):
    assert sha(extract_batch(preprocessed, method, params)) == digest
