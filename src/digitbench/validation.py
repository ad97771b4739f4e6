"""Input validation helpers used at every public entry point."""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeError, StateError


def as_float_array(x, name: str = "array") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} contains non-finite values")
    return arr


def check_image(img, name: str = "image") -> np.ndarray:
    """Validate a single grayscale image: 2-D, nonempty, intensities in [0, 1]."""
    arr = as_float_array(img, name)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D (H x W), got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"{name} must be nonempty, got shape {arr.shape}")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ShapeError(f"{name} intensities must lie in [0, 1]")
    return arr


def check_image_batch(images, name: str = "images") -> np.ndarray:
    """Validate a nonempty (n, H, W) image stack and return it as float64.

    Finiteness and the [0, 1] range are checked once for the whole stack;
    the offending image is only looked for when that check fails.
    """
    try:
        stack = np.asarray(images, dtype=np.float64)
    except ValueError as exc:  # a ragged sequence, for one
        raise ShapeError(f"{name} must be an (n, H, W) stack: {exc}") from None
    if stack.ndim != 3 or not stack.size:
        raise ShapeError(f"{name} must be a nonempty (n, H, W) stack, "
                         f"got shape {stack.shape}")
    # a NaN makes min and max NaN and fails both comparisons
    if not (stack.min() >= 0.0 and stack.max() <= 1.0):
        for i, img in enumerate(stack):
            check_image(img, f"{name}[{i}]")
    return stack


def check_matrix(X, name: str = "X", expected_cols: int | None = None) -> np.ndarray:
    arr = as_float_array(X, name)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D (n_samples, n_features), got shape {arr.shape}")
    if expected_cols is not None and arr.shape[1] != expected_cols:
        raise ShapeError(
            f"{name} has {arr.shape[1]} features, the model was fitted with {expected_cols}")
    return arr


def check_X_y(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = check_matrix(X)
    y = np.asarray(y)
    if y.ndim != 1:
        raise ShapeError(f"y must be 1-D, got shape {y.shape}")
    if len(y) != X.shape[0]:
        raise ShapeError(f"X has {X.shape[0]} rows but y has {len(y)} labels")
    if y.size and (y.dtype.kind not in "iu" and not np.all(y == y.astype(np.int64))):
        raise ShapeError("y must contain integer class labels")
    y = y.astype(np.int64)
    if y.size and y.min() < 0:
        raise ShapeError("class labels must be non-negative")
    return X, y


def check_is_fitted(est, attr: str) -> None:
    if not hasattr(est, attr):
        raise StateError(f"{type(est).__name__} is not fitted; call fit first")


def check_positive(value, name: str) -> float:
    value = float(value)
    if not value > 0:
        raise ParameterError(f"{name} must be > 0, got {value}")
    return value
