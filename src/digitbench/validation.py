"""Input validation helpers used at every public entry point."""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import ParameterError, ShapeError

_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
            "<=": operator.le}

# kernel radius limit in pixels: a kernel 2049 pixels across, far wider
# than any digit image
MAX_RADIUS = 1024


def check_image_batch(images, name: str = "images") -> np.ndarray:
    """Validate a nonempty (n, H, W) image stack and return it as float64.

    Finiteness and the [0, 1] range are checked once for the whole stack;
    the first offending image is only looked for when that check fails. A
    single image is the stack ``img[None]``.
    """
    try:
        stack = np.asarray(images, dtype=np.float64)
    except ValueError as exc:  # a ragged sequence, for one
        raise ShapeError(f"{name} must be an (n, H, W) stack: {exc}") from None
    if stack.ndim != 3 or not stack.size:
        raise ShapeError(f"{name} must be a nonempty (n, H, W) stack, "
                         f"got shape {stack.shape}")
    # a NaN makes min and max NaN and fails every comparison
    if not (stack.min() >= 0.0 and stack.max() <= 1.0):
        fine = ((stack >= 0.0) & (stack <= 1.0)).all(axis=(1, 2))
        i = int(np.argmin(fine))
        if np.isfinite(stack[i]).all():
            raise ShapeError(f"{name}[{i}] intensities must lie in [0, 1]")
        raise ShapeError(f"{name}[{i}] contains non-finite values")
    return stack


def check_matrix(X, name: str = "X", expected_cols: int | None = None) -> np.ndarray:
    arr = np.asarray(X, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} contains non-finite values")
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


def check_float(value, name: str, *, gt=None, ge=None, lt=None,
                le=None) -> float:
    """``value`` as a finite float within every bound given.

    NaN and +-inf fail whatever the bounds, so a NaN cannot slip through a
    comparison and an infinity cannot reach the arithmetic. A bool fails
    too: ``True`` is not the number 1.
    """
    try:
        x = math.nan if _is_bool(value) else float(value)
    except (TypeError, ValueError):
        x = math.nan
    bounds = [(op, b) for op, b in ((">", gt), (">=", ge), ("<", lt),
                                    ("<=", le)) if b is not None]
    if math.isfinite(x) and all(_COMPARE[op](x, b) for op, b in bounds):
        return x
    words = ["positive" if (op, b) == (">", 0) else f"{op} {b:g}"
             for op, b in bounds]
    if len(words) < 2:  # with bounds on both sides, finite goes unsaid
        words.append("finite")
    raise ParameterError(f"{name} must be {' and '.join(words)}, got {value}")


def check_radius(extent: float, name: str, **given) -> int:
    """``ceil(extent)`` as a kernel radius in pixels; a ParameterError naming
    ``name`` and the ``given`` parameters when it exceeds MAX_RADIUS (inf
    and NaN fail too)."""
    if not extent <= MAX_RADIUS:
        params = ", ".join(f"{k}={v}" for k, v in given.items())
        raise ParameterError(
            f"kernel radius {name} = {extent} must be at most {MAX_RADIUS} "
            f"pixels ({params})")
    return math.ceil(extent)


def check_spread(two_var: float, **given) -> float:
    """``two_var``, a Gaussian kernel's ``2 * sigma**2``, when it is positive;
    a ParameterError naming the ``given`` parameters when it underflowed to
    0, which would make every kernel weight NaN."""
    if not two_var > 0.0:
        params = ", ".join(f"{k}={v}" for k, v in given.items())
        raise ParameterError("kernel 2 * sigma**2 underflows to 0: sigma is "
                             f"too small ({params})")
    return two_var


def check_int(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int in [low, high] (no upper bound when high is None).

    Integers and floats without a fractional part pass; 2.5, NaN, +-inf
    and bools fail.
    """
    n = _whole(value)
    if n is not None and low <= n and (high is None or n <= high):
        return n
    span = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise ParameterError(
        f"{name} must be {span} and a whole number, got {value}")


def check_bool(value, name: str) -> bool:
    """``value`` when it is a bool (NumPy's too); no other value is read as
    true or false."""
    if _is_bool(value):
        return bool(value)
    raise ParameterError(f"{name} must be true or false, got {value!r}")


def _is_bool(value) -> bool:
    return isinstance(value, (bool, np.bool_))


def _whole(value) -> int | None:
    if _is_bool(value):
        return None
    if isinstance(value, (int, np.integer)):
        return int(value)
    try:
        x = float(value)
    except (TypeError, ValueError):
        return None
    return int(x) if x.is_integer() else None
