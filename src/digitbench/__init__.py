"""Handcrafted-feature digit recognition benchmark library.

Preprocessing, HOG/LBP/Gabor descriptors, from-scratch classifiers, and a
benchmark harness that scores every feature x classifier pairing on a
digit dataset.
"""

from .base import ClassifierMixin, Estimator, TransformerMixin
from .errors import (
    ParameterError,
    ParseError,
    ShapeError,
    SplitError,
    StateError,
)
from .imaging import Preprocessor, gaussian_kernel_1d

__version__ = "0.1.0"

__all__ = [
    "ClassifierMixin", "Estimator", "TransformerMixin",
    "ParameterError", "ParseError", "ShapeError", "SplitError", "StateError",
    "Preprocessor", "gaussian_kernel_1d", "__version__",
]
