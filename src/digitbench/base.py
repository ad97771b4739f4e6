"""Minimal estimator plumbing.

Every ``Estimator`` subclass is a dataclass whose fields are its
hyperparameters; fitted state lives in trailing-underscore attributes.
``get_params`` follows the scikit-learn contract. Feature cache keys are
built from ``get_params()``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ShapeError, StateError
from .validation import check_image_batch, check_matrix, check_X_y

# images per call of a stacked kernel: enough to amortise NumPy's per-call
# overhead, few enough that a block's temporaries stay small at any batch size
IMAGE_BLOCK = 32
# elements (2 MiB of float64) per block of a classifier's blocked
# temporaries, so their memory stays flat as rows grow; read at call time as
# ``base.BLOCK_ELEMENTS``, so one patch resizes every blocked loop
BLOCK_ELEMENTS = 262_144


class Estimator:
    """Base class: each subclass is made a dataclass of its hyperparameters.

    ``eq=False`` keeps identity equality and hashing, so two estimators
    with equal hyperparameters are still distinct objects.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        dataclasses.dataclass(cls, eq=False)

    def get_params(self) -> dict:
        """Hyperparameters by name, in declaration order."""
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}


class TransformerMixin:
    """Stateless image transformer over (n, H, W) stacks.

    Subclasses implement ``_transform_stack``, which maps a validated float64
    stack to one output row per image. ``transform`` runs it on consecutive
    IMAGE_BLOCK-image blocks of one (n, H, W) stack, so memory stays bounded
    as the batch grows. A single image is the stack ``img[None]``.
    """

    def _transform_stack(self, stack: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def transform(self, images) -> np.ndarray:
        """One output row per image of an (n, H, W) stack, in input order."""
        stack = check_image_batch(images)
        out = None
        for start in range(0, len(stack), IMAGE_BLOCK):
            part = self._transform_stack(stack[start:start + IMAGE_BLOCK])
            if out is None:
                out = np.empty((len(stack),) + part.shape[1:])
            out[start:start + IMAGE_BLOCK] = part
        return out


class ClassifierMixin:
    """The input contract of every classifier, and predict over
    ``predict_scores``.

    ``fit`` starts with ``_fit_data`` and sets ``n_features_`` last, so a
    fit that raises leaves the model unfitted. ``predict_scores`` starts
    with ``_predict_data``.
    """

    def _fit_data(self, X, y) -> tuple[np.ndarray, np.ndarray]:
        """Checked (X, class index of each row); sets ``classes_``."""
        vars(self).pop("n_features_", None)
        X, y = check_X_y(X, y)
        if X.shape[0] == 0:
            raise StateError("cannot fit on an empty training set")
        if X.shape[1] == 0:
            raise ShapeError("cannot fit on X with no feature columns")
        self.classes_, y_idx = np.unique(y, return_inverse=True)
        return X, y_idx

    def _predict_data(self, X) -> np.ndarray:
        """X checked against the fitted column count."""
        if not hasattr(self, "n_features_"):
            raise StateError(
                f"{type(self).__name__} is not fitted; call fit first")
        return check_matrix(X, expected_cols=self.n_features_)

    def predict(self, X) -> np.ndarray:
        """The class with the highest score, the first of tied ones."""
        # scores first: they raise StateError on an unfitted model
        scores = self.predict_scores(X)
        return self.classes_[np.argmax(scores, axis=1)]
