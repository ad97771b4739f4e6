"""Versioned .npz serialization for fitted classifiers.

Layout: a JSON ``meta`` entry (format version, classifier kind, constructor
params, class labels) plus one array per entry of the class's ``_SAVED``
table ({file key: fitted attribute}). The flat ``trees_`` list of a class
that sets ``_SAVES_TREES`` is stored as ``tree_offsets`` (tree i owns nodes
``offsets[i]:offsets[i + 1]``) plus one ``node_<field>`` array per ``Tree``
field, concatenated over the trees; a file without them is not a model of
that class. A loaded model predicts identically to the one saved.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import fields

import numpy as np

from ..errors import ParseError
from . import classifier_kind, make_classifier
from ._tree import Tree

FORMAT_VERSION = 1

_NODE_FIELDS = [f.name for f in fields(Tree)]


def save_model(model, path) -> None:
    """Write a fitted classifier to an .npz file."""
    meta = {
        "format_version": FORMAT_VERSION,
        "kind": classifier_kind(model),
        "params": model.get_params(),
        "classes": np.asarray(model.classes_).tolist(),
    }
    arrays = {key: np.asarray(getattr(model, attr))
              for key, attr in model._SAVED.items()}
    if model._SAVES_TREES:
        trees = model.trees_
        arrays["tree_offsets"] = np.cumsum(
            [0] + [t.n_nodes for t in trees], dtype=np.int64)
        if trees:
            arrays.update({f"node_{name}": np.concatenate(
                [getattr(t, name) for t in trees]) for name in _NODE_FIELDS})
    np.savez(path, meta=json.dumps(meta), **arrays)


def load_model(path):
    """Reconstruct a fitted classifier saved by ``save_model``."""
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, OSError, zipfile.BadZipFile) as exc:
        raise ParseError(f"not a recognized model file: {exc}") from exc
    with data:
        try:
            meta = json.loads(str(data["meta"]))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"not a recognized model file: {exc}") from exc
        version = meta.get("format_version")
        if version != FORMAT_VERSION:
            raise ParseError(
                f"unsupported model format version {version!r} "
                f"(expected {FORMAT_VERSION})")
        try:
            model = make_classifier(meta["kind"], **meta["params"])
            model.classes_ = np.asarray(meta["classes"], dtype=np.int64)
            for key, attr in model._SAVED.items():
                setattr(model, attr, data[key][()])
            if model._SAVES_TREES:
                offsets = data["tree_offsets"]
                nodes = ({name: data[f"node_{name}"] for name in _NODE_FIELDS}
                         if len(offsets) > 1 else {})
                model.trees_ = [
                    Tree(**{name: arr[lo:hi] for name, arr in nodes.items()})
                    for lo, hi in zip(offsets[:-1], offsets[1:])]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"not a recognized model file: {exc}") from exc
    return model
