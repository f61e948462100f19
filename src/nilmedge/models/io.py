"""Model file format.

Binary: magic ``NLMM``, little-endian u16 version, u8 kind, then a
length-prefixed JSON header (class table, layout, selected indices,
kind-specific scalars, and an array manifest) followed by the raw numeric
sections in manifest order. All reals are 64-bit IEEE, so a round trip
reproduces predictions bit for bit.

A JSON text twin of the same content exists for inspection; reals are
hex-encoded (float.hex) there to stay lossless.

Each kind's layout is written down once: `_parts` gives its header scalars
and its arrays by name, both writers take them from `_header`, and
`_rebuild` reads the arrays back under the same names.
"""

from __future__ import annotations

import json
import math
import operator
import struct
from pathlib import Path

import numpy as np

from ..features import FeatureLayout
from .base import BaseModel, Scaler
from .forest import RfModel, TreeNodes
from .knn import KnnModel
from .mlp import MlpModel
from .svm import SvmModel

MAGIC = b"NLMM"
FORMAT_VERSION = 1

KIND_CODES = {"knn": 1, "svm": 2, "mlp": 3, "rf": 4}
KIND_NAMES = {v: k for k, v in KIND_CODES.items()}
KIND_CLASSES = {"knn": KnnModel, "svm": SvmModel, "mlp": MlpModel, "rf": RfModel}


class ModelFormatError(ValueError):
    """The byte stream is not a model file."""


class ModelVersionError(ModelFormatError):
    """The file declares an unsupported format version."""


class ModelTruncatedError(ModelFormatError):
    """The file ends before its declared sections do."""


class ModelIntegrityError(ModelFormatError):
    """Decoded payload violates a model invariant."""


def model_kind(model: BaseModel) -> str:
    for name, cls in KIND_CLASSES.items():
        if isinstance(model, cls):
            return name
    raise TypeError(f"unknown model type {type(model).__name__}")


# a tree's arrays, as (file name suffix, TreeNodes field), in file order
TREE_ARRAYS = (("feature", "feature"), ("threshold", "threshold"), ("left", "left"),
               ("right", "right"), ("leaf", "leaf_class"))


def _parts(model: BaseModel) -> tuple[dict, list[tuple[str, np.ndarray]]]:
    """The kind's header scalars and its named arrays in file order: the
    arrays `_rebuild` reads back, under the same names."""
    arrays: list[tuple[str, np.ndarray]] = []
    if model.scaler is not None:
        arrays += [("scaler_mean", model.scaler.mean), ("scaler_std", model.scaler.std)]
    kind = model_kind(model)
    if kind == "knn":
        return {"k": int(model.k)}, arrays + [("train_x", model.train_x), ("train_y", model.train_y)]
    if kind == "svm":
        params = {
            "kernel": model.kernel,
            "gamma_hex": float(model.gamma).hex(),
            "sv_counts": [int(c) for c in model.sv_counts],
        }
        return params, arrays + [
            ("support", model.support),
            ("dual_coef", model.dual_coef),
            ("intercepts", model.intercepts),
        ]
    if kind == "mlp":
        for idx, (w, b) in enumerate(zip(model.weights, model.biases)):
            arrays += [(f"w{idx}", w), (f"b{idx}", b)]
        return {"n_layers": len(model.weights)}, arrays
    for t, tree in enumerate(model.trees):
        arrays += [(f"tree{t}_{suffix}", getattr(tree, field)) for suffix, field in TREE_ARRAYS]
    return {"n_trees": model.n_trees}, arrays


def _header(model: BaseModel) -> tuple[dict, list[tuple[str, np.ndarray]]]:
    """The file header and the arrays whose manifest it lists."""
    params, arrays = _parts(model)
    meta = {
        "class_names": list(model.class_names),
        "layout": model.layout.to_dict(),
        "selected_indices": [int(i) for i in model.selected_indices],
        "has_scaler": model.scaler is not None,
        "metadata": model.metadata,
        "params": params,
        "arrays": [
            {"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)}
            for name, arr in arrays
        ],
    }
    return meta, arrays


def serialize(model: BaseModel) -> bytes:
    """Encode a model to its binary file form."""
    meta, arrays = _header(model)
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    chunks = [
        MAGIC,
        struct.pack("<HB", FORMAT_VERSION, KIND_CODES[model_kind(model)]),
        struct.pack("<I", len(meta_blob)),
        meta_blob,
    ]
    for _, arr in arrays:
        raw = np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes()
        chunks.append(struct.pack("<I", len(raw)))
        chunks.append(raw)
    return b"".join(chunks)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise ModelTruncatedError(
                f"needed {n} bytes at offset {self.pos}, file has {len(self.blob)}"
            )
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out


def _manifest(meta) -> list[tuple[str, np.dtype, list[int]]]:
    """The header's (name, dtype, shape) list; integer or real arrays only."""
    try:
        entries = [(e["name"], np.dtype(e["dtype"]), [operator.index(n) for n in e["shape"]])
                   for e in meta["arrays"]]
    except (KeyError, TypeError, ValueError, SyntaxError) as exc:
        raise ModelFormatError(f"corrupt array manifest: {exc!r}") from None
    for name, dtype, shape in entries:
        if dtype.kind not in "iuf" or min(shape, default=0) < 0:
            raise ModelFormatError(f"array {name!r} declares dtype {dtype} and shape {shape}")
    return entries


def _rebuild(kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> BaseModel:
    """The model that the decoded header and arrays describe. A non-finite
    real, or any value the model rejects, raises ModelIntegrityError."""
    for name, arr in arrays.items():
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise ModelIntegrityError(f"array {name!r} holds a non-finite value")
    try:
        scaler = None
        if meta["has_scaler"]:
            scaler = Scaler(mean=arrays["scaler_mean"], std=arrays["scaler_std"])
        common = dict(
            class_names=tuple(meta["class_names"]),
            layout=FeatureLayout.from_dict(meta["layout"]),
            selected_indices=tuple(meta["selected_indices"]),
            scaler=scaler,
            metadata=meta.get("metadata", {}),
        )
        params = meta["params"]
        if kind == "knn":
            return KnnModel(**common, k=params["k"],
                            train_x=arrays["train_x"], train_y=arrays["train_y"])
        if kind == "svm":
            return SvmModel(
                **common,
                kernel=params["kernel"],
                gamma=float.fromhex(params["gamma_hex"]),
                support=arrays["support"],
                sv_counts=np.array(params["sv_counts"], dtype=np.int64),
                dual_coef=arrays["dual_coef"],
                intercepts=arrays["intercepts"],
            )
        if kind == "mlp":
            n_layers = params["n_layers"]
            return MlpModel(
                **common,
                weights=tuple(arrays[f"w{i}"] for i in range(n_layers)),
                biases=tuple(arrays[f"b{i}"] for i in range(n_layers)),
            )
        trees = tuple(
            TreeNodes(**{field: arrays[f"tree{t}_{suffix}"] for suffix, field in TREE_ARRAYS})
            for t in range(params["n_trees"])
        )
        return RfModel(**common, trees=trees)
    except (ValueError, KeyError, TypeError) as exc:
        raise ModelIntegrityError(str(exc)) from None


def deserialize(blob: bytes) -> BaseModel:
    """Decode a model file; no partial model escapes a malformed stream."""
    reader = _Reader(blob)
    if reader.take(len(MAGIC)) != MAGIC:
        raise ModelFormatError(f"bad magic; expected {MAGIC!r}")
    version, kind_code = struct.unpack("<HB", reader.take(3))
    if version != FORMAT_VERSION:
        raise ModelVersionError(f"unsupported model format version {version}")
    if kind_code not in KIND_NAMES:
        raise ModelFormatError(f"unknown model kind code {kind_code}")
    kind = KIND_NAMES[kind_code]
    (meta_len,) = struct.unpack("<I", reader.take(4))
    try:
        meta = json.loads(reader.take(meta_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"corrupt header: {exc}") from None
    arrays: dict[str, np.ndarray] = {}
    for name, dtype, shape in _manifest(meta):
        (raw_len,) = struct.unpack("<I", reader.take(4))
        raw = reader.take(raw_len)
        if raw_len != math.prod(shape) * dtype.itemsize:
            raise ModelIntegrityError(
                f"array {name!r} declares shape {shape} but carries {raw_len} bytes"
            )
        arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if reader.pos != len(blob):
        raise ModelFormatError(f"{len(blob) - reader.pos} trailing bytes after the last section")
    return _rebuild(kind, meta, arrays)


def save_model(model: BaseModel, path: str | Path) -> None:
    Path(path).write_bytes(serialize(model))


def load_model(path: str | Path) -> BaseModel:
    return deserialize(Path(path).read_bytes())


# --- JSON twin ---------------------------------------------------------------

def to_json(model: BaseModel) -> str:
    doc = {"format": "nilmedge-model-json", "version": FORMAT_VERSION, "kind": model_kind(model)}
    doc["meta"], arrays = _header(model)
    payload = {}
    for name, arr in arrays:
        if arr.dtype.kind == "f":
            payload[name] = [float(v).hex() for v in arr.ravel()]
        else:
            payload[name] = [int(v) for v in arr.ravel()]
    doc["arrays"] = payload
    return json.dumps(doc, sort_keys=True, indent=1)


def from_json(text: str) -> BaseModel:
    """Decode the JSON twin; as with deserialize, a malformed document raises
    only ModelFormatError subclasses."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ModelFormatError(f"not JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != "nilmedge-model-json":
        raise ModelFormatError("not a model JSON document")
    if doc.get("version") != FORMAT_VERSION:
        raise ModelVersionError(f"unsupported model format version {doc.get('version')}")
    kind, meta, payload = doc.get("kind"), doc.get("meta"), doc.get("arrays")
    if kind not in KIND_CODES or not isinstance(meta, dict) or not isinstance(payload, dict):
        raise ModelFormatError("a model JSON document needs a known 'kind', 'meta' and 'arrays'")
    arrays: dict[str, np.ndarray] = {}
    for name, dtype, shape in _manifest(meta):
        flat = payload.get(name)
        if not isinstance(flat, list) or len(flat) != math.prod(shape):
            raise ModelIntegrityError(f"array {name!r} does not hold the values of shape {shape}")
        try:
            if dtype.kind == "f":
                values = [float.fromhex(v) for v in flat]
            elif all(type(v) is int for v in flat):
                values = flat
            else:
                raise TypeError(f"integer array {name!r} holds a non-integer")
            arrays[name] = np.array(values, dtype=dtype).reshape(shape)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ModelIntegrityError(str(exc)) from None
    return _rebuild(kind, meta, arrays)
