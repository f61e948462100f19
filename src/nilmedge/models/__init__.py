"""Classifier inference engines with a uniform predict/serialize contract."""

from .base import BaseModel, Scaler, ZeroVarianceError, classify_matrix
from .forest import RfModel, TreeIntegrityError, TreeNodes
from .io import (
    ModelFormatError,
    ModelIntegrityError,
    ModelTruncatedError,
    ModelVersionError,
    deserialize,
    from_json,
    load_model,
    model_kind,
    save_model,
    serialize,
    to_json,
)
from .knn import KnnModel
from .mlp import MlpModel
from .svm import SvmModel, kernel_matrix, pair_order

__all__ = [
    "BaseModel",
    "Scaler",
    "ZeroVarianceError",
    "classify_matrix",
    "KnnModel",
    "SvmModel",
    "kernel_matrix",
    "pair_order",
    "MlpModel",
    "RfModel",
    "TreeNodes",
    "TreeIntegrityError",
    "serialize",
    "deserialize",
    "save_model",
    "load_model",
    "to_json",
    "from_json",
    "model_kind",
    "ModelFormatError",
    "ModelVersionError",
    "ModelTruncatedError",
    "ModelIntegrityError",
]
