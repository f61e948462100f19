"""Training entry points, keyed by model kind.

`train_model` is the uniform dispatcher used by grid search and the feature
sweep. Its params are the trainer's keyword arguments, so every default
lives in one trainer signature and an unknown key raises `TypeError`; the
seed goes to the kinds that draw random numbers (mlp and rf).
"""

from __future__ import annotations

from ..models.base import BaseModel
from ..models.knn import KnnModel
from .cart import train_rf
from .dataset import Dataset, model_inputs
from .sgd import train_mlp
from .smo import train_svm

MODEL_KINDS = ("knn", "svm", "mlp", "rf")


def train_knn(d: Dataset, k: int = 1,
              selected_indices: tuple[int, ...] | None = None) -> KnnModel:
    """kNN 'training': fit the scaler and store the scaled rows verbatim."""
    fields, x = model_inputs(d, selected_indices)
    return KnnModel(**fields, k=k, train_x=x, train_y=d.y)


def train_model(kind: str, d: Dataset, params: dict, seed: int = 0,
                selected_indices: tuple[int, ...] | None = None) -> BaseModel:
    # looked up per call: a name rebound on this module (a tracer) takes effect
    trainers = {"knn": train_knn, "svm": train_svm, "mlp": train_mlp, "rf": train_rf}
    if kind not in trainers:
        raise ValueError(f"unknown model kind {kind!r} (expected one of {MODEL_KINDS})")
    seeded = {"seed": seed} if kind in ("mlp", "rf") else {}
    return trainers[kind](d, selected_indices=selected_indices, **params, **seeded)
