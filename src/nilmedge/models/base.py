"""Shared model plumbing: feature standardization and the common predict contract.

Every trained model carries the full-vector layout it was built from, the
indices it actually consumes, an optional scaler (tree models skip scaling),
and the class-id -> name table; the indices are checked when the model is
built. `classify_matrix` is the one inference path: `prepare_matrix` selects
and scales full-layout rows, then the kind's `predict_matrix` labels them. One
vector is the one-row case, `classify_matrix(model, x[None, :])[0]`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from ..features import FeatureLayout


def whole_number(value, least: int) -> bool:
    """value is an int, and not a bool, of at least `least`."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


def check_class_names(names) -> tuple[str, ...]:
    """names as a tuple, if they are distinct strings: a class id's name is
    what a prediction is reported as."""
    names = tuple(names)
    if not all(isinstance(n, str) for n in names) or len(set(names)) != len(names):
        raise ValueError(f"class names must be distinct strings, got {list(names)!r}")
    return names


class ZeroVarianceError(ValueError):
    """A feature column is constant; distance/margin models cannot scale it."""


@dataclass(frozen=True)
class Scaler:
    """Per-feature standardization fitted on training data."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))
        if self.mean.shape != self.std.shape:
            raise ValueError("mean and std must have the same shape")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.std).all()):
            raise ValueError("scaler mean and std must be finite")
        if np.any(self.std <= 0):
            raise ZeroVarianceError("scaler std must be positive for every feature")

    @classmethod
    def fit(cls, matrix: np.ndarray) -> "Scaler":
        matrix = np.asarray(matrix, dtype=np.float64)
        mean = matrix.mean(axis=0)
        std = matrix.std(axis=0)
        dead = np.flatnonzero(std == 0)
        if dead.size:
            raise ZeroVarianceError(
                f"zero-variance feature columns {dead.tolist()} rejected at fit time"
            )
        return cls(mean=mean, std=std)

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std


@dataclass(frozen=True)
class BaseModel:
    class_names: tuple[str, ...]
    layout: FeatureLayout
    selected_indices: tuple[int, ...]
    scaler: Scaler | None
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "class_names", check_class_names(self.class_names))
        try:
            indices = tuple(operator.index(i) for i in self.selected_indices)
        except TypeError:
            raise ValueError("selected indices must be integers") from None
        if len(set(indices)) != len(indices):
            raise ValueError("selected indices must be distinct")
        if any(i < 0 or i >= len(self.layout) for i in indices):
            raise ValueError(f"selected index out of range for a {len(self.layout)}-feature layout")
        if self.scaler is not None and self.scaler.mean.shape != (len(indices),):
            raise ValueError(f"the scaler must cover the {len(indices)} selected features")
        object.__setattr__(self, "selected_indices", indices)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def n_features(self) -> int:
        return len(self.selected_indices)

    def _rows(self, x) -> np.ndarray:
        """x as float rows this model's width; a 1-D x is one row."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {x.shape[1]}")
        return x

    def prepare_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Select this model's columns from full-layout rows and scale them."""
        matrix = np.asarray(matrix, dtype=np.float64)
        sub = matrix[:, np.array(self.selected_indices, dtype=np.intp)]
        return self.scaler.transform(sub) if self.scaler is not None else sub


def classify_matrix(model, matrix_full: np.ndarray) -> np.ndarray:
    """Predict class ids for full-layout rows (selection + scaling included)."""
    return model.predict_matrix(model.prepare_matrix(matrix_full))
