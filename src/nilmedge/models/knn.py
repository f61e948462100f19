"""k-nearest-neighbour classifier over squared Euclidean distance.

The model stores its (scaled) training matrix verbatim. Ties are broken
deterministically: equal distances prefer the lower training-row index,
equal vote counts prefer the smaller summed neighbour distance, and exact
residual ties fall back to the lowest class id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..checks import whole_number
from .base import BaseModel, check_class_ids


@dataclass(frozen=True)
class KnnModel(BaseModel):
    k: int = 1
    train_x: np.ndarray = None
    train_y: np.ndarray = None

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "train_x", np.asarray(self.train_x, dtype=np.float64))
        labels = np.asarray(self.train_y)
        if self.train_x.ndim != 2 or self.train_x.shape[1] != self.n_features:
            raise ValueError(f"the training matrix must be {self.n_features} features wide")
        if not whole_number(self.k, 1):
            raise ValueError(f"k must be an int >= 1, got {self.k!r}")
        if self.train_x.shape[0] < self.k:
            raise ValueError(f"k={self.k} exceeds the {self.train_x.shape[0]} training rows")
        if self.train_x.shape[0] != labels.shape[0]:
            raise ValueError("training matrix and labels disagree on row count")
        labels = check_class_ids(labels, self.n_classes, "train_y")
        object.__setattr__(self, "train_y", labels.astype(np.int32))

    def predict_matrix(self, x: np.ndarray) -> np.ndarray:
        x = self._rows(x)
        # squared distances computed row-wise to bound memory
        out = np.empty(x.shape[0], dtype=np.int64)
        for r, row in enumerate(x):
            diff = self.train_x - row
            dists = np.einsum("ij,ij->i", diff, diff)
            order = np.argsort(dists, kind="stable")[: self.k]
            votes = np.bincount(self.train_y[order], minlength=self.n_classes)
            best = np.flatnonzero(votes == votes.max())
            if best.size > 1:
                sums = np.array(
                    [dists[order[self.train_y[order] == c]].sum() for c in best]
                )
                best = best[np.flatnonzero(sums == sums.min())]
            out[r] = int(best[0])
        return out
