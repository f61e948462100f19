"""Multilayer perceptron inference: rectified hidden layers, argmax output.

Weights are stored as (out, in) matrices. The forward pass is

    a = max(0, W a + b)   per hidden layer
    scores = W_last a + b_last

and the prediction is the argmax of the scores (lowest class id on exact
ties, which is what argmax-first-hit gives). A row with a NaN among its
scores, such as a row holding a NaN feature, has no argmax:
`predict_matrix` raises ValueError naming the first such row, where
np.argmax would report the first NaN's class as a label. `forward` is that
loop, written once: inference, SGD's backward pass and its hold-out
scoring all call it.
It adds each bias and rectifies in place on the fresh matmul result, which
gives the bits of `np.maximum(a @ w.T + b, 0.0)` without its temporaries
(a NaN passes through the rectifier).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import BaseModel


def forward(weights, biases, x, hidden=None):
    """Scores for the rows of x; each rectified activation goes onto `hidden` if given.

    Each layer's bias and rectifier work in place on the fresh matmul result,
    so neither x nor the parameters are written."""
    a = x
    for w, b in zip(weights[:-1], biases[:-1]):
        a = a @ w.T
        a += b
        np.maximum(a, 0.0, out=a)
        if hidden is not None:
            hidden.append(a)
    scores = a @ weights[-1].T
    scores += biases[-1]
    return scores


@dataclass(frozen=True)
class MlpModel(BaseModel):
    weights: tuple[np.ndarray, ...] = ()  # each (out_i, in_i)
    biases: tuple[np.ndarray, ...] = ()  # each (out_i,)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(
            self, "weights", tuple(np.asarray(w, dtype=np.float64) for w in self.weights)
        )
        object.__setattr__(
            self, "biases", tuple(np.asarray(b, dtype=np.float64) for b in self.biases)
        )
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must pair up, one per layer")
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError("each layer needs a (out, in) matrix and an (out,) bias")
        if self.weights[0].shape[1] != self.n_features:
            raise ValueError(f"the first layer must take {self.n_features} features")
        for prev, nxt in zip(self.weights, self.weights[1:]):
            if nxt.shape[1] != prev.shape[0]:
                raise ValueError(
                    f"layer dimensions do not chain: {prev.shape} then {nxt.shape}"
                )
        if self.weights[-1].shape[0] != self.n_classes:
            raise ValueError("the output layer must have one score per class")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @property
    def parameter_count(self) -> int:
        return int(sum(w.size + b.size for w, b in zip(self.weights, self.biases)))

    def scores_matrix(self, x: np.ndarray) -> np.ndarray:
        return forward(self.weights, self.biases, self._rows(x))

    def predict_matrix(self, x: np.ndarray) -> np.ndarray:
        scores = self.scores_matrix(x)
        nan_rows = np.isnan(scores).any(axis=1)
        if nan_rows.any():
            raise ValueError(f"row {int(nan_rows.argmax())} has a NaN score and no label")
        return np.argmax(scores, axis=1).astype(np.int64)
