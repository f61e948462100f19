"""MLP training: mini-batch SGD on softmax cross-entropy.

Hidden layers are rectified; weights start uniform in +-sqrt(6/(in+out))
with zero biases. Ten percent of the training rows are held out internally
and the epoch snapshot with the best held-out accuracy is returned (earliest
epoch on ties). Fully deterministic for a fixed seed. The forward pass is the
model's own `models.mlp.forward`, which also collects the activations backprop needs.
"""

from __future__ import annotations

import math

import numpy as np

from ..models.base import whole_number
from ..models.mlp import MlpModel, forward
from .dataset import Dataset, model_inputs

DEFAULT_HIDDEN = (800, 100)


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


def check_mlp_settings(hidden, lr, epochs) -> None:
    """Hidden widths and epochs are ints >= 1 and the learning rate a finite
    number > 0: a zero width, rate or epoch count returns the initial
    weights, and a fractional epoch count does not say how many to run."""
    if not whole_number(epochs, 1):
        raise ValueError(f"epochs must be an int >= 1, got {epochs!r}")
    if not all(whole_number(width, 1) for width in hidden):
        raise ValueError(f"hidden widths must be ints >= 1, got {tuple(hidden)!r}")
    if not 0 < lr < math.inf:  # NaN fails too
        raise ValueError(f"learning rate lr must be a finite number > 0, got {lr!r}")


def init_parameters(layer_sizes, rng):
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def loss_and_grads(weights, biases, x, y):
    """Mean softmax cross-entropy over the batch and its analytic gradients.

    Returns (loss, weight_grads, bias_grads); shapes mirror the parameters.
    The rectifier subgradient at exactly 0 is taken as 0.
    """
    x = np.atleast_2d(x)
    y = np.asarray(y, dtype=np.int64)
    batch = x.shape[0]

    activations = [x]
    scores = forward(weights, biases, x, activations)

    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.log(probs[np.arange(batch), y] + 1e-300)))

    delta = probs
    delta[np.arange(batch), y] -= 1.0
    delta /= batch

    w_grads = [None] * len(weights)
    b_grads = [None] * len(weights)
    for layer in range(len(weights) - 1, -1, -1):
        w_grads[layer] = delta.T @ activations[layer]
        b_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer]) * (activations[layer] > 0)
    return loss, w_grads, b_grads


def train_mlp(
    d: Dataset,
    hidden: tuple[int, ...] = DEFAULT_HIDDEN,
    lr: float = 0.05,
    epochs: int = 200,
    batch: int = 32,
    seed: int = 0,
    selected_indices: tuple[int, ...] | None = None,
) -> MlpModel:
    if not whole_number(batch, 1):  # below 1, no SGD step runs
        raise ValueError(f"batch must be an int >= 1, got {batch!r}")
    check_mlp_settings(hidden, lr, epochs)
    fields, x = model_inputs(d, selected_indices)
    y = d.y
    n_classes = len(d.class_names)

    rng = np.random.default_rng(seed)
    order = rng.permutation(y.size)
    n_holdout = max(1, int(round(0.1 * y.size)))
    hold_idx, fit_idx = order[:n_holdout], order[n_holdout:]
    if fit_idx.size == 0:  # degenerate tiny datasets train on everything
        fit_idx = order
    x_fit, y_fit = x[fit_idx], y[fit_idx]
    x_hold, y_hold = x[hold_idx], y[hold_idx]

    layer_sizes = (x.shape[1],) + tuple(hidden) + (n_classes,)
    weights, biases = init_parameters(layer_sizes, rng)

    best_acc = -1.0
    best = None
    for epoch in range(epochs):
        perm = rng.permutation(y_fit.size)
        for lo in range(0, y_fit.size, batch):
            rows = perm[lo : lo + batch]
            loss, w_grads, b_grads = loss_and_grads(weights, biases, x_fit[rows], y_fit[rows])
            if not np.isfinite(loss):
                raise DivergenceError(epoch)
            for w, g in zip(weights, w_grads):
                w -= lr * g
            for b, g in zip(biases, b_grads):
                b -= lr * g
        hold_pred = np.argmax(forward(weights, biases, x_hold), axis=1)
        acc = float(np.mean(hold_pred == y_hold))
        if acc > best_acc:
            best_acc = acc
            best = ([w.copy() for w in weights], [b.copy() for b in biases], epoch)

    snap_w, snap_b, best_epoch = best
    return MlpModel(
        **fields,
        metadata={"best_epoch": best_epoch, "holdout_accuracy": best_acc},
        weights=tuple(snap_w),
        biases=tuple(snap_b),
    )
