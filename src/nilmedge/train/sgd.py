"""MLP training: mini-batch SGD on softmax cross-entropy.

Hidden layers are rectified; weights start uniform in +-sqrt(6/(in+out))
with zero biases. Ten percent of the training rows are held out internally
and the epoch snapshot with the best held-out accuracy is returned (earliest
epoch on ties). Fully deterministic for a fixed seed. The forward pass is the
model's own `models.mlp.forward`, which also collects the activations backprop needs.

One backward pass, `_backward`, serves both the gradient check and training.
It yields the batch loss first, then each layer's gradients from the top
layer down, and it forms the delta for the layer below from that layer's
weights before it yields them. So a step checks its loss before any update,
and `train_mlp` updates each layer as soon as its gradients exist, while
they are still in cache, scaling the gradient in place (`g *= lr; w -= g`).
Those are the bits of the loop that first collects every gradient and then
runs `w -= lr * g` on every layer: each layer's gradients and delta read only
weights that are not yet updated, `g * lr` rounds exactly as `lr * g`, and
the in-place softmax and rectifier perform the same operations on the same
values as their out-of-place forms.
"""

from __future__ import annotations

import numpy as np

from ..checks import finite_number, whole_number
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
    if not (finite_number(lr) and lr > 0):
        raise ValueError(f"learning rate lr must be a finite number > 0, got {lr!r}")


def init_parameters(layer_sizes, rng):
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _backward(weights, biases, x, y):
    """Yield the batch's mean softmax cross-entropy, then (layer, weight_grad,
    bias_grad) for each layer from the top down.

    The delta for the layer below is formed from this layer's weights before
    its gradients are yielded, so the caller may update the layer in place
    as soon as they arrive. The gradients are fresh arrays the caller may
    overwrite.
    """
    batch = x.shape[0]
    activations = [x]
    probs = forward(weights, biases, x, activations)
    probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    picked = np.arange(batch)
    yield float(-np.mean(np.log(probs[picked, y] + 1e-300)))

    delta = probs
    delta[picked, y] -= 1.0
    delta /= batch
    for layer in range(len(weights) - 1, -1, -1):
        w_grad = delta.T @ activations[layer]
        b_grad = delta.sum(axis=0)
        if layer > 0:
            below = delta @ weights[layer]
            np.multiply(below, activations[layer] > 0, out=below)
        yield layer, w_grad, b_grad
        if layer > 0:
            delta = below


def loss_and_grads(weights, biases, x, y):
    """Mean softmax cross-entropy over the batch and its analytic gradients.

    Returns (loss, weight_grads, bias_grads); shapes mirror the parameters.
    The rectifier subgradient at exactly 0 is taken as 0.
    """
    steps = _backward(weights, biases, np.atleast_2d(x), np.asarray(y, dtype=np.int64))
    loss = next(steps)
    w_grads = [None] * len(weights)
    b_grads = [None] * len(weights)
    for layer, w_grad, b_grad in steps:
        w_grads[layer], b_grads[layer] = w_grad, b_grad
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
    # a Dataset has >= 2 rows, so neither part is empty
    hold_idx, fit_idx = order[:n_holdout], order[n_holdout:]
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
            steps = _backward(weights, biases, x_fit[rows], y_fit[rows])
            if not np.isfinite(next(steps)):
                raise DivergenceError(epoch)
            for layer, w_grad, b_grad in steps:
                w_grad *= lr
                weights[layer] -= w_grad
                b_grad *= lr
                biases[layer] -= b_grad
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
