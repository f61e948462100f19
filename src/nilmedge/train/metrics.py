"""Confusion-matrix metrics: accuracy plus macro-averaged precision/recall.

Macro averages weight every class equally. A class with no predicted (or no
true) instances contributes 0 to its precision (recall) term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..records import jsonable


@dataclass(frozen=True)
class ClassificationMetrics:
    accuracy: float
    precision_macro: float
    recall_macro: float
    confusion: np.ndarray  # (C, C), rows = true class, cols = predicted

    def as_dict(self) -> dict:
        return jsonable(self)


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int) -> np.ndarray:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError("prediction and truth lengths differ")
    m = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(m, (y_true, y_pred), 1)
    return m


def evaluate(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int) -> ClassificationMetrics:
    m = confusion_matrix(y_true, y_pred, n_classes)
    total = m.sum()
    accuracy = float(np.trace(m) / total) if total else 0.0
    diag = np.diag(m).astype(np.float64)
    col = m.sum(axis=0).astype(np.float64)
    row = m.sum(axis=1).astype(np.float64)
    precision = np.divide(diag, col, out=np.zeros_like(diag), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros_like(diag), where=row > 0)
    return ClassificationMetrics(
        accuracy=accuracy,
        precision_macro=float(precision.mean()),
        recall_macro=float(recall.mean()),
        confusion=m,
    )
