"""One-vs-one support vector machine inference with a shared SV set.

Support vectors are stored once, grouped by class; the dual-coefficient
matrix has C-1 rows. A vector s of class c holds its coefficient against
class d at row d when d < c and at row d-1 when d > c, so the pairwise
decision for classes a < b is

    D_ab(x) = sum_{s in a} dual[b-1, s] K(s, x)
            + sum_{s in b} dual[a, s] K(s, x) + intercept_ab

with D_ab > 0 voting for a. For C = 10 classes this gives the bookkeeping
of 9 coefficient rows per SV. Vote ties are broken by the summed signed
decision values, then by the lowest class id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import BaseModel

KERNELS = ("rbf", "linear")


def pair_order(n_classes: int) -> list[tuple[int, int]]:
    """Lexicographic (a, b) pairs with a < b; fixes the intercept ordering."""
    return [(a, b) for a in range(n_classes) for b in range(a + 1, n_classes)]


def kernel_matrix(kind: str, gamma: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K[i, j] between rows of a and rows of b."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    if kind == "linear":
        return a @ b.T
    if kind == "rbf":
        aa = np.einsum("ij,ij->i", a, a)[:, None]
        bb = np.einsum("ij,ij->i", b, b)[None, :]
        d2 = np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)
        return np.exp(-gamma * d2)
    raise ValueError(f"unknown kernel {kind!r}")


@dataclass(frozen=True)
class SvmModel(BaseModel):
    kernel: str = "rbf"
    gamma: float = 1.0
    support: np.ndarray = None  # (n_sv, f), grouped by class
    sv_counts: np.ndarray = None  # (C,) SVs per class, in class-id order
    dual_coef: np.ndarray = None  # (C-1, n_sv)
    intercepts: np.ndarray = None  # (C*(C-1)/2,) in pair_order

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "support", np.asarray(self.support, dtype=np.float64))
        object.__setattr__(self, "sv_counts", np.asarray(self.sv_counts, dtype=np.int64))
        object.__setattr__(self, "dual_coef", np.asarray(self.dual_coef, dtype=np.float64))
        object.__setattr__(self, "intercepts", np.asarray(self.intercepts, dtype=np.float64))
        c = self.n_classes
        if self.support.ndim != 2 or self.support.shape[1] != self.n_features:
            raise ValueError(f"support vectors must be {self.n_features} features wide")
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if not np.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma!r}")
        if self.kernel == "rbf" and self.gamma <= 0:
            raise ValueError("rbf gamma must be positive")
        if self.sv_counts.size != c or self.sv_counts.sum() != self.support.shape[0]:
            raise ValueError("per-class SV counts do not cover the support matrix")
        if self.dual_coef.shape != (c - 1, self.support.shape[0]):
            raise ValueError(
                f"dual coefficients must be shaped ({c - 1}, n_sv), got {self.dual_coef.shape}"
            )
        if self.intercepts.size != c * (c - 1) // 2:
            raise ValueError("one intercept per class pair is required")

    @property
    def n_sv(self) -> int:
        return int(self.support.shape[0])

    def _class_slice(self, c: int) -> slice:
        starts = np.concatenate([[0], np.cumsum(self.sv_counts)])
        return slice(int(starts[c]), int(starts[c + 1]))

    def decision_pairs(self, x: np.ndarray) -> np.ndarray:
        """Pairwise decision values, shape (m, C*(C-1)/2) in pair_order."""
        x = self._rows(x)
        k = kernel_matrix(self.kernel, self.gamma, x, self.support)  # (m, n_sv)
        out = np.empty((x.shape[0], self.intercepts.size))
        for p, (a, b) in enumerate(pair_order(self.n_classes)):
            sl_a, sl_b = self._class_slice(a), self._class_slice(b)
            out[:, p] = (
                k[:, sl_a] @ self.dual_coef[b - 1, sl_a]
                + k[:, sl_b] @ self.dual_coef[a, sl_b]
                + self.intercepts[p]
            )
        return out

    def predict_matrix(self, x: np.ndarray) -> np.ndarray:
        decisions = self.decision_pairs(x)
        m = decisions.shape[0]
        votes = np.zeros((m, self.n_classes), dtype=np.int64)
        scores = np.zeros((m, self.n_classes))
        for p, (a, b) in enumerate(pair_order(self.n_classes)):
            d = decisions[:, p]
            wins_a = d > 0
            votes[wins_a, a] += 1
            votes[~wins_a, b] += 1
            scores[:, a] += d
            scores[:, b] -= d
        out = np.empty(m, dtype=np.int64)
        for r in range(m):
            best = np.flatnonzero(votes[r] == votes[r].max())
            if best.size > 1:
                tied_scores = scores[r, best]
                best = best[np.flatnonzero(tied_scores == tied_scores.max())]
            out[r] = int(best[0])
        return out
