"""SVM training via sequential minimal optimization, merged one-vs-one.

Each class pair gets a binary soft-margin problem solved by SMO with the
classic two-element working set: the outer loop alternates full sweeps with
sweeps over non-bound multipliers, the inner choice maximizes |E1 - E2|
with deterministic fallback scans (no random restarts, so training is a
pure function of the data order). KKT violations are tested at tolerance
1e-3. Pairs that hit the iteration cap are recorded in the model metadata
as capped rather than raising.

The per-pair solutions are merged into the shared support-vector layout of
`SvmModel` through one (classes, rows) array: a pair machine writes each
multiplier it keeps, signed by the row's side, at (opposing class, row). The
rows with any entry are the support vectors, grouped by class with a stable
sort, and dropping each one's own-class entry leaves its dual-coefficient
column.
"""

from __future__ import annotations

import numpy as np

from ..checks import finite_number
from ..models.svm import SvmModel, kernel_matrix, pair_order
from .dataset import Dataset, model_inputs

KKT_TOL = 1e-3
STEP_EPS = 1e-12
SV_EPS = 1e-8
MAX_SWEEPS = 200


def smo_binary(k: np.ndarray, y: np.ndarray, c: float):
    """Solve one binary problem; returns (alpha, b, converged).

    k is the precomputed kernel matrix, y the +-1 labels. The decision is
    f(x) = sum_j alpha_j y_j K(x_j, x) + b.
    """
    n = y.size
    alpha = np.zeros(n)
    b = 0.0
    errors = -y.astype(np.float64)  # f(x) - y with all-zero alphas

    def take_step(i1: int, i2: int) -> bool:
        nonlocal b, errors
        if i1 == i2:
            return False
        a1_old, a2_old = alpha[i1], alpha[i2]
        y1, y2 = y[i1], y[i2]
        e1, e2 = errors[i1], errors[i2]
        s = y1 * y2
        if s > 0:
            lo, hi = max(0.0, a1_old + a2_old - c), min(c, a1_old + a2_old)
        else:
            lo, hi = max(0.0, a2_old - a1_old), min(c, c + a2_old - a1_old)
        if hi - lo < STEP_EPS:
            return False
        eta = k[i1, i1] + k[i2, i2] - 2.0 * k[i1, i2]
        if eta > STEP_EPS:
            a2 = a2_old + y2 * (e1 - e2) / eta
            a2 = min(max(a2, lo), hi)
        else:
            # flat or concave direction: evaluate the objective at both ends
            f1 = y1 * (e1 + b) - a1_old * k[i1, i1] - s * a2_old * k[i1, i2]
            f2 = y2 * (e2 + b) - s * a1_old * k[i1, i2] - a2_old * k[i2, i2]
            l1 = a1_old + s * (a2_old - lo)
            h1 = a1_old + s * (a2_old - hi)
            obj_lo = (l1 * f1 + lo * f2 + 0.5 * l1 * l1 * k[i1, i1]
                      + 0.5 * lo * lo * k[i2, i2] + s * lo * l1 * k[i1, i2])
            obj_hi = (h1 * f1 + hi * f2 + 0.5 * h1 * h1 * k[i1, i1]
                      + 0.5 * hi * hi * k[i2, i2] + s * hi * h1 * k[i1, i2])
            if obj_lo < obj_hi - STEP_EPS:
                a2 = lo
            elif obj_lo > obj_hi + STEP_EPS:
                a2 = hi
            else:
                return False
        if abs(a2 - a2_old) < STEP_EPS * (a2 + a2_old + STEP_EPS):
            return False
        a1 = a1_old + s * (a2_old - a2)

        b1 = e1 + y1 * (a1 - a1_old) * k[i1, i1] + y2 * (a2 - a2_old) * k[i1, i2] + b
        b2 = e2 + y1 * (a1 - a1_old) * k[i1, i2] + y2 * (a2 - a2_old) * k[i2, i2] + b
        if 0 < a1 < c:
            b_new = b1
        elif 0 < a2 < c:
            b_new = b2
        else:
            b_new = (b1 + b2) / 2.0

        errors += (y1 * (a1 - a1_old) * k[i1] + y2 * (a2 - a2_old) * k[i2]) - (b_new - b)
        alpha[i1], alpha[i2] = a1, a2
        b = b_new
        return True

    def examine(i2: int) -> bool:
        r2 = errors[i2] * y[i2]
        if not ((r2 < -KKT_TOL and alpha[i2] < c) or (r2 > KKT_TOL and alpha[i2] > 0)):
            return False
        non_bound = np.flatnonzero((alpha > 0) & (alpha < c))
        if non_bound.size > 1:
            gaps = np.abs(errors[non_bound] - errors[i2])
            if take_step(int(non_bound[np.argmax(gaps)]), i2):
                return True
        for i1 in non_bound:
            if take_step(int(i1), i2):
                return True
        for i1 in range(n):
            if take_step(i1, i2):
                return True
        return False

    examine_all = True
    converged = False
    for _ in range(MAX_SWEEPS):
        changed = 0
        if examine_all:
            targets = range(n)
        else:
            targets = np.flatnonzero((alpha > 0) & (alpha < c))
        for i2 in targets:
            changed += examine(int(i2))
        if examine_all:
            if changed == 0:
                converged = True
                break
            examine_all = False
        elif changed == 0:
            examine_all = True
    return alpha, -b, converged


def train_svm(
    d: Dataset,
    c: float = 1.0,
    gamma: float | None = None,
    kernel: str = "rbf",
    selected_indices: tuple[int, ...] | None = None,
) -> SvmModel:
    """Fit all class pairs and merge them into the shared-SV layout.

    gamma=None uses 1/n_features on the standardized inputs.
    """
    if not (finite_number(c) and c > 0):
        raise ValueError(f"regularization parameter c must be a finite positive number, got {c!r}")
    fields, x = model_inputs(d, selected_indices)
    y = d.y
    n_classes = len(d.class_names)
    if gamma is None:
        gamma = 1.0 / x.shape[1]
    if not (finite_number(gamma) and (gamma > 0 or kernel != "rbf")):
        raise ValueError(f"kernel gamma must be a finite number, positive for rbf, got {gamma!r}")
    gamma = float(gamma)  # np.exp takes no Fraction, and the metadata is JSON

    if n_classes < 2:
        raise ValueError("an SVM needs at least two classes")
    pairs = pair_order(n_classes)
    # coef[o, r]: row r's signed multiplier in its machine against class o
    coef = np.zeros((n_classes, y.size))
    intercepts = np.zeros(len(pairs))
    capped_pairs: list[str] = []

    for p, (a_cls, b_cls) in enumerate(pairs):
        rows = np.flatnonzero((y == a_cls) | (y == b_cls))  # the dataset's own order
        in_a = y[rows] == a_cls
        labels = np.where(in_a, 1.0, -1.0)
        k = kernel_matrix(kernel, gamma, x[rows], x[rows])
        alpha, b, converged = smo_binary(k, labels, c)
        if not converged:
            capped_pairs.append(f"{a_cls}-{b_cls}")
        intercepts[p] = b
        kept = alpha > SV_EPS
        coef[np.where(in_a, b_cls, a_cls)[kept], rows[kept]] = (labels * alpha)[kept]

    # the rows any machine keeps, grouped by class in class-id order
    sv_rows = np.flatnonzero(coef.any(axis=0))
    sv_rows = sv_rows[np.argsort(y[sv_rows], kind="stable")]
    # each SV's own-class row of coef is empty; dropping it leaves its C-1 dual rows
    others = np.arange(n_classes) != y[sv_rows][:, None]
    dual = coef[:, sv_rows].T[others].reshape(sv_rows.size, n_classes - 1).T

    metadata = {"c": c, "gamma": gamma}
    if capped_pairs:
        metadata["capped_pairs"] = capped_pairs

    return SvmModel(
        **fields,
        metadata=metadata,
        kernel=kernel,
        gamma=gamma,
        support=x[sv_rows],
        sv_counts=np.bincount(y[sv_rows], minlength=n_classes),
        dual_coef=dual,
        intercepts=intercepts,
    )
