"""Random-forest training: bagged CART trees with Gini splits.

Each tree sees a bootstrap resample (n draws with replacement) and, at every
node, ceil(sqrt(f)) candidate features drawn without replacement. The best
split minimizes the weighted Gini impurity of the children; thresholds sit
at the midpoint between adjacent distinct sorted values. A node becomes a
leaf when it is pure, the depth limit is reached, or no split improves on
the parent impurity. Per-tree RNG streams derive from (seed, tree index), so
training is reproducible and order-independent.

Split search scores the whole (rows, candidates) block at once: one stable
sort per column, one running class count, and the Gini at cut positions
only. Ties go to the first cut in a column, then to the first candidate, as
a per-feature loop that keeps the first strictly better split would pick.
"""

from __future__ import annotations

import numpy as np

from ..models.forest import LEAF, RfModel, TreeNodes
from .dataset import Dataset, model_inputs

_IMPROVEMENT_EPS = 1e-12


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.dot(p, p))


def _majority(counts: np.ndarray) -> int:
    return int(np.argmax(counts))  # first max = lowest class id


def _best_split(x, y, feature_ids, n_classes):
    """Best (feature, threshold, weighted child Gini) over the candidates,
    or None when every candidate column is constant. Positions that are not
    cuts score inf, and argmin's first hit gives the tie rules."""
    n = y.size
    parent_counts = np.bincount(y, minlength=n_classes)
    block = x[:, feature_ids]  # (n, k)
    order = np.argsort(block, axis=0, kind="stable")
    xs = np.take_along_axis(block, order, axis=0)
    is_cut = xs[:-1] < xs[1:]  # split after position i
    if not is_cut.any():
        return None
    left = np.cumsum(np.eye(n_classes)[y[order]], axis=0)[:-1]  # (n-1, k, C)
    right = parent_counts - left
    nl = np.arange(1.0, n)[:, None]
    nr = n - nl
    gini_l = 1.0 - np.einsum("ijc,ijc->ij", left, left) / (nl * nl)
    gini_r = 1.0 - np.einsum("ijc,ijc->ij", right, right) / (nr * nr)
    weighted = np.where(is_cut, (nl * gini_l + nr * gini_r) / n, np.inf)
    rows = np.argmin(weighted, axis=0)  # first minimum per column
    col = int(np.argmin(weighted[rows, np.arange(rows.size)]))
    cut = rows[col]
    threshold = (xs[cut, col] + xs[cut + 1, col]) / 2.0
    return int(feature_ids[col]), float(threshold), float(weighted[cut, col])


def _grow_tree(x, y, n_classes, max_depth, n_candidates, rng) -> TreeNodes:
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    leaf_class: list[int] = []

    def new_node() -> int:
        feature.append(LEAF)
        threshold.append(0.0)
        left.append(LEAF)
        right.append(LEAF)
        leaf_class.append(LEAF)
        return len(feature) - 1

    # build receives each node's rows, not indices into the tree's x: build
    # is a closure over itself, so whatever it captures stays alive until
    # the cycle collector runs, and bootstrap copies of x would pile up
    def build(x: np.ndarray, y: np.ndarray, depth: int) -> int:
        node = new_node()
        counts = np.bincount(y, minlength=n_classes)
        pure = np.count_nonzero(counts) <= 1
        if pure or (max_depth is not None and depth >= max_depth):
            leaf_class[node] = _majority(counts)
            return node
        candidates = rng.choice(x.shape[1], size=n_candidates, replace=False)
        split = _best_split(x, y, candidates, n_classes)
        if split is None or split[2] >= _gini(counts) - _IMPROVEMENT_EPS:
            leaf_class[node] = _majority(counts)
            return node
        f, thr, _ = split
        go_left = x[:, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = build(x[go_left], y[go_left], depth + 1)
        right[node] = build(x[~go_left], y[~go_left], depth + 1)
        return node

    build(x, y, 0)
    return TreeNodes(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        leaf_class=np.array(leaf_class, dtype=np.int32),
    )


def train_rf(
    d: Dataset,
    n_trees: int = 100,
    max_depth: int | None = None,
    seed: int = 0,
    selected_indices: tuple[int, ...] | None = None,
) -> RfModel:
    """Fit a forest on (optionally feature-selected) raw, unscaled features."""
    if n_trees < 1:
        raise ValueError("a forest needs at least one tree")
    selected_indices, _, x = model_inputs(d, selected_indices, scale=False)
    y = d.y
    n_classes = len(d.class_names)
    n_candidates = max(1, int(np.ceil(np.sqrt(x.shape[1]))))
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        rows = rng.integers(0, y.size, size=y.size)
        trees.append(_grow_tree(x[rows], y[rows], n_classes, max_depth, n_candidates, rng))
    return RfModel(
        class_names=d.class_names,
        layout=d.layout,
        selected_indices=selected_indices,
        scaler=None,  # trees are scale-free
        trees=tuple(trees),
    )
