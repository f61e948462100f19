"""Random-forest inference over one node table for the whole forest.

Each tree is five parallel arrays indexed by node id: the split feature
(-1 marks a leaf), the threshold, the left/right child ids, which always
point forward (child id > node id), and the leaf class. Routing follows
`x[feature] <= threshold` to the left child. The forest takes a majority
vote with the lowest class id winning ties.

For inference the trees are concatenated once into a `NodeTable`: child ids
are offset by each tree's start, the roots are those offsets, and every leaf
points to itself on both sides. The child ids sit in one interleaved array,
node i's right child at 2i and its left child at 2i + 1, so a routing step
is one gather, `children[2 * pos + go_left]`, and NaN, which compares False,
goes right. All (row, tree) pairs step together a fixed number of times,
the deepest tree's depth; a pair that reached its leaf early stays there.
This is the "perfect tree traversal" of Hummingbird (Nakandala et al.,
OSDI 2020). Each tree's worst-case depth is found once, one level at a time
over the whole table, when the table is built; the step count and the cost
model's comparison count both read it. The table is also where a forest is
validated, once over the joined arrays: `concat` checks each tree's
structure, and `RfModel` the split features and leaf classes against its
own feature and class counts.

`NodeTable.leaf_classes` can route a subset of the trees, in as many steps
as the deepest of them takes. Permutation importance uses it through
`RfModel.column_predictor`: a shuffled column can move only the rows of the
trees that split on it, so those trees alone are routed again and their
votes swapped in the integer vote counts of the unshuffled rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import BaseModel

LEAF = -1


class TreeIntegrityError(ValueError):
    """A node table is internally inconsistent (bad child or feature index)."""


@dataclass(frozen=True)
class TreeNodes:
    feature: np.ndarray  # (n_nodes,) int, LEAF for leaves
    threshold: np.ndarray  # (n_nodes,) float
    left: np.ndarray  # (n_nodes,) int child ids, LEAF for leaves
    right: np.ndarray
    leaf_class: np.ndarray  # (n_nodes,) int, LEAF for internal nodes

    def __post_init__(self):
        object.__setattr__(self, "feature", np.asarray(self.feature, dtype=np.int32))
        object.__setattr__(self, "threshold", np.asarray(self.threshold, dtype=np.float64))
        object.__setattr__(self, "left", np.asarray(self.left, dtype=np.int32))
        object.__setattr__(self, "right", np.asarray(self.right, dtype=np.int32))
        object.__setattr__(self, "leaf_class", np.asarray(self.leaf_class, dtype=np.int32))

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)

    def route_matrix(self, x: np.ndarray) -> np.ndarray:
        """Leaf class for each row of x: the one-tree case of `NodeTable`."""
        return NodeTable.concat((self,)).leaf_classes(x)[:, 0]


def _worst_case_depths(internal, children, roots) -> np.ndarray:
    """Each tree's longest root-to-leaf path, one tree level at a time over
    the whole table; every node has at most one parent and children point
    forward, so each node is visited once."""
    depth = np.zeros(internal.size, dtype=np.intp)
    level, d = roots[internal[roots]], 0
    while level.size:
        d += 1
        level = children[level].ravel()
        depth[level] = d
        level = level[internal[level]]
    return np.maximum.reduceat(depth, roots)


@dataclass(frozen=True)
class NodeTable:
    """The trees of a forest in one set of node arrays with self-looping leaves."""

    feature: np.ndarray  # (n_nodes,) intp, 0 for leaves
    threshold: np.ndarray  # (n_nodes,) float
    children: np.ndarray  # (2 * n_nodes,) intp global ids, node i's right then left; a leaf's own
    leaf_class: np.ndarray  # (n_nodes,) intp, LEAF for internal nodes
    roots: np.ndarray  # (n_trees,) intp, each tree's first node
    depths: np.ndarray  # (n_trees,) intp, each tree's worst-case depth
    steps: int  # the largest worst-case depth of any tree
    width: int  # columns an input row needs: 1 + the largest split feature

    @classmethod
    def concat(cls, trees) -> "NodeTable":
        """The trees' node arrays joined, after checking each tree's
        structure: at least one node, split features not negative, a leaf
        class on leaves only and never negative, child ids pointing forward
        within their own tree, and no node the child of two splits."""
        sizes = np.array([t.n_nodes for t in trees], dtype=np.intp)
        if np.any(sizes == 0):
            raise TreeIntegrityError("empty node table")
        roots = np.cumsum(sizes) - sizes
        start = np.repeat(roots, sizes)  # each node's tree start
        feature = np.concatenate([t.feature for t in trees]).astype(np.intp)
        leaf_class = np.concatenate([t.leaf_class for t in trees]).astype(np.intp)
        internal = feature != LEAF
        if np.any(feature[internal] < 0):
            raise TreeIntegrityError("split feature index out of range")
        if np.any(leaf_class[internal] != LEAF):  # trees_using finds splits by it
            raise TreeIntegrityError("a split node carries a leaf class")
        leaf = np.flatnonzero(~internal)
        if np.any(leaf_class[leaf] < 0):
            raise TreeIntegrityError("leaf class id out of range")
        children = np.empty((feature.size, 2), dtype=np.intp)
        children[:, 0] = np.concatenate([t.right for t in trees])
        children[:, 1] = np.concatenate([t.left for t in trees])
        children += start[:, None]
        parent = np.flatnonzero(internal)
        split_children = children[parent]
        end = (start + np.repeat(sizes, sizes))[parent, None]
        if np.any((split_children <= parent[:, None]) | (split_children >= end)):
            raise TreeIntegrityError("a child id must point forward within its own tree")
        if np.bincount(split_children.ravel()).max(initial=0) > 1:
            raise TreeIntegrityError("a node is the child of two splits")
        depths = _worst_case_depths(internal, children, roots)
        width = int(feature[internal].max(initial=-1)) + 1
        feature[leaf] = 0
        children[leaf] = leaf[:, None]
        return cls(
            feature=feature,
            threshold=np.concatenate([t.threshold for t in trees]),
            children=children.ravel(),
            leaf_class=leaf_class,
            roots=roots,
            depths=depths,
            steps=int(depths.max()),
            width=width,
        )

    def leaf_classes(self, x: np.ndarray, trees: np.ndarray | None = None) -> np.ndarray:
        """(rows, trees) leaf class reached by every (row, tree) pair of x;
        with `trees`, by the trees of those ids only, in that order, in as
        many steps as the deepest of them takes."""
        x = np.ascontiguousarray(np.atleast_2d(x), dtype=np.float64)
        if x.shape[1] < self.width:
            raise ValueError(f"expected at least {self.width} features, got {x.shape[1]}")
        roots, steps = self.roots, self.steps
        if trees is not None:
            roots = roots[trees]
            steps = int(self.depths[trees].max(initial=0))
        flat = x.ravel()
        row_start = (np.arange(x.shape[0]) * x.shape[1])[:, None]
        pos = np.broadcast_to(roots, (x.shape[0], roots.size))
        for _ in range(steps):
            go_left = flat[row_start + self.feature[pos]] <= self.threshold[pos]
            pos = self.children[2 * pos + go_left]  # NaN compares False: right
        return self.leaf_class[pos]

    def trees_using(self, feature: int) -> np.ndarray:
        """Ascending ids of the trees that split on `feature`."""
        nodes = np.flatnonzero((self.feature == feature) & (self.leaf_class == LEAF))
        uses = np.zeros(self.roots.size, dtype=bool)
        uses[np.searchsorted(self.roots, nodes, side="right") - 1] = True
        return np.flatnonzero(uses)


def _votes(leaf: np.ndarray, n_classes: int) -> np.ndarray:
    """For (rows, trees) leaf classes, the (rows, classes) count of the
    trees that reach each class."""
    n = leaf.shape[0]
    cells = (np.arange(n)[:, None] * n_classes + leaf).ravel()
    return np.bincount(cells, minlength=n * n_classes).reshape(n, n_classes)


def _majority(votes: np.ndarray) -> np.ndarray:
    return np.argmax(votes, axis=1).astype(np.int64)  # first max = lowest id


@dataclass(frozen=True)
class RfModel(BaseModel):
    trees: tuple[TreeNodes, ...] = ()
    table: NodeTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "trees", tuple(self.trees))
        if not self.trees:
            raise ValueError("a forest needs at least one tree")
        table = NodeTable.concat(self.trees)
        if table.width > self.n_features:
            raise TreeIntegrityError("split feature index out of range")
        if table.leaf_class.max() >= self.n_classes:
            raise TreeIntegrityError("leaf class id out of range")
        object.__setattr__(self, "table", table)

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def node_count(self) -> int:
        return sum(t.n_nodes for t in self.trees)

    def worst_case_comparisons(self) -> int:
        """Sum of worst-case depths over trees; the MAC-equivalent count."""
        return int(self.table.depths.sum())

    def predict_matrix(self, x: np.ndarray) -> np.ndarray:
        return _majority(_votes(self.table.leaf_classes(self._rows(x)), self.n_classes))

    def column_predictor(self, matrix_full: np.ndarray):
        """A function (column, values) -> the class ids of `matrix_full`,
        full-layout rows, with its `column` replaced by `values`. It equals
        `classify_matrix` on that matrix, but routes only the trees that
        split on the column: the rows' leaves and votes are found once
        here, and each call swaps those trees' old votes for their new
        ones. A column the model does not select, or no tree splits on,
        leaves the prediction for `matrix_full`."""
        x = self.prepare_matrix(matrix_full)
        leaf = self.table.leaf_classes(x)
        votes = _votes(leaf, self.n_classes)
        base = _majority(votes)
        position = {c: k for k, c in enumerate(self.selected_indices)}

        def predict(column: int, values: np.ndarray) -> np.ndarray:
            k = position.get(column)
            trees = self.table.trees_using(k) if k is not None else ()
            if len(trees) == 0:
                return base.copy()
            values = np.asarray(values, dtype=np.float64)
            if self.scaler is not None:
                values = (values - self.scaler.mean[k]) / self.scaler.std[k]
            varied = x.copy()
            varied[:, k] = values
            new = self.table.leaf_classes(varied, trees)
            return _majority(votes - _votes(leaf[:, trees], self.n_classes)
                             + _votes(new, self.n_classes))

        return predict
