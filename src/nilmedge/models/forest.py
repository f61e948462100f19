"""Random-forest inference over one node table for the whole forest.

Each tree is four parallel arrays indexed by node id: the split feature
(-1 marks a leaf), the threshold, and the left/right child ids, which always
point forward (child id > node id). Routing follows `x[feature] <= threshold`
to the left child. The forest takes a majority vote with the lowest class id
winning ties.

For inference the trees are concatenated once into a `NodeTable`: child ids
are offset by each tree's start, the roots are those offsets, and every leaf
points to itself on both sides. All (row, tree) pairs then step together a
fixed number of times, the deepest tree's depth; a pair that reached its
leaf early stays there. This is the "perfect tree traversal" of Hummingbird
(Nakandala et al., OSDI 2020). Each tree's worst-case depth is found once,
one level at a time over the whole table, when the table is built; the step
count and the cost model's comparison count both read it.
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

    def validate(self, n_features: int, n_classes: int) -> None:
        """Feature and class ids against the model; `NodeTable.concat`
        checks the child ids."""
        if self.n_nodes == 0:
            raise TreeIntegrityError("empty node table")
        internal = self.feature != LEAF
        leaves = ~internal
        if np.any((self.feature[internal] < 0) | (self.feature[internal] >= n_features)):
            raise TreeIntegrityError("split feature index out of range")
        if np.any((self.leaf_class[leaves] < 0) | (self.leaf_class[leaves] >= n_classes)):
            raise TreeIntegrityError("leaf class id out of range")

    def worst_case_depth(self) -> int:
        """Longest root-to-leaf path, counted in comparisons."""
        depth = np.zeros(self.n_nodes, dtype=np.int64)
        worst = 0
        for node in range(self.n_nodes):
            if self.feature[node] == LEAF:
                worst = max(worst, int(depth[node]))
            else:
                depth[self.left[node]] = depth[node] + 1
                depth[self.right[node]] = depth[node] + 1
        return worst

    def route_matrix(self, x: np.ndarray) -> np.ndarray:
        """Leaf class for each row of x: the one-tree case of `NodeTable`."""
        return NodeTable.concat((self,)).leaf_classes(x)[:, 0]


def _worst_case_depths(internal, left, right, roots) -> np.ndarray:
    """Each tree's longest root-to-leaf path, one tree level at a time over
    the whole table; every node has at most one parent and children point
    forward, so each node is visited once."""
    depth = np.zeros(internal.size, dtype=np.intp)
    level, d = roots[internal[roots]], 0
    while level.size:
        d += 1
        level = np.concatenate((left[level], right[level]))
        depth[level] = d
        level = level[internal[level]]
    return np.maximum.reduceat(depth, roots)


@dataclass(frozen=True)
class NodeTable:
    """The trees of a forest in one set of node arrays with self-looping leaves."""

    feature: np.ndarray  # (n_nodes,) intp, 0 for leaves
    threshold: np.ndarray  # (n_nodes,) float
    left: np.ndarray  # (n_nodes,) intp global child ids; a leaf's own id
    right: np.ndarray
    leaf_class: np.ndarray  # (n_nodes,) intp, LEAF for internal nodes
    roots: np.ndarray  # (n_trees,) intp, each tree's first node
    depths: np.ndarray  # (n_trees,) intp, each tree's worst-case depth
    steps: int  # the largest worst-case depth of any tree
    width: int  # columns an input row needs: 1 + the largest split feature

    @classmethod
    def concat(cls, trees) -> "NodeTable":
        sizes = np.array([t.n_nodes for t in trees], dtype=np.intp)
        roots = np.cumsum(sizes) - sizes
        start = np.repeat(roots, sizes)  # each node's tree start
        end = start + np.repeat(sizes, sizes)
        feature = np.concatenate([t.feature for t in trees]).astype(np.intp)
        left = np.concatenate([t.left for t in trees]).astype(np.intp) + start
        right = np.concatenate([t.right for t in trees]).astype(np.intp) + start
        internal = feature != LEAF
        if np.any(feature[internal] < 0):
            raise TreeIntegrityError("split feature index out of range")
        parent = np.flatnonzero(internal)
        for child in (left[internal], right[internal]):
            if np.any((child <= parent) | (child >= end[internal])):
                raise TreeIntegrityError("a child id must point forward within its own tree")
        children = np.concatenate((left[internal], right[internal]))
        if np.bincount(children).max(initial=0) > 1:
            raise TreeIntegrityError("a node is the child of two splits")
        depths = _worst_case_depths(internal, left, right, roots)
        width = int(feature[internal].max(initial=-1)) + 1
        leaf = np.flatnonzero(~internal)
        feature[leaf] = 0
        left[leaf] = leaf
        right[leaf] = leaf
        return cls(
            feature=feature,
            threshold=np.concatenate([t.threshold for t in trees]),
            left=left,
            right=right,
            leaf_class=np.concatenate([t.leaf_class for t in trees]).astype(np.intp),
            roots=roots,
            depths=depths,
            steps=int(depths.max()),
            width=width,
        )

    def leaf_classes(self, x: np.ndarray) -> np.ndarray:
        """(rows, trees) leaf class reached by every (row, tree) pair of x."""
        x = np.ascontiguousarray(np.atleast_2d(x), dtype=np.float64)
        if x.shape[1] < self.width:
            raise ValueError(f"expected at least {self.width} features, got {x.shape[1]}")
        flat = x.ravel()
        row_start = (np.arange(x.shape[0]) * x.shape[1])[:, None]
        pos = np.broadcast_to(self.roots, (x.shape[0], self.roots.size))
        for _ in range(self.steps):
            go_left = flat[row_start + self.feature[pos]] <= self.threshold[pos]
            pos = np.where(go_left, self.left[pos], self.right[pos])
        return self.leaf_class[pos]


@dataclass(frozen=True)
class RfModel(BaseModel):
    trees: tuple[TreeNodes, ...] = ()
    table: NodeTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "trees", tuple(self.trees))
        if not self.trees:
            raise ValueError("a forest needs at least one tree")
        for tree in self.trees:
            tree.validate(self.n_features, self.n_classes)
        object.__setattr__(self, "table", NodeTable.concat(self.trees))

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
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {x.shape[1]}")
        leaf = self.table.leaf_classes(x)
        n, c = x.shape[0], self.n_classes
        votes = np.bincount((np.arange(n)[:, None] * c + leaf).ravel(), minlength=n * c)
        return np.argmax(votes.reshape(n, c), axis=1).astype(np.int64)  # first max = lowest id
