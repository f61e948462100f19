"""Forest inference over the one node table against per-node oracles."""

import numpy as np
import pytest

from helpers import leaf_oracle, random_rf, random_tree, rf_oracle
from nilmedge.features import DEFAULT_LAYOUT
from nilmedge.models.forest import NodeTable, RfModel, TreeIntegrityError, TreeNodes

N_FEATURES = 6
N_CLASSES = 3


def deep_tree(rng, depth=12) -> TreeNodes:
    while True:
        tree = random_tree(rng, N_FEATURES, N_CLASSES, depth=depth)
        if tree.worst_case_depth() == depth:
            return tree


def leaf_tree(label: int) -> TreeNodes:
    return TreeNodes(feature=[-1], threshold=[0.0], left=[-1], right=[-1], leaf_class=[label])


@pytest.fixture(scope="module")
def mixed_forest():
    """Depth-12 trees and single-leaf trees, an even count so votes tie."""
    rng = np.random.default_rng(2020)
    deep = [deep_tree(rng) for _ in range(7)]
    shallow = [random_tree(rng, N_FEATURES, N_CLASSES, depth=2) for _ in range(3)]
    leaves = [leaf_tree(c) for c in (2, 1, 0, 2)]
    trees = (leaves[0], *deep[:4], leaves[1], *shallow, *deep[4:], leaves[2], leaves[3])
    return RfModel(class_names=tuple(f"c{k}" for k in range(N_CLASSES)), layout=DEFAULT_LAYOUT,
                   selected_indices=tuple(range(N_FEATURES)), scaler=None, trees=trees)


@pytest.fixture(scope="module")
def queries(mixed_forest):
    """84 rows with values exactly at thresholds, NaN and +-inf."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(84, N_FEATURES))
    internal = [(t, n) for t, tree in enumerate(mixed_forest.trees)
                for n in np.flatnonzero(tree.feature != -1)]
    for r in range(0, 84, 2):  # half the rows sit on a split threshold
        t, n = internal[rng.integers(len(internal))]
        tree = mixed_forest.trees[t]
        x[r, tree.feature[n]] = tree.threshold[n]
    x[rng.random(x.shape) < 0.05] = np.nan
    x[rng.random(x.shape) < 0.03] = np.inf
    x[rng.random(x.shape) < 0.03] = -np.inf
    return x


def test_forest_mixes_depths_and_ties(mixed_forest, queries):
    depths = {t.worst_case_depth() for t in mixed_forest.trees}
    assert 0 in depths and 12 in depths
    assert mixed_forest.table.steps == 12
    votes = np.array([[sum(leaf_oracle(t, q) == c for t in mixed_forest.trees)
                       for c in range(N_CLASSES)] for q in queries])
    tied = (votes == votes.max(axis=1, keepdims=True)).sum(axis=1) > 1
    assert tied.sum() >= 5
    assert np.isnan(queries).any() and np.isposinf(queries).any() and np.isneginf(queries).any()


def test_batch_84_matches_oracle(mixed_forest, queries):
    want = [rf_oracle(mixed_forest, q) for q in queries]
    np.testing.assert_array_equal(mixed_forest.predict_matrix(queries), want)


def test_batch_1_matches_oracle(mixed_forest, queries):
    for q in queries:
        assert int(mixed_forest.predict_matrix(q[None, :])[0]) == rf_oracle(mixed_forest, q)


def test_route_matrix_returns_each_trees_leaf(mixed_forest, queries):
    for tree in mixed_forest.trees:
        want = [leaf_oracle(tree, q) for q in queries]
        np.testing.assert_array_equal(tree.route_matrix(queries), want)


def test_nan_goes_right_and_threshold_goes_left():
    tree = TreeNodes(feature=[0, -1, -1], threshold=[0.5, 0, 0],
                     left=[1, -1, -1], right=[2, -1, -1], leaf_class=[-1, 0, 1])
    x = np.array([[0.5], [np.nan], [-np.inf], [np.inf]])
    np.testing.assert_array_equal(tree.route_matrix(x), [0, 1, 0, 1])


def test_corrupt_child_id_raises_when_routed():
    tree = TreeNodes(feature=[0, -1, -1], threshold=[0.5, 0, 0],
                     left=[1, -1, -1], right=[7, -1, -1], leaf_class=[-1, 0, 1])
    with pytest.raises(TreeIntegrityError):
        tree.route_matrix(np.array([[0.0], [1.0]]))


def test_child_id_into_the_next_tree_rejected():
    # tree 0's right child, node 3, is inside the table but is tree 1's root
    spill = TreeNodes(feature=[0, -1, -1], threshold=[0.5, 0, 0],
                      left=[1, -1, -1], right=[3, -1, -1], leaf_class=[-1, 0, 1])
    with pytest.raises(TreeIntegrityError):
        NodeTable.concat((spill, leaf_tree(0)))


def test_too_few_columns_rejected(mixed_forest):
    assert mixed_forest.table.width == N_FEATURES
    with pytest.raises(ValueError):
        mixed_forest.table.leaf_classes(np.zeros((2, N_FEATURES - 1)))


@pytest.mark.parametrize("seed", range(5))
def test_table_depths_match_each_trees_worst_case_depth(seed):
    rng = np.random.default_rng(seed)
    forest = random_rf(rng, n_trees=30, f=N_FEATURES, n_classes=N_CLASSES, depth=int(rng.integers(0, 9)))
    per_tree = [t.worst_case_depth() for t in forest.trees]
    assert forest.table.depths.tolist() == per_tree
    assert forest.table.steps == max(per_tree)
    assert forest.worst_case_comparisons() == sum(per_tree)


def test_backward_child_id_rejected():
    # node 2's left child is node 1, which sits before it
    tree = TreeNodes(feature=[0, -1, 0, -1], threshold=[0.5, 0, 0.2, 0],
                     left=[1, -1, 1, -1], right=[2, -1, 3, -1], leaf_class=[-1, 0, -1, 1])
    with pytest.raises(TreeIntegrityError, match="forward"):
        NodeTable.concat((tree,))


def test_node_with_two_parents_rejected():
    # node 3 is both node 1's right child and node 2's left child
    tree = TreeNodes(feature=[0, 0, 0, -1, -1, -1, -1], threshold=[0.5, 0.1, 0.9, 0, 0, 0, 0],
                     left=[1, 5, 3, -1, -1, -1, -1], right=[2, 3, 6, -1, -1, -1, -1],
                     leaf_class=[-1, -1, -1, 0, 1, 0, 1])
    with pytest.raises(TreeIntegrityError, match="two splits"):
        NodeTable.concat((tree,))
