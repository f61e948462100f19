"""Forest inference over the one node table against per-node oracles."""

import numpy as np
import pytest

from helpers import leaf_oracle, random_rf, random_tree, rf_oracle, worst_case_depth
from nilmedge.features import DEFAULT_LAYOUT
from nilmedge.models.forest import NodeTable, RfModel, TreeIntegrityError, TreeNodes
from nilmedge.models.io import ModelIntegrityError, deserialize, serialize

N_FEATURES = 6
N_CLASSES = 3


def deep_tree(rng, depth=12) -> TreeNodes:
    while True:
        tree = random_tree(rng, N_FEATURES, N_CLASSES, depth=depth)
        if worst_case_depth(tree) == depth:
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
    depths = {worst_case_depth(t) for t in mixed_forest.trees}
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
    per_tree = [worst_case_depth(t) for t in forest.trees]
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


@pytest.mark.parametrize("seed", range(6))
def test_subset_routing_matches_full_columns(seed):
    rng = np.random.default_rng(100 + seed)
    forest = random_rf(rng, n_trees=25, f=N_FEATURES, n_classes=N_CLASSES, depth=int(rng.integers(0, 8)))
    x = rng.normal(size=(40, N_FEATURES))
    full = forest.table.leaf_classes(x)
    for size in (1, 3, 12, 25):
        trees = np.sort(rng.choice(forest.n_trees, size=size, replace=False))
        np.testing.assert_array_equal(forest.table.leaf_classes(x, trees), full[:, trees])


def test_single_tree_subset_matches_route_matrix(mixed_forest, queries):
    for t, tree in enumerate(mixed_forest.trees):
        got = mixed_forest.table.leaf_classes(queries, np.array([t]))
        np.testing.assert_array_equal(got[:, 0], tree.route_matrix(queries))


def test_shallow_subset_takes_fewer_steps_and_matches(mixed_forest, queries):
    """The shallow trees and the single leaves need fewer steps than the deep
    trees; a subset of them must still reach the same leaves."""
    table = mixed_forest.table
    shallow = np.flatnonzero(table.depths < table.steps)
    assert 0 < int(table.depths[shallow].max()) < table.steps
    np.testing.assert_array_equal(table.leaf_classes(queries, shallow),
                                  table.leaf_classes(queries)[:, shallow])
    leaves = np.flatnonzero(table.depths == 0)
    np.testing.assert_array_equal(table.leaf_classes(queries, leaves),
                                  table.leaf_classes(queries)[:, leaves])


def test_empty_subset_gives_no_columns(mixed_forest, queries):
    assert mixed_forest.table.leaf_classes(queries, np.array([], dtype=np.intp)).shape == (84, 0)


@pytest.mark.parametrize("seed", range(4))
def test_trees_using_lists_every_tree_with_that_split(seed):
    rng = np.random.default_rng(200 + seed)
    forest = random_rf(rng, n_trees=30, f=N_FEATURES + 2, n_classes=N_CLASSES, depth=3)
    for feature in range(N_FEATURES + 3):
        want = [t for t, tree in enumerate(forest.trees) if feature in tree.feature]
        assert forest.table.trees_using(feature).tolist() == want


def split_tree(feature=0, leaves=(0, 1)) -> TreeNodes:
    return TreeNodes(feature=[feature, -1, -1], threshold=[0.5, 0, 0],
                     left=[1, -1, -1], right=[2, -1, -1], leaf_class=[-1, *leaves])


BAD_TREES = {  # id: (message, tree)
    "no nodes": ("empty node table",
                 TreeNodes(feature=[], threshold=[], left=[], right=[], leaf_class=[])),
    "feature too large": ("split feature index out of range", split_tree(feature=N_FEATURES)),
    "feature negative": ("split feature index out of range", split_tree(feature=-2)),
    "class too large": ("leaf class id out of range", split_tree(leaves=(0, N_CLASSES))),
    "class negative": ("leaf class id out of range", split_tree(leaves=(-1, 0))),
    "class on a split": ("a split node carries a leaf class",
                         TreeNodes(feature=[0, -1, -1], threshold=[0.5, 0, 0], left=[1, -1, -1],
                                   right=[2, -1, -1], leaf_class=[1, 0, 1])),
}


def forest_fields(tree3: TreeNodes) -> dict:
    """The fields of a five-tree forest whose tree 3 is `tree3`."""
    rng = np.random.default_rng(3)
    trees = [random_tree(rng, N_FEATURES, N_CLASSES) for _ in range(5)]
    trees[3] = tree3
    return dict(class_names=tuple(f"c{k}" for k in range(N_CLASSES)), layout=DEFAULT_LAYOUT,
                selected_indices=tuple(range(N_FEATURES)), scaler=None, trees=tuple(trees))


@pytest.mark.parametrize("case", sorted(BAD_TREES))
def test_a_bad_tree_after_good_ones_is_rejected(case):
    message, bad = BAD_TREES[case]
    with pytest.raises(TreeIntegrityError, match=message):
        RfModel(**forest_fields(bad))


@pytest.mark.parametrize("case", sorted(BAD_TREES))
def test_a_model_file_with_a_bad_tree_after_good_ones_is_rejected(case):
    message, bad = BAD_TREES[case]
    model = RfModel(**forest_fields(split_tree()))
    # serialize writes the trees as they are
    object.__setattr__(model, "trees", forest_fields(bad)["trees"])
    with pytest.raises(ModelIntegrityError, match=message):
        deserialize(serialize(model))
