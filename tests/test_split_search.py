"""CART split search over the whole candidate block against the per-feature loop."""

import hashlib

import numpy as np
import pytest

import test_trainers
from helpers import best_split, best_split_oracle, blob_dataset, split_nodes
from nilmedge.models.io import serialize
from nilmedge.train import cart, train_model
from nilmedge.train.cart import train_rf
from nilmedge.train.dataset import Dataset


def block(seed, n=40, f=9, levels=4, n_classes=3):
    """Small-integer features, so values repeat within every column."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, levels, size=(n, f)).astype(np.float64)
    y = rng.integers(0, n_classes, size=n)
    return rng, x, y


@pytest.mark.parametrize("seed", range(40))
def test_repeated_values_match_oracle(seed):
    rng, x, y = block(seed, n=int(np.random.default_rng(seed).integers(2, 60)))
    candidates = rng.choice(x.shape[1], size=3, replace=False)
    assert best_split(x, y, candidates, 3) == best_split_oracle(x, y, candidates, 3)


@pytest.mark.parametrize("seed", range(20))
def test_some_constant_candidates_match_oracle(seed):
    rng, x, y = block(seed)
    x[:, [0, 2, 5]] = 1.5
    candidates = np.array([0, 2, 7, 5])
    got = best_split(x, y, candidates, 3)
    assert got == best_split_oracle(x, y, candidates, 3)
    assert got is not None and got[0] == 7


def test_all_constant_candidates_give_none():
    _, x, y = block(3)
    x[:, [1, 4]] = -2.0
    assert best_split(x, y, np.array([1, 4]), 3) is None
    assert best_split_oracle(x, y, np.array([1, 4]), 3) is None


@pytest.mark.parametrize("seed", range(10))
def test_equal_gini_across_features_first_candidate_wins(seed):
    _, x, y = block(seed)
    x[:, 6] = 10.0 * x[:, 3]  # same order, different thresholds
    for candidates in (np.array([6, 3]), np.array([3, 6])):
        got = best_split(x, y, candidates, 3)
        assert got == best_split_oracle(x, y, candidates, 3)
        assert got[0] == candidates[0]


def test_equal_gini_within_a_column_first_cut_wins():
    # cuts after 0 and after 2 both leave one pure side and {0, 1, 1}
    x = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    y = np.array([0, 1, 1, 0])
    got = best_split(x, y, np.array([1, 0]), 2)
    assert got == best_split_oracle(x, y, np.array([1, 0]), 2)
    assert got[:2] == (0, 0.5)


def test_continuous_block_matches_oracle(rng):
    x = rng.normal(size=(200, 11))
    y = rng.integers(0, 7, size=200)
    for _ in range(20):
        candidates = rng.choice(11, size=4, replace=False)
        assert best_split(x, y, candidates, 7) == best_split_oracle(x, y, candidates, 7)


@pytest.mark.parametrize("seed", range(8))
def test_narrow_labels_and_passed_counts_match_oracle(seed):
    """The trainer's form of the search: uint8 labels, the node's class
    counts passed in, some classes absent, many repeated values."""
    rng = np.random.default_rng(300 + seed)
    n, n_classes = int(rng.integers(2, 700)), int(rng.integers(2, 12))
    x = rng.integers(0, 6, size=(n, 10)).astype(np.float64)
    x[:, 5:] += rng.normal(size=(n, 5))
    y = rng.choice(rng.choice(n_classes, size=max(1, n_classes - 2), replace=False), size=n)
    candidates = rng.choice(10, size=4, replace=False)
    got = best_split(x, y.astype(np.uint8), candidates, n_classes)
    assert got == best_split_oracle(x, y, candidates, n_classes)


# serialize(train_rf(...)) of the per-feature-loop trainer, before split search
# scored the whole block
GOLDEN = {
    "as_is": ("47923f261808f144a6d0f60214f982ab00e8054791006e9cf183eb7f11def397", 152),
    "rounded": ("351cbc71ec6390f90645fa8970eff1f37925961d983bddfd64fd160fb11a21b7", 168),
}


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_trained_forest_matches_golden_hash(variant):
    d = blob_dataset(n_classes=3, per_class=40, n_features=9, spread=2.0, seed=4)
    if variant == "rounded":
        d = Dataset(x=np.round(d.x), y=d.y, class_names=d.class_names, layout=d.layout)
    model = train_rf(d, n_trees=20, max_depth=None, seed=5)
    digest, nodes = GOLDEN[variant]
    assert model.node_count == nodes
    assert hashlib.sha256(serialize(model)).hexdigest() == digest


def mixed_columns(rng, n):
    """Heavy ties (columns 0-1), signed zeros and the smallest subnormals
    (2), values whose midpoints overflow (3), continuous values (4-5), and
    three constant columns (6-8; the zeros of 7 share a code)."""
    x = np.empty((n, 9))
    x[:, 0:2] = rng.integers(0, 3, size=(n, 2))
    x[:, 2] = rng.choice(np.array([-0.0, 0.0, 1.0, -1.0, 5e-324, -5e-324]), size=n)
    x[:, 3] = rng.choice(np.array([1.7e308, 1.75e308, 1.79e308, -1.7e308, -1.79e308, 0.0]), size=n)
    x[:, 4:6] = rng.normal(size=(n, 2))
    x[:, 6] = 1.5
    x[:, 7] = rng.choice(np.array([-0.0, 0.0]), size=n)
    x[:, 8] = -2.0
    return x


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("seed", range(12))
def test_each_node_of_a_chunk_matches_the_oracle_alone(seed):
    """Nodes of different sizes searched together, each against the
    per-feature loop on its own rows (bootstrap-style, with repeats)."""
    rng = np.random.default_rng(1000 + seed)
    n, n_classes = 300, int(rng.integers(2, 6))
    x = mixed_columns(rng, n)
    y = rng.integers(0, n_classes, size=n)
    if seed % 2:
        y = y.astype(np.uint8)  # the trainer's narrow labels
    sizes = [2, 2, 3, 7, 40, 150, 2, *rng.integers(2, 90, size=6)]
    nodes = [(rng.integers(0, n, size=size), rng.choice(9, size=3, replace=False))
             for size in rng.permutation(sizes)]
    constant = int(rng.integers(0, len(nodes) + 1))
    nodes.insert(constant, (rng.integers(0, n, size=30), np.array([8, 6, 7])))
    splits, lefts = split_nodes(x, y, nodes, n_classes)
    assert splits[constant] is None
    for (rows, candidates), got, go_left in zip(nodes, splits, lefts):
        want = best_split_oracle(x[rows], y[rows], candidates, n_classes)
        assert repr(got) == repr(want)
        if got is not None:
            f, thr, _ = got
            assert np.array_equal(go_left, x[rows, f] <= thr)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_node_ends_raise_no_warning(rng):
    """The last position of a node has no rows on its right (0/0 there)."""
    x = rng.normal(size=(60, 4))
    y = rng.integers(0, 3, size=60)
    nodes = [(rng.integers(0, 60, size=size), rng.choice(4, size=2, replace=False))
             for size in (2, 9, 2, 33)]
    splits, _ = split_nodes(x, y, nodes, 3)
    assert splits == [best_split_oracle(x[r], y[r], c, 3) for r, c in nodes]


def large_forest():
    """A fit whose steps fill several chunks of the default size."""
    d = blob_dataset(n_classes=4, per_class=200, n_features=16, spread=3.0, seed=8)
    return serialize(train_rf(d, n_trees=24, max_depth=10, seed=2))


@pytest.mark.parametrize("chunk_codes", [1, 2**40])  # one node per chunk; a whole step
def test_forests_do_not_depend_on_the_chunk_size(monkeypatch, chunk_codes):
    default = large_forest()
    monkeypatch.setattr(cart, "_CHUNK_CODES", chunk_codes)
    assert large_forest() == default
    for variant in sorted(GOLDEN):
        test_trained_forest_matches_golden_hash(variant)
    for column, sel in enumerate((None, (8, 2, 5))):
        model = train_model("rf", test_trainers.golden_data(), test_trainers.PARAMS["rf"],
                            seed=5, selected_indices=sel)
        assert hashlib.sha256(serialize(model)).hexdigest() == test_trainers.GOLDEN["rf"][column]
