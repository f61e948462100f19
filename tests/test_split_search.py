"""CART split search over the whole candidate block against the per-feature loop."""

import hashlib

import numpy as np
import pytest

from helpers import best_split, best_split_oracle, blob_dataset
from nilmedge.models.io import serialize
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
