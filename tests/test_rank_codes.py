"""Split search on per-fit rank codes against the float per-feature loop."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import best_split_oracle, small_layout, split_nodes
from nilmedge.train.cart import _rank_codes, train_rf
from nilmedge.train.dataset import Dataset


def assert_matches_oracle(x, y, candidates, n_classes):
    """Same split as the oracle, to the bit (repr tells -0.0 from 0.0), and
    the coded partition is x[:, f] <= thr row for row."""
    [got], [go_left] = split_nodes(x, y, [(np.arange(y.size), candidates)], n_classes)
    want = best_split_oracle(x, y, candidates, n_classes)
    assert repr(got) == repr(want)
    if got is not None:
        f, thr, _ = got
        assert np.array_equal(go_left, x[:, f] <= thr)
    return got


def test_codes_rank_each_column_and_values_restore_it(rng):
    x = rng.integers(-3, 4, size=(50, 6)) * 0.5
    x[::7, 2] = -0.0
    codes, values = _rank_codes(x)
    assert codes.dtype == np.uint16
    for j in range(x.shape[1]):
        assert np.array_equal(values[j], np.unique(x[:, j]))
        assert np.array_equal(values[j][codes[:, j]], x[:, j])


@pytest.mark.parametrize("seed", range(20))
def test_heavy_ties(seed):
    rng = np.random.default_rng(600 + seed)
    n, n_classes = int(rng.integers(2, 300)), int(rng.integers(2, 6))
    x = rng.integers(0, 3, size=(n, 8)).astype(np.float64)
    y = rng.integers(0, n_classes, size=n)
    assert_matches_oracle(x, y, rng.choice(8, size=4, replace=False), n_classes)


@pytest.mark.parametrize("seed", range(20))
def test_mixed_signed_zeros(seed):
    rng = np.random.default_rng(700 + seed)
    n = int(rng.integers(2, 120))
    x = rng.choice(np.array([-0.0, 0.0, 1.0, -1.0, 5e-324, -5e-324]), size=(n, 6))
    y = rng.integers(0, 3, size=n)
    assert_matches_oracle(x, y, rng.choice(6, size=3, replace=False), 3)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("seed", range(20))
def test_huge_values_whose_midpoint_overflows(seed):
    rng = np.random.default_rng(800 + seed)
    n = int(rng.integers(2, 120))
    x = rng.choice(np.array([1.7e308, 1.75e308, 1.79e308, -1.7e308, -1.79e308, 0.0]), size=(n, 5))
    y = rng.integers(0, 3, size=n)
    assert (1.7e308 + 1.75e308) / 2.0 == np.inf
    assert_matches_oracle(x, y, rng.choice(5, size=3, replace=False), 3)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_midpoint_splits_at_the_lower_value():
    x = np.array([[1.7e308], [1.7e308], [1.75e308], [1.75e308]])
    y = np.array([0, 0, 1, 1])
    f, thr, score = assert_matches_oracle(x, y, np.array([0]), 2)
    assert (f, thr, score) == (0, 1.7e308, 0.0)  # the midpoint is inf
    [_], [go_left] = split_nodes(x, y, [(np.arange(4), np.array([0]))], 2)
    assert np.array_equal(go_left, y == 0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("max_depth", [5, None])
@pytest.mark.parametrize("a, b", [(1.7e308, 1.75e308), (-1.75e308, -1.7e308),
                                  (1 + 2**-52, 1 + 2**-51), (5e-324, 1e-323)])
def test_a_midpoint_outside_the_cut_still_separates_the_classes(a, b, max_depth):
    # the midpoint of a and b is +-inf or rounds onto b, so x <= midpoint
    # would send every row left and the same split would repeat below
    assert not a <= (a + b) / 2.0 < b
    x = np.array([[a], [a], [b], [b]] * 5)
    y = np.array([0, 0, 1, 1] * 5)
    d = Dataset(x=x, y=y, class_names=("a", "b"), layout=small_layout(1))
    m = train_rf(d, n_trees=1, max_depth=max_depth, seed=0)
    tree = m.trees[0]
    assert tree.n_nodes == 3 and float(tree.threshold[0]) == a
    assert np.array_equal(m.predict_matrix(x), y)


def odd_mantissa(a):
    """a, or the next float up, whichever has an odd last mantissa bit."""
    a = np.asarray(a, dtype=np.float64)
    odd = (a.view(np.int64) & 1).astype(bool)
    return np.where(odd, a, np.nextafter(a, np.inf))


@pytest.mark.parametrize("seed", range(20))
def test_adjacent_floats_whose_midpoint_rounds_onto_the_upper_value(seed):
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(4, 150))
    lower = odd_mantissa(rng.normal(size=4) * 10.0 ** rng.integers(-5, 6, size=4))
    upper = np.nextafter(lower, np.inf)
    assert np.array_equal((lower + upper) / 2.0, upper)  # ties round to the even mantissa
    x = np.where(rng.random((n, 4)) < 0.5, lower, upper)
    y = (x == upper).sum(axis=1) % 2 if seed % 2 else rng.integers(0, 2, size=n)
    got = assert_matches_oracle(x, y, np.arange(4), 2)
    if got is not None:
        f, thr, _ = got
        assert thr == lower[f]  # the midpoint, upper[f], would send every row left


def test_uint16_codes_reach_65535():
    x = np.arange(65536, dtype=np.float64)[::-1, None]
    codes, values = _rank_codes(x)
    assert codes.dtype == np.uint16
    assert codes[0, 0] == 65535 and codes[-1, 0] == 0
    assert np.array_equal(values[0][codes[:, 0]], x[:, 0])


def test_fit_over_65536_rows_uses_uint32_codes_and_matches_oracle():
    rng = np.random.default_rng(17)
    n = 70_000
    x = rng.normal(size=(n, 1))
    y = (x[:, 0] + rng.normal(scale=0.5, size=n) > 0.3).astype(np.int64)
    codes, values = _rank_codes(x)
    assert codes.dtype == np.uint32
    assert int(codes.max()) == values[0].size - 1 > 65535
    d = Dataset(x=x, y=y, class_names=("a", "b"), layout=small_layout(1))
    tree = train_rf(d, n_trees=1, max_depth=1, seed=3).trees[0]
    rows = np.random.default_rng([3, 0]).integers(0, n, size=n)  # the tree's bootstrap
    f, thr, _ = best_split_oracle(x[rows], y[rows], np.array([0]), 2)
    assert (int(tree.feature[0]), float(tree.threshold[0])) == (f, thr)


def test_train_rf_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma (about 2 MiB of peak memory) on its first call
    tests = Path(__file__).parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")]))
    code = ("import sys\n"
            "from helpers import blob_dataset\n"
            "from nilmedge.train.cart import train_rf\n"
            "train_rf(blob_dataset(per_class=20), n_trees=4, seed=1)\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
