"""Forest permutation importance against the per-shuffle `classify_matrix` loop.

`mda_rank` scores a forest's shuffles with `RfModel.column_predictor`, which
re-routes only the trees that split on the shuffled column. The oracle here
is the plain loop: copy the test rows, shuffle one column, classify them all.
"""

import numpy as np
import pytest

from helpers import blob_dataset, random_tree, small_layout
from nilmedge.cost import CORTEX_M4_PAPER
from nilmedge.models.base import Scaler, classify_matrix
from nilmedge.models.forest import RfModel
from nilmedge.train import Dataset, mda_rank, split_dataset, sweep_feature_count
from nilmedge.train.cart import train_rf
from nilmedge.train.selection import MdaReport, derive_seed
from nilmedge.train.trainers import train_model


def shuffles(test: Dataset, repetitions: int, seed: int):
    """(feature, shuffled column) in mda_rank's order and RNG stream."""
    for f in range(test.n_features):
        for rep in range(repetitions):
            rng = np.random.default_rng([seed, f, rep])
            yield f, test.x[rng.permutation(test.n), f]


def oracle_report(kind, params, train, test, repetitions, seed) -> MdaReport:
    model = train_model(kind, train, params, seed=derive_seed(seed, 0xBA5E))
    baseline = float(np.mean(classify_matrix(model, test.x) == test.y))
    drops = np.zeros(test.n_features)
    for f, column in shuffles(test, repetitions, seed):
        shuffled = test.x.copy()
        shuffled[:, f] = column
        drops[f] += baseline - float(np.mean(classify_matrix(model, shuffled) == test.y))
    importances = drops / repetitions
    return MdaReport(
        baseline_accuracy=baseline,
        importances=tuple(float(v) for v in importances),
        ranking=tuple(int(i) for i in np.lexsort((np.arange(test.n_features), -importances))),
        repetitions=repetitions, seed=seed, kind=kind, params=params,
    )


def assert_predictions_match(model, test: Dataset, repetitions=2, seed=0):
    predict = model.column_predictor(test.x)
    for f, column in shuffles(test, repetitions, seed):
        shuffled = test.x.copy()
        shuffled[:, f] = column
        np.testing.assert_array_equal(predict(f, column), classify_matrix(model, shuffled))


def noisy_blobs(seed: int, informative=3, noise=3) -> Dataset:
    """Blob classes in the first columns, pure noise in the rest."""
    d = blob_dataset(n_classes=3, per_class=20, n_features=informative, spread=3.0, seed=seed)
    rng = np.random.default_rng(1000 + seed)
    x = np.hstack([d.x, rng.normal(size=(d.n, noise))])
    return Dataset(x=x, y=d.y, class_names=d.class_names, layout=small_layout(x.shape[1]))


@pytest.mark.parametrize("depth", [None, 3, 0], ids=["unbounded", "depth3", "depth0"])
@pytest.mark.parametrize("seed", range(4))
def test_report_bytes_equal_the_per_shuffle_loop(seed, depth):
    tr, te = split_dataset(noisy_blobs(seed), 0.7, seed=seed)
    params = {"n_trees": 12, "max_depth": depth}
    got = mda_rank("rf", params, tr, te, repetitions=3, seed=seed)
    want = oracle_report("rf", params, tr, te, repetitions=3, seed=seed)
    assert got.to_json() == want.to_json()
    if depth == 0:
        assert got.nonzero == 0
    elif depth is None:
        assert got.nonzero > 0


@pytest.mark.parametrize("depth", [None, 0])
def test_predictions_equal_classify_matrix(depth):
    tr, te = split_dataset(noisy_blobs(7), 0.7, seed=7)
    model = train_rf(tr, n_trees=15, max_depth=depth, seed=3)
    if depth == 0:
        assert model.table.steps == 0
    assert_predictions_match(model, te)


def test_column_no_tree_splits_on_keeps_the_baseline():
    d = noisy_blobs(2)
    x = d.x.copy()
    x[:, 4] = 1.0  # constant while training: no tree can split on it
    tr = Dataset(x=x, y=d.y, class_names=d.class_names, layout=d.layout)
    te = split_dataset(d, 0.7, seed=2)[1]  # the same column varies here
    model = train_rf(tr, n_trees=10, seed=1)
    assert model.table.trees_using(4).size == 0
    baseline = classify_matrix(model, te.x)
    predict = model.column_predictor(te.x)
    for column in (te.x[::-1, 4], np.full(te.n, 1e9)):
        np.testing.assert_array_equal(predict(4, column), baseline)
    assert_predictions_match(model, te)
    report = mda_rank("rf", {"n_trees": 10, "max_depth": None}, tr, te, repetitions=2, seed=5)
    assert report.importances[4] == 0.0
    assert report.to_json() == oracle_report("rf", {"n_trees": 10, "max_depth": None},
                                             tr, te, repetitions=2, seed=5).to_json()


def test_selected_subset_maps_full_layout_columns():
    """Columns the model does not select leave the baseline; the selected
    ones are found at their place in selected_indices."""
    tr, te = split_dataset(noisy_blobs(4, noise=4), 0.7, seed=4)
    model = train_rf(tr, n_trees=12, seed=2, selected_indices=(5, 0, 2))
    predict = model.column_predictor(te.x)
    baseline = classify_matrix(model, te.x)
    for f in (1, 3, 4, 6):
        np.testing.assert_array_equal(predict(f, te.x[::-1, f]), baseline)
    assert_predictions_match(model, te, repetitions=3)


def test_scaled_forest_matches_classify_matrix():
    rng = np.random.default_rng(12)
    trees = tuple(random_tree(rng, 4, 3, depth=5) for _ in range(9))
    model = RfModel(class_names=("a", "b", "c"), layout=small_layout(6),
                    selected_indices=(4, 1, 0, 3), trees=trees,
                    scaler=Scaler(mean=[0.3, -1.0, 2.0, 0.5], std=[0.7, 2.0, 1.5, 0.25]))
    x = rng.normal(size=(50, 6)) * 2.0
    te = Dataset(x=x, y=rng.integers(0, 3, size=50), class_names=("a", "b", "c"),
                 layout=small_layout(6))
    assert_predictions_match(model, te, repetitions=3)


class TestMismatchedSplits:
    def splits(self):
        d = noisy_blobs(1)
        return split_dataset(d, 0.7, seed=1)

    def narrowed(self, d: Dataset, width: int) -> Dataset:
        return Dataset(x=d.x[:, :width], y=d.y, class_names=d.class_names,
                       layout=small_layout(width))

    @pytest.mark.parametrize("train_width,test_width", [(3, 6), (6, 3)],
                             ids=["wider-test", "narrower-test"])
    def test_feature_count_named(self, train_width, test_width):
        tr, te = self.splits()
        tr, te = self.narrowed(tr, train_width), self.narrowed(te, test_width)
        with pytest.raises(ValueError, match=f"{test_width} features.*training split {train_width}"):
            mda_rank("rf", {"n_trees": 3, "max_depth": 2}, tr, te, repetitions=1, seed=0)
        mda = MdaReport(baseline_accuracy=1.0, importances=(0.0,) * train_width,
                        ranking=tuple(range(train_width)), repetitions=1, seed=0,
                        kind="rf", params={})
        with pytest.raises(ValueError, match=f"{test_width} features"):
            sweep_feature_count(tr, te, "rf", mda, CORTEX_M4_PAPER,
                                fixed_params={"n_trees": 3, "max_depth": 2}, seed=0)

    def test_layout_named(self):
        tr, te = self.splits()
        other = Dataset(x=te.x, y=te.y, class_names=te.class_names,
                        layout=small_layout(te.n_features + 2))
        with pytest.raises(ValueError, match="layout"):
            mda_rank("knn", {"k": 3}, tr, other, repetitions=1, seed=0)

    def test_class_table_named(self):
        tr, te = self.splits()
        other = Dataset(x=te.x, y=te.y, class_names=("x", "y", "z"), layout=te.layout)
        with pytest.raises(ValueError, match="classes"):
            mda_rank("knn", {"k": 3}, tr, other, repetitions=1, seed=0)
