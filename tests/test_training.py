import numpy as np
import pytest

from helpers import (
    blob_dataset,
    mlp_oracle_grads,
    svm_dict_merge,
    train_mlp_oracle,
    worst_case_depth,
)
from nilmedge.models.base import classify_matrix
from nilmedge.models.io import serialize
from nilmedge.train import (
    split_dataset,
    train_knn,
    train_mlp,
    train_rf,
    train_svm,
)
from nilmedge.train.dataset import Dataset
from nilmedge.train.sgd import DivergenceError, init_parameters, loss_and_grads


def accuracy(model, d):
    return float(np.mean(classify_matrix(model, d.x) == d.y))


class TestKnn:
    def test_k1_training_accuracy_is_perfect(self):
        d = blob_dataset(per_class=20)
        m = train_knn(d, k=1)
        assert accuracy(m, d) == 1.0

    def test_stores_all_rows_scaled(self):
        d = blob_dataset(per_class=15)
        m = train_knn(d, k=3)
        assert m.train_x.shape == (45, 4)
        np.testing.assert_allclose(m.train_x, m.scaler.transform(d.x), rtol=0)


class TestRf:
    def test_blob_accuracy_over_seeds(self):
        hits = []
        for seed in range(5):
            d = blob_dataset(n_classes=2, per_class=60, seed=seed)
            tr, te = split_dataset(d, 0.8, seed=seed)
            m = train_rf(tr, n_trees=100, max_depth=None, seed=seed)
            hits.append(accuracy(m, te))
        assert np.mean(hits) >= 0.95

    def test_depth_zero_gives_single_leaf_majority_trees(self):
        d = blob_dataset(n_classes=3, per_class=12)
        m = train_rf(d, n_trees=7, max_depth=0, seed=1)
        for tree in m.trees:
            assert tree.n_nodes == 1
            assert tree.feature[0] == -1
        # every prediction is a bootstrap-majority class
        preds = m.predict_matrix(d.x[:3])
        assert set(preds).issubset({0, 1, 2})

    def test_same_seed_bit_identical_models(self):
        d = blob_dataset(per_class=25)
        a = train_rf(d, n_trees=20, max_depth=6, seed=9)
        b = train_rf(d, n_trees=20, max_depth=6, seed=9)
        assert serialize(a) == serialize(b)

    def test_single_class_degenerates_to_leaves(self):
        x = np.random.default_rng(0).normal(size=(10, 3))
        d = Dataset(x=x, y=np.zeros(10, dtype=int), class_names=("only",))
        m = train_rf(d, n_trees=5, seed=0)
        assert all(t.n_nodes == 1 for t in m.trees)

    def test_depth_limit_respected(self):
        d = blob_dataset(n_classes=3, per_class=40, spread=3.0)
        m = train_rf(d, n_trees=10, max_depth=4, seed=0)
        assert max(worst_case_depth(t) for t in m.trees) <= 4

    @pytest.mark.parametrize("params, name", [
        ({"max_depth": -1}, "max_depth"),
        ({"max_depth": -2}, "max_depth"),
        ({"max_depth": 2.5}, "max_depth"),
        ({"max_depth": 3.0}, "max_depth"),
        ({"max_depth": True}, "max_depth"),
        ({"max_depth": "4"}, "max_depth"),
        ({"n_trees": 0}, "n_trees"),
        ({"n_trees": 1.0}, "n_trees"),
        ({"n_trees": True}, "n_trees"),
        ({"n_trees": None}, "n_trees"),
    ])
    def test_bad_size_rejected_naming_it(self, params, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            train_rf(blob_dataset(per_class=5), **{"n_trees": 2, **params})

    def test_numpy_int_sizes_accepted(self):
        d = blob_dataset(per_class=10)
        a = train_rf(d, n_trees=np.int64(3), max_depth=np.int32(2), seed=4)
        assert serialize(a) == serialize(train_rf(d, n_trees=3, max_depth=2, seed=4))


class TestMlp:
    def test_gradients_match_central_differences(self):
        # seed chosen so every rectifier pre-activation sits > 1e-3 from its
        # kink: central differences at h=1e-5 are then trustworthy
        rng = np.random.default_rng(1)
        sizes = (4, 3, 3, 2)
        ws, bs = init_parameters(sizes, rng)
        x = rng.normal(size=(20, 4))
        y = rng.integers(0, 2, size=20)

        a = x
        margin = np.inf
        for w, b in zip(ws[:-1], bs[:-1]):
            z = a @ w.T + b
            margin = min(margin, float(np.abs(z).min()))
            a = np.maximum(z, 0.0)
        assert margin > 1e-3  # precondition for the finite-difference oracle

        h = 1e-5
        _, w_grads, b_grads = loss_and_grads(ws, bs, x, y)
        worst = 0.0
        for params, grads in ((ws, w_grads), (bs, b_grads)):
            for p, g in zip(params, grads):
                it = np.nditer(p, flags=["multi_index"])
                while not it.finished:
                    idx = it.multi_index
                    keep = p[idx]
                    p[idx] = keep + h
                    up, _, _ = loss_and_grads(ws, bs, x, y)
                    p[idx] = keep - h
                    dn, _, _ = loss_and_grads(ws, bs, x, y)
                    p[idx] = keep
                    numeric = (up - dn) / (2 * h)
                    denom = max(abs(numeric), abs(g[idx]), 1e-8)
                    worst = max(worst, abs(numeric - g[idx]) / denom)
                    it.iternext()
        assert worst <= 1e-5

    def test_single_class_dataset_trains_to_full_accuracy(self):
        x = np.random.default_rng(3).normal(size=(12, 3))
        d = Dataset(x=x, y=np.zeros(12, dtype=int), class_names=("only",))
        m = train_mlp(d, hidden=(4,), lr=0.1, epochs=5, batch=4, seed=0)
        assert accuracy(m, d) == 1.0

    def test_blob_accuracy_over_seeds(self):
        hits = []
        for seed in range(5):
            d = blob_dataset(n_classes=2, per_class=60, seed=seed)
            tr, te = split_dataset(d, 0.8, seed=seed)
            m = train_mlp(tr, hidden=(16, 8), lr=0.05, epochs=80, batch=16, seed=seed)
            hits.append(accuracy(m, te))
        assert np.mean(hits) >= 0.95

    def test_same_seed_bit_identical_models(self):
        d = blob_dataset(per_class=20)
        a = train_mlp(d, hidden=(8,), lr=0.05, epochs=20, batch=8, seed=4)
        b = train_mlp(d, hidden=(8,), lr=0.05, epochs=20, batch=8, seed=4)
        assert serialize(a) == serialize(b)

    def test_divergence_error_names_epoch(self):
        # a step's loss is checked before any of its layers is updated, so
        # training stops in the epoch the two-phase loop stops in, also
        # when that is not the first
        d = blob_dataset(per_class=20)
        for hidden, lr, epoch in (((8, 8), 1e9, 0), ((8,), 1e9, 2), ((8,), 1e4, 6)):
            errors = []
            with np.errstate(over="ignore", invalid="ignore"):
                for train in (train_mlp, train_mlp_oracle):
                    with pytest.raises(DivergenceError) as err:
                        train(d, hidden=hidden, lr=lr, epochs=40, batch=8, seed=0)
                    errors.append(err.value)
            assert [e.epoch for e in errors] == [epoch, epoch]
            assert f"epoch {epoch}" in str(errors[0])

    @pytest.mark.parametrize("hidden", [(), (5,), (16, 8), (8, 8, 8)])
    @pytest.mark.parametrize("batch", [1, 7, 500])
    def test_model_bytes_equal_the_two_phase_loop(self, hidden, batch):
        # 60 rows leave 54 to fit: batch 7 ends on a partial batch of 5,
        # and batch 500 is one step of every fit row
        d = blob_dataset(per_class=20)
        args = dict(hidden=hidden, lr=0.05, epochs=5, batch=batch, seed=2)
        assert serialize(train_mlp(d, **args)) == serialize(train_mlp_oracle(d, **args))

    @pytest.mark.parametrize("d, selected", [
        (blob_dataset(n_classes=3, per_class=25, n_features=6, seed=5), (4, 0, 3)),
        # the smallest dataset: one hold-out row and one fit row
        (Dataset(x=np.array([[0.5, -1.0], [2.0, 0.25]]), y=np.array([0, 0]),
                 class_names=("only", "never")), None),
    ])
    def test_model_bytes_equal_the_two_phase_loop_on_subsets(self, d, selected):
        args = dict(hidden=(6, 4), lr=0.1, epochs=6, batch=4, seed=1, selected_indices=selected)
        a, b = train_mlp(d, **args), train_mlp_oracle(d, **args)
        assert a.metadata == b.metadata
        assert serialize(a) == serialize(b)

    def test_training_leaves_the_dataset_unchanged(self):
        d = blob_dataset(per_class=20)
        kept = (d.x.tobytes(), d.y.tobytes())
        train_mlp(d, hidden=(8, 4), lr=0.05, epochs=3, batch=7, seed=0)
        assert (d.x.tobytes(), d.y.tobytes()) == kept

    def test_loss_and_grads_are_unscaled_and_leave_parameters(self):
        rng = np.random.default_rng(6)
        ws, bs = init_parameters((5, 7, 4, 3), rng)
        x = rng.normal(size=(11, 5))
        y = rng.integers(0, 3, size=11)
        kept = [a.tobytes() for a in (*ws, *bs)]
        loss, w_grads, b_grads = loss_and_grads(ws, bs, x, y)
        assert [a.tobytes() for a in (*ws, *bs)] == kept
        want_loss, want_w, want_b = mlp_oracle_grads(ws, bs, x, y)
        assert loss == want_loss
        assert [g.tobytes() for g in w_grads + b_grads] == [g.tobytes() for g in want_w + want_b]

    @pytest.mark.parametrize("params, name", [
        ({"batch": -1}, "batch"),
        ({"batch": 0}, "batch"),
        ({"batch": 2.0}, "batch"),
        ({"lr": 0.0}, "lr"),
        ({"lr": -0.05}, "lr"),
        ({"lr": float("nan")}, "lr"),
        ({"lr": float("inf")}, "lr"),
        ({"hidden": (0,)}, "hidden"),
        ({"hidden": (8, 0)}, "hidden"),
        ({"hidden": (-3,)}, "hidden"),
    ])
    def test_settings_that_cannot_train_rejected_naming_them(self, params, name):
        # each used to return the initial weights, or train backwards, silently
        with pytest.raises(ValueError, match=name):
            train_mlp(blob_dataset(per_class=20), **{"hidden": (4,), "epochs": 3, **params})

    @pytest.mark.parametrize("epochs", [2.5, True, 0])
    def test_epochs_that_are_not_a_count_rejected(self, epochs):
        # 2.5 used to raise a bare TypeError from range, True to train one epoch
        with pytest.raises(ValueError, match="epochs"):
            train_mlp(blob_dataset(per_class=20), hidden=(4,), epochs=epochs)

    def test_glorot_bounds(self):
        rng = np.random.default_rng(0)
        ws, bs = init_parameters((10, 20, 5), rng)
        assert np.abs(ws[0]).max() <= np.sqrt(6 / 30)
        assert np.abs(ws[1]).max() <= np.sqrt(6 / 25)
        assert all(np.all(b == 0) for b in bs)


class TestSvm:
    def test_separable_linear_margins_and_accuracy(self):
        d = blob_dataset(n_classes=2, per_class=40, spread=0.5, seed=1)
        m = train_svm(d, c=10.0, kernel="linear")
        assert accuracy(m, d) == 1.0
        # margin inspection on the support vectors: y * f(x) >= 1 - tol-ish
        decisions = m.decision_pairs(m.support)[:, 0]
        starts = np.concatenate([[0], np.cumsum(m.sv_counts)])
        labels = np.where(np.arange(m.n_sv) < starts[1], 1.0, -1.0)
        assert np.all(labels * decisions >= 1.0 - 0.05)

    def test_duplicated_dataset_predicts_identically(self):
        d = blob_dataset(n_classes=3, per_class=25, seed=2)
        doubled = Dataset(x=np.repeat(d.x, 2, axis=0), y=np.repeat(d.y, 2),
                          class_names=d.class_names, layout=d.layout)
        a = train_svm(d, c=5.0, gamma=0.1)
        b = train_svm(doubled, c=5.0, gamma=0.1)
        probe = d.x  # training points are far from the boundary on blobs
        np.testing.assert_array_equal(classify_matrix(a, probe), classify_matrix(b, probe))

    def test_ten_class_dual_coefficient_rows(self):
        d = blob_dataset(n_classes=10, per_class=8, spread=0.3, seed=3)
        m = train_svm(d, c=1.0, gamma=0.2)
        assert m.dual_coef.shape[0] == 9

    def test_deterministic_given_data_order(self):
        d = blob_dataset(n_classes=3, per_class=20, seed=4)
        assert serialize(train_svm(d, c=2.0, gamma=0.1)) == serialize(train_svm(d, c=2.0, gamma=0.1))

    def test_rbf_blob_accuracy(self):
        d = blob_dataset(n_classes=3, per_class=50, seed=5)
        tr, te = split_dataset(d, 0.8, seed=5)
        m = train_svm(tr, c=10.0, gamma=0.1)
        assert accuracy(m, te) >= 0.9

    def test_invalid_hyperparameters_rejected(self):
        d = blob_dataset()
        with pytest.raises(ValueError):
            train_svm(d, c=-1.0)
        with pytest.raises(ValueError):
            train_svm(d, c=1.0, gamma=-0.5)


@pytest.mark.parametrize("kernel", ["rbf", "linear"])
@pytest.mark.parametrize("n_classes", [2, 3, 6])
def test_svm_merge_matches_the_dict_oracle_byte_for_byte(n_classes, kernel):
    # overlapping blobs in shuffled row order: SVs of every class sit between
    # rows of other classes, so the grouping by class is not the row order
    d = blob_dataset(n_classes=n_classes, per_class=20, spread=2.5, seed=n_classes)
    perm = np.random.default_rng(n_classes).permutation(d.n)
    d = Dataset(x=d.x[perm], y=d.y[perm], class_names=d.class_names, layout=d.layout)
    m = train_svm(d, c=1.0, gamma=0.3, kernel=kernel)
    assert "capped_pairs" not in m.metadata
    assert serialize(m) == serialize(svm_dict_merge(d, 1.0, 0.3, kernel))
    assert np.all(m.sv_counts > 0) and np.any(np.diff(d.y) < 0)


def test_svm_needs_two_classes():
    d = Dataset(x=np.arange(8.0).reshape(4, 2), y=np.zeros(4, dtype=int), class_names=("a",))
    with pytest.raises(ValueError, match="two classes"):
        train_svm(d)


@pytest.mark.parametrize("c", [np.nan, np.inf])
def test_svm_rejects_a_non_finite_c(c):
    with pytest.raises(ValueError, match="c must be a finite positive number"):
        train_svm(blob_dataset(), c=c)
