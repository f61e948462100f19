import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import blob_dataset, grid_cells_oracle, small_layout
from nilmedge.cost import CORTEX_M4_PAPER
from nilmedge.train import (
    Dataset,
    GridSpec,
    grid_search,
    mda_rank,
    split_dataset,
    sweep_feature_count,
)
import nilmedge.train.selection as selection
from nilmedge.train.selection import derive_seed


class TestGridSpec:
    def test_cell_counts_are_axis_products(self):
        grid = GridSpec(knn_k=(1, 3), svm_c=(1.0, 10.0), svm_gamma=(0.1,),
                        svm_kernel=("rbf", "linear"), rf_trees=(10, 50), rf_depth=(4,))
        assert len(grid.cells("knn")) == 2
        assert len(grid.cells("svm")) == 4
        assert len(grid.cells("rf")) == 2

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(knn_k=())

    def test_non_positive_values_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(svm_c=(0.0,))

    @pytest.mark.parametrize("axis, values, name", [
        ("mlp_lr", (0.05, 0.0), "lr"),
        ("mlp_lr", (float("nan"),), "lr"),
        ("mlp_hidden", ((800, 100), (0,)), "hidden"),
    ])
    def test_mlp_cells_that_cannot_train_rejected_up_front(self, axis, values, name):
        with pytest.raises(ValueError, match=name):
            GridSpec(**{axis: values})


@pytest.mark.parametrize("axis, values", [
    ("svm_c", (1.0, float("nan"))),
    ("svm_c", (float("inf"),)),
    ("svm_gamma", (float("nan"),)),
    ("svm_gamma", (True,)),
    ("svm_kernel", ("poly",)),
    ("knn_k", (1.5,)),
    ("knn_k", (True,)),
    ("rf_trees", (2.5,)),
    ("rf_trees", (0,)),
    ("rf_depth", (-1,)),
    ("rf_depth", (None, 2.0)),
    ("mlp_epochs", 2.5),
    ("mlp_epochs", 0),
])
def test_grid_cells_that_can_only_fail_are_rejected_naming_the_axis(axis, values):
    # each used to build, then train and fail on every fold of every split
    with pytest.raises(ValueError, match=axis.removeprefix("mlp_")):
        GridSpec(**{axis: values})


def test_cells_that_fail_on_their_data_still_build():
    grid = GridSpec(knn_k=(10_000,), rf_depth=(0, None), svm_kernel=("rbf", "linear"))
    assert grid.cells("knn") == [{"k": 10_000}]


@pytest.mark.parametrize("folds", [2.5, True, 1])
def test_grid_search_folds_must_be_an_int_of_at_least_two(folds):
    with pytest.raises(ValueError, match="folds"):
        grid_search(blob_dataset(per_class=12), "knn", GridSpec(knn_k=(1,)), folds=folds)


@pytest.mark.parametrize("repetitions", [2.5, True, 0])
def test_mda_repetitions_must_be_an_int_of_at_least_one(repetitions):
    tr, te = split_dataset(blob_dataset(per_class=12), 0.5, seed=0)
    with pytest.raises(ValueError, match="repetitions"):
        mda_rank("knn", {"k": 1}, tr, te, repetitions=repetitions)


# the axis fields in the order __post_init__ checks them for emptiness
AXES = ("knn_k", "svm_c", "svm_gamma", "svm_kernel", "mlp_hidden", "mlp_lr", "rf_trees", "rf_depth")


def random_grid(rng) -> GridSpec:
    """A valid grid whose every axis holds 1-3 drawn values, in drawn order."""
    def draw(values):
        return tuple(values[k] for k in rng.permutation(len(values))[:rng.integers(1, 4)])
    return GridSpec(
        knn_k=draw([1, 2, 3, 5, 9, 15]),
        svm_c=draw([0.1, 1.0, 10.0, 100.0]),
        svm_gamma=draw([0.01, 0.1, 0.5, 2.0]),
        svm_kernel=draw(["rbf", "linear"]),
        mlp_hidden=draw([(8,), (800, 100), (16, 4, 2), (3,)]),
        mlp_lr=draw([0.01, 0.05, 0.2]),
        mlp_epochs=int(rng.integers(1, 300)),
        rf_trees=draw([1, 10, 100]),
        rf_depth=draw([None, 0, 4, 12]),
    )


class TestGridCellsOracle:
    """`GridSpec.cells` reads one axes table; its cells, their order and each
    cell's key order are those of the four per-kind products."""

    @pytest.mark.parametrize("kind", ["knn", "svm", "mlp", "rf"])
    def test_default_grid(self, kind):
        cells = GridSpec().cells(kind)
        assert cells == grid_cells_oracle(GridSpec(), kind)
        assert [list(c) for c in cells] == [list(c) for c in grid_cells_oracle(GridSpec(), kind)]

    def test_mlp_key_order(self):
        assert [list(c) for c in GridSpec().cells("mlp")] == [["hidden", "lr", "epochs"]]

    @pytest.mark.parametrize("seed", range(20))
    def test_random_grids(self, seed):
        grid = random_grid(np.random.default_rng(seed))
        for kind in ("knn", "svm", "mlp", "rf"):
            want = grid_cells_oracle(grid, kind)
            assert grid.cells(kind) == want
            assert [list(c) for c in grid.cells(kind)] == [list(c) for c in want]

    @pytest.mark.parametrize("kind", ["", "KNN", "forest", "mlp "])
    def test_unknown_kind(self, kind):
        with pytest.raises(ValueError, match=r"unknown model kind .* \(expected one of \("):
            GridSpec().cells(kind)

    @pytest.mark.parametrize("first, second", [(a, b) for i, a in enumerate(AXES)
                                               for b in AXES[i:]])
    def test_empty_axis_named_in_field_order(self, first, second):
        with pytest.raises(ValueError, match=f"^grid axis {first} must be non-empty$"):
            GridSpec(**{first: (), second: ()})


class TestGridSearch:
    def test_single_cell_grid_returns_it(self):
        d = blob_dataset(per_class=30)
        grid = GridSpec(knn_k=(3,))
        result = grid_search(d, "knn", grid, folds=3, seed=0)
        assert result.best_params == {"k": 3}
        assert len(result.table) == 1

    def test_degenerate_cell_loses_on_blobs(self):
        d = blob_dataset(n_classes=3, per_class=40, seed=1)
        # k = most of the fold-training size predicts majorities only
        grid = GridSpec(knn_k=(3, 90))
        result = grid_search(d, "knn", grid, folds=3, seed=0)
        assert result.best_params == {"k": 3}

    def test_cv_table_has_row_per_cell(self):
        d = blob_dataset(per_class=30)
        grid = GridSpec(rf_trees=(5, 10), rf_depth=(2, 4))
        result = grid_search(d, "rf", grid, folds=2, seed=0)
        assert len(result.table) == 4
        assert all(len(rec["fold_accuracies"]) == 2 for rec in result.table)

    def test_failing_cell_excluded(self):
        d = blob_dataset(n_classes=2, per_class=12)
        grid = GridSpec(knn_k=(1, 10_000))  # k > fold size fails to train
        result = grid_search(d, "knn", grid, folds=3, seed=0)
        assert result.best_params == {"k": 1}
        assert result.table[1]["failed"]

    def test_all_cells_failing_raises(self):
        d = blob_dataset(n_classes=2, per_class=12)
        grid = GridSpec(knn_k=(10_000,))
        with pytest.raises(RuntimeError):
            grid_search(d, "knn", grid, folds=3, seed=0)

    def test_too_few_folds_rejected(self):
        with pytest.raises(ValueError):
            grid_search(blob_dataset(), "knn", GridSpec(), folds=1, seed=0)

    def test_deterministic(self):
        d = blob_dataset(per_class=30)
        grid = GridSpec(rf_trees=(10,), rf_depth=(3, 5))
        a = grid_search(d, "rf", grid, folds=3, seed=7)
        b = grid_search(d, "rf", grid, folds=3, seed=7)
        assert a.as_dict() == b.as_dict()

    def test_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma (about 1 MiB) on its first call in a process
        tests = Path(__file__).parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")]))
        code = ("import sys\n"
                "from helpers import blob_dataset\n"
                "from nilmedge.train import GridSpec, grid_search\n"
                "grid_search(blob_dataset(per_class=12), 'knn', GridSpec(knn_k=(1, 3)), folds=3)\n"
                "print('numpy.ma' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def one_informative_dataset(seed, n=120):
    """Feature 0 decides the class; feature 1 is pure noise."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    x = np.column_stack([y * 2.0 + rng.normal(0, 0.4, size=n), rng.normal(size=n)])
    return Dataset(x=x, y=y, class_names=("off", "on"), layout=small_layout(2))


class TestMda:
    def test_noise_feature_ranks_below_generative(self):
        wins = 0
        for seed in range(10):
            d = one_informative_dataset(seed)
            tr, te = split_dataset(d, 0.8, seed=seed)
            report = mda_rank("knn", {"k": 5}, tr, te, repetitions=10, seed=seed)
            if report.importances[0] > report.importances[1]:
                wins += 1
        assert wins >= 9

    def test_degenerate_model_yields_zero_importances(self):
        d = one_informative_dataset(3)
        tr, te = split_dataset(d, 0.8, seed=0)
        # a depth-0 forest predicts one constant class
        report = mda_rank("rf", {"n_trees": 3, "max_depth": 0}, tr, te,
                          repetitions=4, seed=0)
        assert all(v == 0.0 for v in report.importances)

    def test_reproducible_from_seed(self):
        d = one_informative_dataset(5)
        tr, te = split_dataset(d, 0.8, seed=1)
        a = mda_rank("knn", {"k": 3}, tr, te, repetitions=5, seed=11)
        b = mda_rank("knn", {"k": 3}, tr, te, repetitions=5, seed=11)
        assert a.ranking == b.ranking
        assert a.importances == b.importances

    def test_ranking_is_permutation(self):
        d = blob_dataset(per_class=20)
        tr, te = split_dataset(d, 0.8, seed=0)
        report = mda_rank("knn", {"k": 3}, tr, te, repetitions=2, seed=0)
        assert sorted(report.ranking) == list(range(4))

    def test_json_round_trip(self):
        d = one_informative_dataset(5)
        tr, te = split_dataset(d, 0.8, seed=1)
        a = mda_rank("knn", {"k": 3}, tr, te, repetitions=3, seed=2)
        from nilmedge.train.selection import MdaReport
        b = MdaReport.from_json(a.to_json())
        assert b.ranking == a.ranking
        assert b.baseline_accuracy == a.baseline_accuracy


class TestSweep:
    def test_single_feature_sweep(self):
        d = one_informative_dataset(0)
        tr, te = split_dataset(d, 0.8, seed=0)
        mda = mda_rank("knn", {"k": 3}, tr, te, repetitions=3, seed=0)
        report = sweep_feature_count(tr, te, "knn", mda, CORTEX_M4_PAPER,
                                     fixed_params={"k": 3}, feature_counts=[1], seed=0)
        assert report.chosen_m == 1
        assert len(report.points) == 1

    def test_chooses_smallest_count_within_tolerance(self):
        d = blob_dataset(n_classes=3, per_class=40, n_features=6, seed=2)
        tr, te = split_dataset(d, 0.8, seed=0)
        mda = mda_rank("knn", {"k": 3}, tr, te, repetitions=3, seed=0)
        report = sweep_feature_count(tr, te, "knn", mda, CORTEX_M4_PAPER,
                                     fixed_params={"k": 3}, seed=0)
        accs = [p.accuracy for p in report.points]
        best = max(accs)
        chosen = report.chosen
        assert chosen.accuracy >= best - 0.05
        for p in report.points:
            if p.m < chosen.m:
                assert p.accuracy < best - 0.05 or not p.cost.verdict.fits

    def test_grid_mode_tunes_each_point(self):
        d = blob_dataset(n_classes=2, per_class=30, seed=3)
        tr, te = split_dataset(d, 0.8, seed=0)
        mda = mda_rank("knn", {"k": 3}, tr, te, repetitions=2, seed=0)
        grid = GridSpec(knn_k=(1, 5))
        report = sweep_feature_count(tr, te, "knn", mda, CORTEX_M4_PAPER,
                                     grid=grid, feature_counts=[1, 2], folds=2, seed=0)
        assert all(p.params["k"] in (1, 5) for p in report.points)

    @pytest.mark.parametrize("tolerance", [-0.1, np.nan, np.inf])
    def test_bad_tolerance_rejected_before_any_fit(self, tolerance, monkeypatch):
        d = one_informative_dataset(0)
        tr, te = split_dataset(d, 0.8, seed=0)
        mda = mda_rank("knn", {"k": 3}, tr, te, repetitions=2, seed=0)

        def no_fit(*args, **kwargs):
            raise AssertionError("a sweep point was fitted")

        monkeypatch.setattr(selection, "train_model", no_fit)
        with pytest.raises(ValueError, match="drop_tolerance must be a finite number >= 0"):
            sweep_feature_count(tr, te, "knn", mda, CORTEX_M4_PAPER, fixed_params={"k": 3},
                                drop_tolerance=tolerance, seed=0)

    def test_counts_must_be_increasing(self):
        d = one_informative_dataset(0)
        tr, te = split_dataset(d, 0.8, seed=0)
        mda = mda_rank("knn", {"k": 3}, tr, te, repetitions=2, seed=0)
        with pytest.raises(ValueError):
            sweep_feature_count(tr, te, "knn", mda, CORTEX_M4_PAPER,
                                fixed_params={"k": 3}, feature_counts=[2, 1], seed=0)

    def test_csv_export_has_cost_columns(self):
        d = one_informative_dataset(1)
        tr, te = split_dataset(d, 0.8, seed=0)
        mda = mda_rank("knn", {"k": 3}, tr, te, repetitions=2, seed=0)
        report = sweep_feature_count(tr, te, "knn", mda, CORTEX_M4_PAPER,
                                     fixed_params={"k": 3}, seed=0)
        lines = report.to_csv().splitlines()
        assert lines[0].split(",") == ["m", "accuracy", "precision", "recall", "mac",
                                       "cycles", "flash_bytes", "sram_bytes", "fits_budget"]
        assert len(lines) == len(report.points) + 1

    def test_report_json_is_deterministic(self):
        d = one_informative_dataset(1)
        tr, te = split_dataset(d, 0.8, seed=0)
        mda = mda_rank("knn", {"k": 3}, tr, te, repetitions=2, seed=0)
        kw = dict(fixed_params={"k": 3}, seed=4)
        a = sweep_feature_count(tr, te, "knn", mda, CORTEX_M4_PAPER, **kw)
        b = sweep_feature_count(tr, te, "knn", mda, CORTEX_M4_PAPER, **kw)
        assert a.to_json() == b.to_json()


def test_derive_seed_is_stable():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
