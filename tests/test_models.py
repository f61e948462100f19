import numpy as np
import pytest

from helpers import (
    knn_oracle,
    mlp_oracle,
    mlp_oracle_scores,
    random_knn,
    random_mlp,
    random_rf,
    random_svm,
    rf_oracle,
    small_layout,
    svm_oracle,
    worst_case_depth,
)
from nilmedge.features import DEFAULT_LAYOUT
from nilmedge.models.base import Scaler, ZeroVarianceError
from nilmedge.models.forest import RfModel, TreeIntegrityError, TreeNodes
from nilmedge.models.knn import KnnModel
from nilmedge.models.mlp import MlpModel
from nilmedge.models.svm import SvmModel, kernel_matrix


def _base(n_classes, f):
    return dict(class_names=tuple(f"c{k}" for k in range(n_classes)),
                layout=DEFAULT_LAYOUT, selected_indices=tuple(range(f)), scaler=None)


class TestScaler:
    def test_fit_transform(self, rng):
        x = rng.normal(3.0, 2.0, size=(200, 4))
        s = Scaler.fit(x)
        z = s.transform(x)
        np.testing.assert_allclose(z.mean(axis=0), 0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1, rtol=1e-12)

    def test_zero_variance_rejected(self, rng):
        x = rng.normal(size=(50, 3))
        x[:, 1] = 7.0
        with pytest.raises(ZeroVarianceError) as err:
            Scaler.fit(x)
        assert "1" in str(err.value)


@pytest.mark.parametrize("mean, std", [([np.nan], [1.0]), ([0.0], [np.nan]),
                                       ([np.inf], [1.0]), ([0.0], [np.inf])])
def test_scaler_rejects_non_finite_values(mean, std):
    with pytest.raises(ValueError, match="finite"):
        Scaler(mean=mean, std=std)


def _selecting(indices, layout=DEFAULT_LAYOUT):
    """A one-row kNN model that reads `indices`; only its selection matters."""
    return KnnModel(class_names=("a",), layout=layout, selected_indices=indices, scaler=None,
                    k=1, train_x=np.zeros((1, len(indices))), train_y=np.zeros(1))


class TestSelect:
    """prepare_matrix reads a model's columns in order; the indices are
    checked when the model is built."""

    def test_identity_selection(self, rng):
        x = rng.normal(size=10)
        m = _selecting(tuple(range(10)))
        np.testing.assert_array_equal(m.prepare_matrix(x[None, :])[0], x)

    def test_single_index(self):
        assert _selecting((0,)).prepare_matrix(np.array([[7.0, 1.0]])).tolist() == [[7.0]]

    def test_matches_copy_oracle(self, rng):
        x = rng.normal(size=30)
        idx = tuple(rng.permutation(30)[:11])
        got = _selecting(idx).prepare_matrix(x[None, :])[0]
        for pos, k in enumerate(idx):
            assert got[pos] == x[k]

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            _selecting((1, 1), small_layout(5))

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            _selecting((5,), small_layout(5))

    def test_negative_index_rejected(self):
        # a numpy gather would silently read the last column for -1
        with pytest.raises(ValueError, match="out of range"):
            _selecting((0, -1), small_layout(5))

    def test_non_integer_index_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            _selecting((0, 1.0), small_layout(5))

    def test_indices_become_python_ints(self):
        m = _selecting((np.int64(3), np.int32(1)), small_layout(5))
        assert m.selected_indices == (3, 1)
        assert all(type(i) is int for i in m.selected_indices)

    def test_scaler_width_enforced(self):
        with pytest.raises(ValueError, match="scaler"):
            KnnModel(**{**_base(2, 2), "scaler": Scaler(np.zeros(3), np.ones(3))},
                     k=1, train_x=np.zeros((2, 2)), train_y=np.array([0, 1]))


@pytest.mark.parametrize("names", [("a", "a"), (1, None), ("a", 2)])
def test_models_reject_class_tables_that_are_not_distinct_strings(names):
    with pytest.raises(ValueError, match="class names must be distinct strings"):
        KnnModel(**{**_base(2, 1), "class_names": names}, k=1,
                 train_x=np.zeros((2, 1)), train_y=np.array([0, 1]))


@pytest.mark.parametrize("labels", [[0, 1], [0.7, 1.7], [-1, 0], [np.nan, 0], ["a", "a"]])
def test_knn_labels_must_be_class_ids_of_the_table(labels):
    # a one-class table: only label 0 (an int or a whole float) is allowed
    with pytest.raises(ValueError, match="train_y"):
        KnnModel(**_base(1, 1), k=1, train_x=np.zeros((2, 1)), train_y=np.array(labels))
    assert KnnModel(**_base(1, 1), k=1, train_x=np.zeros((2, 1)),
                    train_y=np.zeros(2)).train_y.tolist() == [0, 0]


class TestParameterWidth:
    """Each kind's parameters must be as wide as its selection, or building
    the model fails instead of its first prediction."""

    def test_knn(self):
        with pytest.raises(ValueError, match="1 features wide"):
            KnnModel(**_base(2, 1), k=1, train_x=np.zeros((2, 2)), train_y=np.array([0, 1]))

    def test_svm(self):
        with pytest.raises(ValueError, match="1 features wide"):
            SvmModel(**_base(2, 1), kernel="rbf", gamma=1.0,
                     support=np.zeros((2, 2)), sv_counts=np.array([1, 1]),
                     dual_coef=np.ones((1, 2)), intercepts=np.zeros(1))

    def test_mlp(self):
        with pytest.raises(ValueError, match="take 1 features"):
            MlpModel(**_base(2, 1), weights=(np.zeros((3, 2)), np.zeros((2, 3))),
                     biases=(np.zeros(3), np.zeros(2)))


PREDICTORS = {
    "knn": lambda rng: random_knn(rng, f=5),
    "svm": lambda rng: random_svm(rng, f=5),
    "mlp": lambda rng: random_mlp(rng, (5, 4, 3)),
    "rf": lambda rng: random_rf(rng, f=5),
}
SCORERS = {"svm": "decision_pairs", "mlp": "scores_matrix"}


@pytest.mark.parametrize("kind", sorted(PREDICTORS))
def test_predictors_share_one_input_contract(rng, kind):
    """Rows one column too narrow or too wide raise the same message for
    every kind; a 1-D row of the right width is one row."""
    m = PREDICTORS[kind](rng)
    x = rng.normal(size=(6, 5))
    methods = [m.predict_matrix] + ([getattr(m, SCORERS[kind])] if kind in SCORERS else [])
    for method in methods:
        for width in (4, 6):
            with pytest.raises(ValueError, match=f"^expected 5 features, got {width}$"):
                method(rng.normal(size=(3, width)))
        one = method(x[2])
        assert len(one) == 1
        np.testing.assert_array_equal(one, method(x[2:3]))


class TestKnn:
    def test_k1_returns_matching_row_label(self, rng):
        m = random_knn(rng, k=1)
        for row in (0, 10, 30):
            assert int(m.predict_matrix(m.train_x[row][None, :])[0]) == m.train_y[row]

    def test_majority_two_to_one(self):
        m = KnnModel(**_base(2, 1), k=3,
                     train_x=np.array([[0.0], [0.1], [5.0]]),
                     train_y=np.array([0, 0, 1]))
        assert int(m.predict_matrix(np.array([0.05])[None, :])[0]) == 0

    def test_matches_full_sort_oracle(self, rng):
        m = random_knn(rng, n=200, f=5, n_classes=4, k=5)
        queries = rng.normal(size=(100, 5))
        for q in queries:
            assert int(m.predict_matrix(q[None, :])[0]) == knn_oracle(m, q)

    def test_distance_tie_prefers_lower_row(self):
        # two training rows equidistant from the query, different labels
        m = KnnModel(**_base(2, 1), k=1,
                     train_x=np.array([[1.0], [-1.0]]),
                     train_y=np.array([1, 0]))
        assert int(m.predict_matrix(np.array([0.0])[None, :])[0]) == 1  # row 0 wins the tie

    def test_permutation_invariance_without_ties(self, rng):
        m = random_knn(rng, n=80, f=4, n_classes=3, k=5)
        perm = rng.permutation(80)
        m2 = KnnModel(**_base(3, 4), k=5, train_x=m.train_x[perm], train_y=m.train_y[perm])
        for q in rng.normal(size=(40, 4)):
            assert int(m.predict_matrix(q[None, :])[0]) == int(m2.predict_matrix(q[None, :])[0])

    def test_k_larger_than_n_rejected(self, rng):
        with pytest.raises(ValueError):
            random_knn(rng, n=3, k=5)

    def test_dimension_mismatch_rejected(self, rng):
        m = random_knn(rng, f=5)
        with pytest.raises(ValueError):
            int(m.predict_matrix(np.zeros(4)[None, :])[0])


class TestSvm:
    def test_linear_self_kernel_decision(self):
        sv = np.array([[3.0, 4.0]])
        m = SvmModel(**_base(2, 2), kernel="linear", gamma=1.0,
                     support=sv, sv_counts=np.array([1, 0]),
                     dual_coef=np.array([[1.0]]), intercepts=np.array([0.0]))
        d = m.decision_pairs(sv)[0, 0]
        assert d == 25.0  # squared norm of the SV
        assert int(m.predict_matrix(sv[0][None, :])[0]) == 0

    def test_rbf_kernel_is_one_at_zero_distance(self, rng):
        x = rng.normal(size=(3, 4))
        k = kernel_matrix("rbf", 0.7, x, x)
        np.testing.assert_allclose(np.diag(k), 1.0, rtol=0, atol=0)

    def test_matches_pairwise_enumeration_oracle(self, rng):
        m = random_svm(rng, n_classes=4)
        for q in rng.normal(size=(100, 5)):
            assert int(m.predict_matrix(q[None, :])[0]) == svm_oracle(m, q)

    def test_linear_kernel_against_oracle(self, rng):
        m = random_svm(rng, n_classes=3, kernel="linear")
        for q in rng.normal(size=(50, 5)):
            assert int(m.predict_matrix(q[None, :])[0]) == svm_oracle(m, q)

    def test_rbf_translation_invariance(self, rng):
        m = random_svm(rng, n_classes=3)
        shift = rng.normal(size=5)
        shifted = SvmModel(**_base(3, 5), kernel="rbf", gamma=m.gamma,
                           support=m.support + shift, sv_counts=m.sv_counts,
                           dual_coef=m.dual_coef, intercepts=m.intercepts)
        x = rng.normal(size=(20, 5))
        np.testing.assert_allclose(m.decision_pairs(x), shifted.decision_pairs(x + shift),
                                   rtol=1e-9)

    def test_dual_coef_shape_enforced(self, rng):
        with pytest.raises(ValueError):
            SvmModel(**_base(3, 2), kernel="rbf", gamma=1.0,
                     support=rng.normal(size=(6, 2)), sv_counts=np.array([2, 2, 2]),
                     dual_coef=rng.normal(size=(3, 6)),  # should be (2, 6)
                     intercepts=np.zeros(3))

    @pytest.mark.parametrize("intercepts, tied_winner", [
        ((1.0, -2.0, 3.0), 1),  # summed decisions -1, 2, -1
        ((1.0, -1.0, 1.0), 0),  # summed decisions all 0: the lowest id
    ])
    def test_cyclic_vote_ties_against_oracle(self, intercepts, tied_winner):
        # one SV per class at 1.0 and every dual coefficient 1: each pair
        # decision is 2x + its intercept, so near x = 0 class 0 beats 1, 1
        # beats 2 and 2 beats 0 (one vote each), while |x| = 5 gives no tie
        m = SvmModel(**_base(3, 1), kernel="linear", gamma=1.0,
                     support=np.ones((3, 1)), sv_counts=np.array([1, 1, 1]),
                     dual_coef=np.ones((2, 3)), intercepts=np.array(intercepts))
        x = np.array([[0.0], [5.0], [-5.0], [0.1], [np.nan]])
        got = m.predict_matrix(x)
        assert got.tolist() == [svm_oracle(m, row) for row in x]
        assert got[0] == tied_winner and got[1:3].tolist() == [0, 2]
        assert got[4] == 2  # a NaN decision votes for b: class c gets c votes

    def test_nan_summed_decisions_rank_last_among_tied_classes(self, rng, monkeypatch):
        # pair (0, 1) is NaN and votes for 1, 0 beats 2, 2 beats 1: a cyclic
        # tie whose summed decisions are NaN, NaN and 0
        m = random_svm(rng, n_classes=3)
        monkeypatch.setattr(SvmModel, "decision_pairs",
                            lambda self, x: np.array([[np.nan, 1.0, -1.0]]))
        assert m.predict_matrix(np.zeros((1, 5))).tolist() == [2]

    def test_paper_scale_coefficient_accounting(self, rng):
        # 10 classes with a shared pool of 1950 SVs carries 9 coefficient
        # rows, i.e. 17550 dual coefficients
        m = random_svm(rng, n_sv_per_class=195, f=8, n_classes=10)
        assert m.dual_coef.shape == (9, 1950)
        assert m.dual_coef.size == 17550


class TestMlp:
    def test_all_zero_weights_tie_break_to_class_zero(self):
        m = MlpModel(**_base(3, 4),
                     weights=(np.zeros((5, 4)), np.zeros((3, 5))),
                     biases=(np.zeros(5), np.zeros(3)))
        assert int(m.predict_matrix(np.ones(4)[None, :])[0]) == 0

    def test_single_path_sign_toggle(self):
        w1 = np.zeros((2, 2)); w1[0, 0] = 1.0
        w2 = np.zeros((2, 2)); w2[0, 0] = 1.0
        m = MlpModel(**_base(2, 2), weights=(w1, w2), biases=(np.zeros(2), np.zeros(2)))
        assert int(m.predict_matrix(np.array([3.0, 0.0])[None, :])[0]) == 0
        assert int(m.predict_matrix(np.array([-3.0, 0.0])[None, :])[0]) == 0  # relu kills it, tie -> 0
        w2b = np.zeros((2, 2)); w2b[1, 0] = 1.0
        m2 = MlpModel(**_base(2, 2), weights=(w1, w2b), biases=(np.zeros(2), np.zeros(2)))
        assert int(m2.predict_matrix(np.array([3.0, 0.0])[None, :])[0]) == 1

    def test_matches_scalar_oracle(self, rng):
        m = random_mlp(rng, sizes=(4, 3, 3, 2))
        for q in rng.normal(size=(100, 4)):
            got_scores = m.scores_matrix(q[None, :])[0]
            want_scores = mlp_oracle_scores(m, q)
            np.testing.assert_allclose(got_scores, want_scores, rtol=1e-12, atol=1e-12)
            assert int(m.predict_matrix(q[None, :])[0]) == mlp_oracle(m, q)

    def test_final_layer_positive_scaling_keeps_argmax(self, rng):
        m = random_mlp(rng, sizes=(4, 6, 5, 3))
        scaled = MlpModel(**_base(3, 4),
                          weights=m.weights[:-1] + (7.5 * m.weights[-1],),
                          biases=m.biases[:-1] + (7.5 * m.biases[-1],))
        x = rng.normal(size=(50, 4))
        np.testing.assert_array_equal(m.predict_matrix(x), scaled.predict_matrix(x))

    def test_inconsistent_layers_rejected(self, rng):
        with pytest.raises(ValueError):
            MlpModel(**_base(2, 3),
                     weights=(rng.normal(size=(4, 3)), rng.normal(size=(2, 5))),
                     biases=(np.zeros(4), np.zeros(2)))

    def test_parameter_count(self):
        m = MlpModel(**_base(2, 3),
                     weights=(np.zeros((4, 3)), np.zeros((2, 4))),
                     biases=(np.zeros(4), np.zeros(2)))
        assert m.parameter_count == 12 + 4 + 8 + 2
        assert m.layer_sizes == (3, 4, 2)


class TestRf:
    def test_unanimous_leaf_trees(self):
        leaf = TreeNodes(feature=[-1], threshold=[0.0], left=[-1], right=[-1], leaf_class=[2])
        m = RfModel(**_base(3, 2), trees=(leaf,) * 5)
        assert m.predict_matrix(np.zeros((1, 2)))[0] == 2

    def test_boundary_goes_left(self):
        tree = TreeNodes(feature=[0, -1, -1], threshold=[0.5, 0, 0],
                         left=[1, -1, -1], right=[2, -1, -1], leaf_class=[-1, 0, 1])
        m = RfModel(**_base(2, 1), trees=(tree,))
        assert m.predict_matrix(np.array([[0.5]]))[0] == 0  # x <= thr -> left
        assert m.predict_matrix(np.array([[0.5000001]]))[0] == 1

    def test_matches_traversal_oracle(self, rng):
        m = random_rf(rng, n_trees=100, f=5, n_classes=3, depth=5)
        for q in rng.normal(size=(50, 5)):
            assert int(m.predict_matrix(q[None, :])[0]) == rf_oracle(m, q)

    def test_monotone_transform_invariance(self, rng):
        # cube both thresholds and inputs: routing decisions are unchanged
        m = random_rf(rng, n_trees=30, f=4, n_classes=3)
        def cube(v): return np.sign(v) * np.abs(v) ** 3
        trees2 = tuple(
            TreeNodes(feature=t.feature, threshold=cube(t.threshold),
                      left=t.left, right=t.right, leaf_class=t.leaf_class)
            for t in m.trees
        )
        m2 = RfModel(**_base(3, 4), trees=trees2)
        x = rng.normal(size=(60, 4))
        np.testing.assert_array_equal(m.predict_matrix(x), m2.predict_matrix(cube(x)))

    def test_vote_tie_prefers_lowest_class(self):
        leaf0 = TreeNodes(feature=[-1], threshold=[0.0], left=[-1], right=[-1], leaf_class=[0])
        leaf2 = TreeNodes(feature=[-1], threshold=[0.0], left=[-1], right=[-1], leaf_class=[2])
        m = RfModel(**_base(3, 1), trees=(leaf2, leaf0))
        assert m.predict_matrix(np.zeros((1, 1)))[0] == 0

    def test_corrupt_child_index_rejected(self):
        with pytest.raises(TreeIntegrityError):
            tree = TreeNodes(feature=[0], threshold=[0.5], left=[5], right=[1],
                             leaf_class=[-1])
            RfModel(**_base(2, 1), trees=(tree,))

    def test_worst_case_depth(self):
        tree = TreeNodes(feature=[0, 0, -1, -1, -1],
                         threshold=[0.0, -1.0, 0, 0, 0],
                         left=[1, 3, -1, -1, -1],
                         right=[2, 4, -1, -1, -1],
                         leaf_class=[-1, -1, 0, 1, 0])
        assert worst_case_depth(tree) == 2


class TestDeterminism:
    def test_all_predictors_are_pure(self, rng):
        models = [random_knn(rng), random_svm(rng), random_mlp(rng, (5, 4, 3)),
                  random_rf(rng, f=5)]
        x = rng.normal(size=(20, 5))
        for m in models:
            a = m.predict_matrix(x[:, : m.n_features])
            b = m.predict_matrix(x[:, : m.n_features])
            np.testing.assert_array_equal(a, b)
