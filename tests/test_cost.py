import json
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    BAD_VALUES,
    classification_cost_oracle,
    edited,
    extraction_rows_oracle,
    groups_oracle,
    key_paths,
    leaf_paths,
    random_knn,
    random_mlp,
    random_rf,
    random_svm,
)
from nilmedge import features
from nilmedge.cost import (
    CORTEX_M4_PAPER,
    CostProfile,
    FEATURE_GROUPS,
    ResourceCost,
    budget_check,
    classification_cost,
    cost_report,
    extraction_cost,
    feature_groups,
    load_profile,
    model_cycles,
    model_flash,
    model_macs,
    model_sram,
    profile_from_json,
    profile_to_json,
    validate_profile,
)
from nilmedge.features import (
    DEFAULT_LAYOUT,
    FREQUENCY_ONLY_LAYOUT,
    TIME_ONLY_LAYOUT,
    FeatureLayout,
)

KIB = 1024.0
PROFILE = CORTEX_M4_PAPER


class TestExtraction:
    def test_full_vector_row_verbatim(self):
        ext = extraction_cost(DEFAULT_LAYOUT, PROFILE)
        assert ext.cost.cycles == 105_000
        assert ext.cost.mac == 18_240
        assert ext.cost.flash_bytes == 14.1 * KIB
        assert ext.cost.sram_bytes == 24 * KIB
        assert ext.rows == ("full_vector",)

    def test_frequency_only_has_no_voltage_path(self):
        ext = extraction_cost(FREQUENCY_ONLY_LAYOUT, PROFILE)
        assert ext.cost.cycles == 71_000  # 9K current calibration + 62K FFT
        assert not ext.needs_voltage
        assert "raw_conv_i" in ext.rows and "raw_conv_vi" not in ext.rows

    def test_p_alone(self):
        ext = extraction_cost({"p"}, PROFILE)
        assert ext.cost.cycles == 32_000  # 15K calibration + 17K P
        assert ext.rows == ("raw_conv_vi", "p")

    def test_cheapest_q_variant_selection(self):
        assert "q1" in extraction_cost({"p", "s_abs", "q"}, PROFILE).rows
        assert "q2" in extraction_cost({"s_abs", "q"}, PROFILE).rows
        assert "q3" in extraction_cost({"p", "q"}, PROFILE).rows
        assert "q4" in extraction_cost({"q"}, PROFILE).rows

    def test_time_only_layout(self):
        ext = extraction_cost(TIME_ONLY_LAYOUT, PROFILE)
        assert "fft_1024" not in ext.rows and "fft_1024_unordered" not in ext.rows
        assert ext.cost.cycles == 15_000 + 17_000 + 11_000 + 80

    def test_selected_indices_subset(self):
        # top features P and one harmonic -> voltage path plus FFT, no Q row
        ext = extraction_cost(DEFAULT_LAYOUT, PROFILE, selected_indices=(0, 5))
        assert set(ext.rows) == {"raw_conv_vi", "p", "fft_1024_unordered"}

    def test_groups_from_layout(self):
        assert feature_groups(DEFAULT_LAYOUT) == {"p", "s_abs", "q", "harmonics"}
        assert feature_groups(DEFAULT_LAYOUT, (0,)) == {"p"}
        assert feature_groups(FREQUENCY_ONLY_LAYOUT) == {"harmonics"}

    def test_monotone_in_groups(self):
        subsets = [{"p"}, {"p", "s_abs"}, {"p", "s_abs", "q"},
                   {"p", "s_abs", "q", "harmonics"}]
        costs = [extraction_cost(s, PROFILE).cost for s in subsets]
        for a, b in zip(costs, costs[1:]):
            assert b.cycles >= a.cycles
            assert b.mac >= a.mac
            assert b.flash_bytes >= a.flash_bytes
            assert b.sram_bytes >= a.sram_bytes

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError):
            extraction_cost({"voltage_thd"}, PROFILE)


def random_layout(rng) -> FeatureLayout:
    # each order kept at a share of its own, from none to all 50
    kept = rng.random(50) < rng.random()
    orders = tuple(k for k, keep in zip(range(1, 100, 2), kept) if keep)
    return FeatureLayout(time_domain=bool(rng.integers(2)) or not orders, harmonic_orders=orders,
                         complex_pairs=bool(rng.integers(2)))


class TestLayoutGroups:
    """The layout names each column's extraction group; the cost model reads
    the groups from it instead of from the column names."""

    @pytest.mark.parametrize("layout", [
        DEFAULT_LAYOUT, TIME_ONLY_LAYOUT, FREQUENCY_ONLY_LAYOUT,
        FeatureLayout(complex_pairs=False), FeatureLayout(time_domain=False, complex_pairs=False),
    ])
    def test_groups_match_the_column_names(self, layout):
        assert layout.groups == groups_oracle(layout)
        assert set(layout.groups) <= set(FEATURE_GROUPS)

    @pytest.mark.parametrize("seed", range(20))
    def test_groups_of_random_layouts_match_the_column_names(self, seed):
        layout = random_layout(np.random.default_rng(seed))
        assert layout.groups == groups_oracle(layout)
        assert len(layout.groups) == len(layout)

    @pytest.mark.parametrize("subset", [c for n in range(1, 6) for c in combinations(range(5), n)])
    def test_every_subset_of_the_first_five_columns_prices_as_before(self, subset):
        # P, |S|, Q, H1_re and H1_im reach all 15 non-empty group sets
        groups = {groups_oracle(DEFAULT_LAYOUT)[k] for k in subset}
        rows = extraction_rows_oracle(groups)
        total = ResourceCost()
        for row in rows:
            total = total + PROFILE.extraction[row]
        ext = extraction_cost(DEFAULT_LAYOUT, PROFILE, selected_indices=subset)
        assert ext.rows == rows
        assert ext.cost == total
        assert ext.needs_voltage == bool(groups & {"p", "s_abs", "q"})
        assert feature_groups(DEFAULT_LAYOUT, subset) == groups

    def test_feature_groups_stays_importable_from_cost(self):
        assert FEATURE_GROUPS is features.FEATURE_GROUPS == ("p", "s_abs", "q", "harmonics")


class TestModelCosts:
    def test_paper_svm_macs_and_flash(self, rng):
        m = random_svm(rng, n_sv_per_class=195, f=103, n_classes=10)
        assert model_macs(m) == 103 * 1950 + 9 * 1950 == 218_400
        flash = model_flash(m, PROFILE)
        assert flash == (103 * 1950 + 9 * 1950 + 45) * 4
        assert abs(flash - 871_900) <= 0.01 * 871_900

    def test_paper_mlp_flash_exact(self, rng):
        m = random_mlp(rng, sizes=(100, 800, 100, 5))
        assert model_macs(m) == 160_500
        assert model_flash(m, PROFILE) == 645_620
        m34 = random_mlp(rng, sizes=(34, 800, 100, 5))
        assert abs(model_flash(m34, PROFILE) - 432_700) <= 0.01 * 432_700

    def test_paper_mlp_cycles(self, rng):
        m = random_mlp(rng, sizes=(100, 800, 100, 5))
        assert abs(model_cycles(m, PROFILE) - 1_588_000) <= 0.10 * 1_588_000

    def test_knn_costs_are_matrix_sized(self, rng):
        m = random_knn(rng, n=60, f=5)
        assert model_macs(m) == 300
        assert model_flash(m, PROFILE) == 300 * 4

    def test_single_leaf_forest_has_zero_comparison_macs(self, rng):
        from nilmedge.models.forest import RfModel, TreeNodes
        leaf = TreeNodes(feature=[-1], threshold=[0.0], left=[-1], right=[-1],
                         leaf_class=[0])
        m = RfModel(class_names=("a", "b"), layout=DEFAULT_LAYOUT,
                    selected_indices=(0,), scaler=None, trees=(leaf, leaf))
        assert model_macs(m) == 0
        assert model_cycles(m, PROFILE) == PROFILE.model_coefficients["rf"].fixed_overhead

    def test_rf_flash_counts_nodes_and_code(self, rng):
        m = random_rf(rng, n_trees=10, f=5)
        assert model_flash(m, PROFILE) == (m.node_count * PROFILE.rf_node_bytes
                                           + 10 * PROFILE.rf_code_overhead_bytes)

    def test_paper_rf_cycles_anchor(self):
        # the measured 4.84 Kcycle point is a 100-tree, 5-feature forest
        # whose worst-case branch count is 12 comparisons per tree; build
        # exactly that shape and check the cycle mapping
        from nilmedge.models.forest import RfModel, TreeNodes

        def chain_tree(depth):
            n = depth + 1
            feature = np.full(n, -1, dtype=np.int32)
            threshold = np.zeros(n)
            left = np.full(n, -1, dtype=np.int32)
            right = np.full(n, -1, dtype=np.int32)
            leaf = np.full(n, -1, dtype=np.int32)
            for k in range(depth):
                feature[k] = k % 5
                left[k] = k + 1
                right[k] = k + 1  # placeholder; overwritten below
            # make right children real leaves appended at the end
            extra = depth
            feature = np.concatenate([feature, np.full(extra, -1, dtype=np.int32)])
            threshold = np.concatenate([threshold, np.zeros(extra)])
            left = np.concatenate([left, np.full(extra, -1, dtype=np.int32)])
            right = np.concatenate([right, np.full(extra, -1, dtype=np.int32)])
            leaf = np.concatenate([leaf, np.zeros(extra, dtype=np.int32)])
            for k in range(depth):
                right[k] = n + k
            leaf[depth] = 1
            return TreeNodes(feature=feature, threshold=threshold, left=left,
                             right=right, leaf_class=leaf)

        forest = RfModel(class_names=tuple(f"c{k}" for k in range(7)),
                         layout=DEFAULT_LAYOUT, selected_indices=tuple(range(5)),
                         scaler=None, trees=(chain_tree(12),) * 100)
        assert forest.worst_case_comparisons() == 1200
        cycles = model_cycles(forest, PROFILE)
        assert abs(cycles - 4840) <= 0.25 * 4840

    def test_monotonicity_in_model_size(self, rng):
        small = random_mlp(rng, sizes=(10, 8, 3))
        big = random_mlp(rng, sizes=(10, 16, 3))
        for fn in (model_macs, lambda m: model_flash(m, PROFILE),
                   lambda m: model_cycles(m, PROFILE)):
            assert fn(big) >= fn(small)
        few = random_rf(rng, n_trees=5, f=4)
        many = random_rf(rng, n_trees=25, f=4)
        assert model_flash(many, PROFILE) >= model_flash(few, PROFILE)

    def test_sram_accounting(self, rng):
        m = random_mlp(rng, sizes=(10, 50, 3))
        assert model_sram(m, PROFILE) == 50 * 4


def one_leaf_forest(n_trees=2, n_classes=2):
    from nilmedge.models.forest import RfModel, TreeNodes
    leaf = TreeNodes(feature=[-1], threshold=[0.0], left=[-1], right=[-1], leaf_class=[0])
    return RfModel(class_names=tuple(f"c{k}" for k in range(n_classes)), layout=DEFAULT_LAYOUT,
                   selected_indices=(0,), scaler=None, trees=(leaf,) * n_trees)


def random_models(rng):
    """Seeded random models of every kind, linear and rbf SVMs and a one-leaf
    forest among them."""
    n_classes = int(rng.integers(2, 8))
    f = int(rng.integers(1, 12))
    n = int(rng.integers(5, 90))
    return [
        random_knn(rng, n=n, f=f, n_classes=n_classes, k=int(rng.integers(1, n + 1))),
        random_svm(rng, n_sv_per_class=int(rng.integers(1, 9)), f=f, n_classes=n_classes),
        random_svm(rng, n_sv_per_class=int(rng.integers(1, 9)), f=f, n_classes=n_classes,
                   kernel="linear"),
        random_mlp(rng, sizes=tuple(int(k) for k in rng.integers(1, 60, size=rng.integers(2, 5)))),
        random_rf(rng, n_trees=int(rng.integers(1, 12)), f=f, n_classes=n_classes,
                  depth=int(rng.integers(0, 7))),
        one_leaf_forest(n_trees=int(rng.integers(1, 5)), n_classes=n_classes),
    ]


class TestCostOracle:
    """Each kind's counts, stated once in `cost`, give the figures of the
    per-kind formulas exactly, on the shipped profile and on one with other
    parameter and node sizes."""

    PROFILES = (PROFILE, replace(PROFILE, name="narrow", bytes_per_parameter=2,
                                 rf_node_bytes=12, rf_code_overhead_bytes=96))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_models_of_every_kind(self, seed):
        rng = np.random.default_rng(seed)
        for model in random_models(rng):
            for profile in self.PROFILES:
                want = classification_cost_oracle(model, profile)
                got = {"mac": model_macs(model), "cycles": model_cycles(model, profile),
                       "flash_bytes": model_flash(model, profile),
                       "sram_bytes": model_sram(model, profile)}
                assert got == want, (type(model).__name__, profile.name)
                assert all(type(v) is float for v in got.values())
                assert classification_cost(model, profile) == ResourceCost(**want)

    def test_paper_sized_models(self, rng):
        models = [random_svm(rng, n_sv_per_class=195, f=103, n_classes=10),
                  random_svm(rng, n_sv_per_class=195, f=103, n_classes=10, kernel="linear"),
                  random_mlp(rng, sizes=(100, 800, 100, 5)), one_leaf_forest()]
        for model in models:
            want = classification_cost_oracle(model, PROFILE)
            assert classification_cost(model, PROFILE) == ResourceCost(**want)

    def test_cost_report_json_matches_the_oracle(self, rng):
        model = random_svm(rng, kernel="rbf")
        doc = json.loads(cost_report(model, PROFILE).to_json())
        assert doc["classification"] == classification_cost_oracle(model, PROFILE)


class TestBudget:
    def test_full_extraction_leaves_exact_headroom(self):
        verdict = budget_check(ResourceCost(cycles=105_000),
                               ResourceCost(cycles=8_295_000), PROFILE)
        assert verdict.classification_budget_cycles == 8_295_000
        assert verdict.fits_cycles
        assert verdict.margin_cycles == 0.0

    def test_oversized_mlp_fails_flash(self):
        verdict = budget_check(ResourceCost(flash_bytes=14.1 * KIB, cycles=105_000),
                               ResourceCost(flash_bytes=645_620, cycles=1_588_000),
                               PROFILE)
        assert not verdict.fits_flash
        assert verdict.margin_flash_bytes == PROFILE.flash_total_bytes - (14.1 * KIB + 645_620)
        assert verdict.margin_flash_bytes < 0

    def test_zero_cost_fits_with_full_margins(self):
        verdict = budget_check(ResourceCost(), ResourceCost(), PROFILE)
        assert verdict.fits
        assert verdict.margin_cycles == PROFILE.window_budget_cycles
        assert verdict.margin_flash_bytes == PROFILE.flash_total_bytes
        assert verdict.margin_sram_bytes == PROFILE.sram_total_bytes


class TestReportsAndProfiles:
    def test_cost_report_totals(self, rng):
        m = random_rf(rng, n_trees=5, f=5)
        report = cost_report(m, PROFILE)
        assert report.total.cycles == report.extraction.cycles + report.classification.cycles
        assert report.verdict.fits_cycles
        text = report.to_table()
        assert "extraction" in text and "classification" in text

    def test_report_json_round_trip_fields(self, rng):
        import json
        m = random_knn(rng)
        doc = json.loads(cost_report(m, PROFILE).to_json())
        assert doc["profile"] == PROFILE.name
        assert set(doc["verdict"]) >= {"fits_cycles", "fits_flash", "fits_sram"}

    def test_profile_json_round_trip(self):
        text = profile_to_json(PROFILE)
        back = profile_from_json(text)
        assert back == PROFILE

    def test_profile_file_loading(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(profile_to_json(PROFILE))
        assert load_profile(path) == PROFILE
        assert load_profile("cortex-m4-paper") is PROFILE

    def test_shipped_profile_file_matches_builtin(self):
        path = Path(__file__).parents[1] / "profiles" / "cortex-m4-paper.json"
        assert path.read_text(encoding="utf-8") == profile_to_json(PROFILE)

    def test_table_consistency_checker(self):
        # 62 + 28 + 15 = 105: editing a row out of balance must be flagged
        broken_rows = dict(PROFILE.extraction)
        broken_rows["q4"] = ResourceCost(mac=4040, cycles=29_000,
                                         flash_bytes=0, sram_bytes=4096)
        with pytest.raises(ValueError):
            validate_profile(CostProfile(name="broken", extraction=broken_rows,
                                         model_coefficients=PROFILE.model_coefficients))

    def test_unbalanced_profile_rejected_when_built(self):
        # a profile that profile_from_json would reject cannot be built either
        rows = dict(PROFILE.extraction)
        rows["q4"] = replace(rows["q4"], cycles=29_000)
        with pytest.raises(ValueError, match="full-vector decomposition"):
            CostProfile(name="unbalanced", extraction=rows,
                        model_coefficients=PROFILE.model_coefficients)

    def test_missing_row_rejected(self):
        rows = dict(PROFILE.extraction)
        del rows["fft_1024"]
        with pytest.raises(ValueError):
            CostProfile(name="x", extraction=rows,
                        model_coefficients=PROFILE.model_coefficients)


def profile_doc() -> dict:
    return json.loads(profile_to_json(PROFILE))


class TestMalformedProfiles:
    @pytest.mark.parametrize("text,key", [
        ("[]", "not a cost-profile"),
        ("null", "not a cost-profile"),
        (edited(profile_doc(), ("extraction", "p", "flops"), 1.0), "flops"),
        (edited(profile_doc(), ("extraction", "p"), [1, 2]), "extraction.p"),
        (edited(profile_doc(), ("model_coefficients", "svm", "cycles_per_mac"), drop=True),
         "cycles_per_mac"),
        (edited(profile_doc(), ("clock_hz",), "84e6"), "clock_hz"),
        (edited(profile_doc(), ("clock_hz",), drop=True), "clock_hz"),
        (edited(profile_doc(), ("window_budget_cycles",), float("nan")), "window_budget_cycles"),
        (edited(profile_doc(), ("window_budget_cycles",), float("inf")), "window_budget_cycles"),
        (edited(profile_doc(), ("extraction", "q1", "sram_bytes"), -1.0), "q1.sram_bytes"),
        (edited(profile_doc(), ("model_coefficients", "rf", "fixed_overhead"), float("nan")),
         "rf.fixed_overhead"),
        (edited(profile_doc(), ("rf_node_bytes",), True), "rf_node_bytes"),
        (edited(profile_doc(), ("extraction",), "x"), "extraction"),
        (edited(profile_doc(), ("comment",), "x"), "comment"),
    ], ids=["list", "null", "unknown-row-key", "row-not-object", "missing-coefficient",
            "string-clock", "missing-clock", "nan-budget", "inf-budget", "negative-row",
            "nan-coefficient", "bool-size", "table-not-object", "unknown-key"])
    def test_rejected_with_value_error_naming_the_key(self, text, key):
        with pytest.raises(ValueError, match=key):
            profile_from_json(text)

    def test_seeded_fuzz_raises_only_value_error(self):
        doc = profile_doc()
        text = profile_to_json(PROFILE)
        leaves = list(leaf_paths(doc))
        keys = list(key_paths(doc))
        rng = np.random.default_rng(2024)
        for trial in range(600):
            mode = trial % 3
            if mode == 0:
                mutated, must_fail = text[:int(rng.integers(0, len(text)))], True
            elif mode == 1:
                mutated, must_fail = edited(doc, keys[rng.integers(len(keys))], drop=True), True
            else:
                path = leaves[rng.integers(len(leaves))]
                value = BAD_VALUES[rng.integers(len(BAD_VALUES))]
                # any string is a valid name; every other swap is invalid
                mutated, must_fail = edited(doc, path, value), path != ("name",) or value != "x"
            try:
                profile_from_json(mutated)
            except ValueError:
                continue
            assert not must_fail, mutated
