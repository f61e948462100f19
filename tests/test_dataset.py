import json

import numpy as np
import pytest

from helpers import blob_dataset
from nilmedge.features import DEFAULT_LAYOUT
from nilmedge.train.dataset import Dataset, load_dataset, save_dataset, split_dataset


class TestInvariants:
    def test_rejects_non_finite(self):
        x = np.ones((4, 2))
        x[1, 1] = np.nan
        with pytest.raises(ValueError):
            Dataset(x=x, y=np.array([0, 0, 1, 1]), class_names=("a", "b"))

    def test_rejects_singleton_class(self):
        with pytest.raises(ValueError):
            Dataset(x=np.ones((3, 2)), y=np.array([0, 0, 1]), class_names=("a", "b"))

    def test_rejects_label_out_of_table(self):
        with pytest.raises(ValueError):
            Dataset(x=np.ones((2, 2)), y=np.array([0, 5]), class_names=("a",))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(x=np.ones((0, 2)), y=np.zeros(0, dtype=int), class_names=("a",))

    @pytest.mark.parametrize("names", [("a", "a"), (1, None), ("a", 2)])
    def test_rejects_class_tables_that_are_not_distinct_strings(self, names):
        with pytest.raises(ValueError, match="class names must be distinct strings"):
            Dataset(x=np.arange(8.0).reshape(4, 2), y=np.array([0, 0, 1, 1]), class_names=names)


class TestSplit:
    def test_80_20_proportions_per_class(self):
        d = blob_dataset(n_classes=5, per_class=20)
        tr, te = split_dataset(d, 0.8, seed=0)
        assert tr.n == 80 and te.n == 20
        for counts in (tr.class_counts(), te.class_counts()):
            assert counts.max() - counts.min() <= 1

    def test_same_seed_same_split(self):
        d = blob_dataset()
        a = split_dataset(d, 0.8, seed=5)
        b = split_dataset(d, 0.8, seed=5)
        assert np.array_equal(a[0].x, b[0].x)
        assert np.array_equal(a[1].y, b[1].y)

    def test_union_is_original_multiset(self):
        d = blob_dataset(n_classes=3, per_class=21)
        tr, te = split_dataset(d, 0.7, seed=2)
        merged = np.vstack([tr.x, te.x])
        # sort rows lexicographically on both sides and compare exactly
        order = np.lexsort(merged.T)
        original = np.lexsort(d.x.T)
        np.testing.assert_array_equal(merged[order], d.x[original])
        assert np.array_equal(np.sort(np.concatenate([tr.y, te.y])), np.sort(d.y))

    def test_partitions_keep_two_per_class(self):
        d = blob_dataset(n_classes=2, per_class=5)
        tr, te = split_dataset(d, 0.9, seed=0)  # 0.9 * 5 would round to 5
        assert te.class_counts().min() >= 2
        assert tr.class_counts().min() >= 2

    def test_tiny_class_rejected(self):
        d = blob_dataset(n_classes=2, per_class=3)
        with pytest.raises(ValueError):
            split_dataset(d, 0.8, seed=0)

    def test_bad_fraction_rejected(self):
        d = blob_dataset()
        with pytest.raises(ValueError):
            split_dataset(d, 1.0, seed=0)


class TestFiles:
    def test_round_trip(self, tmp_path):
        d = blob_dataset(n_classes=3, per_class=10)
        path = tmp_path / "data.csv"
        save_dataset(d, path)
        d2 = load_dataset(path)
        np.testing.assert_array_equal(d2.x, d.x)  # repr round-trips floats
        np.testing.assert_array_equal(d2.y, d.y)
        assert d2.class_names == d.class_names
        assert d2.layout == d.layout

    def test_missing_sidecar_rejected(self, tmp_path):
        d = blob_dataset()
        path = tmp_path / "data.csv"
        save_dataset(d, path)
        (tmp_path / "data.csv.meta.json").unlink()
        with pytest.raises(FileNotFoundError):
            load_dataset(path)

    def test_bad_cell_names_line(self, tmp_path):
        d = blob_dataset(n_classes=2, per_class=5, n_features=2)
        path = tmp_path / "data.csv"
        save_dataset(d, path)
        lines = path.read_text().splitlines()
        lines[3] = "0,not_a_number,1.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_dataset(path)
        assert "line 4" in str(err.value)

    @pytest.mark.parametrize("key, value", [
        ("time_domain", "no"), ("complex_pairs", "false"), ("complex_pairs", 0),
        ("harmonic_orders", [1.9]), ("harmonic_orders", "13"),
    ])
    def test_layout_values_of_the_wrong_type_rejected(self, tmp_path, key, value):
        path = tmp_path / "data.csv"
        save_dataset(blob_dataset(n_classes=2, per_class=5), path)
        sidecar = tmp_path / "data.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        meta["layout"][key] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=key):
            load_dataset(path)


class TestLoaderChecks:
    """The loader takes only a file that its sidecar describes: a model
    trained on it reads each online vector's columns by layout position. The
    in-memory Dataset still takes a matrix narrower than its layout."""

    @staticmethod
    def saved(tmp_path, d=None):
        path = tmp_path / "data.csv"
        save_dataset(d or blob_dataset(n_classes=2, per_class=5), path)
        return path, tmp_path / "data.csv.meta.json"

    @staticmethod
    def narrow():
        d = blob_dataset(n_classes=2, per_class=5, n_features=5)
        return Dataset(x=d.x, y=d.y, class_names=d.class_names, layout=DEFAULT_LAYOUT)

    def test_in_memory_dataset_may_be_narrower_than_its_layout(self):
        assert self.narrow().n_features == 5 and len(self.narrow().layout) == 103

    def test_columns_must_match_the_layout(self, tmp_path):
        path, _ = self.saved(tmp_path, self.narrow())
        with pytest.raises(ValueError, match=r"^5 feature columns but sidecar 'layout' has 103 entries$"):
            load_dataset(path)

    @pytest.mark.parametrize("key", ["layout", "class_names"])
    def test_missing_key_is_named(self, tmp_path, key):
        path, sidecar = self.saved(tmp_path)
        meta = json.loads(sidecar.read_text())
        del meta[key]
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"'{key}'"):
            load_dataset(path)

    @pytest.mark.parametrize("value", [7, None, True, ["bench"], {"tag": "bench"}])
    def test_provenance_must_be_a_string(self, tmp_path, value):
        path, sidecar = self.saved(tmp_path)
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "provenance": value}))
        with pytest.raises(ValueError, match="'provenance'"):
            load_dataset(path)

    def test_provenance_may_be_left_out(self, tmp_path):
        path, sidecar = self.saved(tmp_path)
        meta = json.loads(sidecar.read_text())
        del meta["provenance"]
        sidecar.write_text(json.dumps(meta))
        assert load_dataset(path).provenance == "unspecified"
