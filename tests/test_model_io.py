import json
import struct
from dataclasses import fields, replace

import numpy as np
import pytest

from helpers import blob_dataset, random_knn, random_mlp, random_rf, random_svm
from nilmedge.models.base import Scaler
from nilmedge.models.forest import TreeNodes
from nilmedge.models.io import (
    TREE_ARRAYS,
    ModelFormatError,
    ModelIntegrityError,
    ModelTruncatedError,
    ModelVersionError,
    _parts,
    _rebuild,
    deserialize,
    from_json,
    load_model,
    model_kind,
    save_model,
    serialize,
    to_json,
)
from nilmedge.train import train_model


def all_kinds(rng):
    return [random_knn(rng), random_svm(rng), random_mlp(rng, (5, 4, 3)), random_rf(rng, f=5)]


def test_round_trip_preserves_predictions_exactly(rng):
    x = rng.normal(size=(1000, 5))
    for m in all_kinds(rng):
        m2 = deserialize(serialize(m))
        assert model_kind(m2) == model_kind(m)
        np.testing.assert_array_equal(m.predict_matrix(x), m2.predict_matrix(x))


def test_round_trip_is_byte_stable(rng):
    for m in all_kinds(rng):
        blob = serialize(m)
        assert serialize(deserialize(blob)) == blob


def test_scaler_and_metadata_survive(rng):
    m = random_knn(rng)
    scaled = type(m)(class_names=m.class_names, layout=m.layout,
                     selected_indices=m.selected_indices,
                     scaler=Scaler(mean=np.arange(5.0), std=np.ones(5)),
                     metadata={"note": "x"},
                     k=m.k, train_x=m.train_x, train_y=m.train_y)
    m2 = deserialize(serialize(scaled))
    np.testing.assert_array_equal(m2.scaler.mean, np.arange(5.0))
    assert m2.metadata == {"note": "x"}


def test_truncation_raises_without_partial_model(rng):
    blob = serialize(random_mlp(rng))
    for cut in (3, 6, 20, len(blob) - 5):
        with pytest.raises(ModelTruncatedError):
            deserialize(blob[:cut])


def test_unknown_version_rejected(rng):
    blob = bytearray(serialize(random_knn(rng)))
    blob[4] = 99  # little-endian u16 version field
    with pytest.raises(ModelVersionError):
        deserialize(bytes(blob))


def test_bad_magic_rejected(rng):
    blob = b"XXXX" + serialize(random_knn(rng))[4:]
    with pytest.raises(ModelFormatError):
        deserialize(blob)


def test_corrupt_payload_is_integrity_error(rng):
    m = random_rf(rng, n_trees=3, f=4)
    blob = bytearray(serialize(m))
    # break a child index deep in the last tree section
    blob[-4:] = (10**6).to_bytes(4, "little", signed=True)
    with pytest.raises((ModelIntegrityError, ModelFormatError)):
        deserialize(bytes(blob))


def test_trailing_bytes_rejected(rng):
    blob = serialize(random_knn(rng)) + b"\x00"
    with pytest.raises(ModelFormatError):
        deserialize(blob)


def test_file_round_trip(tmp_path, rng):
    m = random_svm(rng)
    path = tmp_path / "model.nlmm"
    save_model(m, path)
    m2 = load_model(path)
    x = rng.normal(size=(50, 5))
    np.testing.assert_array_equal(m.predict_matrix(x), m2.predict_matrix(x))


def test_json_twin_is_lossless(rng):
    x = rng.normal(size=(200, 5))
    for m in all_kinds(rng):
        m2 = from_json(to_json(m))
        np.testing.assert_array_equal(m.predict_matrix(x), m2.predict_matrix(x))
        if model_kind(m) == "svm":
            assert m2.gamma == m.gamma  # hex-encoded real survives exactly


def test_json_rejects_wrong_document(rng):
    with pytest.raises(ModelFormatError):
        from_json('{"format": "something-else"}')


def with_header(blob: bytes, **changes) -> bytes:
    """The blob with some of its JSON header's fields replaced."""
    (meta_len,) = struct.unpack_from("<I", blob, 7)
    meta = json.loads(blob[11:11 + meta_len])
    meta.update(changes)
    new = json.dumps(meta, sort_keys=True).encode()
    return blob[:7] + struct.pack("<I", len(new)) + new + blob[11 + meta_len:]


# layout values of the wrong JSON type, each of which a coercing reader
# would load as some layout: "false" and "no" as True, 1.9 as order 1,
# "13" as orders (1, 3)
WRONG_LAYOUT_VALUES = [
    ("complex_pairs", "false"), ("time_domain", "no"), ("time_domain", 1),
    ("harmonic_orders", [1.9, 3]), ("harmonic_orders", "13"), ("harmonic_orders", [True]),
]


@pytest.mark.parametrize("key, value", WRONG_LAYOUT_VALUES)
def test_layout_values_of_the_wrong_type_are_integrity_errors(rng, key, value):
    m = random_knn(rng)
    layout = {**m.layout.to_dict(), key: value}
    with pytest.raises(ModelIntegrityError, match=key):
        deserialize(with_header(serialize(m), layout=layout))
    doc = json.loads(to_json(m))
    doc["meta"]["layout"] = layout
    with pytest.raises(ModelIntegrityError, match=key):
        from_json(json.dumps(doc))


@pytest.mark.parametrize("indices", [[1, 1], [0, -1], [0, 103]])
def test_bad_selected_indices_are_integrity_errors(rng, indices):
    for m in all_kinds(rng):
        blob = with_header(serialize(m), selected_indices=indices + [2, 3, 4])
        with pytest.raises(ModelIntegrityError):
            deserialize(blob)


def test_parameters_wider_than_the_selection_are_integrity_errors(rng):
    # one selected index, but 5-wide training rows, support vectors or first layer
    for m in all_kinds(rng)[:3]:
        with pytest.raises(ModelIntegrityError, match="1 features"):
            deserialize(with_header(serialize(m), selected_indices=[0]))


def test_manifest_errors_are_format_errors(rng):
    blob = serialize(random_knn(rng))
    (meta_len,) = struct.unpack_from("<I", blob, 7)
    arrays = json.loads(blob[11:11 + meta_len])["arrays"]
    bad = [
        [{k: v for k, v in arrays[0].items() if k != "dtype"}] + arrays[1:],
        [{**arrays[0], "dtype": "<g8"}] + arrays[1:],
        [{**arrays[0], "dtype": ","}] + arrays[1:],  # np.dtype raises SyntaxError
        [{**arrays[0], "dtype": "|O"}] + arrays[1:],
        [{**arrays[0], "shape": [-60, -5]}] + arrays[1:],
        [{**arrays[0], "shape": [60.0, 5]}] + arrays[1:],
    ]
    for manifest in bad:
        with pytest.raises(ModelFormatError, match="manifest|declares dtype"):
            deserialize(with_header(blob, arrays=manifest))
    no_manifest = json.dumps({"class_names": ["a"]}).encode()
    with pytest.raises(ModelFormatError, match="manifest"):
        deserialize(blob[:7] + struct.pack("<I", len(no_manifest)) + no_manifest)


def test_fuzzed_blobs_raise_only_format_errors():
    """Truncations and one-bit flips of one trained model per kind. NLMM has
    no checksum, so a mutant that still decodes (a flipped weight bit) may
    return a model; anything else must be a ModelFormatError."""
    d = blob_dataset(n_classes=3, per_class=10, n_features=4, seed=1)
    jobs = [("knn", {"k": 3}), ("svm", {"c": 1.0, "gamma": 0.5}),
            ("mlp", {"hidden": (4,), "epochs": 2}), ("rf", {"n_trees": 3, "max_depth": 3})]
    rng = np.random.default_rng(0)
    for kind, params in jobs:
        blob = serialize(train_model(kind, d, params))
        for cut in rng.integers(0, len(blob), size=300):
            with pytest.raises(ModelFormatError):
                deserialize(blob[:cut])
        for bit in rng.integers(0, 8 * len(blob), size=1500):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << int(bit % 8)
            try:
                deserialize(bytes(flipped))
            except ModelFormatError:
                pass


FUZZ_JOBS = [("knn", {"k": 3}), ("svm", {"c": 1.0, "gamma": 0.5}),
             ("mlp", {"hidden": (4,), "epochs": 2}), ("rf", {"n_trees": 3, "max_depth": 3})]


def json_doc(kind="knn") -> dict:
    d = blob_dataset(n_classes=3, per_class=10, n_features=4, seed=1)
    return json.loads(to_json(train_model(kind, d, dict(FUZZ_JOBS)[kind])))


def first_real_array(doc: dict) -> str:
    return next(e["name"] for e in doc["meta"]["arrays"] if e["dtype"].endswith("f8"))


@pytest.mark.parametrize("case", [
    "not json", "top-level list", "no meta", "no arrays", "no kind", "unknown kind",
    "meta not an object", "non-hex real", "real not a string", "float in integer array",
    "array missing", "array too short", "nested array",
    "NaN real", "inf real", "k 1.5", "k true", "gamma NaN",
])
def test_json_malformed_documents_raise_format_errors(case):
    doc = json_doc({"k 1.5": "knn", "k true": "knn", "gamma NaN": "svm"}.get(case, "rf"))
    real = first_real_array(doc)
    edits = {
        "no meta": lambda: doc.pop("meta"),
        "no arrays": lambda: doc.pop("arrays"),
        "no kind": lambda: doc.pop("kind"),
        "unknown kind": lambda: doc.update(kind="tree"),
        "meta not an object": lambda: doc.update(meta=[1, 2]),
        "non-hex real": lambda: doc["arrays"][real].__setitem__(0, "0x1.zzp+3"),
        "real not a string": lambda: doc["arrays"][real].__setitem__(0, 1.5),
        "float in integer array": lambda: doc["arrays"]["tree0_left"].__setitem__(0, 1.5),
        "array missing": lambda: doc["arrays"].pop(real),
        "array too short": lambda: doc["arrays"][real].pop(),
        "nested array": lambda: doc["arrays"][real].__setitem__(0, ["0x1.0p+0"]),
        "NaN real": lambda: doc["arrays"][real].__setitem__(0, float("nan").hex()),
        "inf real": lambda: doc["arrays"][real].__setitem__(0, float("inf").hex()),
        "k 1.5": lambda: doc["meta"]["params"].update(k=1.5),
        "k true": lambda: doc["meta"]["params"].update(k=True),
        "gamma NaN": lambda: doc["meta"]["params"].update(gamma_hex=float("nan").hex()),
    }
    if case == "not json":
        text = to_json(random_knn(np.random.default_rng(0)))[:-3] + "]]"
    elif case == "top-level list":
        text = json.dumps([doc])
    else:
        edits[case]()
        text = json.dumps(doc)
    with pytest.raises(ModelFormatError):
        from_json(text)


def test_fuzzed_json_raises_only_format_errors():
    """Truncations and one-character flips (one bit of the ASCII code) of
    the JSON twin of one trained model per kind; as for the binary form, a
    mutant that still decodes may return a model."""
    rng = np.random.default_rng(0)
    for kind, _ in FUZZ_JOBS:
        text = json.dumps(json_doc(kind), sort_keys=True, indent=1)
        for cut in rng.integers(0, len(text), size=200):
            with pytest.raises(ModelFormatError):
                from_json(text[:cut])
        for pos, bit in zip(rng.integers(0, len(text), size=1000), rng.integers(0, 7, size=1000)):
            flipped = text[:pos] + chr(ord(text[pos]) ^ (1 << int(bit))) + text[pos + 1:]
            try:
                from_json(flipped)
            except ModelFormatError:
                pass


def test_binary_non_finite_real_names_its_array(rng):
    m = random_knn(rng)
    x = m.train_x.copy()
    x[3, 1] = np.nan
    with pytest.raises(ModelIntegrityError, match="'train_x' holds a non-finite value"):
        deserialize(serialize(replace(m, train_x=x)))


class _Reads(dict):
    """A dict that records the keys read through it."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_each_kind_writes_exactly_the_arrays_its_loader_reads(rng):
    scaled = replace(random_knn(rng), scaler=Scaler(mean=np.zeros(5), std=np.ones(5)))
    for m in all_kinds(rng) + [scaled]:
        params, named = _parts(m)
        meta = json.loads(to_json(m))["meta"]
        assert meta["params"] == params
        arrays = _Reads(named)
        rebuilt = _rebuild(model_kind(m), meta, arrays)
        assert arrays.read == {name for name, _ in named}
        assert serialize(rebuilt) == serialize(m)
    assert [f for _, f in TREE_ARRAYS] == [f.name for f in fields(TreeNodes)]


@pytest.mark.parametrize("names", [["a", "a"], [1, None], ["a", 2]])
def test_class_tables_that_are_not_distinct_strings_are_integrity_errors(rng, names):
    m = random_knn(rng, n_classes=2)
    with pytest.raises(ModelIntegrityError, match="class names must be distinct strings"):
        deserialize(with_header(serialize(m), class_names=names))
    doc = json.loads(to_json(m))
    doc["meta"]["class_names"] = names
    with pytest.raises(ModelIntegrityError, match="class names must be distinct strings"):
        from_json(json.dumps(doc))


def _knn_doc_with_labels(labels, dtype="<i4") -> str:
    m = random_knn(np.random.default_rng(0), n=4, k=1, n_classes=2)
    doc = json.loads(to_json(m))
    entry = next(e for e in doc["meta"]["arrays"] if e["name"] == "train_y")
    entry["dtype"] = dtype
    doc["arrays"]["train_y"] = labels
    return json.dumps(doc)


@pytest.mark.parametrize("labels, dtype", [
    ([0, 1, 2, 1], "<i4"),  # a class the two-name table does not have
    ([0.7.hex(), 1.7.hex(), 0.0.hex(), 1.0.hex()], "<f8"),  # fractional labels
    ([0, -1, 1, 0], "<i4"),  # a negative label
])
def test_knn_labels_outside_the_class_table_are_integrity_errors(labels, dtype):
    with pytest.raises(ModelIntegrityError, match="train_y"):
        from_json(_knn_doc_with_labels(labels, dtype))


def test_binary_knn_labels_outside_the_class_table_are_integrity_errors(rng):
    m = random_knn(rng, n_classes=2)
    with pytest.raises(ModelIntegrityError, match="train_y"):
        deserialize(with_header(serialize(m), class_names=["a"]))
    blob = bytearray(serialize(m))
    blob[-4:] = (-1).to_bytes(4, "little", signed=True)  # the last row's int32 label
    with pytest.raises(ModelIntegrityError, match="train_y"):
        deserialize(bytes(blob))
