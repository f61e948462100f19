"""Golden SHA-256 digests of every report and profile document.

The digests were taken before the reports were written from their dataclass
fields; each document must stay byte for byte the same. The inputs are small
and seeded so the whole module runs in a few seconds.
"""

import hashlib
import json

import numpy as np
import pytest

from helpers import (
    BAD_VALUES,
    blob_dataset,
    edited,
    key_paths,
    leaf_paths,
    random_knn,
    random_mlp,
    random_rf,
    random_svm,
)
from nilmedge.cli import main
from nilmedge.cost import CORTEX_M4_PAPER, cost_report, profile_to_json
from nilmedge.train import (
    GridSpec,
    MdaReport,
    grid_search,
    mda_rank,
    save_dataset,
    split_dataset,
    sweep_feature_count,
)

GOLDEN = {
    "profile": "0bf940c34ff5953811ca470e9456e80181c1c49726582db47b15c51b75a6ebce",
    "cost_knn": "22dc933b97fa2187c9c1c2fcab5546f4b17d8a8613925906156d1e213e01c6d9",
    "cost_svm": "a3c9ddee66f4db01e45cb00c24c573da263d25d503d1efebdbfe5449eef7eb71",
    "cost_mlp": "68935e51f2508048bdbdeb38cb35d48fe52f29a382c5f512e77d8748c89ad258",
    "cost_rf": "03d03ba2ac258ccb0bbd01cee01077780ebeea2b7c40996edbebf4b3a4e4ca39",
    "mda_knn": "24093028b74ace71ef2fdf0a52d6ca6de4bb9f502339aa8190d72023047e351c",
    "mda_mlp": "80b276429d727d41f841f6aab228bbf37d260252a194448c7c37f88e9d7a5c17",
    "mda_rf": "9d3bdd63118d27d81431575462e4c7a8e33861253d341be5f6cf31029101e9a5",
    "grid_knn": "e6b286591dfc74566f6854da89a3183b8ea4d2eb55951265ce89ca41d9492855",
    "grid_rf": "33258bad921cbdd6d699e93293b67244e69d8103d69a662630bf81ad5b796aa1",
    "sweep_json": "5df9b2b1c2b87faa758ed3df74501a5106f392d2a4e8d03c6f264b6669442c8a",
    "sweep_csv": "40e1237ecf0b74a179ac1a448f8d923f7e5bdae888401e75affa57c57da3a5a3",
    "train_knn": "3f04d6b472399062b40a0466b647fa07dbd6ee2ba4164cff5fd12e5c7897eea8",
    "train_svm": "3f04d6b472399062b40a0466b647fa07dbd6ee2ba4164cff5fd12e5c7897eea8",
    "train_mlp": "911424c523fb6b0d3ed6d4cb040854cc9d768ed860db024940ad07fa54eb8f97",
    "train_rf": "d85afb2d793a9a6b3d339b22429d216fc704e1384efe4a593aa436400b679bdc",
}

RANDOM_MODELS = {"knn": random_knn, "svm": random_svm, "mlp": random_mlp, "rf": random_rf}

TRAIN_ARGS = {
    "knn": ("--k", "3"),
    "svm": ("--c", "1.0", "--gamma", "0.1"),
    "mlp": ("--layers", "6", "--epochs", "3", "--batch", "8"),
    "rf": ("--trees", "5", "--depth", "4"),
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def blobs():
    # overlapping classes, so no metric reads a round 1.0
    return blob_dataset(n_classes=3, per_class=20, n_features=4, spread=4.0, seed=2)


def split():
    return split_dataset(blobs(), 0.75, seed=0)


def test_profile_document():
    assert sha(profile_to_json(CORTEX_M4_PAPER)) == GOLDEN["profile"]


@pytest.mark.parametrize("kind", sorted(RANDOM_MODELS))
def test_cost_report_document(kind):
    model = RANDOM_MODELS[kind](np.random.default_rng(7))
    assert sha(cost_report(model, CORTEX_M4_PAPER).to_json()) == GOLDEN[f"cost_{kind}"]


@pytest.mark.parametrize("kind,params", [
    ("knn", {"k": 3}),
    ("mlp", {"hidden": (6,), "lr": 0.05, "epochs": 3, "batch": 8}),
])
def test_mda_document(kind, params):
    tr, te = split()
    report = mda_rank(kind, params, tr, te, repetitions=2, seed=3)
    assert sha(report.to_json()) == GOLDEN[f"mda_{kind}"]


def test_mda_rf_document():
    """A forest whose importances are non-zero, one of them negative. The
    digest was taken while every shuffle still routed every tree."""
    tr, te = split()
    report = mda_rank("rf", {"n_trees": 10, "max_depth": 3}, tr, te, repetitions=2, seed=3)
    assert len(set(report.importances)) == 4 and min(report.importances) < 0
    assert sha(report.to_json()) == GOLDEN["mda_rf"]


@pytest.mark.parametrize("kind,grid", [
    ("knn", GridSpec(knn_k=(1, 3, 10_000))),  # the last cell fails to train
    ("rf", GridSpec(rf_trees=(3,), rf_depth=(2, None))),
])
def test_grid_document(kind, grid):
    tr, _ = split()
    result = grid_search(tr, kind, grid, folds=3, seed=4)
    assert sha(json.dumps(result.as_dict(), sort_keys=True)) == GOLDEN[f"grid_{kind}"]


def test_sweep_documents():
    tr, te = split()
    mda = mda_rank("knn", {"k": 3}, tr, te, repetitions=2, seed=5)
    report = sweep_feature_count(tr, te, "knn", mda, CORTEX_M4_PAPER,
                                 fixed_params={"k": 3}, seed=5)
    assert sha(report.to_json()) == GOLDEN["sweep_json"]
    assert sha(report.to_csv()) == GOLDEN["sweep_csv"]


@pytest.mark.parametrize("kind", sorted(TRAIN_ARGS))
def test_train_metrics_line(kind, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_dataset(blobs(), "d.csv")
    code = main(["train", "--dataset", "d.csv", "--kind", kind, "--seed", "6",
                 "--out", "m.nlmm", *TRAIN_ARGS[kind]])
    assert code == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert sha(line) == GOLDEN[f"train_{kind}"]


def test_mda_round_trip():
    tr, te = split()
    report = mda_rank("knn", {"k": 3}, tr, te, repetitions=2, seed=3)
    assert MdaReport.from_json(report.to_json()) == report


def mda_doc() -> dict:
    tr, te = split()
    return json.loads(mda_rank("knn", {"k": 3}, tr, te, repetitions=2, seed=3).to_json())


class TestMalformedMdaReports:
    @pytest.mark.parametrize("text,key", [
        ("not json", "not JSON"),
        ("[]", "JSON object"),
        ("null", "JSON object"),
        ('{"x": 1}', "unknown keys"),
        (edited(mda_doc(), ("seed",), drop=True), "seed"),
        (edited(mda_doc(), ("note",), "x"), "note"),
        (edited(mda_doc(), ("ranking",), 3), "ranking"),
        (edited(mda_doc(), ("ranking",), "0123"), "ranking"),
        (edited(mda_doc(), ("ranking",), [0, "1", 2, 3]), "ranking"),
        (edited(mda_doc(), ("ranking",), [0, 0, 1, 2]), "ranking"),
        (edited(mda_doc(), ("importances",), {"0": 1.0}), "importances"),
        (edited(mda_doc(), ("importances",), [0.0, [], 0.0, 0.0]), "importances"),
        (edited(mda_doc(), ("baseline_accuracy",), float("nan")), "baseline_accuracy"),
        (edited(mda_doc(), ("repetitions",), 0), "repetitions"),
        (edited(mda_doc(), ("seed",), True), "seed"),
        (edited(mda_doc(), ("params",), None), "params"),
        (edited(mda_doc(), ("kind",), "tree"), "kind"),
        (edited(mda_doc(), ("baseline_accuracy",), 10**400), "baseline_accuracy"),
    ], ids=["not-json", "list", "null", "unknown-only", "missing-key", "unknown-key",
            "ranking-number", "ranking-string", "ranking-entry", "ranking-repeat",
            "importances-object", "importances-entry", "nan-accuracy", "zero-repetitions",
            "bool-seed", "params-null", "unknown-kind", "huge-accuracy"])
    def test_rejected_with_value_error_naming_the_key(self, text, key):
        with pytest.raises(ValueError, match=key):
            MdaReport.from_json(text)

    def test_seeded_fuzz_raises_only_value_error(self):
        """Truncations, dropped keys and values swapped for odd ones. What
        params holds is free-form and any integer is a seed; every other
        mutant is invalid."""
        doc = mda_doc()
        text = json.dumps(doc)
        leaves = list(leaf_paths(doc))
        keys = list(key_paths(doc))
        rng = np.random.default_rng(2025)
        for trial in range(600):
            mode = trial % 3
            if mode == 0:
                mutated, must_fail = text[:int(rng.integers(0, len(text)))], True
            elif mode == 1:
                path = keys[rng.integers(len(keys))]
                mutated, must_fail = edited(doc, path, drop=True), len(path) == 1
            else:
                path = leaves[rng.integers(len(leaves))]
                value = BAD_VALUES[rng.integers(len(BAD_VALUES))]
                valid = len(path) > 1 or (path, value) == (("seed",), -1)
                mutated, must_fail = edited(doc, path, value), not valid
            try:
                MdaReport.from_json(mutated)
            except ValueError:
                continue
            assert not must_fail, mutated
