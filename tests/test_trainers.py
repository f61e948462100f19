"""`train_model`: params are the trainer's keyword arguments, and the model
bytes it trains are pinned."""

import hashlib
import inspect

import pytest

from helpers import blob_dataset
from nilmedge.cli import _hyperparams, build_parser
from nilmedge.models.io import from_json, serialize, to_json
from nilmedge.train import GridSpec, train_knn, train_mlp, train_model, train_rf, train_svm

TRAINERS = {"knn": train_knn, "svm": train_svm, "mlp": train_mlp, "rf": train_rf}

PARAMS = {
    "knn": {"k": 3},
    "svm": {"c": 10.0, "gamma": 0.1},
    "mlp": {"hidden": (32, 16), "lr": 0.05, "epochs": 30, "batch": 8},
    "rf": {"n_trees": 20, "max_depth": None},
}

# SHA-256 of serialize(train_model(kind, d, PARAMS[kind], seed=5, selected_indices=sel)),
# for sel None and (8, 2, 5); the same with one and with two BLAS threads
GOLDEN = {
    "knn": ("42f84df6c8c8b77f898c256209a2938e70f168146be924ac02a23da034a76f66",
            "3bcc08badc88b425e153dcd014049d99e9f2c7c272645eb74a8002734550d49d"),
    "svm": ("33008f0ad53736865e22762fa1ba3e1ba6515d04b5fe658bc64947aa1c0bf236",
            "46ccb0c49200b8bad11071da450cb2bdccdd9a958a523fe53583e9667fafe1ae"),
    "mlp": ("07c7d0edca662dcb0dfee11db329b39b60147eda2e0d249f250c773c2616c135",
            "93317bd4b4dd0394cd9eb1a751b7f5dbac0b0ab5cc5b1ecd219c83ce2051970b"),
    "rf": ("47923f261808f144a6d0f60214f982ab00e8054791006e9cf183eb7f11def397",
           "7728c1413f99840f8566b3456244c878a79e0e97629c936877fe2d04a5031c6c"),
}


def golden_data():
    return blob_dataset(n_classes=3, per_class=40, n_features=9, spread=2.0, seed=4)


def digest(model) -> str:
    return hashlib.sha256(serialize(model)).hexdigest()


@pytest.mark.parametrize("kind", sorted(GOLDEN))
@pytest.mark.parametrize("column", [0, 1])
def test_trained_model_matches_golden_hash(kind, column):
    sel = (None, (8, 2, 5))[column]
    model = train_model(kind, golden_data(), PARAMS[kind], seed=5, selected_indices=sel)
    assert digest(model) == GOLDEN[kind][column]


# SHA-256 of the JSON twin (io.to_json) of the same models for sel None; the
# twin's text is the NLMM header's, with every array hex-encoded
GOLDEN_JSON = {
    "knn": "4fa74db15becd017b62ebab05166e37a71b043e4218998098c6b1753b9cdf68b",
    "svm": "45cc4872dc5421acddd49fefebfc65c0b365193d22fe623c9a5d66d36faca753",
    "mlp": "792c5c8d6fa27c4b77af5ab4f0a0f2fec9e15fe5b2499ed5d259809d6756a0dc",
    "rf": "3ed11ee29558e3a4c1d0c3db74e9ad50517c7dbed93bdf4dacd73b151ad68250",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_JSON))
def test_trained_model_json_twin_matches_golden_hash(kind):
    model = train_model(kind, golden_data(), PARAMS[kind], seed=5)
    assert hashlib.sha256(to_json(model).encode("utf-8")).hexdigest() == GOLDEN_JSON[kind]
    assert digest(from_json(to_json(model))) == GOLDEN[kind][0]


def binds(kind: str, params: dict) -> None:
    seeded = {"seed": 0} if kind in ("mlp", "rf") else {}
    inspect.signature(TRAINERS[kind]).bind(None, selected_indices=None, **params, **seeded)


@pytest.mark.parametrize("kind", sorted(TRAINERS))
def test_grid_cells_bind_to_their_trainer(kind):
    for cell in GridSpec().cells(kind):
        binds(kind, cell)


@pytest.mark.parametrize("kind", sorted(TRAINERS))
def test_cli_hyperparams_bind_to_their_trainer(kind):
    args = build_parser().parse_args(["train", "--dataset", "d.csv", "--kind", kind])
    binds(kind, _hyperparams(args, kind))


def test_unknown_param_raises():
    # before, a misspelt key was ignored and the default of 100 trees trained
    with pytest.raises(TypeError, match="n_tree"):
        train_model("rf", golden_data(), {"n_tree": 5})


def test_seed_is_not_a_param():
    with pytest.raises(TypeError):
        train_model("rf", golden_data(), {"n_trees": 2, "seed": 3})


def test_unknown_kind_raises():
    with pytest.raises(ValueError, match="unknown model kind"):
        train_model("tree", golden_data(), {})


def test_list_hidden_trains_the_tuple_bytes():
    # MdaReport.from_json returns the MLP's hidden sizes as a list
    listed = {**PARAMS["mlp"], "hidden": [32, 16]}
    assert digest(train_model("mlp", golden_data(), listed, seed=5)) == GOLDEN["mlp"][0]
