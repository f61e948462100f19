"""The benchmark's tracer wraps library names where callers look them up
(perfbench/spans.py); a refactor that drops one must fail here, not only in
a traced benchmark run."""

import importlib.util
from pathlib import Path

import nilmedge.pipeline
from helpers import blob_dataset
from nilmedge.train import train_model

SPANS_PATH = Path(__file__).parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound():
    spans = load_spans()
    missing = [f"{path}.{attr}" for path, attr, _, _ in spans.TARGETS
               if not hasattr(spans._owner(path), attr)]
    assert missing == []
    assert callable(nilmedge.pipeline.window_stream)


def test_tracer_installs_and_restores():
    spans = load_spans()
    before = {name: getattr(nilmedge.pipeline, name)
              for name in ("window_stream", "extract_features", "detect_event")}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert nilmedge.pipeline.detect_event is not before["detect_event"]
    finally:
        tracer.uninstall()
    assert all(getattr(nilmedge.pipeline, k) is v for k, v in before.items())


def test_traced_train_model_records_fit_spans():
    # train_model must look the trainers up at call time, where the tracer
    # rebinds them, or train.rf_fit and train.mlp_fit read 0
    spans = load_spans()
    d = blob_dataset(n_classes=2, per_class=10, n_features=3, seed=0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        train_model("rf", d, {"n_trees": 2, "max_depth": 2})
        train_model("mlp", d, {"hidden": (4,), "epochs": 1})
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("train.rf_fit") == 1 and names.count("train.mlp_fit") == 1
