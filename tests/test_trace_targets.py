"""The benchmark's tracer wraps library names where callers look them up
(perfbench/spans.py); a refactor that drops one must fail here, not only in
a traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

import nilmedge.cost
import nilmedge.pipeline
import nilmedge.signals
import nilmedge.synth
import nilmedge.train.selection
from helpers import blob_dataset
from nilmedge.scenarios import MULTI5_REGISTRY, builtin_scenario, overlapping_script
from nilmedge.train import split_dataset, train_model

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


def _traced_pass() -> None:
    """One small pass through every instrumented entry. Library names are
    looked up through their modules at call time, where the tracer rebinds
    them, as perfbench/workloads.py does."""
    synth, signals, pipeline = nilmedge.synth, nilmedge.signals, nilmedge.pipeline
    selection = nilmedge.train.selection
    script, registry = builtin_scenario("single7")
    stream, track = synth.synth_scenario(script, registry, seed=0)
    d = pipeline.window_dataset(stream, track)
    train, test = split_dataset(d, 0.8, seed=0)
    rf_params = {"n_trees": 3, "max_depth": 4}
    rf = train_model("rf", train, rf_params)
    mlp = train_model("mlp", train, {"hidden": (4,), "epochs": 1})
    report = selection.mda_rank("rf", rf_params, train, test, repetitions=1, seed=0)
    selection.sweep_feature_count(train, test, "rf", report, nilmedge.cost.CORTEX_M4_PAPER,
                                  fixed_params=rf_params, feature_counts=[1, 2], seed=0)
    nilmedge.cost.cost_report(rf, nilmedge.cost.CORTEX_M4_PAPER)

    script = overlapping_script(MULTI5_REGISTRY, seed=0, rounds=1)
    stream, track = synth.synth_scenario(script, MULTI5_REGISTRY, seed=0)
    pipeline.delta_dataset(stream, track)
    stream, _ = synth.synth_scenario(script, MULTI5_REGISTRY, seed=0,
                                     rate_hz=signals.ACQUISITION_RATE_HZ)
    coeffs = signals.default_calibration()
    codes = [np.clip(np.rint((x - offset) / gain), 0, signals.ADC_CODE_MAX).astype(np.int64)
             for x, gain, offset in ((stream.v, coeffs.gain_v, coeffs.offset_v),
                                     (stream.i, coeffs.gain_i, coeffs.offset_i))]
    block = signals.RawSampleBlock(codes_v=codes[0], codes_i=codes[1])
    stream = signals.decimate_stream(signals.calibrate_raw(block, coeffs))
    for model in (rf, mlp):
        pipeline.classify_stream(stream, model, mode="multi")


def test_silent_targets_and_window_count():
    """The span names that a pass through every entry leaves empty, stated
    exactly, so a refactor cannot silence another target unnoticed.

    - features.extract, features.fft, features.pqs: the entries extract
      through extract_feature_matrix on row blocks, and never call
      extract_features, fft_1024 or the P/|S|/Q functions per window.
    - models.rf.route: a forest routes through its NodeTable, not through
      TreeNodes.route_matrix.

    The tracer counts windows by wrapping pipeline.window_stream, which no
    entry calls: the entries read signals.window_rows, so the benchmark's
    signals.windows reads 0 until perfbench counts its rows instead."""
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        _traced_pass()
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    silent = {name for _, _, name, _ in spans.TARGETS} - recorded
    assert silent == {"features.extract", "features.fft", "features.pqs", "models.rf.route"}
    assert tracer.windows == 0  # 2,130 when the entries still cut window objects
