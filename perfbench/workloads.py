"""The benchmark workloads.

Each workload is a closed-loop batch job with one client in one process:
`setup(seed)` makes every input from the seed, `job(inputs)` is the timed
part and hands the library only those inputs, `outcome(inputs, result)`
reads the user-visible result, and `check(inputs, result)` lists what is
wrong with it. Outcome and check run outside the timed region.

Library functions are looked up through their modules at call time
(`pipeline.classify_stream`, not a name bound at import), so the traced run
sees the same calls through its wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import nilmedge.cost as cost
import nilmedge.models.io as model_io
import nilmedge.pipeline as pipeline
import nilmedge.signals as signals
import nilmedge.synth as synth
import nilmedge.train.dataset as dataset
import nilmedge.train.selection as selection
import nilmedge.train.trainers as trainers
from nilmedge.models.base import BaseModel, classify_matrix
from nilmedge.scenarios import MULTI5_REGISTRY, builtin_scenario, overlapping_script

PROFILE = cost.load_profile("cortex-m4-paper")
RF_PARAMS = {"n_trees": 100, "max_depth": 12}
SWEEP_COUNTS = list(range(1, 13)) + [16, 24, 48, 103]
MULTI5_NAMES = tuple(sorted(MULTI5_REGISTRY))
WINDOW_S = signals.WINDOW_SAMPLES / signals.SAMPLE_RATE_HZ  # 100 ms
ACQUISITION_SAMPLES_PER_WINDOW = (signals.WINDOW_SAMPLES * signals.ACQUISITION_RATE_HZ
                                  // signals.SAMPLE_RATE_HZ)


@dataclass(frozen=True)
class Outcome:
    """What a user of the job sees: its accuracy and the cost of the model it deploys."""

    accuracy: float
    cost: cost.CostReport


def _toggle_at(toggles: dict, window_index: int) -> str | None:
    """Scripted appliance toggled within one window of the event (as c09 matches)."""
    for j in (window_index, window_index - 1, window_index + 1):
        if j in toggles:
            return toggles[j][0][0]
    return None


def _label_accuracy(labels, toggles: dict) -> float:
    labeled = [s for s in labels if s.status == "labeled"]
    if not labeled:
        return 0.0
    return sum(_toggle_at(toggles, s.window_index) == s.label for s in labeled) / len(labeled)


def _offline_labels(stream, track, model: BaseModel) -> list[str]:
    """Reference labels: predict_matrix on the delta_dataset rows of the stream."""
    d = pipeline.delta_dataset(stream, track, class_names=MULTI5_NAMES)
    return [model.class_names[c] for c in classify_matrix(model, d.x)]


def _online_problems(labels, toggles: dict, expected: list[str], min_coverage: float) -> list[str]:
    """Coverage of the scripted toggles, and agreement with the offline reference."""
    labeled = [s for s in labels if s.status == "labeled"]
    problems = []
    covered = sum(any(abs(s.window_index - j) <= 1 for s in labeled) for j in toggles)
    if covered < min_coverage * len(toggles):
        problems.append(f"{covered} of {len(toggles)} scripted toggles labeled")
    online = [s.label for s in labeled if _toggle_at(toggles, s.window_index) is not None]
    if online != expected:
        problems.append("online labels differ from predict_matrix on the delta_dataset rows")
    return problems


# --- single7-sweep -------------------------------------------------------------

class Single7Sweep:
    """c08 at one seed: steady-state windows, RF MDA ranking, fast feature-count sweep."""

    def setup(self, seed: int) -> dict:
        script, registry = builtin_scenario("single7")
        stream, track = synth.synth_scenario(script, registry, seed=800 + seed)
        return {"seed": seed, "stream": stream, "track": track}

    def windows(self, inputs: dict) -> int:
        return len(inputs["stream"]) // signals.WINDOW_SAMPLES

    def job(self, inputs: dict):
        seed = inputs["seed"]
        d = pipeline.window_dataset(inputs["stream"], inputs["track"])
        tr, te = dataset.split_dataset(d, 0.8, seed=seed)
        mda = selection.mda_rank("rf", RF_PARAMS, tr, te, repetitions=3, seed=seed)
        report = selection.sweep_feature_count(tr, te, "rf", mda, PROFILE,
                                               fixed_params=RF_PARAMS,
                                               feature_counts=SWEEP_COUNTS, seed=seed)
        return tr, te, report

    def outcome(self, inputs: dict, result) -> Outcome:
        chosen = result[2].chosen
        return Outcome(chosen.accuracy, chosen.cost)

    def check(self, inputs: dict, result) -> list[str]:
        tr, te, report = result
        chosen = report.chosen
        problems = []
        small = max(p.accuracy for p in report.points if p.m <= 10)
        if small < report.max_accuracy - 0.05:
            problems.append(f"best accuracy at m <= 10 is {small:.3f}, "
                            f"more than 0.05 below the maximum {report.max_accuracy:.3f}")
        if not report.feasible or not chosen.cost.verdict.fits:
            problems.append(f"chosen point m={chosen.m} does not fit the budget")
        if chosen.cost.classification.cycles > 8_295_000:
            problems.append("chosen classifier exceeds 8,295,000 cycles")
        # the sweep keeps no models; retraining with the sweep's own seed
        # derivation rebuilds the chosen one bit for bit
        model = trainers.train_model("rf", tr, chosen.params,
                                     seed=selection.derive_seed(inputs["seed"], chosen.m),
                                     selected_indices=chosen.indices)
        if cost.cost_report(model, PROFILE) != chosen.cost:
            problems.append("retrained chosen model differs from the sweep's")
        restored = model_io.deserialize(model_io.serialize(model))
        x = model.prepare_matrix(te.x)
        if not np.array_equal(model.predict_matrix(x), restored.predict_matrix(x)):
            problems.append("chosen model changes predictions through serialize/deserialize")
        return problems


# --- multi5-train ----------------------------------------------------------------

class Multi5Train:
    """c09 at one seed: delta datasets, RF MDA, MLP on the top ten, online test stream."""

    def setup(self, seed: int) -> dict:
        streams = []
        for k in range(5):
            s = 900 + 10 * seed + k
            script = overlapping_script(MULTI5_REGISTRY, seed=s, rounds=3)
            streams.append(synth.synth_scenario(script, MULTI5_REGISTRY, seed=s))
        s = 990 + seed
        test = synth.synth_scenario(overlapping_script(MULTI5_REGISTRY, seed=s, rounds=2),
                                    MULTI5_REGISTRY, seed=s)
        return {"seed": seed, "streams": streams, "test": test}

    def windows(self, inputs: dict) -> int:
        return sum(len(s) for s, _ in inputs["streams"] + [inputs["test"]]) // signals.WINDOW_SAMPLES

    def job(self, inputs: dict):
        seed = inputs["seed"]
        parts = [pipeline.delta_dataset(s, t, class_names=MULTI5_NAMES)
                 for s, t in inputs["streams"]]
        d = dataset.Dataset(x=np.vstack([p.x for p in parts]),
                            y=np.concatenate([p.y for p in parts]),
                            class_names=MULTI5_NAMES, layout=parts[0].layout)
        tr, te = dataset.split_dataset(d, 0.8, seed=seed)
        mda = selection.mda_rank("rf", RF_PARAMS, tr, te, repetitions=3, seed=seed)
        mlp = trainers.train_mlp(d, hidden=(800, 100), lr=0.1, epochs=200, batch=16,
                                 seed=seed, selected_indices=tuple(mda.ranking[:10]))
        labels = pipeline.classify_stream(inputs["test"][0], mlp, mode="multi")
        return mlp, labels

    def outcome(self, inputs: dict, result) -> Outcome:
        mlp, labels = result
        accuracy = _label_accuracy(labels, inputs["test"][1].toggles)
        return Outcome(accuracy, cost.cost_report(mlp, PROFILE))

    # c09 bounds accuracy at 0.85 pooled over five seeds; a single seed's
    # MLP scores as low as 0.80 (seeds 5 and 8 of 0-31), so that is the floor
    MIN_ACCURACY = 0.8

    def check(self, inputs: dict, result) -> list[str]:
        mlp, labels = result
        stream, track = inputs["test"]
        problems = _online_problems(labels, track.toggles, _offline_labels(stream, track, mlp),
                                    min_coverage=0.8)
        accuracy = _label_accuracy(labels, track.toggles)
        if accuracy < self.MIN_ACCURACY:
            problems.append(f"online accuracy {accuracy:.3f} is below {self.MIN_ACCURACY}")
        return problems


# --- multi5-online ---------------------------------------------------------------

def adc_codes(x: np.ndarray, gain: float, offset: float) -> np.ndarray:
    """Quantize calibrated values to 14-bit codes (inverse of calibrate_raw)."""
    return np.clip(np.rint((x - offset) / gain), 0, signals.ADC_CODE_MAX).astype(np.int64)


class Multi5Online:
    """The meter's chain on a long 20 kHz code stream, with a forest trained in setup."""

    ROUNDS = 10  # 100 toggles, 4,590 windows; the 20 kHz synthesis peaks near 600 MiB
    TRAIN_STREAMS = 3

    def setup(self, seed: int) -> dict:
        parts = []
        for k in range(self.TRAIN_STREAMS):
            s = 10 * seed + k
            stream, track = synth.synth_scenario(
                overlapping_script(MULTI5_REGISTRY, seed=s, rounds=3), MULTI5_REGISTRY, seed=s)
            parts.append(pipeline.delta_dataset(stream, track, class_names=MULTI5_NAMES))
        d = dataset.Dataset(x=np.vstack([p.x for p in parts]),
                            y=np.concatenate([p.y for p in parts]),
                            class_names=MULTI5_NAMES, layout=parts[0].layout)
        rf = trainers.train_rf(d, seed=seed, **RF_PARAMS)

        s = 10 * seed + 9
        script = overlapping_script(MULTI5_REGISTRY, seed=s, rounds=self.ROUNDS)
        stream, _ = synth.synth_scenario(script, MULTI5_REGISTRY, seed=s,
                                         rate_hz=signals.ACQUISITION_RATE_HZ)
        coeffs = signals.default_calibration()
        block = signals.RawSampleBlock(
            codes_v=adc_codes(stream.v, coeffs.gain_v, coeffs.offset_v),
            codes_i=adc_codes(stream.i, coeffs.gain_i, coeffs.offset_i),
        )
        del stream
        # ground truth at 100 ms windows; a track synthesized at 20 kHz
        # would count 50 ms windows
        toggles = {int(ev.time_s / WINDOW_S): ((ev.appliance_id, ev.action),)
                   for ev in script.events}
        return {"seed": seed, "model": rf, "block": block, "coeffs": coeffs,
                "toggles": toggles}

    def windows(self, inputs: dict) -> int:
        return inputs["block"].codes_v.size // ACQUISITION_SAMPLES_PER_WINDOW

    def _stream(self, inputs: dict) -> signals.SampleStream:
        return signals.decimate_stream(signals.calibrate_raw(inputs["block"], inputs["coeffs"]))

    def job(self, inputs: dict):
        return pipeline.classify_stream(self._stream(inputs), inputs["model"], mode="multi")

    def outcome(self, inputs: dict, result) -> Outcome:
        accuracy = _label_accuracy(result, inputs["toggles"])
        return Outcome(accuracy, cost.cost_report(inputs["model"], PROFILE))

    def check(self, inputs: dict, result) -> list[str]:
        if "expected" not in inputs:  # every job sees the same stream and model
            track = synth.LabelTrack(active=(), toggles=inputs["toggles"])
            inputs["expected"] = _offline_labels(self._stream(inputs), track, inputs["model"])
        return _online_problems(result, inputs["toggles"], inputs["expected"], min_coverage=1.0)


WORKLOADS = {
    "single7-sweep": Single7Sweep(),
    "multi5-train": Multi5Train(),
    "multi5-online": Multi5Online(),
}
