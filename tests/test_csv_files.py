"""Every CSV file the library writes goes through records.write_csv and is
byte for byte what the file's own writer (the oracles in helpers) writes:
features, online events, datasets, sample streams and `nilmedge synth`'s
labels.csv."""

import numpy as np
import pytest

from helpers import (
    blob_dataset,
    dataset_csv_oracle,
    features_csv_oracle,
    samples_csv_oracle,
    scenario_labels_csv_oracle,
    stream_labels_csv_oracle,
)
from nilmedge.cli import main
from nilmedge.features import DEFAULT_LAYOUT, TIME_ONLY_LAYOUT, feature_matrix, write_features_csv
from nilmedge.pipeline import StreamLabel, write_stream_labels_csv
from nilmedge.records import write_csv
from nilmedge.sampleio import save_samples
from nilmedge.scenarios import builtin_scenario
from nilmedge.signals import SampleStream
from nilmedge.synth import parse_scenario_script, synth_scenario
from nilmedge.train.dataset import Dataset, save_dataset

# numbers whose text is easy to get wrong: signed zeros, subnormals, the
# float range's ends, and values with no short decimal form
AWKWARD = np.array([0.0, -0.0, 5e-324, -1e-310, 1.7976931348623157e308, -2.5e-300,
                    0.1, 1 / 3, -123456.789, 1e16, 2.0 ** 0.5])


def same_bytes(a, b) -> None:
    assert a.read_bytes() == b.read_bytes()


def test_write_csv_writes_a_header_and_str_cells(tmp_path):
    write_csv(tmp_path / "t.csv", ("a", "b"), [(1, "x"), (np.int64(2), 0.5)])
    assert (tmp_path / "t.csv").read_bytes() == b"a,b\n1,x\n2,0.5\n"


@pytest.mark.parametrize("layout", [DEFAULT_LAYOUT, TIME_ONLY_LAYOUT])
def test_features_csv(tmp_path, layout):
    stream, _ = synth_scenario(*builtin_scenario("single7"), seed=2)
    matrix = feature_matrix(SampleStream(v=stream.v[:30_000], i=stream.i[:30_000]), layout)
    rng = np.random.default_rng(0)
    matrix[0] = rng.choice(AWKWARD, size=len(layout))
    for indices in (range(len(matrix)), np.arange(len(matrix), dtype=np.int64) * 7):
        write_features_csv(tmp_path / "a.csv", matrix, indices, layout)
        features_csv_oracle(tmp_path / "b.csv", matrix, indices, layout)
        same_bytes(tmp_path / "a.csv", tmp_path / "b.csv")


def test_events_csv(tmp_path):
    labels = [StreamLabel(window_index=int(j), delta_p_w=float(d), status=status, label=label)
              for j, d, (status, label) in zip(
                  range(0, 300, 23), AWKWARD,
                  [("labeled", "fan"), ("invalid", None), ("pending", None)] * 5)]
    write_stream_labels_csv(tmp_path / "a.csv", labels)
    stream_labels_csv_oracle(tmp_path / "b.csv", labels)
    same_bytes(tmp_path / "a.csv", tmp_path / "b.csv")


def test_dataset_csv_and_sidecar(tmp_path):
    d = blob_dataset(per_class=6)
    x = d.x.copy()
    x[: len(AWKWARD), 0] = AWKWARD
    for d in (d, Dataset(x=x, y=d.y, class_names=d.class_names, provenance="awkward")):
        save_dataset(d, tmp_path / "a.csv")
        dataset_csv_oracle(tmp_path / "b.csv", d)
        same_bytes(tmp_path / "a.csv", tmp_path / "b.csv")
        same_bytes(tmp_path / "a.csv.meta.json", tmp_path / "b.csv.meta.json")


@pytest.mark.parametrize("rate_hz", [10_000, 20_000])
def test_samples_csv(tmp_path, rate_hz):
    rng = np.random.default_rng(rate_hz)
    v = np.concatenate([AWKWARD, rng.normal(0.0, 325.0, size=500)])
    i = np.concatenate([AWKWARD[::-1], rng.normal(0.0, 2.0, size=500)])
    stream = SampleStream(v=v, i=i, rate_hz=rate_hz)
    save_samples(stream, tmp_path / "a.csv", format="csv")
    samples_csv_oracle(tmp_path / "b.csv", stream)
    same_bytes(tmp_path / "a.csv", tmp_path / "b.csv")


SCRIPT = """\
version: 1
duration_s: 2.0
appliance: fan kind=reactive power_w=60 phase_rad=0.4
appliance: tv kind=rectifier power_w=80 harmonics=1:1.0,3:0.5
appliance: lamp kind=resistive power_w=40
event: 0.0 lamp on
event: 0.35 fan on
event: 1.01 tv on
event: 1.05 fan off
event: 1.5 fan on
event: 1.95 lamp off
"""


def test_synth_labels_csv(tmp_path, capsys):
    """Several loads on at once, joined in sorted order, and a window with
    two toggles, which reports its first."""
    (tmp_path / "s.txt").write_text(SCRIPT)
    assert main(["synth", "--script", str(tmp_path / "s.txt"), "--out", str(tmp_path)]) == 0
    _, track = synth_scenario(*parse_scenario_script(SCRIPT), seed=0)
    assert len(track.toggles[10]) == 2
    scenario_labels_csv_oracle(tmp_path / "b.csv", track)
    same_bytes(tmp_path / "labels.csv", tmp_path / "b.csv")
