import hashlib
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    BLOCK_EDGE_WINDOWS,
    assert_same_bits,
    classify_stream_oracle,
    delta_oracle,
    stream_features_oracle,
)
import nilmedge.features as features_module
from nilmedge.events import delta_feature
from nilmedge.features import (
    DEFAULT_LAYOUT,
    FREQUENCY_ONLY_LAYOUT,
    FeatureLayout,
    extract_feature_matrix,
    feature_matrix,
    write_features_csv,
)
from nilmedge.pipeline import (
    StreamLabel,
    _event_core,
    _matching_toggle,
    classify_stream,
    delta_dataset,
    window_dataset,
    write_stream_labels_csv,
)
from nilmedge.scenarios import MULTI5_REGISTRY, overlapping_script
from nilmedge.signals import SampleStream, SampleWindow, window_blocks, window_stream
from nilmedge.synth import ApplianceModel, Mains, ScenarioEvent, ScenarioScript, synth_scenario
from nilmedge.train import Dataset, train_knn, train_rf

MAINS = Mains()

BAD_THRESHOLDS = [np.nan, np.inf, -np.inf, 0.0, -1.0]
BAD_THRESHOLD_MESSAGE = "threshold must be a finite positive number"
EMPTY_STREAM = SampleStream(v=np.zeros(0), i=np.zeros(0))

TWO_APPS = {
    "heater": ApplianceModel(kind="resistive", nominal_power_w=150.0),
    "fan": ApplianceModel(kind="reactive", nominal_power_w=60.0, phase_rad=0.4),
}


def two_app_script(noise=0.02):
    events = (
        ScenarioEvent(3.0, "heater", "on"),
        ScenarioEvent(7.5, "fan", "on"),
        ScenarioEvent(12.0, "heater", "off"),
        ScenarioEvent(16.5, "fan", "off"),
    )
    return ScenarioScript(mains=MAINS, events=events, duration_s=20.0, noise_rms_a=noise)


class TestWindowDataset:
    def test_steady_single_appliance_windows_only(self, single7_run):
        stream, track, registry = single7_run
        d = window_dataset(stream, track)
        assert set(d.class_names) == set(registry)
        assert d.n_features == 103
        # solo rotation: every labeled window has exactly one appliance
        assert d.n > 50 * len(registry) // 2

    def test_toggle_windows_excluded(self):
        stream, track = synth_scenario(two_app_script(), TWO_APPS, seed=0)
        d = window_dataset(stream, track, class_names=("fan", "heater"))
        toggle_windows = set(track.toggles)
        assert toggle_windows  # sanity
        # dataset rows count excludes toggle and overlap windows
        single_windows = [j for j, on in enumerate(track.active)
                          if len(on) == 1 and j not in toggle_windows]
        assert d.n == len(single_windows)

    def test_stream_without_qualifying_windows_rejected(self):
        script = ScenarioScript(mains=MAINS, events=(), duration_s=3.0, noise_rms_a=0.02)
        steady, track = synth_scenario(script, TWO_APPS, seed=3)
        with pytest.raises(ValueError, match="no steady"):
            window_dataset(steady, track, class_names=("fan", "heater"))


class TestDeltaDataset:
    def test_rows_labeled_by_toggled_appliance(self):
        stream, track = synth_scenario(two_app_script(), TWO_APPS, seed=1)
        d = delta_dataset(stream, track, class_names=("fan", "heater"))
        assert d.n == 4  # all four events valid and matched
        heater_rows = d.x[d.y == list(d.class_names).index("heater")]
        np.testing.assert_allclose(np.abs(heater_rows[:, 0]), 150.0, atol=2.0)

    def test_delta_sign_convention_on_turn_on(self):
        # pre minus post: a 150 W turn-on shows as roughly -150 W
        stream, track = synth_scenario(two_app_script(), TWO_APPS, seed=2)
        d = delta_dataset(stream, track, class_names=("fan", "heater"))
        heater_id = list(d.class_names).index("heater")
        first_heater = d.x[d.y == heater_id][0]
        assert first_heater[0] < -140.0

    def test_events_too_close_are_dropped(self):
        events = (
            ScenarioEvent(3.0, "heater", "on"),
            ScenarioEvent(4.0, "fan", "on"),  # 10 windows later: both invalid
            ScenarioEvent(12.0, "heater", "off"),
            ScenarioEvent(18.0, "fan", "off"),
            ScenarioEvent(24.0, "heater", "on"),
            ScenarioEvent(30.0, "fan", "on"),
        )
        script = ScenarioScript(mains=MAINS, events=events, duration_s=36.0,
                                noise_rms_a=0.02)
        stream, track = synth_scenario(script, TWO_APPS, seed=0)
        d = delta_dataset(stream, track, class_names=("fan", "heater"))
        assert d.n == 4  # the first two events invalidate each other

    @pytest.mark.parametrize("threshold_w", BAD_THRESHOLDS)
    def test_bad_threshold_rejected(self, threshold_w):
        stream, track = synth_scenario(two_app_script(), TWO_APPS, seed=1)
        for s in (stream, EMPTY_STREAM):
            with pytest.raises(ValueError, match=BAD_THRESHOLD_MESSAGE):
                delta_dataset(s, track, class_names=("fan", "heater"), threshold_w=threshold_w)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_equal_online_deltas_on_multi5(self, seed):
        names = tuple(sorted(MULTI5_REGISTRY))
        base = overlapping_script(MULTI5_REGISTRY, seed=seed, rounds=3, gap_s=3.0)
        # pull some events closer: 2.0 s (20 windows) clashes, 2.1 s does not
        pull = {3: 1.0, 6: 0.9}
        events = tuple(replace(e, time_s=round(e.time_s - pull.get(k % 8, 0.0), 1))
                       for k, e in enumerate(base.events))
        stream, track = synth_scenario(replace(base, events=events), MULTI5_REGISTRY, seed=seed)
        d = delta_dataset(stream, track, class_names=names)

        n_windows = len(stream) // 1000
        online = {ev.window_index: (valid, delta)
                  for ev, valid, delta in _event_core(stream, d.layout, 5.0)
                  if ev.window_index + 20 < n_windows}
        oracle = delta_oracle(stream)
        assert online.keys() == oracle.keys()
        verdicts = [online[j][0] for j in sorted(online)]
        assert True in verdicts and False in verdicts
        for j, (valid, delta) in online.items():
            assert valid == oracle[j][0]
            assert (delta is None) == (oracle[j][1] is None)
            if delta is not None:
                assert np.array_equal(delta, oracle[j][1])

        matched = [online[j][1] for j in sorted(online)
                   if online[j][1] is not None and _matching_toggle(track, j)]
        assert len(matched) == d.n > 0
        for row, delta in zip(d.x, matched):
            assert np.array_equal(row, delta)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_delta_feature_over_the_stream_matrix_equals_core_deltas(self, seed):
        stream, _ = golden_multi5(seed)
        _, v, i = next(window_blocks(stream, len(stream) // 1000))
        features = extract_feature_matrix(v, i)
        deltas = [(ev.window_index, delta)
                  for ev, _, delta in _event_core(stream, DEFAULT_LAYOUT, 5.0) if delta is not None]
        assert deltas
        for j, delta in deltas:
            assert_same_bits(delta_feature(features, j), delta)


class TestClassifyStream:
    def test_no_events_on_steady_stream(self, single7_run):
        stream, track, _ = single7_run
        d = window_dataset(stream, track)
        model = train_knn(d, k=3)
        script = ScenarioScript(mains=MAINS, events=(), duration_s=3.0, noise_rms_a=0.02)
        steady, _ = synth_scenario(script, TWO_APPS, seed=3)
        assert classify_stream(steady, model, mode="single") == []

    def test_single_mode_labels_threshold_window(self, single7_run):
        # a forest shrugs off the noise-only harmonic columns that swamp
        # plain Euclidean distance at this dimensionality
        stream, track, _ = single7_run
        d = window_dataset(stream, track)
        model = train_rf(d, n_trees=50, max_depth=12, seed=0)
        labels = classify_stream(stream, model, mode="single")
        assert labels
        for s in labels:
            assert s.status == "labeled"
            truth = None
            for j in (s.window_index, s.window_index - 1, s.window_index + 1):
                if j in track.toggles:
                    truth = track.toggles[j][0][0]
            assert truth is not None
        on_events = [s for s in labels if s.direction == "on"]
        correct = sum(
            1 for s in on_events
            if any(track.toggles.get(j, ((None, None),))[0][0] == s.label
                   for j in (s.window_index, s.window_index - 1, s.window_index + 1))
        )
        assert correct >= 0.9 * len(on_events)

    def test_multi_mode_guards_and_pending(self):
        # second pair of events too close -> invalid; last event near the
        # end of stream -> pending
        events = (
            ScenarioEvent(3.0, "heater", "on"),
            ScenarioEvent(8.0, "fan", "on"),
            ScenarioEvent(9.0, "fan", "off"),
            ScenarioEvent(14.0, "heater", "off"),
            ScenarioEvent(16.9, "fan", "on"),
        )
        script = ScenarioScript(mains=MAINS, events=events, duration_s=18.0,
                                noise_rms_a=0.02)
        stream, track = synth_scenario(script, TWO_APPS, seed=4)

        train_stream, train_track = synth_scenario(two_app_script(), TWO_APPS, seed=5)
        d = delta_dataset(train_stream, train_track, class_names=("fan", "heater"))
        model = train_knn(d, k=1)

        labels = classify_stream(stream, model, mode="multi")
        by_window = {s.window_index: s for s in labels}
        assert by_window[30].status == "labeled"
        assert by_window[30].label == "heater"
        assert by_window[80].status == "invalid" and not by_window[80].valid
        assert by_window[90].status == "invalid"
        assert by_window[140].status == "labeled"
        assert by_window[169].status == "pending"  # lookahead never filled

    def test_multi_mode_never_labels_invalid_events(self):
        events = (
            ScenarioEvent(3.0, "heater", "on"),
            ScenarioEvent(4.5, "fan", "on"),
            ScenarioEvent(6.0, "heater", "off"),
            ScenarioEvent(12.0, "fan", "off"),
        )
        script = ScenarioScript(mains=MAINS, events=events, duration_s=15.0,
                                noise_rms_a=0.02)
        stream, _ = synth_scenario(script, TWO_APPS, seed=6)
        train_stream, train_track = synth_scenario(two_app_script(), TWO_APPS, seed=7)
        d = delta_dataset(train_stream, train_track, class_names=("fan", "heater"))
        model = train_knn(d, k=1)
        for s in classify_stream(stream, model, mode="multi"):
            if not s.valid:
                assert s.label is None

    def test_frequency_only_model_drives_pipeline(self, single7_run):
        # a model whose layout has no P still needs the power track for
        # event detection; the pipeline computes it on the side
        stream, track, _ = single7_run
        d = window_dataset(stream, track, layout=FREQUENCY_ONLY_LAYOUT)
        model = train_knn(d, k=3)
        labels = classify_stream(stream, model, mode="single")
        assert labels

    def test_labels_csv_export(self, tmp_path, single7_run):
        stream, track, _ = single7_run
        d = window_dataset(stream, track)
        model = train_knn(d, k=3)
        labels = classify_stream(stream, model, mode="single")
        path = tmp_path / "out.csv"
        write_stream_labels_csv(path, labels)
        lines = path.read_text().splitlines()
        assert lines[0] == "window_index,delta_p_w,direction,valid,status,label"
        assert len(lines) == len(labels) + 1

    def test_unknown_mode_rejected(self, single7_run, rng):
        stream, track, _ = single7_run
        d = window_dataset(stream, track)
        model = train_knn(d, k=3)
        with pytest.raises(ValueError):
            classify_stream(stream, model, mode="both")

    @pytest.mark.parametrize("threshold_w", BAD_THRESHOLDS)
    def test_bad_threshold_rejected_before_any_window(self, single7_run, threshold_w):
        # unchecked, a NaN threshold makes every window step an event: 99 on 100 windows
        stream, track, _ = single7_run
        model = train_knn(window_dataset(stream, track), k=3)
        for s in (head(stream, 100), head(stream, 1), EMPTY_STREAM):
            for mode in ("single", "multi"):
                with pytest.raises(ValueError, match=BAD_THRESHOLD_MESSAGE):
                    classify_stream(s, model, mode=mode, threshold_w=threshold_w)

    def test_event_before_window_20_pending_online_skipped_offline(self):
        events = (
            ScenarioEvent(1.0, "heater", "on"),  # window 10: no look-back
            ScenarioEvent(6.0, "fan", "on"),
            ScenarioEvent(11.0, "heater", "off"),
            ScenarioEvent(16.0, "heater", "on"),
            ScenarioEvent(21.0, "fan", "off"),
        )
        script = ScenarioScript(mains=MAINS, events=events, duration_s=25.0,
                                noise_rms_a=0.02)
        stream, track = synth_scenario(script, TWO_APPS, seed=8)
        d = delta_dataset(stream, track, class_names=("fan", "heater"))
        assert d.n == 4
        model = train_knn(d, k=1)
        by_window = {s.window_index: s for s in classify_stream(stream, model, mode="multi")}
        assert by_window[10].status == "pending" and by_window[10].valid
        assert [s.status for s in by_window.values()].count("labeled") == 4


@pytest.mark.parametrize("status, valid", [("labeled", True), ("pending", True),
                                           ("invalid", False)])
def test_stream_label_direction_and_validity_follow_its_fields(status, valid):
    for delta, direction in ((12.5, "on"), (-12.5, "off")):
        s = StreamLabel(window_index=4, delta_p_w=delta, status=status, label=None)
        assert (s.direction, s.valid) == (direction, valid)


def test_entries_build_no_window_objects(monkeypatch):
    """The three entries read the stream's row blocks; none builds a
    SampleWindow."""
    built = []
    post_init = SampleWindow.__post_init__

    def counted(self):
        built.append(self.index)
        post_init(self)

    monkeypatch.setattr(SampleWindow, "__post_init__", counted)
    stream, track = synth_scenario(two_app_script(), TWO_APPS, seed=1)
    names = ("fan", "heater")
    d = window_dataset(stream, track, class_names=names)
    delta_dataset(stream, track, class_names=names)
    model = train_knn(d, k=1)
    for mode in ("single", "multi"):
        assert classify_stream(stream, model, mode=mode)
    assert built == []
    next(window_stream(stream))  # the counter does see a window object
    assert built == [0]


# --- block extraction: outputs over block boundaries ---------------------------------

NAMES = ("fan", "heater")


def script_stream(times_actions, seed):
    """A 70-window two-appliance stream; events start on window boundaries."""
    events = tuple(ScenarioEvent(t, app, action) for t, app, action in times_actions)
    script = ScenarioScript(mains=MAINS, events=events, duration_s=7.0, noise_rms_a=0.02)
    return synth_scenario(script, TWO_APPS, seed=seed)


@pytest.fixture(scope="module")
def dataset_run():
    # heater on at 21 and off at 42 give two rows on 65 windows; 63 stays open
    return script_stream([(2.1, "heater", "on"), (4.2, "heater", "off"),
                          (6.3, "fan", "on"), (6.6, "fan", "off")], seed=11)


@pytest.fixture(scope="module")
def classify_run():
    # on 65 windows: 1 pending (no look-back), 22 labeled, 43 invalid (50 is
    # 7 windows later), 50 and 56 pending at end of stream
    stream, _ = script_stream([(0.1, "heater", "on"), (2.2, "fan", "on"), (4.3, "fan", "off"),
                               (5.0, "heater", "off"), (5.6, "fan", "on")], seed=12)
    train_stream, train_track = synth_scenario(two_app_script(), TWO_APPS, seed=13)
    models = {
        "rf": train_rf(delta_dataset(train_stream, train_track, class_names=NAMES),
                       n_trees=5, seed=0),
        "knn_frequency_only": train_knn(delta_dataset(train_stream, train_track, class_names=NAMES,
                                                      layout=FREQUENCY_ONLY_LAYOUT), k=1),
    }
    return stream, models


def head(stream, n_windows):
    """The first n_windows of a stream plus half a window more."""
    end = 1000 * n_windows + 500
    return SampleStream(v=stream.v[:end], i=stream.i[:end])


def outcome(build):
    try:
        return build()
    except ValueError:
        return "ValueError"


def assert_same_dataset(got, expected):
    if isinstance(expected, str):
        assert got == expected
        return
    assert isinstance(got, Dataset)
    assert_same_bits(got.x, expected.x)
    assert np.array_equal(got.y, expected.y)


@pytest.mark.parametrize("n_windows", BLOCK_EDGE_WINDOWS)
class TestBlockBoundaries:
    def test_window_dataset(self, dataset_run, n_windows):
        stream, track = head(dataset_run[0], n_windows), dataset_run[1]
        feats = stream_features_oracle(stream)
        steady = [j for j in range(len(feats))
                  if j not in track.toggles and len(track.active[j]) == 1]

        def expected():
            y = [NAMES.index(next(iter(track.active[j]))) for j in steady]
            return Dataset(x=feats[steady], y=y, class_names=NAMES)

        got = outcome(lambda: window_dataset(stream, track, class_names=NAMES))
        assert_same_dataset(got, outcome(expected))
        assert n_windows < 31 or isinstance(got, Dataset)

    def test_delta_dataset(self, dataset_run, n_windows):
        stream, track = head(dataset_run[0], n_windows), dataset_run[1]
        rows, labels = [], []
        for j, (_, delta) in sorted(delta_oracle(stream).items()):
            toggled = [track.toggles[k][0][0] for k in (j, j - 1, j + 1) if k in track.toggles]
            if delta is not None and toggled:
                rows.append(delta)
                labels.append(NAMES.index(toggled[0]))
        got = outcome(lambda: delta_dataset(stream, track, class_names=NAMES))
        assert_same_dataset(got, outcome(lambda: Dataset(x=np.array(rows), y=labels,
                                                         class_names=NAMES)))
        assert n_windows < 65 or got.n == 2

    @pytest.mark.parametrize("mode", ["single", "multi"])
    @pytest.mark.parametrize("model_name", ["rf", "knn_frequency_only"])
    def test_classify_stream(self, classify_run, n_windows, mode, model_name):
        stream, model = head(classify_run[0], n_windows), classify_run[1][model_name]
        got = [(s.window_index, s.delta_p_w, s.direction, s.valid, s.status, s.label)
               for s in classify_stream(stream, model, mode=mode)]
        assert got == classify_stream_oracle(stream, model, mode)
        if n_windows == 65 and mode == "multi":
            assert [s[4] for s in got] == ["pending", "labeled", "invalid", "pending", "pending"]


# --- golden outputs, hashed at the commit before block extraction ---------------------

GOLDEN_OUTPUTS = {
    "csv_default": "f5b910563ddd0530113f025079ed9af0542bf0dcc253f6912ac1ab10d0740e1b",
    "csv_magnitude": "ad455864b5950a146d4987a7e801a90c957049696c585178c7ef67ab2265b072",
    "delta_x": "0e0442ec1d2e8c2ad76bd1be325521f620d0039aacddc3a3f26ce4ea67bb76e6",
    "labels_multi": "9dbb1ccbf839a4cfea474949fd44a76e1779293209c477a4143eaa827b251f6b",
}


def golden_multi5(seed):
    """Two multi5 rounds, 3 s apart, with some events pulled into clashes."""
    base = overlapping_script(MULTI5_REGISTRY, seed=seed, rounds=2, gap_s=3.0)
    pull = {3: 1.0, 6: 0.9}
    events = tuple(replace(e, time_s=round(e.time_s - pull.get(k % 8, 0.0), 1))
                   for k, e in enumerate(base.events))
    return synth_scenario(replace(base, events=events), MULTI5_REGISTRY, seed=seed)


def test_outputs_match_golden_hashes(tmp_path):
    names = tuple(sorted(MULTI5_REGISTRY))
    stream, track = golden_multi5(0)
    digests = {}
    magnitude = FeatureLayout(harmonic_orders=(1, 3, 5, 11, 49, 99), complex_pairs=False)
    for key, layout in (("csv_default", DEFAULT_LAYOUT), ("csv_magnitude", magnitude)):
        matrix = feature_matrix(stream, layout)
        write_features_csv(tmp_path / key, matrix, range(len(matrix)), layout)
        digests[key] = hashlib.sha256((tmp_path / key).read_bytes()).hexdigest()
    d = delta_dataset(stream, track, class_names=names)
    digests["delta_x"] = hashlib.sha256(d.x.tobytes()).hexdigest()
    labels = classify_stream(golden_multi5(1)[0], train_rf(d, n_trees=15, seed=3), mode="multi")
    assert {s.status for s in labels} == {"labeled", "invalid"}
    write_stream_labels_csv(tmp_path / "labels", labels)
    digests["labels_multi"] = hashlib.sha256((tmp_path / "labels").read_bytes()).hexdigest()
    assert digests == GOLDEN_OUTPUTS


# --- lazy extraction: the harmonic FFT runs only on the rows a result reads -----------

@pytest.fixture(scope="module")
def multi5_run():
    """A two-round multi5 stream with clashes, its deltas, and two models."""
    names = tuple(sorted(MULTI5_REGISTRY))
    stream, track = golden_multi5(0)
    models = {
        "rf": train_rf(delta_dataset(stream, track, class_names=names), n_trees=5, seed=0),
        "knn_frequency_only": train_knn(delta_dataset(stream, track, class_names=names,
                                                      layout=FREQUENCY_ONLY_LAYOUT), k=1),
    }
    return stream, track, delta_oracle(stream), models


def fft_rows(monkeypatch) -> list[int]:
    """The row count of every features._padded_fft call from now on."""
    rows = []
    padded_fft = features_module._padded_fft

    def counted(current):
        rows.append(len(current))
        return padded_fft(current)

    monkeypatch.setattr(features_module, "_padded_fft", counted)
    return rows


@pytest.mark.parametrize("model_name", ["rf", "knn_frequency_only"])
def test_multi_mode_transforms_six_rows_per_resolved_delta(multi5_run, monkeypatch, model_name):
    stream, _, deltas, models = multi5_run
    rows = fft_rows(monkeypatch)
    labels = classify_stream(stream, models[model_name], mode="multi")
    labeled = [s for s in labels if s.status == "labeled"]
    assert 0 < len(labeled) == sum(delta is not None for _, delta in deltas.values())
    assert rows == [6] * len(labeled)
    assert sum(rows) < len(stream) // 1000 // 4


@pytest.mark.parametrize("model_name", ["rf", "knn_frequency_only"])
def test_single_mode_transforms_one_row_per_event(multi5_run, monkeypatch, model_name):
    stream, _, _, models = multi5_run
    rows = fft_rows(monkeypatch)
    labels = classify_stream(stream, models[model_name], mode="single")
    assert labels and rows == [1] * len(labels)


def test_delta_dataset_transforms_six_rows_per_delta(multi5_run, monkeypatch):
    stream, track, deltas, _ = multi5_run
    rows = fft_rows(monkeypatch)
    d = delta_dataset(stream, track, class_names=tuple(sorted(MULTI5_REGISTRY)))
    assert rows == [6] * sum(delta is not None for _, delta in deltas.values())
    assert d.n <= len(rows)


def test_nan_in_a_window_no_delta_reads_still_raises(multi5_run):
    # the real-power track covers every window, so a NaN sample fails
    # detection there even though no result reads the window's full vector
    stream, track, deltas, models = multi5_run
    read = {j + off for j, (_, delta) in deltas.items() if delta is not None
            for off in (-20, -10, -1, 1, 10, 20)}
    n = next(w for w in range(30, len(stream) // 1000) if w not in read)
    i = stream.i.copy()
    i[1000 * n + 500] = np.nan
    broken = SampleStream(v=stream.v, i=i)
    message = f"non-finite power at window {n}:"
    for mode in ("single", "multi"):
        with pytest.raises(ValueError, match=message):
            classify_stream(broken, models["rf"], mode=mode)
    with pytest.raises(ValueError, match=message):
        delta_dataset(broken, track, class_names=tuple(sorted(MULTI5_REGISTRY)))


# --- memory layout: a strided stream gives the bits of its contiguous copy ----------

def interleaved(stream):
    """The stream's channels as the two columns of one (n, 2) array, so each
    channel is a stride-2 view."""
    pairs = np.column_stack([stream.v, stream.i])
    return SampleStream(v=pairs[:, 0], i=pairs[:, 1])


@pytest.mark.parametrize("mode", ["single", "multi"])
def test_strided_stream_classifies_like_its_contiguous_copy(multi5_run, mode):
    stream, _, _, models = multi5_run
    strided = interleaved(stream)
    assert not strided.v.flags.c_contiguous
    labels = classify_stream(stream, models["rf"], mode=mode)
    assert labels and classify_stream(strided, models["rf"], mode=mode) == labels


def test_strided_stream_gives_the_same_delta_dataset(multi5_run):
    stream, track, _, _ = multi5_run
    names = tuple(sorted(MULTI5_REGISTRY))
    assert_same_dataset(delta_dataset(interleaved(stream), track, class_names=names),
                        delta_dataset(stream, track, class_names=names))
