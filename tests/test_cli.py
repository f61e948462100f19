import json

import numpy as np
import pytest

from helpers import blob_dataset
from nilmedge.cli import main
from nilmedge.features import DEFAULT_LAYOUT, extract_features, feature_matrix, write_features_csv
from nilmedge.models.io import load_model
from nilmedge.pipeline import window_dataset
from nilmedge.sampleio import load_samples, save_samples
from nilmedge.signals import SampleWindow, window_stream
from nilmedge.train import MdaReport
from nilmedge.train.dataset import Dataset, save_dataset


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main(["synth", "--scenario", "single7", "--seed", "11",
                 "--out", str(out), "--format", "bin"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory, synth_dir):
    stream = load_samples(synth_dir / "samples.bin")
    from nilmedge.scenarios import builtin_scenario
    from nilmedge.synth import synth_scenario
    script, registry = builtin_scenario("single7")
    _, track = synth_scenario(script, registry, seed=11)
    d = window_dataset(stream, track)
    path = tmp_path_factory.mktemp("data") / "single7.csv"
    save_dataset(d, path)
    return path


class TestSynth:
    def test_outputs_exist_and_reload(self, synth_dir):
        stream = load_samples(synth_dir / "samples.bin")
        assert len(stream) > 0
        labels = (synth_dir / "labels.csv").read_text().splitlines()
        assert labels[0] == "window_index,active,event_id,event_action"
        assert len(labels) == len(stream) // 1000 + 1

    def test_seed_echoed_and_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        code, out, _ = run(capsys, "synth", "--scenario", "multi5", "--seed", "3",
                           "--out", str(a))
        assert code == 0 and "seed: 3" in out
        run(capsys, "synth", "--scenario", "multi5", "--seed", "3", "--out", str(b))
        assert (a / "samples.bin").read_bytes() == (b / "samples.bin").read_bytes()

    def test_script_file_input(self, tmp_path, capsys):
        script = tmp_path / "s.scn"
        script.write_text(
            "version: 1\nduration_s: 2.5\nmains_amplitude_v: 325.0\n"
            "appliance: lamp kind=resistive power_w=25\n"
            "event: 0.5 lamp on\nevent: 1.5 lamp off\n"
        )
        code, out, _ = run(capsys, "synth", "--script", str(script),
                           "--out", str(tmp_path), "--format", "csv")
        assert code == 0
        stream = load_samples(tmp_path / "samples.csv")
        assert len(stream) == 25_000

    def test_empty_script_makes_valid_empty_labels(self, tmp_path, capsys):
        script = tmp_path / "empty.scn"
        script.write_text("version: 1\nduration_s: 0.5\n")
        code, _, _ = run(capsys, "synth", "--script", str(script), "--out", str(tmp_path))
        assert code == 0
        stream = load_samples(tmp_path / "samples.bin")
        assert np.all(stream.i == 0)

    def test_bad_script_is_data_error(self, tmp_path, capsys):
        script = tmp_path / "bad.scn"
        script.write_text("version: 1\nduration_s: nope\n")
        code, _, err = run(capsys, "synth", "--script", str(script), "--out", str(tmp_path))
        assert code == 2
        assert "line" in err


    def test_synth_writes_only_named_formats(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--scenario", "single7", "--format", "auto", "--out", str(tmp_path)])
        assert exc.value.code == 1
        assert "invalid choice: 'auto'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["extract", "classify"])
    def test_readers_keep_auto(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "{csv,bin,auto}" in capsys.readouterr().out


class TestExtract:
    def test_row_width_is_window_index_plus_103(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "features.csv"
        code, _, _ = run(capsys, "extract", "--samples", str(synth_dir / "samples.bin"),
                         "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines[0].split(",")) == 104
        assert len(lines[1].split(",")) == 104

    def test_values_match_library_api(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "features.csv"
        run(capsys, "extract", "--samples", str(synth_dir / "samples.bin"),
            "--out", str(out))
        stream = load_samples(synth_dir / "samples.bin")
        first = next(window_stream(stream))
        want = extract_features(first, DEFAULT_LAYOUT).values
        row = [float(c) for c in out.read_text().splitlines()[1].split(",")[1:]]
        np.testing.assert_array_equal(np.array(row), want)

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "extract", "--samples", str(tmp_path / "nope.bin"))
        assert code == 2

    def test_single_window_input_gives_single_row(self, tmp_path, capsys):
        from nilmedge.sampleio import save_samples
        from nilmedge.signals import SampleStream
        rng = np.random.default_rng(0)
        # 1500 samples: one full window plus a discarded tail
        stream = SampleStream(v=rng.normal(size=1500), i=rng.normal(size=1500))
        sample_path = tmp_path / "one.bin"
        save_samples(stream, sample_path)
        out = tmp_path / "one.csv"
        code, _, _ = run(capsys, "extract", "--samples", str(sample_path),
                         "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 2  # header + one row


    def test_csv_bytes_from_row_blocks_without_window_objects(self, synth_dir, tmp_path,
                                                              capsys, monkeypatch):
        stream = load_samples(synth_dir / "samples.bin")
        want = tmp_path / "want.csv"
        matrix = feature_matrix(stream)
        write_features_csv(want, matrix, range(len(matrix)))
        built = []
        post_init = SampleWindow.__post_init__

        def counted(self):
            built.append(self.index)
            post_init(self)

        monkeypatch.setattr(SampleWindow, "__post_init__", counted)
        out = tmp_path / "features.csv"
        code, _, err = run(capsys, "extract", "--samples", str(synth_dir / "samples.bin"),
                           "--out", str(out))
        assert code == 0, err
        assert out.read_bytes() == want.read_bytes()
        assert built == []

    def test_empty_stream_writes_header_only(self, tmp_path, capsys):
        from nilmedge.signals import SampleStream
        path = tmp_path / "short.bin"
        save_samples(SampleStream(v=np.zeros(999), i=np.zeros(999)), path)
        out = tmp_path / "f.csv"
        code, text, err = run(capsys, "extract", "--samples", str(path), "--out", str(out))
        assert code == 0, err
        assert "0 windows x 103 features" in text
        assert out.read_text().count("\n") == 1


class TestDatasetSidecar:
    @pytest.mark.parametrize("meta", [
        {"layout": None}, {"layout": [True, [1, 3], True]}, {"layout": "default"},
        {"class_names": None}, {"class_names": "ab"}, {"class_names": [0, 1]},
    ], ids=lambda meta: "-".join(f"{k}={v!r}" for k, v in meta.items()))
    def test_bad_field_is_data_error_naming_it(self, tmp_path, capsys, meta):
        path = tmp_path / "d.csv"
        save_dataset(blob_dataset(n_classes=2, per_class=5), path)
        sidecar = tmp_path / "d.csv.meta.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **meta}))
        code, _, err = run(capsys, "train", "--dataset", str(path), "--kind", "knn",
                           "--out", str(tmp_path / "knn.nlmm"))
        key = next(iter(meta))
        assert code == 2 and f"'{key}'" in err and "Traceback" not in err

    @pytest.mark.parametrize("doc", [[], None, "layout", 3])
    def test_sidecar_that_is_not_an_object_is_data_error(self, tmp_path, capsys, doc):
        path = tmp_path / "d.csv"
        save_dataset(blob_dataset(n_classes=2, per_class=5), path)
        (tmp_path / "d.csv.meta.json").write_text(json.dumps(doc))
        code, _, err = run(capsys, "train", "--dataset", str(path), "--kind", "knn",
                           "--out", str(tmp_path / "knn.nlmm"))
        assert code == 2 and "JSON object" in err

    def test_csv_narrower_than_its_layout_is_data_error(self, tmp_path, capsys):
        """A 5-column file under a 103-entry layout would train a model that
        reads P, |S|, Q, H1_re and H1_im of every online vector."""
        d = blob_dataset(n_classes=2, per_class=5, n_features=5)
        path = tmp_path / "d.csv"
        save_dataset(Dataset(x=d.x, y=d.y, class_names=d.class_names, layout=DEFAULT_LAYOUT),
                     path)
        code, _, err = run(capsys, "train", "--dataset", str(path), "--kind", "rf",
                           "--out", str(tmp_path / "rf.nlmm"))
        assert code == 2 and "5 feature columns" in err and "103" in err
        assert not (tmp_path / "rf.nlmm").exists()


class TestTrainAndCost:
    def test_train_writes_model_and_metrics(self, dataset_file, tmp_path, capsys):
        model_path = tmp_path / "rf.nlmm"
        code, out, _ = run(capsys, "train", "--dataset", str(dataset_file),
                           "--kind", "rf", "--trees", "30", "--depth", "10",
                           "--seed", "5", "--out", str(model_path))
        assert code == 0
        metrics = json.loads(out.splitlines()[-1])
        assert metrics["accuracy"] >= 0.9
        model = load_model(model_path)
        assert model.n_trees == 30

    def test_train_deterministic(self, dataset_file, tmp_path, capsys):
        a = tmp_path / "a.nlmm"
        b = tmp_path / "b.nlmm"
        for path in (a, b):
            run(capsys, "train", "--dataset", str(dataset_file), "--kind", "rf",
                "--trees", "10", "--depth", "6", "--seed", "9", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("option, value, name", [("--depth", "-1", "max_depth"),
                                                     ("--trees", "0", "n_trees")])
    def test_bad_forest_size_is_data_error(self, dataset_file, tmp_path, capsys, option, value, name):
        model_path = tmp_path / "rf.nlmm"
        code, _, err = run(capsys, "train", "--dataset", str(dataset_file), "--kind", "rf",
                           option, value, "--out", str(model_path))
        assert code == 2 and name in err
        assert not model_path.exists()

    @pytest.mark.parametrize("option, value, name", [("--batch", "-1", "batch"),
                                                     ("--lr", "0", "lr"),
                                                     ("--layers", "0", "hidden")])
    def test_mlp_settings_that_cannot_train_are_data_errors(self, dataset_file, tmp_path,
                                                           capsys, option, value, name):
        model_path = tmp_path / "mlp.nlmm"
        code, _, err = run(capsys, "train", "--dataset", str(dataset_file), "--kind", "mlp",
                           "--layers", "4", "--epochs", "2", option, value,
                           "--out", str(model_path))
        assert code == 2 and name in err
        assert not model_path.exists()

    def test_cost_report_and_strict_budget(self, dataset_file, tmp_path, capsys):
        model_path = tmp_path / "rf.nlmm"
        run(capsys, "train", "--dataset", str(dataset_file), "--kind", "rf",
            "--trees", "10", "--depth", "6", "--seed", "1", "--out", str(model_path))
        code, out, _ = run(capsys, "cost", "--model", str(model_path),
                           "--out", str(tmp_path / "cost.json"))
        assert code == 0
        assert "cortex-m4-paper" in out
        doc = json.loads((tmp_path / "cost.json").read_text())
        assert doc["verdict"]["fits"] is True
        code, _, _ = run(capsys, "cost", "--model", str(model_path), "--strict-budget")
        assert code == 0

    def test_strict_budget_failure_exit_code(self, dataset_file, tmp_path, capsys):
        model_path = tmp_path / "mlp.nlmm"
        # a full-vector 800/100 MLP stores ~656 kB of weights, over the
        # 512 KiB part
        run(capsys, "train", "--dataset", str(dataset_file), "--kind", "mlp",
            "--layers", "800,100", "--epochs", "2", "--seed", "1",
            "--out", str(model_path))
        code, _, err = run(capsys, "cost", "--model", str(model_path), "--strict-budget")
        assert code == 3
        assert "budget" in err


class TestMdaAndSweep:
    def test_mda_report_file(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "mda.json"
        code, text, _ = run(capsys, "mda", "--dataset", str(dataset_file),
                            "--kind", "rf", "--trees", "20", "--depth", "8",
                            "--repetitions", "2", "--seed", "2", "--out", str(out))
        assert code == 0 and "seed: 2" in text
        doc = json.loads(out.read_text())
        assert sorted(doc["ranking"]) == list(range(103))

    def test_mda_report_file_reads_back(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "mda.json"
        code, _, _ = run(capsys, "mda", "--dataset", str(dataset_file),
                         "--kind", "knn", "--k", "3", "--repetitions", "1",
                         "--seed", "4", "--out", str(out))
        assert code == 0
        report = MdaReport.from_json(out.read_text())
        assert report.to_json() == out.read_text()
        assert (report.kind, report.seed, report.params) == ("knn", 4, {"k": 3})
        truncated = out.read_text()[:-2]
        with pytest.raises(ValueError, match="not JSON"):
            MdaReport.from_json(truncated)

    def test_sweep_fast_mode(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        csv_out = tmp_path / "points.csv"
        code, text, _ = run(capsys, "sweep", "--dataset", str(dataset_file),
                            "--kind", "rf", "--trees", "20", "--depth", "8",
                            "--fast", "--counts", "1,2,3,4", "--repetitions", "2",
                            "--seed", "2", "--out", str(out), "--csv-out", str(csv_out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert [p["m"] for p in doc["points"]] == [1, 2, 3, 4]
        assert csv_out.read_text().startswith("m,accuracy")

    @pytest.mark.parametrize("tolerance", ["-0.1", "nan"])
    def test_sweep_bad_drop_tolerance_fails_before_mda(self, dataset_file, tmp_path, capsys,
                                                       monkeypatch, tolerance):
        def no_mda(*args, **kwargs):
            raise AssertionError("MDA ran")

        monkeypatch.setattr("nilmedge.cli.mda_rank", no_mda)
        code, _, err = run(capsys, "sweep", "--dataset", str(dataset_file), "--kind", "knn",
                           "--fast", "--drop-tolerance", tolerance,
                           "--out", str(tmp_path / "sweep.json"))
        assert code == 2
        assert "drop_tolerance must be a finite number >= 0" in err
        assert not (tmp_path / "sweep.json").exists()


class TestClassify:
    def test_end_to_end_single_mode(self, synth_dir, dataset_file, tmp_path, capsys):
        model_path = tmp_path / "rf.nlmm"
        run(capsys, "train", "--dataset", str(dataset_file), "--kind", "rf",
            "--trees", "30", "--depth", "10", "--seed", "5", "--out", str(model_path))
        out = tmp_path / "events.csv"
        code, text, _ = run(capsys, "classify", "--samples", str(synth_dir / "samples.bin"),
                            "--model", str(model_path), "--mode", "single",
                            "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "window_index,delta_p_w,direction,valid,status,label"
        assert len(lines) > 1


class TestUsage:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["extract"])
        assert exc.value.code == 1


class TestFormatAndDataErrors:
    @pytest.fixture
    def rf_model(self, tmp_path):
        from helpers import random_rf
        from nilmedge.models.io import save_model
        path = tmp_path / "rf.nlmm"
        save_model(random_rf(np.random.default_rng(0), n_trees=2), path)
        return path

    def test_classify_honours_format(self, synth_dir, rf_model, tmp_path, capsys):
        csv_path = tmp_path / "samples.csv"
        save_samples(load_samples(synth_dir / "samples.bin"), csv_path, format="csv")
        code, _, err = run(capsys, "classify", "--samples", str(csv_path),
                           "--model", str(rf_model), "--format", "bin",
                           "--out", str(tmp_path / "events.csv"))
        assert code == 2 and "magic" in err

    def test_classify_rejects_nan_threshold(self, synth_dir, rf_model, tmp_path, capsys):
        # argparse reads "nan" as a float; the pipeline must refuse it
        out = tmp_path / "events.csv"
        code, _, err = run(capsys, "classify", "--samples", str(synth_dir / "samples.bin"),
                           "--model", str(rf_model), "--threshold-w", "nan", "--out", str(out))
        assert code == 2 and "threshold" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--dataset", "d.csv", "--kind", "rf"],
        ["mda", "--dataset", "d.csv", "--kind", "rf"],
        ["sweep", "--dataset", "d.csv", "--kind", "rf"],
        ["cost", "--model", "m.nlmm"],
    ], ids=lambda argv: argv[0])
    def test_format_only_where_samples_are_read(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "csv"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --format" in capsys.readouterr().err

    def test_malformed_profile_is_data_error(self, rf_model, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        code, _, err = run(capsys, "cost", "--model", str(rf_model), "--profile", str(bad))
        assert code == 2 and "cost-profile" in err


class TestImportanceNote:
    """mda and sweep say how many importances are non-zero and whether the
    tie rule (lower index first) ordered the ranking."""

    @pytest.fixture(scope="class")
    def blobs_file(self, tmp_path_factory):
        from helpers import blob_dataset
        path = tmp_path_factory.mktemp("blobs") / "blobs.csv"
        save_dataset(blob_dataset(n_classes=3, per_class=20, n_features=4, spread=4.0, seed=2), path)
        return path

    @pytest.mark.parametrize("command", ["mda", "sweep"])
    def test_all_zero_forest_says_the_tie_rule_ranked(self, blobs_file, tmp_path, command, capsys):
        extra = ["--fast", "--counts", "1,2", "--csv-out", str(tmp_path / "p.csv")] if command == "sweep" else []
        code, text, _ = run(capsys, command, "--dataset", str(blobs_file), "--kind", "rf",
                            "--trees", "3", "--depth", "0", "--repetitions", "2", "--seed", "1",
                            "--out", str(tmp_path / "out.json"), *extra)
        assert code == 0
        assert ("0 of 4 importances non-zero; the tie rule (lower index first) "
                "set the whole ranking") in text.splitlines()

    def test_informative_forest_counts_non_zero(self, blobs_file, tmp_path, capsys):
        out = tmp_path / "mda.json"
        code, text, _ = run(capsys, "mda", "--dataset", str(blobs_file), "--kind", "rf",
                            "--trees", "10", "--depth", "3", "--repetitions", "2", "--seed", "3",
                            "--out", str(out))
        assert code == 0
        report = MdaReport.from_json(out.read_text())
        nonzero = sum(v != 0 for v in report.importances)
        assert nonzero > 0
        note = next(line for line in text.splitlines() if "importances non-zero" in line)
        assert note.startswith(f"{nonzero} of 4 importances non-zero; ")
        ties = len(report.importances) - len(set(report.importances))
        assert ("no two importances tie" in note) == (ties == 0)


class TestTwentyKilohertzSamples:
    """extract and classify pair-average a 20 kHz file with decimate_stream."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        from helpers import random_rf
        from nilmedge.models.io import save_model
        from nilmedge.signals import decimate_stream
        from nilmedge.synth import ApplianceModel, Mains, ScenarioEvent, ScenarioScript, synth_scenario
        registry = {
            "heater": ApplianceModel(kind="resistive", nominal_power_w=150.0),
            "fan": ApplianceModel(kind="reactive", nominal_power_w=60.0, phase_rad=0.4),
        }
        events = (ScenarioEvent(1.0, "heater", "on"), ScenarioEvent(3.5, "fan", "on"),
                  ScenarioEvent(6.0, "heater", "off"))
        script = ScenarioScript(mains=Mains(), events=events, duration_s=8.05, noise_rms_a=0.02)
        stream, _ = synth_scenario(script, registry, seed=3, rate_hz=20_000)
        out = tmp_path_factory.mktemp("khz20")
        save_samples(stream, out / "20k.bin")
        save_samples(decimate_stream(stream), out / "10k.bin")
        save_model(random_rf(np.random.default_rng(0), n_trees=3), out / "rf.nlmm")
        return out

    @pytest.mark.parametrize("argv", [["extract"], ["classify", "--mode", "single"]],
                             ids=lambda argv: argv[0])
    def test_same_bytes_as_the_decimated_twin(self, files, argv, capsys):
        model = ["--model", str(files / "rf.nlmm")] if argv[0] == "classify" else []
        written = []
        for rate in ("20k", "10k"):
            out = files / f"{argv[0]}-{rate}.csv"
            code, _, err = run(capsys, *argv, *model, "--samples", str(files / f"{rate}.bin"),
                               "--out", str(out))
            assert code == 0, err
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert written[0].count(b"\n") > 1

    def test_odd_sample_count_is_data_error(self, tmp_path, capsys):
        from nilmedge.signals import SampleStream
        path = tmp_path / "odd.bin"
        save_samples(SampleStream(v=np.zeros(2001), i=np.zeros(2001), rate_hz=20_000), path)
        code, _, err = run(capsys, "extract", "--samples", str(path), "--out", str(tmp_path / "f.csv"))
        assert code == 2 and "even sample count" in err
