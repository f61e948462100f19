import re

import numpy as np
import pytest

from nilmedge.features import apparent_power, extract_features, real_power
from nilmedge.signals import SampleWindow, window_stream
from nilmedge.synth import (
    ApplianceModel,
    Mains,
    ScenarioError,
    ScenarioEvent,
    ScenarioScript,
    ScriptParseError,
    format_scenario_script,
    parse_scenario_script,
    synth_appliance,
    synth_scenario,
    synth_voltage,
)

MAINS = Mains()  # 230 V RMS


def window_of(model, seed=0, duration=0.1):
    i = synth_appliance(model, MAINS, duration, seed=seed)
    v = synth_voltage(MAINS, duration)
    return SampleWindow(v=v[:1000], i=i[:1000])


class TestApplianceSynthesis:
    def test_resistive_window_power(self):
        w = window_of(ApplianceModel(kind="resistive", nominal_power_w=100.0))
        assert abs(real_power(w) - 100.0) < 0.5

    def test_quadrature_reactive_power(self):
        w = window_of(ApplianceModel(kind="reactive", nominal_power_w=50.0,
                                     phase_rad=np.pi / 2))
        p, s = real_power(w), apparent_power(w)
        assert abs(p) < 1e-9 * s
        assert abs(s - 50.0) < 1e-6

    def test_reactive_real_power_follows_cos_phase(self):
        phase = 0.7
        w = window_of(ApplianceModel(kind="reactive", nominal_power_w=80.0, phase_rad=phase))
        assert np.isclose(real_power(w), 80.0 * np.cos(phase), rtol=1e-9)

    def test_rectifier_harmonic_ratio(self):
        # brute-force DFT at the exact harmonic frequencies (50 and 150 Hz
        # are integer-cycle on the 1000-sample window, so the projections
        # are orthogonal and exact)
        model = ApplianceModel(kind="rectifier", nominal_power_w=60.0,
                               harmonic_profile={1: 1.0, 3: 0.5})
        i = synth_appliance(model, MAINS, 0.1, seed=0)[:1000]
        t = np.arange(1000) / 10000

        def projection(freq):
            return abs(np.sum(i * np.exp(-2j * np.pi * freq * t))) * 2 / 1000

        ratio = projection(150.0) / projection(50.0)
        assert abs(ratio - 0.5) < 0.01 * 0.5

    def test_rectifier_nearest_bin_features_track_dft_oracle(self):
        # the deployed feature path reads the nearest padded-grid bins; its
        # H3/H1 ratio therefore carries extra leakage from the 150 Hz
        # -> 146.48 Hz bin offset, and must match the same-semantics oracle
        w = window_of(ApplianceModel(kind="rectifier", nominal_power_w=60.0,
                                     harmonic_profile={1: 1.0, 3: 0.5}))
        fv = extract_features(w).values
        got = abs(complex(fv[5], fv[6])) / abs(complex(fv[3], fv[4]))
        from nilmedge.features import dft_direct
        padded = np.concatenate([w.i, np.zeros(24)])
        spec = dft_direct(padded)
        want = abs(spec[15]) / abs(spec[5])
        assert np.isclose(got, want, rtol=1e-9)

    def test_phase_cut_conducts_after_angle_only(self):
        model = ApplianceModel(kind="phase_cut", nominal_power_w=100.0,
                               cut_angle_rad=np.pi / 2)
        i = synth_appliance(model, MAINS, 0.1, seed=0)
        t = np.arange(1000) / 10000
        phase = np.mod(2 * np.pi * 50 * t, np.pi)
        assert np.all(i[phase < np.pi / 2] == 0.0)
        assert np.any(i[phase >= np.pi / 2] != 0.0)

    def test_non_positive_power_rejected(self):
        with pytest.raises(ValueError):
            ApplianceModel(kind="resistive", nominal_power_w=0.0)

    def test_even_harmonics_rejected(self):
        with pytest.raises(ValueError):
            ApplianceModel(kind="rectifier", nominal_power_w=10.0,
                           harmonic_profile={1: 1.0, 2: 0.5})

    def test_deterministic_per_seed(self):
        model = ApplianceModel(kind="resistive", nominal_power_w=40.0, noise_rms_a=0.05)
        a = synth_appliance(model, MAINS, 0.3, seed=9)
        b = synth_appliance(model, MAINS, 0.3, seed=9)
        c = synth_appliance(model, MAINS, 0.3, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


REGISTRY = {
    "heater": ApplianceModel(kind="resistive", nominal_power_w=150.0, noise_rms_a=0.01),
    "fan": ApplianceModel(kind="reactive", nominal_power_w=60.0, phase_rad=0.4,
                          noise_rms_a=0.01),
}


class TestScenario:
    def test_empty_script_is_silent(self):
        script = ScenarioScript(mains=MAINS, events=(), duration_s=1.0)
        stream, track = synth_scenario(script, REGISTRY, seed=0)
        assert np.all(stream.i == 0.0)
        assert all(active == frozenset() for active in track.active)

    def test_single_on_off_pair_labels(self):
        script = ScenarioScript(
            mains=MAINS,
            events=(ScenarioEvent(0.5, "heater", "on"), ScenarioEvent(1.5, "heater", "off")),
            duration_s=2.0,
        )
        _, track = synth_scenario(script, REGISTRY, seed=0)
        active = [bool(a) for a in track.active]
        assert active == [False] * 5 + [True] * 10 + [False] * 5
        assert track.toggles[5] == (("heater", "on"),)
        assert track.toggles[15] == (("heater", "off"),)

    def test_superposition_of_two_appliances(self):
        both = ScenarioScript(
            mains=MAINS,
            events=(ScenarioEvent(0.0, "heater", "on"), ScenarioEvent(0.0, "fan", "on")),
            duration_s=1.0,
        )
        stream, _ = synth_scenario(both, REGISTRY, seed=3)
        total = np.zeros(len(stream))
        for app in REGISTRY:
            solo_script = ScenarioScript(mains=MAINS,
                                         events=(ScenarioEvent(0.0, app, "on"),),
                                         duration_s=1.0)
            solo, _ = synth_scenario(solo_script, REGISTRY, seed=3)
            total += solo.i
        np.testing.assert_array_equal(stream.i, total)  # per-appliance seeding

    def test_aggregate_window_power_matches_solo_sum(self):
        both = ScenarioScript(
            mains=MAINS,
            events=(ScenarioEvent(0.0, "heater", "on"), ScenarioEvent(0.0, "fan", "on")),
            duration_s=0.5,
        )
        stream, _ = synth_scenario(both, REGISTRY, seed=3)
        p_both = real_power(next(window_stream(stream)))
        p_solo = 0.0
        for app in REGISTRY:
            solo_script = ScenarioScript(mains=MAINS,
                                         events=(ScenarioEvent(0.0, app, "on"),),
                                         duration_s=0.5)
            solo, _ = synth_scenario(solo_script, REGISTRY, seed=3)
            p_solo += real_power(next(window_stream(solo)))
        assert abs(p_both - p_solo) < 0.01 * p_solo

    def test_unknown_appliance_rejected(self):
        script = ScenarioScript(mains=MAINS, events=(ScenarioEvent(0.1, "ghost", "on"),),
                                duration_s=1.0)
        with pytest.raises(ScenarioError):
            synth_scenario(script, REGISTRY, seed=0)

    def test_unsorted_events_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioScript(mains=MAINS,
                           events=(ScenarioEvent(1.0, "heater", "on"),
                                   ScenarioEvent(0.5, "heater", "off")),
                           duration_s=2.0)

    def test_deterministic_per_seed(self):
        script = ScenarioScript(mains=MAINS,
                                events=(ScenarioEvent(0.2, "heater", "on"),),
                                duration_s=1.0, noise_rms_a=0.02)
        a, _ = synth_scenario(script, REGISTRY, seed=7)
        b, _ = synth_scenario(script, REGISTRY, seed=7)
        assert np.array_equal(a.i, b.i)

    def test_min_event_gap(self):
        script = ScenarioScript(mains=MAINS,
                                events=(ScenarioEvent(1.0, "heater", "on"),
                                        ScenarioEvent(5.2, "heater", "off")),
                                duration_s=6.0)
        assert np.isclose(script.min_event_gap_s(), 4.2)


class TestScriptFiles:
    SCRIPT = """\
version: 1
duration_s: 12.5
mains_amplitude_v: 325.0
mains_freq_hz: 50
noise_rms_a: 0.02
appliance: fan kind=reactive power_w=60 phase_rad=0.4 noise_rms_a=0.01
appliance: tv kind=rectifier power_w=80 harmonics=1:1.0,3:0.5 noise_rms_a=0.01
event: 2.0 fan on
event: 7.0 fan off
"""

    def test_parse_basics(self):
        script, registry = parse_scenario_script(self.SCRIPT)
        assert script.duration_s == 12.5
        assert script.noise_rms_a == 0.02
        assert set(registry) == {"fan", "tv"}
        assert registry["tv"].harmonic_profile == {1: 1.0, 3: 0.5}
        assert [e.action for e in script.events] == ["on", "off"]

    def test_round_trip_through_formatter(self):
        script, registry = parse_scenario_script(self.SCRIPT)
        text = format_scenario_script(script, registry)
        script2, registry2 = parse_scenario_script(text)
        assert script2 == script
        assert registry2 == registry

    def test_missing_version_rejected(self):
        with pytest.raises(ScriptParseError):
            parse_scenario_script("duration_s: 5\n")

    def test_error_carries_line_number(self):
        bad = self.SCRIPT.replace("event: 2.0 fan on", "event: soon fan on")
        with pytest.raises(ScriptParseError) as err:
            parse_scenario_script(bad)
        assert err.value.line_no == 8

    def test_unknown_key_rejected(self):
        with pytest.raises(ScriptParseError):
            parse_scenario_script("version: 1\nduration_s: 1\nfrobnicate: yes\n")


class TestScriptFuzz:
    SCRIPT = TestScriptFiles.SCRIPT + "appliance: dim kind=phase_cut power_w=40 cut_angle_rad=1.2\n"

    @pytest.mark.parametrize("line, text", [
        (2, "duration_s: nan"), (3, "mains_amplitude_v: inf"), (4, "mains_freq_hz: -inf"),
        (5, "noise_rms_a: NaN"), (6, "appliance: fan kind=reactive power_w=inf"),
        (7, "appliance: tv kind=rectifier power_w=80 phase_rad=nan"), (8, "event: nan fan on"),
    ])
    def test_non_finite_numbers_rejected(self, line, text):
        lines = self.SCRIPT.splitlines()
        lines[line - 1] = text
        with pytest.raises(ScriptParseError, match="finite") as err:
            parse_scenario_script("\n".join(lines))
        assert err.value.line_no == line

    def test_fuzzed_scripts_raise_only_parse_errors(self):
        """Truncations, one-character flips (one bit of the ASCII code) and
        numbers swapped for odd values; a mutant that still parses may
        return a script, anything else must be a ScriptParseError."""
        rng = np.random.default_rng(0)
        text = self.SCRIPT
        mutants = [text[:cut] for cut in rng.integers(0, len(text), size=300)]
        for pos, bit in zip(rng.integers(0, len(text), size=3000), rng.integers(0, 7, size=3000)):
            mutants.append(text[:pos] + chr(ord(text[pos]) ^ (1 << int(bit))) + text[pos + 1:])
        numbers = [m.span() for m in re.finditer(r"\d+(\.\d+)?", text)]
        odd = ["nan", "inf", "-inf", "-1", "0", "1e309", "", "1e-320", "2"]
        for k, o in zip(rng.integers(0, len(numbers), size=600), rng.integers(0, len(odd), size=600)):
            a, b = numbers[k]
            mutants.append(text[:a] + odd[o] + text[b:])
        for mutant in mutants:
            try:
                parse_scenario_script(mutant)
            except ScriptParseError:
                pass


class TestMains:
    @pytest.mark.parametrize("name, value", [
        ("amplitude_v", 0.0), ("amplitude_v", -1.0), ("amplitude_v", np.nan), ("amplitude_v", np.inf),
        ("freq_hz", 0.0), ("freq_hz", -50.0), ("freq_hz", np.nan), ("freq_hz", -np.inf),
    ])
    def test_non_positive_or_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"mains {name} must be finite and positive"):
            Mains(**{name: value})

    @pytest.mark.parametrize("line, text", [
        (3, "mains_amplitude_v: -1"), (3, "mains_amplitude_v: 0"),
        (4, "mains_freq_hz: 0"), (4, "mains_freq_hz: -50"),
    ])
    def test_script_names_the_offending_line(self, line, text):
        lines = TestScriptFiles.SCRIPT.splitlines()
        lines[line - 1] = text
        with pytest.raises(ScriptParseError, match="mains") as err:
            parse_scenario_script("\n".join(lines))
        assert err.value.line_no == line

    def test_script_values_reach_the_mains(self):
        text = TestScriptFiles.SCRIPT.replace("mains_freq_hz: 50", "mains_freq_hz: 60")
        script, _ = parse_scenario_script(text)
        assert script.mains == Mains(amplitude_v=325.0, freq_hz=60.0)
