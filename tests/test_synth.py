import re

import numpy as np
import pytest

from helpers import assert_same_bits, dft_direct, label_track_oracle, synth_scenario_oracle
from nilmedge.features import apparent_power, extract_features, real_power
from nilmedge.scenarios import SCENARIO_IDS, builtin_scenario
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

    @pytest.mark.parametrize("rate_hz", [10_000, 20_000])
    def test_label_track_matches_loop_oracle(self, rate_hz):
        rng = np.random.default_rng(rate_hz)
        window_s = 1000 / rate_hz
        apps = ["heater", "fan", "lamp"]
        registry = {**REGISTRY, "lamp": ApplianceModel(kind="resistive", nominal_power_w=40.0)}
        for _ in range(20):
            duration = float(rng.uniform(0.05, 3.0))
            times = list(rng.uniform(0.0, duration + 0.3, size=int(rng.integers(0, 12))))
            # an event exactly at a window centre, and a repeat of the same time
            times.append((int(rng.integers(0, 30)) + 0.5) * window_s)
            times.append(times[int(rng.integers(len(times)))])
            events = [ScenarioEvent(float(t), apps[int(rng.integers(3))],
                                    ("on", "off")[int(rng.integers(2))])
                      for t in sorted(times)]
            script = ScenarioScript(mains=MAINS, events=tuple(events), duration_s=duration)
            _, track = synth_scenario(script, registry, seed=0, rate_hz=rate_hz)
            assert track == label_track_oracle(script, rate_hz)

    def test_label_track_same_time_events_of_one_appliance(self):
        # the later of two same-time events wins, as in the script's order
        centre = 2.5 * 0.1
        script = ScenarioScript(mains=MAINS, events=(
            ScenarioEvent(centre, "heater", "on"), ScenarioEvent(centre, "heater", "off"),
            ScenarioEvent(centre, "fan", "off"), ScenarioEvent(centre, "fan", "on"),
        ), duration_s=0.5)
        _, track = synth_scenario(script, REGISTRY, seed=0)
        assert track.active == (frozenset(),) * 2 + (frozenset({"fan"}),) * 3
        assert track == label_track_oracle(script, 10_000)

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


class TestScriptTypos:
    """A key or id that the parser would drop or overwrite is an error naming
    its line and the key or id: a misspelt key, a key given twice on one
    appliance line, a header key given twice, and an appliance id defined
    twice."""

    SCRIPT = TestScriptFiles.SCRIPT

    @pytest.mark.parametrize("line, text, match", [
        (6, "appliance: fan kind=resistive power_w=60 noise_rms=0.02",
         "unknown appliance key 'noise_rms'"),
        (6, "appliance: fan kind=resistive power_w=60 noise_rms_a=0.02 colour=red",
         "unknown appliance key 'colour'"),
        (6, "appliance: fan kind=resistive power_w=60 power_w=70", "repeated appliance key 'power_w'"),
        (7, "appliance: tv kind=rectifier kind=resistive power_w=80", "repeated appliance key 'kind'"),
        (7, "appliance: tv kind=rectifier power_w=80 harmonics=1:1.0 harmonics=1:1.0,3:0.5",
         "repeated appliance key 'harmonics'"),
        (7, "appliance: fan kind=resistive power_w=80", "repeated appliance id 'fan'"),
    ])
    def test_appliance_line(self, line, text, match):
        lines = self.SCRIPT.splitlines()
        lines[line - 1] = text
        with pytest.raises(ScriptParseError, match=match) as err:
            parse_scenario_script("\n".join(lines))
        assert err.value.line_no == line

    @pytest.mark.parametrize("text", [
        "version: 1", "duration_s: 30", "mains_amplitude_v: 320", "mains_freq_hz: 60",
        "noise_rms_a: 0.01",
    ])
    def test_repeated_header_key(self, text):
        key = text.split(":")[0]
        with pytest.raises(ScriptParseError, match=f"repeated key '{key}'") as err:
            parse_scenario_script(self.SCRIPT + text + "\n")
        assert err.value.line_no == len(self.SCRIPT.splitlines()) + 1

    def test_numeric_keys_are_read_on_every_kind(self):
        """phase_rad on a rectifier is no typo: it is parsed and checked."""
        script = self.SCRIPT.replace("harmonics=1:1.0,3:0.5", "harmonics=1:1.0,3:0.5 phase_rad=0.2")
        assert parse_scenario_script(script)[1]["tv"].phase_rad == 0.2

    def test_repeated_events_stay_accepted(self):
        script, _ = parse_scenario_script(self.SCRIPT + "event: 9.0 fan on\nevent: 9.5 fan off\n")
        assert [e.time_s for e in script.events] == [2.0, 7.0, 9.0, 9.5]


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


# one load of every kind; noise on some of them, so that per-appliance and
# aggregate noise both meet the spans
SPAN_REGISTRY = {
    "heater": ApplianceModel(kind="resistive", nominal_power_w=150.0, noise_rms_a=0.01),
    "fan": ApplianceModel(kind="reactive", nominal_power_w=60.0, phase_rad=0.4),
    "charger": ApplianceModel(kind="rectifier", nominal_power_w=25.0,
                              harmonic_profile={1: 1.0, 3: 0.6, 5: 0.3, 9: 0.1},
                              noise_rms_a=0.02),
    "dimmer": ApplianceModel(kind="phase_cut", nominal_power_w=40.0, cut_angle_rad=1.1,
                             noise_rms_a=0.015),
    "lamp": ApplianceModel(kind="resistive", nominal_power_w=25.0),
}


def random_span_script(rng, rate_hz: int) -> ScenarioScript:
    """Random toggles of heater, fan and charger, plus every edge case of
    the span rule: events at 0 s, at the duration and past it, two events
    on one sample, on->on and off->off repeats, an off before any on, an
    on/off pair that rounds to an empty span, and a load still on at the
    end."""
    apps = sorted(SPAN_REGISTRY)
    dt = 1.0 / rate_hz
    duration = float(rng.uniform(0.3, 2.0))
    n = int(round(duration * rate_hz))

    def pick():
        return apps[int(rng.integers(len(apps)))]

    def sample_time():
        return int(rng.integers(1, n - 1)) * dt

    events = [(float(t), ("heater", "fan", "charger")[int(rng.integers(3))],
               ("on", "off")[int(rng.integers(2))])
              for t in rng.uniform(0.0, duration, size=int(rng.integers(2, 12)))]
    k = sample_time()
    t1, t2, t3, t4 = sorted(rng.uniform(0.0, duration, size=4))
    events += [
        (0.0, pick(), "on"),
        (duration, pick(), ("on", "off")[int(rng.integers(2))]),
        (duration + float(rng.uniform(0.0, 0.5)), pick(), "off"),
        (k, pick(), "on"), (k + 0.3 * dt, pick(), "off"),
        (t1, "dimmer", "off"), (t2, "dimmer", "on"), (t3, "dimmer", "on"), (t4, "dimmer", "off"),
        (t4 + 0.01, "dimmer", "off"),
        (sample_time() + 0.1 * dt, "lamp", "on"), (sample_time() + 0.1 * dt, "lamp", "off"),
    ]
    e = sample_time()
    events += [(e + 0.1 * dt, "lamp", "on"), (e + 0.3 * dt, "lamp", "off")]
    events += [(float(rng.uniform(0.0, duration)), "lamp", "on")]
    events.sort(key=lambda ev: ev[0])  # stable: same-time events keep their order
    return ScenarioScript(mains=MAINS,
                          events=tuple(ScenarioEvent(t, a, x) for t, a, x in events),
                          duration_s=duration,
                          noise_rms_a=(0.0, 0.03)[int(rng.integers(2))])


def assert_same_scenario(script, registry, seed, rate_hz):
    stream, track = synth_scenario(script, registry, seed=seed, rate_hz=rate_hz)
    want, want_track = synth_scenario_oracle(script, registry, seed=seed, rate_hz=rate_hz)
    assert stream.rate_hz == want.rate_hz
    assert_same_bits(stream.v, want.v)
    assert_same_bits(stream.i, want.i)
    assert track == want_track


class TestSpanSynthesis:
    """synth_scenario evaluates each load only where it is on; the samples
    must be bit for bit those of the whole-duration gate oracle."""

    @pytest.mark.parametrize("rate_hz", [10_000, 20_000])
    @pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
    def test_builtin_scenarios_match_gate_oracle(self, scenario_id, rate_hz):
        script, registry = builtin_scenario(scenario_id, seed=4)
        assert_same_scenario(script, registry, seed=4, rate_hz=rate_hz)

    @pytest.mark.parametrize("rate_hz", [10_000, 20_000])
    def test_random_scripts_match_gate_oracle(self, rate_hz):
        rng = np.random.default_rng(rate_hz + 1)
        for trial in range(20):
            script = random_span_script(rng, rate_hz)
            assert_same_scenario(script, SPAN_REGISTRY, seed=trial, rate_hz=rate_hz)

    def test_a_load_left_on_runs_to_the_end(self):
        def fan_on_at(time_s):
            script = ScenarioScript(mains=MAINS, events=(ScenarioEvent(time_s, "fan", "on"),),
                                    duration_s=0.2)
            return synth_scenario(script, REGISTRY, seed=1)[0].i

        late, early = fan_on_at(0.05), fan_on_at(0.0)
        assert np.all(late[:500] == 0.0)
        np.testing.assert_array_equal(late[500:], early[500:])

    def test_events_past_the_end_are_clamped(self):
        script = ScenarioScript(mains=MAINS, events=(
            ScenarioEvent(0.1, "heater", "on"), ScenarioEvent(0.5, "heater", "off"),
            ScenarioEvent(0.7, "fan", "on"),
        ), duration_s=0.3)
        stream, _ = synth_scenario(script, REGISTRY, seed=2)
        assert len(stream) == 3000
        assert np.all(stream.i[:1000] == 0.0) and np.all(stream.i[1000:] != 0.0)

    def test_off_periods_are_exact_zeros(self):
        script = ScenarioScript(mains=MAINS, events=(
            ScenarioEvent(0.0, "heater", "off"), ScenarioEvent(0.1, "heater", "on"),
            ScenarioEvent(0.2, "heater", "off"), ScenarioEvent(0.2, "fan", "on"),
            ScenarioEvent(0.2, "fan", "off"),
        ), duration_s=0.4)
        stream, _ = synth_scenario(script, REGISTRY, seed=0)
        on = np.zeros(len(stream), dtype=bool)
        on[1000:2000] = True
        assert np.all(stream.i[~on] == 0.0) and not np.any(np.signbit(stream.i[~on]))
        assert np.all(stream.i[on] != 0.0)


class TestNonFiniteModelsRejected:
    @pytest.mark.parametrize("field, value", [
        ("nominal_power_w", np.inf), ("nominal_power_w", np.nan),
        ("phase_rad", np.nan), ("phase_rad", -np.inf),
        ("noise_rms_a", np.nan), ("noise_rms_a", np.inf),
    ])
    def test_appliance(self, field, value):
        args = dict(kind="reactive", nominal_power_w=10.0, phase_rad=0.3, noise_rms_a=0.01)
        with pytest.raises(ValueError, match=f"appliance {field} must be finite"):
            ApplianceModel(**{**args, field: value})

    @pytest.mark.parametrize("order", [np.nan, 3.0, "3"])
    def test_harmonic_order_must_be_an_integer(self, order):
        with pytest.raises(ValueError, match="harmonic orders"):
            ApplianceModel(kind="rectifier", nominal_power_w=10.0,
                           harmonic_profile={1: 1.0, order: 0.5})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_event_time(self, value):
        with pytest.raises(ScenarioError, match="event time_s must be finite"):
            ScenarioEvent(value, "heater", "on")

    @pytest.mark.parametrize("field, value", [
        ("duration_s", np.inf), ("duration_s", np.nan),
        ("noise_rms_a", np.nan), ("noise_rms_a", np.inf),
    ])
    def test_script(self, field, value):
        args = dict(mains=MAINS, events=(), duration_s=1.0, noise_rms_a=0.0)
        with pytest.raises(ScenarioError, match=f"script {field} must be finite"):
            ScenarioScript(**{**args, field: value})
