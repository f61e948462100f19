"""Synthetic load generator: a desk-scale stand-in for recorded appliance data.

Four appliance archetypes cover the usual disaggregation taxonomy:

* ``resistive``  - current proportional to the mains voltage (heaters, bulbs).
* ``reactive``   - sinusoidal current lagging the voltage by a fixed phase
  (motors); the amplitude is sized so the real power is nominal * cos(phase).
* ``rectifier``  - a comb of odd current harmonics (switch-mode supplies),
  scaled so the fundamental alone delivers the nominal real power.
* ``phase_cut``  - mains-proportional current that conducts only after a
  firing angle in each half cycle (triac dimmers).

Gaussian noise is added to the current channel only; the voltage is taken as
clean mains. All generation is deterministic for a fixed seed, and scenario
noise is seeded per appliance so that a solo re-run of one appliance
reproduces exactly its contribution to the aggregate.

A scenario evaluates each appliance's sines only on the sample spans where
the appliance is on and adds each span into the aggregate, so a load costs
time only while it is on. Its noise is still drawn over the whole duration
from its own seed and then sliced to the spans, so every draw lands on the
same sample whatever the script. The aggregate is therefore bit for bit the
sum over appliances of solo current times a 0/1 gate per sample: the solo
current times 1.0 is itself, and off the spans that sum would add a signed
zero to a total that starts at +0, can never become -0, and so is left
unchanged. That needs every solo current to be finite: the model, event and
script constructors reject non-finite numbers, so only magnitudes near the
float range, where a current overflows, are left out.

A scenario and its registry can also be written as a version-1 script, the
text `nilmedge synth --script` reads. Its keys are listed once, in
`_APPLIANCE_KEYS` (an appliance line's keys, each with its model field, its
reader and the text an absent key reads as) and `_HEADER_NUMBERS` (the
header's numeric keys and their `Mains` or `ScenarioScript` fields). The
parser and the formatter both read the two tables, and the formatter writes
every key, so `parse_scenario_script(format_scenario_script(s, r))` is
`(s, r)`.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .checks import finite_number, whole_number
from .signals import SAMPLE_RATE_HZ, WINDOW_SAMPLES, SampleStream

APPLIANCE_KINDS = ("resistive", "reactive", "rectifier", "phase_cut")

MAINS_230V_AMPLITUDE = 230.0 * np.sqrt(2.0)

# Spans are evaluated this many samples at a time: the 64 KiB temporaries
# are reused from one chunk to the next, so a long span does not leave heap
# of its own length resident after the scenario. The samples are the same
# for any chunk length.
SPAN_CHUNK = 8192


class ScenarioError(ValueError):
    """A scenario script is malformed or references unknown appliances."""


def _require_finite(record, names: tuple[str, ...], what: str, error: type[Exception]) -> None:
    """NaN and infinity pass every range check below unseen, and a bool
    passes as 0 or 1, so they are rejected first, naming the field."""
    for name in names:
        value = getattr(record, name)
        if not finite_number(value):
            raise error(f"{what} {name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Mains:
    """Ideal mains supply: amplitude_v is the sinusoid peak, not RMS."""

    amplitude_v: float = MAINS_230V_AMPLITUDE
    freq_hz: float = 50.0

    def __post_init__(self):
        for name in ("amplitude_v", "freq_hz"):
            value = getattr(self, name)
            if not (finite_number(value) and value > 0):
                raise ValueError(f"mains {name} must be finite and positive, got {value!r}")

    @property
    def v_rms(self) -> float:
        return self.amplitude_v / np.sqrt(2.0)


@dataclass(frozen=True)
class ApplianceModel:
    kind: str
    nominal_power_w: float
    phase_rad: float = 0.0  # reactive kind only
    harmonic_profile: dict[int, float] = field(default_factory=lambda: {1: 1.0})
    cut_angle_rad: float = 0.0  # phase_cut kind only
    noise_rms_a: float = 0.0

    def __post_init__(self):
        if self.kind not in APPLIANCE_KINDS:
            raise ValueError(f"unknown appliance kind {self.kind!r}")
        _require_finite(self, ("nominal_power_w", "phase_rad", "noise_rms_a"), "appliance",
                        ValueError)
        if self.nominal_power_w <= 0:
            raise ValueError("nominal power must be positive")
        if self.noise_rms_a < 0:
            raise ValueError("noise RMS cannot be negative")
        if not (finite_number(self.cut_angle_rad) and 0 <= self.cut_angle_rad < np.pi):
            raise ValueError("cut angle must lie in [0, pi)")
        for order, rel in self.harmonic_profile.items():
            if not whole_number(order, 1) or order % 2 == 0:
                raise ValueError(f"harmonic orders must be odd integers >= 1, got {order!r}")
            if not (finite_number(rel) and 0 <= rel <= 1):
                raise ValueError(f"relative harmonic amplitudes lie in [0, 1], got {rel}")
        if self.kind == "rectifier" and self.harmonic_profile.get(1) != 1.0:
            raise ValueError("rectifier profiles must carry the fundamental at relative amplitude 1")


@dataclass(frozen=True)
class ScenarioEvent:
    time_s: float
    appliance_id: str
    action: str  # "on" | "off"

    def __post_init__(self):
        if self.action not in ("on", "off"):
            raise ScenarioError(f"event action must be 'on' or 'off', got {self.action!r}")
        _require_finite(self, ("time_s",), "event", ScenarioError)
        if self.time_s < 0:
            raise ScenarioError("event times cannot be negative")


@dataclass(frozen=True)
class ScenarioScript:
    """Timed on/off schedule for a set of appliances on one mains supply.

    noise_rms_a is measurement-channel noise added once to the aggregate
    current; per-appliance noise (on the models) instead rides along with
    each load, which keeps superposition exact but makes the aggregate
    noise floor depend on how many loads are on."""

    mains: Mains
    events: tuple[ScenarioEvent, ...]
    duration_s: float
    noise_rms_a: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        _require_finite(self, ("duration_s", "noise_rms_a"), "script", ScenarioError)
        times = [e.time_s for e in self.events]
        if times != sorted(times):
            raise ScenarioError("events must be sorted by time")
        if self.duration_s <= 0:
            raise ScenarioError("duration must be positive")
        if self.noise_rms_a < 0:
            raise ScenarioError("aggregate noise RMS cannot be negative")

    def min_event_gap_s(self) -> float:
        """Smallest spacing between consecutive events (inf when < 2 events).

        Scripts meant for differential-feature evaluation should keep this
        at or above 4.1 s (the 41-window observation span)."""
        times = [e.time_s for e in self.events]
        if len(times) < 2:
            return float("inf")
        return min(b - a for a, b in zip(times, times[1:]))


@dataclass(frozen=True)
class LabelTrack:
    """Per-window ground truth derived from a scenario script.

    active[j] is the set of appliance ids on at window j's center;
    toggles[j] lists (appliance_id, action) events that fall inside window j.
    """

    active: tuple[frozenset[str], ...]
    toggles: dict[int, tuple[tuple[str, str], ...]]

    def __len__(self) -> int:
        return len(self.active)


def synth_voltage(mains: Mains, duration_s: float, rate_hz: int = SAMPLE_RATE_HZ) -> np.ndarray:
    """Clean mains voltage sinusoid sampled at rate_hz."""
    n = int(round(duration_s * rate_hz))
    t = np.arange(n) / rate_hz
    return mains.amplitude_v * np.sin(2.0 * np.pi * mains.freq_hz * t)


def _appliance_rng_seed(master_seed: int, appliance_id: str) -> list[int]:
    # Stable per-appliance child seed so solo and aggregate runs share noise.
    return [int(master_seed), zlib.crc32(appliance_id.encode("utf-8"))]


def _clean_current(model: ApplianceModel, mains: Mains, t: np.ndarray) -> np.ndarray:
    """Noiseless current of one appliance at the sample times t (seconds).

    Every operation is elementwise in t, so the current over a slice of t is
    bit for bit that slice of the current over the whole of t."""
    omega = 2.0 * np.pi * mains.freq_hz
    v_rms = mains.v_rms

    if model.kind == "resistive":
        conductance = model.nominal_power_w / v_rms**2
        return conductance * mains.amplitude_v * np.sin(omega * t)
    if model.kind == "reactive":
        i_amp = np.sqrt(2.0) * model.nominal_power_w / v_rms
        return i_amp * np.sin(omega * t - model.phase_rad)
    if model.kind == "rectifier":
        i1_amp = np.sqrt(2.0) * model.nominal_power_w / v_rms
        i = np.zeros(len(t))
        for order in sorted(model.harmonic_profile):
            i += model.harmonic_profile[order] * i1_amp * np.sin(order * omega * t)
        return i
    # phase_cut
    conductance = model.nominal_power_w / v_rms**2
    i = conductance * mains.amplitude_v * np.sin(omega * t)
    half_cycle_phase = np.mod(omega * t, np.pi)
    i[half_cycle_phase < model.cut_angle_rad] = 0.0
    return i


def _noise(rms_a: float, seed: int | list[int], n: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(0.0, rms_a, size=n)


def synth_appliance(
    model: ApplianceModel,
    mains: Mains,
    duration_s: float,
    seed: int | list[int] = 0,
    rate_hz: int = SAMPLE_RATE_HZ,
) -> np.ndarray:
    """Current drawn by one appliance over the whole duration, noise included."""
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    n = int(round(duration_s * rate_hz))
    i = _clean_current(model, mains, np.arange(n) / rate_hz)
    if model.noise_rms_a > 0:
        i = i + _noise(model.noise_rms_a, seed, n)
    return i


def _on_spans(events: list[ScenarioEvent], n_samples: int, rate_hz: int) -> list[tuple[int, int]]:
    """The non-empty sample ranges [lo, hi) over which one appliance is on.

    An event switches the state from its sample round(time * rate) on,
    clamped to the stream's end; the state after the last event holds to
    the end of the stream."""
    spans = []
    on, prev_idx = False, 0
    for ev in events:
        idx = min(int(round(ev.time_s * rate_hz)), n_samples)
        if on and idx > prev_idx:
            spans.append((prev_idx, idx))
        on, prev_idx = ev.action == "on", idx
    if on and prev_idx < n_samples:
        spans.append((prev_idx, n_samples))
    return spans


def synth_scenario(
    script: ScenarioScript,
    registry: dict[str, ApplianceModel],
    seed: int = 0,
    rate_hz: int = SAMPLE_RATE_HZ,
) -> tuple[SampleStream, LabelTrack]:
    """Aggregate stream plus the per-window label track for a scenario.

    The aggregate current is the elementwise sum of each appliance's solo
    current over the spans where the appliance is on, so superposition holds
    exactly under per-appliance seeding. The sines are evaluated on those
    spans only, which is where the time goes on long scripts. An appliance's
    noise is still drawn over the whole duration from its own seed and then
    sliced, so every sample carries the same draw as in a solo run of that
    appliance, however the script places its spans.
    """
    for ev in script.events:
        if ev.appliance_id not in registry:
            raise ScenarioError(f"unknown appliance id {ev.appliance_id!r}")

    n = int(round(script.duration_s * rate_hz))
    # v and i_total are allocated before the whole-duration temporaries (t,
    # noise), and the aggregate noise goes into a new array: in this order a
    # scenario leaves no more freed heap resident in the process than the
    # whole-duration gate sum did, which set-ups that synthesize several
    # streams in a row measure
    v = synth_voltage(script.mains, script.duration_s, rate_hz)
    i_total = np.zeros(n)
    t = np.arange(n) / rate_hz

    by_appliance: dict[str, list[ScenarioEvent]] = {}
    for ev in script.events:
        by_appliance.setdefault(ev.appliance_id, []).append(ev)

    for app_id, events in by_appliance.items():
        model = registry[app_id]
        spans = _on_spans(events, n, rate_hz)
        noise = None
        if spans and model.noise_rms_a > 0:
            noise = _noise(model.noise_rms_a, _appliance_rng_seed(seed, app_id), n)
        for lo, hi in spans:
            for a in range(lo, hi, SPAN_CHUNK):
                b = min(a + SPAN_CHUNK, hi)
                i = _clean_current(model, script.mains, t[a:b])
                if noise is not None:
                    i += noise[a:b]
                i_total[a:b] += i

    if script.noise_rms_a > 0:
        rng_seed = _appliance_rng_seed(seed, "__aggregate__")
        i_total = i_total + _noise(script.noise_rms_a, rng_seed, n)

    n_windows = n // WINDOW_SAMPLES
    window_s = WINDOW_SAMPLES / rate_hz
    centers = (np.arange(n_windows) + 0.5) * window_s
    # each appliance's state after its last event at or before a window centre
    on = np.zeros((n_windows, len(by_appliance)), dtype=bool)
    for k, events in enumerate(by_appliance.values()):
        states = np.array([False] + [ev.action == "on" for ev in events])
        on[:, k] = states[np.searchsorted([ev.time_s for ev in events], centers, side="right")]
    active = [frozenset(compress(by_appliance, row)) for row in on.tolist()]

    toggles: dict[int, list[tuple[str, str]]] = {}
    for ev in script.events:
        j = int(ev.time_s / window_s)
        if j < n_windows:
            toggles.setdefault(j, []).append((ev.appliance_id, ev.action))

    track = LabelTrack(
        active=tuple(active),
        toggles={j: tuple(v) for j, v in toggles.items()},
    )
    return SampleStream(v=v, i=i_total, rate_hz=rate_hz), track


# --- scenario script files -------------------------------------------------
#
# Plain line-oriented text, version 1. A header line is `key: value`, with
# `version: 1`, and the numeric keys of _HEADER_NUMBERS; each appliance line
# is `appliance: <id>` followed by `key=value` tokens, each key of
# _APPLIANCE_KEYS at most once; each event line is `event: <time_s> <id> <on|off>`:
#
#   version: 1
#   duration_s: 30
#   mains_amplitude_v: 325.269
#   mains_freq_hz: 50
#   appliance: fan kind=resistive power_w=60 noise_rms_a=0.02
#   appliance: tv kind=rectifier power_w=80 harmonics=1:1.0,3:0.5 noise_rms_a=0.02
#   event: 2.0 fan on
#   event: 6.5 fan off
#
# The two tables are the grammar's only list of keys: the parser reads them
# and the formatter writes every key of both, so a formatted script reads
# back as the script and registry it was formatted from.

SCRIPT_VERSION = 1


class ScriptParseError(ScenarioError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _number(text: str, what: str, line_no: int) -> float:
    """A finite float; NaN or infinity would pass the range checks unseen."""
    try:
        x = float(text)
    except ValueError:
        raise ScriptParseError(line_no, f"{what} must be numeric, got {text!r}") from None
    if not math.isfinite(x):
        raise ScriptParseError(line_no, f"{what} must be finite, got {text!r}")
    return x


def _parse_harmonics(text: str, what: str, line_no: int) -> dict[int, float]:
    profile: dict[int, float] = {}
    for part in text.split(","):
        try:
            order, rel = part.split(":")
            profile[int(order)] = float(rel)
        except ValueError:
            raise ScriptParseError(line_no, f"bad harmonic entry {part!r}") from None
    return profile


def _text(value) -> str:
    """A script value as the parser reads it back: a number as repr(float),
    a harmonic profile as order:amplitude pairs, text as it is."""
    if isinstance(value, dict):
        return ",".join(f"{int(k)}:{float(v)!r}" for k, v in sorted(value.items()))
    return value if isinstance(value, str) else repr(float(value))


# an appliance line's keys, in the order they are read and written: key ->
# (ApplianceModel field, reader, the text an absent key reads as); every
# number is read and checked on every kind
_APPLIANCE_KEYS = {
    "kind": ("kind", lambda text, what, line_no: text, "resistive"),
    "power_w": ("nominal_power_w", _number, "0"),
    "phase_rad": ("phase_rad", _number, "0"),
    "cut_angle_rad": ("cut_angle_rad", _number, "0"),
    "noise_rms_a": ("noise_rms_a", _number, "0"),
    "harmonics": ("harmonic_profile", _parse_harmonics, "1:1.0"),
}

# a header's numeric keys: key -> (record, field); an absent key takes the
# field's default, and one whose field has none is missing
_HEADER_NUMBERS = {
    "duration_s": (ScenarioScript, "duration_s"),
    "mains_amplitude_v": (Mains, "amplitude_v"),
    "mains_freq_hz": (Mains, "freq_hz"),
    "noise_rms_a": (ScenarioScript, "noise_rms_a"),
}


def _parse_appliance(body: str, line_no: int) -> tuple[str, ApplianceModel]:
    tokens = body.split()
    if not tokens:
        raise ScriptParseError(line_no, "appliance line needs an id")
    app_id = tokens[0]
    given: dict[str, str] = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ScriptParseError(line_no, f"expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        if key in given or key not in _APPLIANCE_KEYS:
            raise ScriptParseError(line_no, f"{'repeated' if key in given else 'unknown'} "
                                            f"appliance key {key!r}")
        given[key] = value
    # read before the model is built, so a bad value's error is not wrapped
    values = {name: read(given.get(key, absent), key, line_no)
              for key, (name, read, absent) in _APPLIANCE_KEYS.items()}
    try:
        model = ApplianceModel(**values)
    except ValueError as exc:
        raise ScriptParseError(line_no, str(exc)) from None
    return app_id, model


def parse_scenario_script(text: str) -> tuple[ScenarioScript, dict[str, ApplianceModel]]:
    """Parse the version-1 script format; errors carry the offending line number.

    Every malformed script raises ScriptParseError, including numbers that
    are NaN or infinite, an unknown appliance key, a key given twice on one
    appliance line, a header key (version included) given twice, and an
    appliance id defined twice: none of them is dropped or overwritten."""
    header: dict[str, float] = {}
    header_line: dict[str, int] = {}
    registry: dict[str, ApplianceModel] = {}
    events: list[ScenarioEvent] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ScriptParseError(line_no, f"expected 'key: value', got {line!r}")
        key, body = (s.strip() for s in line.split(":", 1))
        if key in header_line:
            raise ScriptParseError(line_no, f"repeated key {key!r} (first on line {header_line[key]})")
        if key == "version":
            if body != str(SCRIPT_VERSION):
                raise ScriptParseError(line_no, f"unsupported script version {body!r}")
            header_line[key] = line_no
        elif key in _HEADER_NUMBERS:
            header[key] = _number(body, key, line_no)
            header_line[key] = line_no
        elif key == "appliance":
            app_id, model = _parse_appliance(body, line_no)
            if app_id in registry:
                raise ScriptParseError(line_no, f"repeated appliance id {app_id!r}")
            registry[app_id] = model
        elif key == "event":
            parts = body.split()
            if len(parts) != 3:
                raise ScriptParseError(line_no, "event lines read 'event: <time_s> <id> <on|off>'")
            time_s = _number(parts[0], "event time", line_no)
            try:
                events.append(ScenarioEvent(time_s=time_s, appliance_id=parts[1], action=parts[2]))
            except ScenarioError as exc:
                raise ScriptParseError(line_no, str(exc)) from None
        else:
            raise ScriptParseError(line_no, f"unknown key {key!r}")

    if "version" not in header_line:
        raise ScriptParseError(1, "missing 'version: 1' declaration")
    # the mains is built again after each key, so a bad value fails on its line
    given: dict[type, dict[str, float]] = {Mains: {}, ScenarioScript: {}}
    for key, (record, name) in _HEADER_NUMBERS.items():
        if key in header:
            given[record][name] = header[key]
        elif not hasattr(record, name):  # a dataclass field without a default
            raise ScriptParseError(1, f"missing {key!r}")
        try:
            mains = Mains(**given[Mains])
        except ValueError as exc:
            raise ScriptParseError(header_line[key], str(exc)) from None
    try:
        script = ScenarioScript(mains=mains, events=tuple(events), **given[ScenarioScript])
    except ScenarioError as exc:
        raise ScriptParseError(1, str(exc)) from None
    return script, registry


def format_scenario_script(script: ScenarioScript, registry: dict[str, ApplianceModel]) -> str:
    """The script and registry as version-1 text, every key of both tables
    written, so that parse_scenario_script reads back equal values."""
    lines = [f"version: {SCRIPT_VERSION}"]
    lines += [f"{key}: {_text(getattr(script.mains if record is Mains else script, name))}"
              for key, (record, name) in _HEADER_NUMBERS.items()]
    for app_id in sorted(registry):
        lines.append(" ".join([f"appliance: {app_id}"] + [
            f"{key}={_text(getattr(registry[app_id], name))}"
            for key, (name, _, _) in _APPLIANCE_KEYS.items()]))
    lines += [f"event: {_text(ev.time_s)} {ev.appliance_id} {ev.action}" for ev in script.events]
    return "\n".join(lines) + "\n"
