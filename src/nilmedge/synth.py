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
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .signals import SAMPLE_RATE_HZ, SampleStream

APPLIANCE_KINDS = ("resistive", "reactive", "rectifier", "phase_cut")

MAINS_230V_AMPLITUDE = 230.0 * np.sqrt(2.0)


class ScenarioError(ValueError):
    """A scenario script is malformed or references unknown appliances."""


@dataclass(frozen=True)
class Mains:
    """Ideal mains supply: amplitude_v is the sinusoid peak, not RMS."""

    amplitude_v: float = MAINS_230V_AMPLITUDE
    freq_hz: float = 50.0

    def __post_init__(self):
        for name in ("amplitude_v", "freq_hz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
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
        if self.nominal_power_w <= 0:
            raise ValueError("nominal power must be positive")
        if self.noise_rms_a < 0:
            raise ValueError("noise RMS cannot be negative")
        if not 0 <= self.cut_angle_rad < np.pi:
            raise ValueError("cut angle must lie in [0, pi)")
        for order, rel in self.harmonic_profile.items():
            if order < 1 or order % 2 == 0:
                raise ValueError(f"harmonic orders must be odd and >= 1, got {order}")
            if not 0 <= rel <= 1:
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
    t = np.arange(n) / rate_hz
    omega = 2.0 * np.pi * mains.freq_hz
    v_rms = mains.v_rms

    if model.kind == "resistive":
        conductance = model.nominal_power_w / v_rms**2
        i = conductance * mains.amplitude_v * np.sin(omega * t)
    elif model.kind == "reactive":
        i_amp = np.sqrt(2.0) * model.nominal_power_w / v_rms
        i = i_amp * np.sin(omega * t - model.phase_rad)
    elif model.kind == "rectifier":
        i1_amp = np.sqrt(2.0) * model.nominal_power_w / v_rms
        i = np.zeros(n)
        for order in sorted(model.harmonic_profile):
            i += model.harmonic_profile[order] * i1_amp * np.sin(order * omega * t)
    else:  # phase_cut
        conductance = model.nominal_power_w / v_rms**2
        i = conductance * mains.amplitude_v * np.sin(omega * t)
        half_cycle_phase = np.mod(omega * t, np.pi)
        i[half_cycle_phase < model.cut_angle_rad] = 0.0

    if model.noise_rms_a > 0:
        rng = np.random.default_rng(seed)
        i = i + rng.normal(0.0, model.noise_rms_a, size=n)
    return i


def _gate_mask(events: list[ScenarioEvent], n_samples: int, rate_hz: int) -> np.ndarray:
    """1.0 while the appliance is on, 0.0 while off, per sample."""
    mask = np.zeros(n_samples)
    state = 0.0
    prev_idx = 0
    for ev in events:
        idx = min(int(round(ev.time_s * rate_hz)), n_samples)
        mask[prev_idx:idx] = state
        state = 1.0 if ev.action == "on" else 0.0
        prev_idx = idx
    mask[prev_idx:] = state
    return mask


def synth_scenario(
    script: ScenarioScript,
    registry: dict[str, ApplianceModel],
    seed: int = 0,
    rate_hz: int = SAMPLE_RATE_HZ,
) -> tuple[SampleStream, LabelTrack]:
    """Aggregate stream plus the per-window label track for a scenario.

    The aggregate current is the elementwise sum of each appliance's gated
    solo current, so superposition holds exactly under per-appliance seeding.
    """
    from .signals import WINDOW_SAMPLES

    for ev in script.events:
        if ev.appliance_id not in registry:
            raise ScenarioError(f"unknown appliance id {ev.appliance_id!r}")

    n = int(round(script.duration_s * rate_hz))
    v = synth_voltage(script.mains, script.duration_s, rate_hz)
    i_total = np.zeros(n)

    by_appliance: dict[str, list[ScenarioEvent]] = {}
    for ev in script.events:
        by_appliance.setdefault(ev.appliance_id, []).append(ev)

    for app_id, events in by_appliance.items():
        model = registry[app_id]
        solo = synth_appliance(
            model, script.mains, script.duration_s,
            seed=_appliance_rng_seed(seed, app_id), rate_hz=rate_hz,
        )
        i_total += solo * _gate_mask(events, n, rate_hz)

    if script.noise_rms_a > 0:
        rng = np.random.default_rng(_appliance_rng_seed(seed, "__aggregate__"))
        i_total = i_total + rng.normal(0.0, script.noise_rms_a, size=n)

    n_windows = n // WINDOW_SAMPLES
    window_s = WINDOW_SAMPLES / rate_hz
    active: list[frozenset[str]] = []
    for j in range(n_windows):
        center = (j + 0.5) * window_s
        on: set[str] = set()
        for app_id, events in by_appliance.items():
            state = False
            for ev in events:
                if ev.time_s <= center:
                    state = ev.action == "on"
            if state:
                on.add(app_id)
        active.append(frozenset(on))

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
# Plain line-oriented text, version 1 (see README for the full grammar):
#
#   version: 1
#   duration_s: 30
#   mains_amplitude_v: 325.269
#   mains_freq_hz: 50
#   appliance: fan kind=resistive power_w=60 noise_rms_a=0.02
#   appliance: tv kind=rectifier power_w=80 harmonics=1:1.0,3:0.5 noise_rms_a=0.02
#   event: 2.0 fan on
#   event: 6.5 fan off

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


def _parse_harmonics(text: str, line_no: int) -> dict[int, float]:
    profile: dict[int, float] = {}
    for part in text.split(","):
        try:
            order, rel = part.split(":")
            profile[int(order)] = float(rel)
        except ValueError:
            raise ScriptParseError(line_no, f"bad harmonic entry {part!r}") from None
    return profile


def _parse_appliance(body: str, line_no: int) -> tuple[str, ApplianceModel]:
    tokens = body.split()
    if not tokens:
        raise ScriptParseError(line_no, "appliance line needs an id")
    app_id = tokens[0]
    fields: dict[str, str] = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ScriptParseError(line_no, f"expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        fields[key] = value
    numbers = {key: _number(fields.get(key, "0"), key, line_no)
               for key in ("power_w", "phase_rad", "cut_angle_rad", "noise_rms_a")}
    profile = _parse_harmonics(fields["harmonics"], line_no) if "harmonics" in fields else {1: 1.0}
    try:
        model = ApplianceModel(
            kind=fields.get("kind", "resistive"),
            nominal_power_w=numbers["power_w"],
            phase_rad=numbers["phase_rad"],
            harmonic_profile=profile,
            cut_angle_rad=numbers["cut_angle_rad"],
            noise_rms_a=numbers["noise_rms_a"],
        )
    except ValueError as exc:
        raise ScriptParseError(line_no, str(exc)) from None
    return app_id, model


def parse_scenario_script(text: str) -> tuple[ScenarioScript, dict[str, ApplianceModel]]:
    """Parse the version-1 script format; errors carry the offending line number.

    Every malformed script raises ScriptParseError, including numbers that
    are NaN or infinite."""
    header: dict[str, float] = {}
    header_line: dict[str, int] = {}
    registry: dict[str, ApplianceModel] = {}
    events: list[ScenarioEvent] = []
    version_seen = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ScriptParseError(line_no, f"expected 'key: value', got {line!r}")
        key, body = (s.strip() for s in line.split(":", 1))
        if key == "version":
            if body != str(SCRIPT_VERSION):
                raise ScriptParseError(line_no, f"unsupported script version {body!r}")
            version_seen = True
        elif key in ("duration_s", "mains_amplitude_v", "mains_freq_hz", "noise_rms_a"):
            header[key] = _number(body, key, line_no)
            header_line[key] = line_no
        elif key == "appliance":
            app_id, model = _parse_appliance(body, line_no)
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

    if not version_seen:
        raise ScriptParseError(1, "missing 'version: 1' declaration")
    if "duration_s" not in header:
        raise ScriptParseError(1, "missing 'duration_s'")
    mains = Mains()
    for key, name in (("mains_amplitude_v", "amplitude_v"), ("mains_freq_hz", "freq_hz")):
        if key in header:
            try:
                mains = replace(mains, **{name: header[key]})
            except ValueError as exc:
                raise ScriptParseError(header_line[key], str(exc)) from None
    try:
        script = ScenarioScript(
            mains=mains,
            events=tuple(events),
            duration_s=header["duration_s"],
            noise_rms_a=header.get("noise_rms_a", 0.0),
        )
    except ScenarioError as exc:
        raise ScriptParseError(1, str(exc)) from None
    return script, registry


def format_scenario_script(script: ScenarioScript, registry: dict[str, ApplianceModel]) -> str:
    lines = [
        f"version: {SCRIPT_VERSION}",
        f"duration_s: {script.duration_s!r}",
        f"mains_amplitude_v: {script.mains.amplitude_v!r}",
        f"mains_freq_hz: {script.mains.freq_hz!r}",
    ]
    if script.noise_rms_a:
        lines.append(f"noise_rms_a: {script.noise_rms_a!r}")
    for app_id in sorted(registry):
        m = registry[app_id]
        parts = [f"appliance: {app_id}", f"kind={m.kind}", f"power_w={m.nominal_power_w!r}"]
        if m.kind == "reactive":
            parts.append(f"phase_rad={m.phase_rad!r}")
        if m.kind == "rectifier":
            profile = ",".join(f"{k}:{v!r}" for k, v in sorted(m.harmonic_profile.items()))
            parts.append(f"harmonics={profile}")
        if m.kind == "phase_cut":
            parts.append(f"cut_angle_rad={m.cut_angle_rad!r}")
        if m.noise_rms_a:
            parts.append(f"noise_rms_a={m.noise_rms_a!r}")
        lines.append(" ".join(parts))
    for ev in script.events:
        lines.append(f"event: {ev.time_s!r} {ev.appliance_id} {ev.action}")
    return "\n".join(lines) + "\n"
