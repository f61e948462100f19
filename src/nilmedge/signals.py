"""Acquisition-side signal handling: ADC calibration, 2:1 averaging decimation,
and 100 ms windowing of voltage/current sample streams.

The numeric contract mirrors a metering front end that digitizes both channels
with a 14-bit converter at 20 kHz, averages sample pairs down to 10 kHz, and
hands the DSP stage non-overlapping frames of 1000 samples per channel.
Raw codes are held as the converter delivers them, 2 bytes each (int16).
Calibration is one 16,384-entry float64 table per channel, `code * gain +
offset` for each code, and `calibrate_raw` returns a code-backed stream: it
holds the block's codes and the two tables, and builds no float array until
its `v` or `i` is first read, when both are gathered from the tables.
`decimate_stream` reads an unread code-backed stream's codes, gathering each
16,384-pair slice's even and odd samples from the table, adding them into
the 10 kHz output and halving them there while they are still in cache, so
no 20 kHz float array is ever built; a float stream is decimated by
`decimate_average` in the same slices. Both steps treat the two channels
apart: the voltage channel runs on a short-lived worker thread while the
calling thread runs the current channel (numpy releases the GIL inside
each slice's work), and the worker is joined before the call returns, so
no thread outlives it. Every output bit is that of the serial whole-array
arithmetic on the calibrated floats.
`window_rows` is the one windowing rule: it hands a stream's frames over as
two (windows, 1000) row views of the stream, the form the feature and event
stages read; `window_stream` is its one-window form, one `SampleWindow` per
frame.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .checks import finite_number, whole_number

ADC_CODE_MAX = 16383  # 14-bit converter, 16384 discrete values
ACQUISITION_RATE_HZ = 20_000
SAMPLE_RATE_HZ = 10_000
WINDOW_SAMPLES = 1000  # 100 ms at 10 kHz


class LengthMismatchError(ValueError):
    """Voltage and current channels differ in length."""


@dataclass(frozen=True)
class CalibrationCoefficients:
    """Affine code-to-unit calibration: value = code * gain + offset."""

    gain_v: float  # volts per code
    offset_v: float  # volts
    gain_i: float  # amperes per code
    offset_i: float  # amperes

    def __post_init__(self):
        for name, value in (("gain_v", self.gain_v), ("gain_i", self.gain_i)):
            if not (finite_number(value) and value > 0):
                raise ValueError(f"calibration {name} must be a finite number > 0, got {value!r}")
        for name, value in (("offset_v", self.offset_v), ("offset_i", self.offset_i)):
            if not finite_number(value):
                raise ValueError(f"calibration {name} must be finite, got {value!r}")


def default_calibration() -> CalibrationCoefficients:
    """Bipolar mapping over a unipolar 14-bit converter: mid-scale code 8192
    reads as 0 V / 0 A, full scale spans +-400 V and +-50 A."""
    return CalibrationCoefficients(
        gain_v=800.0 / 16384.0,
        offset_v=-400.0,
        gain_i=100.0 / 16384.0,
        offset_i=-50.0,
    )


@dataclass(frozen=True)
class RawSampleBlock:
    """Uncalibrated ADC codes for both channels at the acquisition rate,
    ACQUISITION_RATE_HZ.

    Each channel is a one-dimensional read-only int16 copy that the block
    owns, 2 bytes per code: a later write to the caller's array cannot reach
    it, and a write to the block's raises. `held_v` and `held_i` are the
    range from each channel's smallest to its largest code, empty for an
    empty channel."""

    codes_v: np.ndarray
    codes_i: np.ndarray
    held_v: range = field(init=False, repr=False, compare=False)
    held_i: range = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for channel, name in (("v", "voltage"), ("i", "current")):
            codes, held = _adc_codes(name, getattr(self, f"codes_{channel}"))
            object.__setattr__(self, f"codes_{channel}", codes)
            object.__setattr__(self, f"held_{channel}", held)
        if self.codes_v.shape != self.codes_i.shape:
            raise LengthMismatchError(
                f"channel lengths differ: {self.codes_v.size} voltage vs {self.codes_i.size} current codes"
            )


def _adc_codes(name: str, codes) -> tuple[np.ndarray, range]:
    """One channel's codes as a read-only int16 copy, and the range from its
    smallest to its largest code, or ValueError naming the channel. Only
    float input is checked value by value: an integer dtype holds whole
    numbers."""
    codes = np.asarray(codes)
    if codes.ndim != 1:
        raise ValueError(f"{name} codes must be one-dimensional, got shape {codes.shape}")
    if codes.dtype.kind not in "iuf":  # bool, complex, text, objects
        raise ValueError(f"{name} codes must be whole numbers, not {codes.dtype} values")
    if codes.dtype.kind == "f" and not (codes == np.trunc(codes)).all():  # NaN too; inf fails the range
        raise ValueError(f"{name} codes must be whole numbers")
    held = range(0)
    if codes.size:
        lo, hi = codes.min(), codes.max()
        if lo < 0 or hi > ADC_CODE_MAX:
            raise ValueError(f"{name} codes outside the 14-bit range [0, {ADC_CODE_MAX}]")
        held = range(int(lo), int(hi) + 1)
    owned = codes.astype(np.int16)  # always a copy
    owned.flags.writeable = False
    return owned, held


# One first read of a code-backed stream at a time. A lock held by each
# stream would make streams unpicklable.
_GATHER_LOCK = threading.Lock()


class SampleStream:
    """Calibrated paired stream of voltage (V) and current (A) samples: two
    one-dimensional float64 channels of equal length, at `rate_hz`, an int
    >= 1.

    A stream that `calibrate_raw` returns is code-backed: it holds the
    block's codes and one calibration table per channel, and gathers `v`
    and `i` from the tables, both on the first read of either. Until then
    `len`, `duration_s` and `rate_hz` read no sample, and `decimate_stream`
    reads the codes. Once read, it is a float stream like any other."""

    __slots__ = ("_v", "_i", "_codes", "_rate_hz")

    def __init__(self, v, i, rate_hz: int = SAMPLE_RATE_HZ):
        if not whole_number(rate_hz, 1):
            raise ValueError(f"stream rate_hz must be an int >= 1, got {rate_hz!r}")
        self._v, self._i = _samples("voltage", v), _samples("current", i)
        if self._v.shape != self._i.shape:
            raise LengthMismatchError(
                f"channel lengths differ: {self._v.size} voltage vs {self._i.size} current samples"
            )
        self._codes = None  # ((codes_v, table_v), (codes_i, table_i)) while unread
        self._rate_hz = int(rate_hz)

    @classmethod
    def _from_codes(cls, codes: tuple, rate_hz: int) -> SampleStream:
        stream = cls.__new__(cls)
        stream._v = stream._i = None
        stream._codes, stream._rate_hz = codes, rate_hz
        return stream

    def _gather(self) -> None:
        with _GATHER_LOCK:
            if self._codes is not None:
                (codes_v, table_v), (codes_i, table_i) = self._codes
                self._v, self._i = _per_channel(lambda: _gathered(codes_v, table_v),
                                                lambda: _gathered(codes_i, table_i))
                self._codes = None

    @property
    def v(self) -> np.ndarray:
        if self._codes is not None:
            self._gather()
        return self._v

    @property
    def i(self) -> np.ndarray:
        if self._codes is not None:
            self._gather()
        return self._i

    @property
    def rate_hz(self) -> int:
        return self._rate_hz

    def __len__(self) -> int:
        codes = self._codes
        return int(self._v.size if codes is None else codes[0][0].size)

    @property
    def duration_s(self) -> float:
        return len(self) / self._rate_hz


def _samples(name: str, x) -> np.ndarray:
    """One channel's samples as float64, or ValueError naming the channel."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"{name} samples must be one-dimensional, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class SampleWindow:
    """One 100 ms frame: exactly 1000 calibrated samples per channel at
    SAMPLE_RATE_HZ (10 kHz).

    `index` is the window ordinal within its stream, counted from 0.
    """

    v: np.ndarray
    i: np.ndarray
    index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=np.float64))
        object.__setattr__(self, "i", np.asarray(self.i, dtype=np.float64))
        if self.v.size != WINDOW_SAMPLES or self.i.size != WINDOW_SAMPLES:
            raise ValueError(
                f"a window holds exactly {WINDOW_SAMPLES} samples per channel, "
                f"got {self.v.size}/{self.i.size}"
            )


def calibrate_raw(block: RawSampleBlock, coeffs: CalibrationCoefficients) -> SampleStream:
    """The block as a code-backed 20 kHz stream (see `SampleStream`),
    preserving length.

    Every sample is float(code) * gain + offset, rounded after the product
    and after the sum, as the scalar arithmetic rounds it. That arithmetic
    runs here, under the caller's numpy error settings, once per code in
    each channel's held range (`RawSampleBlock.held_v`, `held_i`), voltage
    first, into that channel's 16,384-entry table. The arithmetic is
    monotone in the code, so an overflow raises here exactly when one of the
    block's own codes overflows."""
    return SampleStream._from_codes(
        ((block.codes_v, _code_table(block.held_v, coeffs.gain_v, coeffs.offset_v)),
         (block.codes_i, _code_table(block.held_i, coeffs.gain_i, coeffs.offset_i))),
        ACQUISITION_RATE_HZ,
    )


_CALIBRATE_BLOCK = 16_384  # codes or pairs per slice: 128 KiB out


def _per_channel(voltage: Callable[[], np.ndarray], current: Callable[[], np.ndarray]):
    """(voltage(), current()): voltage() runs on a worker thread while this
    thread runs current(). The worker runs under the caller's numpy error
    settings (`np.errstate` is per thread on numpy 1.x and per context on
    2.x, and a new thread starts with neither), and it is joined before this
    returns or raises. When both fail, voltage's error is raised, as in
    serial order."""
    errors, errcall = np.geterr(), np.geterrcall()
    done: dict = {}

    def run_voltage():
        try:
            with np.errstate(call=errcall, **errors):
                done["v"] = voltage()
        except BaseException as exc:  # raised again in the caller below
            done["error"] = exc

    worker = threading.Thread(target=run_voltage)
    worker.start()
    try:
        i = current()
    finally:
        worker.join()
        if "error" in done:
            raise done.pop("error")
    return done["v"], i


def _code_table(held: range, gain: float, offset: float) -> np.ndarray:
    """The 16,384-entry calibration table: entry c is c * gain + offset in
    float64 for each code c in `held`, and 0.0 outside it."""
    table = np.zeros(ADC_CODE_MAX + 1)
    seg = table[held.start : held.stop]
    np.multiply(np.arange(held.start, held.stop, dtype=np.float64), float(gain), out=seg)
    seg += float(offset)
    return table


def _gathered(codes: np.ndarray, table: np.ndarray) -> np.ndarray:
    """table[codes] in float64, one slice of codes at a time, each gathered
    straight into the output. mode="clip" writes there without buffering;
    the codes are already in range."""
    out = np.empty(codes.size)
    for lo in range(0, codes.size, _CALIBRATE_BLOCK):
        np.take(table, codes[lo : lo + _CALIBRATE_BLOCK], out=out[lo : lo + _CALIBRATE_BLOCK], mode="clip")
    return out


def _pair_count(n: int) -> int:
    if n % 2 != 0:
        raise ValueError(f"decimation needs an even sample count, got {n}")
    return n // 2


def decimate_average(samples: np.ndarray) -> np.ndarray:
    """Average consecutive sample pairs: out[k] = (in[2k] + in[2k+1]) / 2.

    Halves both the length and the rate. The input length must be even; the
    caller re-buffers odd tails. Each 16,384-pair slice is added straight
    into the output and halved there while it is still in cache, one sum
    and one division per sample as in the whole-array formula, so nothing
    the size of the input is allocated but the output.
    """
    samples = np.asarray(samples, dtype=np.float64).reshape(-1)
    out = np.empty(_pair_count(samples.size))
    for lo in range(0, out.size, _CALIBRATE_BLOCK):
        seg = out[lo : lo + _CALIBRATE_BLOCK]
        pairs = samples[2 * lo : 2 * (lo + seg.size)]
        np.add(pairs[0::2], pairs[1::2], out=seg)
        seg /= 2.0
    return out


def _decimated_codes(codes: np.ndarray, table: np.ndarray) -> np.ndarray:
    """decimate_average(table[codes]) without table[codes]: each slice's
    even samples are gathered into the output and its odd ones into one
    reused slice buffer, then added and halved there, the same two IEEE
    operations per sample."""
    out = np.empty(_pair_count(codes.size))
    odd = np.empty(min(out.size, _CALIBRATE_BLOCK))
    for lo in range(0, out.size, _CALIBRATE_BLOCK):
        seg = out[lo : lo + _CALIBRATE_BLOCK]
        pairs = codes[2 * lo : 2 * (lo + seg.size)]
        np.take(table, pairs[0::2], out=seg, mode="clip")
        np.add(seg, np.take(table, pairs[1::2], out=odd[: seg.size], mode="clip"), out=seg)
        seg /= 2.0
    return out


def decimate_stream(stream: SampleStream) -> SampleStream:
    """Pair-average both channels of a stream, e.g. 20 kHz -> 10 kHz, the
    two channels on two threads (`_per_channel`). An unread code-backed
    stream is decimated from its codes and stays unread."""
    codes = stream._codes
    if codes is None:
        v, i = _per_channel(lambda: decimate_average(stream.v), lambda: decimate_average(stream.i))
    else:
        (codes_v, table_v), (codes_i, table_i) = codes
        v, i = _per_channel(lambda: _decimated_codes(codes_v, table_v),
                            lambda: _decimated_codes(codes_i, table_i))
    return SampleStream(v=v, i=i, rate_hz=stream.rate_hz // 2)


def window_rows(stream: SampleStream) -> tuple[np.ndarray, np.ndarray]:
    """The whole 1000-sample windows of a 10 kHz stream as (windows, 1000)
    voltage and current views of the stream, row j holding window j.

    Windows start at stream sample 0; a trailing partial window is
    discarded, so an empty or sub-window stream gives (0, 1000) views."""
    if stream.rate_hz != SAMPLE_RATE_HZ:
        raise ValueError(f"windowing expects a {SAMPLE_RATE_HZ} Hz stream, got {stream.rate_hz} Hz")
    n = len(stream) // WINDOW_SAMPLES * WINDOW_SAMPLES
    return stream.v[:n].reshape(-1, WINDOW_SAMPLES), stream.i[:n].reshape(-1, WINDOW_SAMPLES)


def window_stream(stream: SampleStream) -> Iterator[SampleWindow]:
    """window_rows one window at a time, each as a SampleWindow. The rate is
    checked when iteration starts."""
    for j, (v, i) in enumerate(zip(*window_rows(stream))):
        yield SampleWindow(v=v, i=i, index=j)
