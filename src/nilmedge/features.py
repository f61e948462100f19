"""Per-window feature extraction: real/apparent/reactive power plus odd
current harmonics from a 1024-point FFT.

The canonical feature vector has 103 entries:

    [P, |S|, Q, H1_re, H1_im, H3_re, H3_im, ..., H99_re, H99_im]

where H_k is the k-th odd harmonic of the 50 Hz mains, taken from the bin of
the zero-padded 1024-point transform nearest to 50*k Hz (bin width
10000/1024 = 9.766 Hz, so order 99 sits just below 5 kHz). Harmonic
components are scaled by 2/1000 so that a bin-aligned unit-amplitude tone
reads as magnitude 1 A; the residual leakage of the 1000-sample rectangular
frame is part of the feature definition, not an artifact to be corrected.

A layout may drop the time-domain triple, restrict the harmonic orders, or
report magnitudes instead of (re, im) pairs; the default reproduces the
103-entry vector above.

The arithmetic works on blocks of windows. `extract_feature_matrix` maps
(n, 1000) voltage and current rows to (n, len(layout)) features: three
stacked row-by-row products for P, |S| and Q, one batched radix-2 FFT,
then one fancy index into the cached bin list of the layout.
`extract_features` is its one-row call. A stream reaches it through one
loop: `window_features` takes the (windows, 1000) row views of
`signals.window_rows` and a list of windows, and gathers those rows
EXTRACT_BLOCK at a time into one call each. `feature_matrix` lists every
window, `pipeline.window_dataset` the steady ones, and the event core the
ones its results read. `real_power_matrix` is the P column alone, taken
straight from the row views, for the event core's real-power track. A row
comes out bit for bit the same in any block, with any rows beside it and
in any memory layout: the rows of each power product are made
C-contiguous EXTRACT_BLOCK at a time (so a strided stream is never copied
whole), so each product of a row is one BLAS dot of two contiguous
1000-sample rows (a strided dot sums in another order); the butterflies
are elementwise; and magnitudes are np.hypot of the real and imaginary
parts, which equals abs() of one complex scalar where np.abs of a complex
array can differ in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .checks import whole_number
from .signals import SAMPLE_RATE_HZ, WINDOW_SAMPLES, SampleStream, SampleWindow, window_rows

FFT_SIZE = 1024
HARMONIC_SCALE = 2.0 / WINDOW_SAMPLES
DEFAULT_HARMONIC_ORDERS = tuple(range(1, 100, 2))  # 1, 3, ..., 99
# windows per extract_feature_matrix call on a stream, and rows made
# contiguous at a time for a power product: host time per window fell from
# about 225 us one at a time to about 60 us at 16-32 and rose again at 64,
# where the complex working set no longer stays in cache
EXTRACT_BLOCK = 32
# the extraction groups a column can belong to, each priced as one unit by
# the cost model: P, |S|, Q, and the FFT that yields every harmonic column
FEATURE_GROUPS = ("p", "s_abs", "q", "harmonics")


# --- radix-2 FFT -------------------------------------------------------------

@lru_cache(maxsize=None)
def _bit_reversal(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    rev = np.zeros(n, dtype=np.intp)
    for k in range(n):
        rev[k] = int(format(k, f"0{bits}b")[::-1], 2)
    return rev


@lru_cache(maxsize=None)
def _twiddles(m: int) -> np.ndarray:
    half = m // 2
    return np.exp(-2j * np.pi * np.arange(half) / m)


def _butterflies(a: np.ndarray) -> np.ndarray:
    """The radix-2 stages, in place, on (rows, n) complex rows already in
    bit-reversed order; returns a. Each stage multiplies the odd halves by
    the twiddles into one half-size buffer t, then writes even - t over the
    odd half and even + t over the even half.

    The bits do not depend on the memory layout, the speed does: with the
    rows as the fast axis (Fortran order, as a column gather leaves them)
    every ufunc runs along contiguous runs of rows, where C order gives
    runs of m/2 elements, one at the first stage (about 40 against 65 us
    per row of a 32-row block)."""
    rows, n = a.shape
    t = np.empty((rows, n // 2), dtype=np.complex128, order="F")
    m = 2
    while m <= n:
        half = m // 2
        pairs = a.reshape(rows, n // m, m)
        even, odd = pairs[..., :half], pairs[..., half:]
        product = t.reshape(rows, n // m, half)
        np.multiply(odd, _twiddles(m), out=product)
        np.subtract(even, product, out=odd)
        np.add(even, product, out=even)
        m *= 2
    return a


def fft_radix2(x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Iterative radix-2 decimation-in-time transform along the last axis.

    The last axis must have a power-of-two length; leading axes, if any, are
    a batch of independent rows. Returns the full two-sided complex spectrum
    of every row, in the input's shape. Every operation is elementwise, so
    a row comes out bit for bit the same whatever it is batched with.
    """
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim == 0:
        raise ValueError("input must have at least one axis, got a 0-d array")
    shape = a.shape
    n = shape[-1]
    if n == 0 or n & (n - 1):
        raise ValueError(f"input length must be a power of two, got {n}")
    rows = a.reshape(-1, n)[:, _bit_reversal(n)]  # a copy: the input is not written
    return _butterflies(rows).reshape(shape)


@dataclass(frozen=True)
class Spectrum:
    """One-sided spectrum of the zero-padded current window: 513 complex bins."""

    bins: np.ndarray
    bin_hz = SAMPLE_RATE_HZ / FFT_SIZE  # a class constant, not a field

    def __post_init__(self):
        object.__setattr__(self, "bins", np.asarray(self.bins, dtype=np.complex128))
        if self.bins.size != FFT_SIZE // 2 + 1:
            raise ValueError(f"one-sided spectrum has {FFT_SIZE // 2 + 1} bins, got {self.bins.size}")


@lru_cache(maxsize=None)
def _padded_reversal() -> tuple[np.ndarray, np.ndarray]:
    """The bit-reversed positions of a 1024-point transform that hold a
    window sample, and the sample each one holds; the rest hold padding."""
    rev = _bit_reversal(FFT_SIZE)
    positions = np.flatnonzero(rev < WINDOW_SAMPLES)
    samples = rev[positions]
    positions.flags.writeable = samples.flags.writeable = False
    return positions, samples


def _padded_fft(current: np.ndarray) -> np.ndarray:
    """Two-sided 1024-point spectra of (n, 1000) current rows, zero-padded:
    fft_radix2 of the padded rows, bit for bit, with the samples written
    straight into the bit-reversed complex rows (no padded float copy and
    no second complex array)."""
    positions, samples = _padded_reversal()
    a = np.zeros((len(current), FFT_SIZE), dtype=np.complex128, order="F")
    a[:, positions] = current[:, samples]
    return _butterflies(a)


def fft_1024(current: Sequence[float] | np.ndarray) -> Spectrum:
    """Zero-pad the 1000-sample current window to 1024 and transform it."""
    current = np.asarray(current, dtype=np.float64)
    if current.size != WINDOW_SAMPLES:
        raise ValueError(f"expected exactly {WINDOW_SAMPLES} samples, got {current.size}")
    return Spectrum(bins=_padded_fft(current.reshape(1, WINDOW_SAMPLES))[0, : FFT_SIZE // 2 + 1])


# --- layouts -----------------------------------------------------------------

@dataclass(frozen=True)
class FeatureDescriptor:
    name: str
    unit: str


@dataclass(frozen=True)
class FeatureLayout:
    """Ordered description of one feature vector.

    time_domain controls the leading [P, |S|, Q] triple; harmonic_orders are
    the odd mains-harmonic orders reported afterwards, as (re, im) pairs or,
    with complex_pairs=False, as magnitudes.

    A value of the wrong type raises ValueError naming its key rather than
    being coerced, so every layout writes a file it can read back: the flags
    must be bools (1 is not True), and each order an integer, held as a
    Python int (1.0 and True are not order 1).
    """

    time_domain: bool = True
    harmonic_orders: tuple[int, ...] = DEFAULT_HARMONIC_ORDERS
    complex_pairs: bool = True

    def __post_init__(self):
        for key in ("time_domain", "complex_pairs"):
            if not isinstance(getattr(self, key), bool):
                raise ValueError(f"layout {key!r} must be a boolean, got {getattr(self, key)!r}")
        orders = self.harmonic_orders
        if not isinstance(orders, (list, tuple, range, np.ndarray)) or not all(
                map(whole_number, orders)):
            raise ValueError(f"layout 'harmonic_orders' must be a list of integers, got {orders!r}")
        orders = tuple(int(k) for k in orders)
        object.__setattr__(self, "harmonic_orders", orders)
        if any(k % 2 == 0 or k < 1 for k in orders):
            raise ValueError("harmonic orders must be odd and >= 1")
        if list(orders) != sorted(set(orders)):
            raise ValueError("harmonic orders must be strictly increasing")
        if orders and orders[-1] > 99:
            raise ValueError("harmonic orders are limited to 99 (below 5 kHz)")
        if not self.time_domain and not orders:
            raise ValueError("a layout needs at least one feature")

    def __len__(self) -> int:
        per_harmonic = 2 if self.complex_pairs else 1
        return (3 if self.time_domain else 0) + per_harmonic * len(self.harmonic_orders)

    @property
    def descriptors(self) -> tuple[FeatureDescriptor, ...]:
        out: list[FeatureDescriptor] = []
        if self.time_domain:
            out += [
                FeatureDescriptor("P", "W"),
                FeatureDescriptor("S_abs", "VA"),
                FeatureDescriptor("Q", "VAR"),
            ]
        for k in self.harmonic_orders:
            if self.complex_pairs:
                out.append(FeatureDescriptor(f"H{k}_re", "A"))
                out.append(FeatureDescriptor(f"H{k}_im", "A"))
            else:
                out.append(FeatureDescriptor(f"H{k}_mag", "A"))
        return tuple(out)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.descriptors)

    @property
    def groups(self) -> tuple[str, ...]:
        """Each column's extraction group, one of FEATURE_GROUPS: the
        time-domain triple is p, s_abs and q, and every harmonic column
        comes from the FFT."""
        time = FEATURE_GROUPS[:3] if self.time_domain else ()
        return time + FEATURE_GROUPS[3:] * (len(self) - len(time))

    def harmonic_bin(self, order: int) -> int:
        """Nearest 1024-point bin to the order-th 50 Hz harmonic."""
        return int(np.floor(50.0 * order * FFT_SIZE / SAMPLE_RATE_HZ + 0.5))

    def to_dict(self) -> dict:
        return {
            "time_domain": self.time_domain,
            "harmonic_orders": list(self.harmonic_orders),
            "complex_pairs": self.complex_pairs,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureLayout":
        """Inverse of to_dict; the constructor rejects a value of the wrong
        JSON type, naming its key."""
        return cls(d["time_domain"], d["harmonic_orders"], d["complex_pairs"])


DEFAULT_LAYOUT = FeatureLayout()

TIME_ONLY_LAYOUT = FeatureLayout(harmonic_orders=())
FREQUENCY_ONLY_LAYOUT = FeatureLayout(time_domain=False)


@dataclass(frozen=True)
class FeatureVector:
    values: np.ndarray
    layout: FeatureLayout
    window_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.size != len(self.layout):
            raise ValueError(
                f"vector length {self.values.size} does not match layout length {len(self.layout)}"
            )


# --- feature computations ----------------------------------------------------

def _blocks(v, i) -> tuple[np.ndarray, np.ndarray]:
    """Two (n, 1000) sample blocks as float64 arrays, views where they
    already are."""
    v = np.asarray(v, dtype=np.float64)
    i = np.asarray(i, dtype=np.float64)
    if v.ndim != 2 or v.shape != i.shape or v.shape[1] != WINDOW_SAMPLES:
        raise ValueError(
            f"expected two (n, {WINDOW_SAMPLES}) sample blocks, got {v.shape} and {i.shape}"
        )
    return v, i


def _mean_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """mean(a[r] * b[r]) for every row r of two (n, 1000) blocks.

    One stacked matmul of 1x1000 by 1000x1 items per EXTRACT_BLOCK rows,
    made C-contiguous first (a strided stream is never copied whole):
    numpy hands each item to the BLAS dot that np.dot of the two rows
    calls, so a row keeps the bits of its scalar definition whatever else
    the block holds."""
    out = np.empty(len(a))
    for lo in range(0, len(a), EXTRACT_BLOCK):
        x, y = (np.ascontiguousarray(m[lo:lo + EXTRACT_BLOCK]) for m in (a, b))
        out[lo:lo + EXTRACT_BLOCK] = np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]
    return out / WINDOW_SAMPLES


def _powers(v: np.ndarray, i: np.ndarray) -> np.ndarray:
    """(n, 3) rows of [P, |S|, Q] for (n, 1000) sample rows.

    P is what real_power_matrix returns; |S| is the product of the two RMS
    values; the rest is elementwise."""
    p = _mean_products(v, i)
    s = np.sqrt(_mean_products(v, v)) * np.sqrt(_mean_products(i, i))
    return np.column_stack([p, s, _reactive(p, s)])


def real_power_matrix(v, i) -> np.ndarray:
    """Real power P of each row of (n, 1000) voltage and current blocks:
    column 0 of extract_feature_matrix with a time-domain layout, bit for
    bit, without computing |S|, Q or harmonics. The rows are made
    contiguous EXTRACT_BLOCK at a time, so the row views of a strided
    stream are never copied whole."""
    return _mean_products(*_blocks(v, i))


def _reactive(p, s_abs):
    # fmax, like max(0.0, x), maps NaN (inf - inf) to 0 where np.maximum
    # would keep it; Python floats overflow silently, and so does this
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(np.fmax(0.0, s_abs * s_abs - p * p))


def real_power(w: SampleWindow) -> float:
    """Average instantaneous power over the window: mean of v[k]*i[k], in W."""
    return float(real_power_matrix(w.v[None], w.i[None])[0])


def apparent_power(w: SampleWindow) -> float:
    """|S| = V_rms * I_rms over the window, in VA."""
    return float(_powers(*_blocks(w.v[None], w.i[None]))[0, 1])


def reactive_power(p: float, s_abs: float) -> float:
    """Q = sqrt(|S|^2 - P^2), clamped at 0 when rounding pushes |P| past |S|."""
    return float(_reactive(p, s_abs))


@lru_cache(maxsize=None)
def _harmonic_bins(layout: FeatureLayout) -> np.ndarray:
    bins = np.array([layout.harmonic_bin(k) for k in layout.harmonic_orders], dtype=np.intp)
    bins.flags.writeable = False
    return bins


def _pick_harmonics(spectra: np.ndarray, layout: FeatureLayout) -> np.ndarray:
    """Harmonic columns per the layout from rows of FFT bins, scaled by 2/1000.

    Magnitudes are np.hypot of the parts: np.abs of a complex array may
    differ in the last bit from abs() of one complex scalar, hypot does not."""
    c = spectra[:, _harmonic_bins(layout)] * HARMONIC_SCALE
    if not layout.complex_pairs:
        return np.hypot(c.real, c.imag)
    out = np.empty((len(c), 2 * c.shape[1]))
    out[:, 0::2] = c.real
    out[:, 1::2] = c.imag
    return out


def extract_feature_matrix(v, i, layout: FeatureLayout = DEFAULT_LAYOUT) -> np.ndarray:
    """Feature rows of a block of windows: (n, 1000) voltage and current
    samples in, (n, len(layout)) features out, in layout order.

    This is the only feature arithmetic (real_power_matrix is its column
    P); a row depends neither on the other rows of its block nor on the
    block's memory layout."""
    v, i = _blocks(v, i)
    out = np.empty((len(v), len(layout)))
    if layout.time_domain:
        out[:, :3] = _powers(v, i)
    if layout.harmonic_orders:
        out[:, 3 if layout.time_domain else 0:] = _pick_harmonics(_padded_fft(i), layout)
    return out


def extract_features(w: SampleWindow, layout: FeatureLayout = DEFAULT_LAYOUT) -> FeatureVector:
    """Assemble the per-window feature vector in layout order."""
    values = extract_feature_matrix(w.v[None], w.i[None], layout)[0]
    return FeatureVector(values=values, layout=layout, window_index=w.index)


def window_features(v, i, windows: Sequence[int],
                    layout: FeatureLayout = DEFAULT_LAYOUT) -> np.ndarray:
    """Feature rows of the listed windows, in list order, from (n, 1000)
    voltage and current rows such as window_rows gives: the rows are
    gathered EXTRACT_BLOCK at a time, one extract_feature_matrix call each.
    A window outside 0 .. n-1 raises ValueError; numpy would wrap a
    negative one."""
    if len(windows) and not 0 <= min(windows) <= max(windows) < len(v):
        raise ValueError(f"windows {min(windows)} .. {max(windows)} are not all in 0 .. {len(v) - 1}")
    out = np.empty((len(windows), len(layout)))
    for lo in range(0, len(windows), EXTRACT_BLOCK):
        k = windows[lo:lo + EXTRACT_BLOCK]
        out[lo:lo + len(k)] = extract_feature_matrix(v[k], i[k], layout)
    return out


def feature_matrix(stream: SampleStream, layout: FeatureLayout = DEFAULT_LAYOUT) -> np.ndarray:
    """(windows, len(layout)) feature rows of a 10 kHz stream, row j from
    window j."""
    v, i = window_rows(stream)
    return window_features(v, i, range(len(v)), layout)


def write_features_csv(path, matrix: np.ndarray, window_indices: Sequence[int],
                       layout: FeatureLayout = DEFAULT_LAYOUT) -> None:
    """One row per window: window_index followed by the layout's features."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("window_index," + ",".join(layout.names) + "\n")
        for j, row in zip(window_indices, matrix):
            fh.write(str(int(j)) + "," + ",".join(repr(float(x)) for x in row) + "\n")
