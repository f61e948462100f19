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
then one fancy index into the cached bin list of the layout. Streams are
cut into row blocks by `signals.window_blocks`, EXTRACT_BLOCK windows at a
time. The event core takes only `real_power_matrix` (no |S|, Q or FFT)
from each block, for the real-power track, and the full layout only for
the rows a result reads: the six windows of a differential vector in one
call, or the one window of a single-mode label. `window_dataset` and
`nilmedge extract` extract whole blocks. `extract_features` is the
one-row call, and `feature_matrix` stacks a sequence of window objects
into it. A row comes out bit for bit the same in any block, with any rows
beside it and in any memory layout: blocks are made C-contiguous first,
so each product of a row is one BLAS dot of two contiguous 1000-sample
rows (a strided dot sums in another order); the butterflies are
elementwise; and magnitudes are np.hypot of the real and imaginary parts,
which equals abs() of one complex scalar where np.abs of a complex array
can differ in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .signals import SAMPLE_RATE_HZ, WINDOW_SAMPLES, SampleWindow

FFT_SIZE = 1024
HARMONIC_SCALE = 2.0 / WINDOW_SAMPLES
DEFAULT_HARMONIC_ORDERS = tuple(range(1, 100, 2))  # 1, 3, ..., 99
# windows per extract_feature_matrix call on a stream: host time per window
# fell from about 225 us one at a time to about 60 us at 16-32 and rose
# again at 64, where the complex working set no longer stays in cache
EXTRACT_BLOCK = 32


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


def fft_radix2(x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Iterative radix-2 decimation-in-time transform along the last axis.

    The last axis must have a power-of-two length; leading axes, if any, are
    a batch of independent rows. Returns the full two-sided complex spectrum
    of every row, in the input's shape. Each butterfly stage reads one
    buffer and writes the other; every operation is elementwise, so a row
    comes out bit for bit the same whatever it is batched with.
    """
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim == 0:
        raise ValueError("input must have at least one axis, got a 0-d array")
    shape = a.shape
    n = shape[-1]
    if n == 0 or n & (n - 1):
        raise ValueError(f"input length must be a power of two, got {n}")
    a = a.reshape(-1, n)[:, _bit_reversal(n)]
    b = np.empty_like(a)
    m = 2
    while m <= n:
        half = m // 2
        src = a.reshape(len(a), n // m, m)
        dst = b.reshape(len(a), n // m, m)
        even = src[..., :half]
        odd = src[..., half:] * _twiddles(m)
        np.add(even, odd, out=dst[..., :half])
        np.subtract(even, odd, out=dst[..., half:])
        a, b = b, a
        m *= 2
    return a.reshape(shape)


def dft_direct(x: Sequence[float] | np.ndarray) -> np.ndarray:
    """O(N^2) discrete Fourier transform straight from the definition.

    Kept as a slow reference implementation; tests use it as the oracle for
    the radix-2 path."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    k = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return basis @ x


@dataclass(frozen=True)
class Spectrum:
    """One-sided spectrum of the zero-padded current window: 513 complex bins."""

    bins: np.ndarray
    bin_hz: float = SAMPLE_RATE_HZ / FFT_SIZE

    def __post_init__(self):
        object.__setattr__(self, "bins", np.asarray(self.bins, dtype=np.complex128))
        if self.bins.size != FFT_SIZE // 2 + 1:
            raise ValueError(f"one-sided spectrum has {FFT_SIZE // 2 + 1} bins, got {self.bins.size}")


def _padded_fft(current: np.ndarray) -> np.ndarray:
    """Two-sided 1024-point spectra of (n, 1000) current rows, zero-padded."""
    padded = np.zeros((len(current), FFT_SIZE))
    padded[:, :WINDOW_SAMPLES] = current
    return fft_radix2(padded)


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
    """

    time_domain: bool = True
    harmonic_orders: tuple[int, ...] = DEFAULT_HARMONIC_ORDERS
    complex_pairs: bool = True

    def __post_init__(self):
        object.__setattr__(self, "harmonic_orders", tuple(self.harmonic_orders))
        orders = self.harmonic_orders
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
        """Inverse of to_dict. A value of the wrong JSON type raises
        ValueError naming its key rather than being coerced: "false" is not
        False, and 1.9 is not order 1."""
        for key in ("time_domain", "complex_pairs"):
            if not isinstance(d[key], bool):
                raise ValueError(f"layout {key!r} must be a JSON boolean, got {d[key]!r}")
        orders = d["harmonic_orders"]
        if not isinstance(orders, list) or any(type(k) is not int for k in orders):
            raise ValueError(f"layout 'harmonic_orders' must be a list of integers, got {orders!r}")
        return cls(
            time_domain=d["time_domain"],
            harmonic_orders=tuple(orders),
            complex_pairs=d["complex_pairs"],
        )


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
    """Two (n, 1000) sample blocks as C-contiguous float64 arrays."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    i = np.ascontiguousarray(i, dtype=np.float64)
    if v.ndim != 2 or v.shape != i.shape or v.shape[1] != WINDOW_SAMPLES:
        raise ValueError(
            f"expected two (n, {WINDOW_SAMPLES}) sample blocks, got {v.shape} and {i.shape}"
        )
    return v, i


def _mean_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """mean(a[r] * b[r]) for every row r of two C-contiguous (n, 1000) blocks.

    One stacked matmul of 1x1000 by 1000x1 items: numpy hands each item to
    the BLAS dot that np.dot of the two rows calls, so a row keeps the bits
    of its scalar definition whatever else the block holds."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0] / WINDOW_SAMPLES


def _powers(v: np.ndarray, i: np.ndarray) -> np.ndarray:
    """(n, 3) rows of [P, |S|, Q] for C-contiguous (n, 1000) sample rows.

    P is what real_power_matrix returns; |S| is the product of the two RMS
    values; the rest is elementwise."""
    p = _mean_products(v, i)
    s = np.sqrt(_mean_products(v, v)) * np.sqrt(_mean_products(i, i))
    return np.column_stack([p, s, _reactive(p, s)])


def real_power_matrix(v, i) -> np.ndarray:
    """Real power P of each row of (n, 1000) voltage and current blocks:
    column 0 of extract_feature_matrix with a time-domain layout, bit for
    bit, without computing |S|, Q or harmonics."""
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


def extract_harmonics(spec: Spectrum, layout: FeatureLayout = DEFAULT_LAYOUT) -> np.ndarray:
    """Harmonic components per the layout, scaled by 2/1000."""
    return _pick_harmonics(spec.bins[None], layout)[0]


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


def feature_matrix(windows: Iterable[SampleWindow], layout: FeatureLayout = DEFAULT_LAYOUT):
    """Feature rows of the windows, in order; returns (matrix, window indices).

    The windows are stacked EXTRACT_BLOCK at a time into
    extract_feature_matrix calls."""
    windows = list(windows)
    blocks = [windows[k : k + EXTRACT_BLOCK] for k in range(0, len(windows), EXTRACT_BLOCK)]
    rows = [extract_feature_matrix(np.stack([w.v for w in b]), np.stack([w.i for w in b]), layout)
            for b in blocks]
    return np.vstack(rows or [np.empty((0, len(layout)))]), [w.index for w in windows]


def write_features_csv(path, matrix: np.ndarray, window_indices: Sequence[int],
                       layout: FeatureLayout = DEFAULT_LAYOUT) -> None:
    """One row per window: window_index followed by the layout's features."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("window_index," + ",".join(layout.names) + "\n")
        for j, row in zip(window_indices, matrix):
            fh.write(str(int(j)) + "," + ",".join(repr(float(x)) for x in row) + "\n")
