import numpy as np
import pytest

from helpers import apparent_power_oracle, real_power_oracle
from nilmedge.features import (
    DEFAULT_LAYOUT,
    FREQUENCY_ONLY_LAYOUT,
    TIME_ONLY_LAYOUT,
    FeatureLayout,
    FeatureVector,
    Spectrum,
    apparent_power,
    dft_direct,
    extract_features,
    extract_harmonics,
    fft_1024,
    fft_radix2,
    feature_matrix,
    real_power,
    reactive_power,
    write_features_csv,
)
from nilmedge.signals import SampleWindow

FS = 10000


def tone(freq, amp=1.0, phase=0.0, n=1000):
    return amp * np.sin(2 * np.pi * freq * np.arange(n) / FS + phase)


def window(v, i):
    return SampleWindow(v=v, i=i)


class TestPowers:
    def test_unit_constants(self):
        w = window(np.ones(1000), np.ones(1000))
        assert real_power(w) == 1.0
        assert apparent_power(w) == 1.0

    def test_in_phase_sinusoids(self):
        w = window(tone(50, 10.0), tone(50, 2.0))
        assert abs(real_power(w) - 10.0) <= 1e-9 * 10.0

    def test_quadrature_orthogonality(self):
        w = window(tone(50, 10.0), tone(50, 2.0, phase=np.pi / 2))
        assert abs(real_power(w)) <= 1e-9 * 20.0

    def test_apparent_power_phase_independent(self):
        for phase in np.linspace(0, np.pi, 7):
            w = window(tone(50, 8.0), tone(50, 3.0, phase=phase))
            assert abs(apparent_power(w) - 12.0) <= 1e-9 * 12.0

    def test_zero_current(self):
        w = window(tone(50, 5.0), np.zeros(1000))
        assert apparent_power(w) == 0.0

    def test_matches_scalar_oracles(self, rng):
        v = rng.normal(size=1000)
        i = rng.normal(size=1000)
        w = window(v, i)
        assert np.isclose(real_power(w), real_power_oracle(v, i), rtol=1e-12)
        assert np.isclose(apparent_power(w), apparent_power_oracle(v, i), rtol=1e-12)

    def test_reactive_power_triple(self):
        assert reactive_power(3.0, 5.0) == 4.0

    def test_reactive_power_zero_when_equal(self):
        assert reactive_power(5.0, 5.0) == 0.0

    def test_reactive_power_clamps(self):
        assert reactive_power(5.000001, 5.0) == 0.0

    def test_power_triangle_on_random_windows(self, rng):
        for _ in range(20):
            v = rng.normal(size=1000)
            i = rng.normal(size=1000)
            w = window(v, i)
            p, s = real_power(w), apparent_power(w)
            assert s * s >= p * p - 1e-9 * s * s
            q = reactive_power(p, s)
            assert np.isclose(q * q + p * p, s * s, rtol=1e-9)


class TestFft:
    def test_all_zero_input(self):
        spec = fft_1024(np.zeros(1000))
        assert np.all(spec.bins == 0)

    def test_unit_impulse(self):
        x = np.zeros(1000)
        x[0] = 1.0
        spec = fft_1024(x)
        np.testing.assert_allclose(spec.bins, np.ones(513), rtol=0, atol=1e-15)

    def test_matches_direct_dft(self, rng):
        for _ in range(5):
            x = rng.normal(size=1000)
            padded = np.concatenate([x, np.zeros(24)])
            got = fft_radix2(padded)
            want = dft_direct(padded)
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= 1e-9 * scale

    def test_one_sided_bin_count_and_width(self, rng):
        spec = fft_1024(rng.normal(size=1000))
        assert spec.bins.size == 513
        assert np.isclose(spec.bin_hz, 10000 / 1024)

    def test_dc_and_nyquist_bins_are_real(self, rng):
        spec = fft_1024(rng.normal(size=1000))
        assert spec.bins[0].imag == 0.0
        assert spec.bins[512].imag == 0.0

    def test_linearity(self, rng):
        x = rng.normal(size=1024)
        y = rng.normal(size=1024)
        lhs = fft_radix2(2.5 * x - 1.5 * y)
        rhs = 2.5 * fft_radix2(x) - 1.5 * fft_radix2(y)
        assert np.abs(lhs - rhs).max() <= 1e-9 * np.abs(rhs).max()

    def test_parseval_on_zero_padded_input(self, rng):
        x = np.concatenate([rng.normal(size=1000), np.zeros(24)])
        spectrum = fft_radix2(x)
        time_energy = np.sum(x * x)
        freq_energy = np.sum(np.abs(spectrum) ** 2) / 1024
        assert np.isclose(time_energy, freq_energy, rtol=1e-9)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            fft_1024(np.zeros(1024))
        with pytest.raises(ValueError):
            fft_radix2(np.zeros(1000))


class TestHarmonics:
    def test_zero_spectrum(self):
        h = extract_harmonics(Spectrum(bins=np.zeros(513, dtype=complex)))
        assert h.size == 100
        assert np.all(h == 0)

    def test_bin_aligned_tone_matches_dft_oracle(self):
        # a 48.828125 Hz tone sits exactly on bin 5 of the padded grid, but
        # its negative-frequency image still leaks through the 1000-sample
        # rectangular frame: the oracle magnitude is 1.0158765...*A, not A
        amp = 3.7
        x = tone(5 * FS / 1024, amp)
        h = extract_harmonics(fft_1024(x))
        got = abs(complex(h[0], h[1]))
        padded = np.concatenate([x, np.zeros(24)])
        oracle = abs(dft_direct(padded)[5]) * 2 / 1000
        assert abs(got - oracle) <= 1e-6 * oracle
        assert np.isclose(oracle / amp, 1.0158765254957351, rtol=1e-9)

    def test_50hz_tone_magnitude_within_leakage_bound(self):
        amp = 2.0
        h = extract_harmonics(fft_1024(tone(50, amp)))
        mag = abs(complex(h[0], h[1]))
        assert 0.85 * amp <= mag <= amp
        padded = np.concatenate([tone(50, amp), np.zeros(24)])
        oracle = abs(dft_direct(padded)[5]) * 2 / 1000
        assert np.isclose(mag, oracle, rtol=1e-9)

    def test_harmonic_bins_are_nearest(self):
        lay = DEFAULT_LAYOUT
        for order in lay.harmonic_orders:
            assert lay.harmonic_bin(order) == round(50 * order * 1024 / 10000)
        assert lay.harmonic_bin(1) == 5
        assert lay.harmonic_bin(99) == 507

    def test_magnitude_mode(self):
        lay = FeatureLayout(complex_pairs=False)
        x = tone(5 * FS / 1024, 1.0)
        h = extract_harmonics(fft_1024(x), lay)
        assert h.size == 50
        pairs = extract_harmonics(fft_1024(x), DEFAULT_LAYOUT)
        assert np.isclose(h[0], abs(complex(pairs[0], pairs[1])), rtol=1e-12)


class TestLayouts:
    def test_default_length_is_103(self):
        assert len(DEFAULT_LAYOUT) == 103
        assert len(DEFAULT_LAYOUT.descriptors) == 103

    def test_names_and_units(self):
        d = DEFAULT_LAYOUT.descriptors
        assert [x.name for x in d[:5]] == ["P", "S_abs", "Q", "H1_re", "H1_im"]
        assert [x.unit for x in d[:5]] == ["W", "VA", "VAR", "A", "A"]
        assert d[-1].name == "H99_im"

    def test_variants(self):
        assert len(TIME_ONLY_LAYOUT) == 3
        assert len(FREQUENCY_ONLY_LAYOUT) == 100
        assert len(FeatureLayout(complex_pairs=False)) == 53

    def test_invalid_layouts_rejected(self):
        with pytest.raises(ValueError):
            FeatureLayout(harmonic_orders=(2,))
        with pytest.raises(ValueError):
            FeatureLayout(harmonic_orders=(3, 1))
        with pytest.raises(ValueError):
            FeatureLayout(harmonic_orders=(101,))
        with pytest.raises(ValueError):
            FeatureLayout(time_domain=False, harmonic_orders=())

    def test_layout_dict_round_trip(self):
        lay = FeatureLayout(time_domain=False, harmonic_orders=(1, 5, 9))
        assert FeatureLayout.from_dict(lay.to_dict()) == lay


class TestExtract:
    def test_zero_window_gives_zero_vector(self):
        fv = extract_features(window(np.zeros(1000), np.zeros(1000)))
        assert np.all(fv.values == 0)
        assert fv.values.size == 103

    def test_resistive_window_structure(self):
        v = tone(50, 325.0)
        i = v * (100.0 / 230.0**2)
        fv = extract_features(window(v, i)).values
        p, s, q = fv[:3]
        assert abs(p - s) <= 1e-9 * s
        assert q <= 0.01 * s
        h_mags = np.hypot(fv[3::2], fv[4::2])
        assert np.argmax(h_mags) == 0  # fundamental dominates

    def test_pure_function(self, rng):
        w = window(rng.normal(size=1000), rng.normal(size=1000))
        a = extract_features(w).values
        b = extract_features(w).values
        assert np.array_equal(a, b)

    def test_current_scaling_scales_all_features(self, rng):
        v = tone(50, 325.0)
        i = rng.normal(size=1000)
        base = extract_features(window(v, i)).values
        scaled = extract_features(window(v, 2.0 * i)).values
        np.testing.assert_allclose(scaled, 2.0 * base, rtol=1e-9, atol=1e-12)

    def test_window_index_carried(self, rng):
        w = SampleWindow(v=rng.normal(size=1000), i=rng.normal(size=1000), index=17)
        assert extract_features(w).window_index == 17

    def test_vector_layout_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FeatureVector(values=np.zeros(4), layout=DEFAULT_LAYOUT)


def test_feature_csv_export(tmp_path, rng):
    w0 = SampleWindow(v=rng.normal(size=1000), i=rng.normal(size=1000), index=0)
    w1 = SampleWindow(v=rng.normal(size=1000), i=rng.normal(size=1000), index=1)
    matrix, idx = feature_matrix([w0, w1])
    path = tmp_path / "f.csv"
    write_features_csv(path, matrix, idx)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "window_index" and len(header) == 104
    assert len(lines) == 3
    row = [float(c) for c in lines[1].split(",")]
    np.testing.assert_allclose(row[1:], matrix[0], rtol=0)
