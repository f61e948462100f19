import struct

import numpy as np
import pytest

from nilmedge.sampleio import SampleParseError, load_samples, save_samples
from nilmedge.signals import SampleStream


def random_stream(rng, n=10_000):
    return SampleStream(v=rng.normal(0, 300, size=n), i=rng.normal(0, 5, size=n))


def test_binary_round_trip_is_bit_exact(tmp_path, rng):
    s = random_stream(rng)
    path = tmp_path / "s.bin"
    save_samples(s, path, format="bin")
    out = load_samples(path)
    assert out.rate_hz == s.rate_hz
    assert np.array_equal(out.v, s.v)
    assert np.array_equal(out.i, s.i)


def test_csv_round_trip_keeps_nine_significant_digits(tmp_path, rng):
    s = random_stream(rng, n=500)
    path = tmp_path / "s.csv"
    save_samples(s, path, format="csv")
    out = load_samples(path, format="csv")
    assert out.rate_hz == s.rate_hz
    np.testing.assert_allclose(out.v, s.v, rtol=1e-8, atol=1e-300)
    np.testing.assert_allclose(out.i, s.i, rtol=1e-8, atol=1e-300)


def test_empty_file_with_header_loads_empty_stream(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("t_s,v,i\n")
    out = load_samples(path, format="csv")
    assert len(out) == 0


def test_non_numeric_cell_names_its_line(tmp_path):
    rows = ["t_s,v,i"] + [f"{k/10000},1.0,2.0" for k in range(20)]
    rows[16] = "0.0015,oops,2.0"  # line 17 of the file
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(SampleParseError) as err:
        load_samples(path, format="csv")
    assert err.value.line_no == 17
    assert "17" in str(err.value)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("time,volts,amps\n0,1,2\n")
    with pytest.raises(SampleParseError):
        load_samples(path, format="csv")


def test_truncated_binary_rejected(tmp_path, rng):
    s = random_stream(rng, n=100)
    path = tmp_path / "t.bin"
    save_samples(s, path, format="bin")
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(SampleParseError):
        load_samples(path)


def test_format_sniffing(tmp_path, rng):
    s = random_stream(rng, n=50)
    for fmt in ("csv", "bin"):
        path = tmp_path / f"x.{fmt}"
        save_samples(s, path, format=fmt)
        out = load_samples(path)  # no format given
        assert len(out) == 50


def test_csv_rate_recovered(tmp_path, rng):
    s = SampleStream(v=rng.normal(size=300), i=rng.normal(size=300), rate_hz=10000)
    path = tmp_path / "r.csv"
    save_samples(s, path, format="csv")
    assert load_samples(path).rate_hz == 10000


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_csv_value_names_its_line(tmp_path, cell):
    rows = ["t_s,v,i"] + [f"{k/10000},1.0,2.0" for k in range(20)]
    rows[5] = f"0.0004,1.0,{cell}"  # line 6 of the file
    path = tmp_path / "nan.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(SampleParseError) as err:
        load_samples(path, format="csv")
    assert err.value.line_no == 6
    assert "6" in str(err.value)


def test_nan_time_stamp_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t_s,v,i\n0,1.0,2.0\nnan,1.0,2.0\n")
    with pytest.raises(SampleParseError) as err:
        load_samples(path, format="csv")
    assert err.value.line_no == 3


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_binary_sample_names_its_index(tmp_path, rng, value):
    s = random_stream(rng, n=100)
    s.i[73] = value
    s.v[90] = value
    path = tmp_path / "nan.bin"
    save_samples(s, path, format="bin")
    with pytest.raises(SampleParseError, match="sample 73 "):
        load_samples(path)


@pytest.mark.parametrize("rate", [0.0, -5.0, 1e30, 10000.5, np.nan, np.inf, 44100.0])
def test_binary_header_rate_must_be_a_chain_rate(tmp_path, rate):
    path = tmp_path / "rate.bin"
    path.write_bytes(b"NILM1" + struct.pack("<Id", 2, rate) + np.zeros(4).tobytes())
    with pytest.raises(SampleParseError, match="header rate"):
        load_samples(path)


@pytest.mark.parametrize("rate", [10_000, 20_000])
def test_binary_header_chain_rates_load(tmp_path, rng, rate):
    s = SampleStream(v=rng.normal(size=8), i=rng.normal(size=8), rate_hz=rate)
    path = tmp_path / "ok.bin"
    save_samples(s, path, format="bin")
    out = load_samples(path)
    assert out.rate_hz == rate and type(out.rate_hz) is int


def test_non_utf8_csv_byte_names_its_line(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"t_s,v,i\n0,1.0,2.0\n0.0001,1.\xb50,2.0\n")
    with pytest.raises(SampleParseError) as err:
        load_samples(path, format="csv")
    assert err.value.line_no == 3


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_fuzzed_sample_files_raise_only_parse_errors(tmp_path, fmt):
    """Truncations and one-bit flips of a saved 50-sample stream, loaded both
    with the format named and sniffed. A mutant that still parses (a flipped
    digit or mantissa bit) may load; anything else is a SampleParseError."""
    rng = np.random.default_rng(0)
    path = tmp_path / f"s.{fmt}"
    save_samples(random_stream(rng, n=50), path, format=fmt)
    blob = path.read_bytes()
    mutants = [blob[:cut] for cut in rng.integers(0, len(blob), size=200)]
    for bit in rng.integers(0, 8 * len(blob), size=1500):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << int(bit % 8)
        mutants.append(bytes(flipped))
    for mutant in mutants:
        path.write_bytes(mutant)
        for named in (fmt, None):
            try:
                load_samples(path, format=named)
            except SampleParseError:
                pass


@pytest.mark.parametrize("t1, rate", [("0.001", "1000 Hz"), ("1e-300", "1e\\+300 Hz"),
                                      ("1e-320", "inf Hz"), ("0.0002", "5000 Hz")])
def test_csv_inferred_rate_must_be_a_chain_rate(tmp_path, t1, rate):
    path = tmp_path / "rate.csv"
    path.write_text(f"t_s,v,i\n0,1.0,2.0\n{t1},1.0,2.0\n")
    with pytest.raises(SampleParseError, match=f"rate of {rate}"):
        load_samples(path, format="csv")


@pytest.mark.parametrize("rate", [10_000, 20_000])
def test_csv_chain_rates_load(tmp_path, rng, rate):
    s = SampleStream(v=rng.normal(size=2000), i=rng.normal(size=2000), rate_hz=rate)
    path = tmp_path / "ok.csv"
    save_samples(s, path, format="csv")
    out = load_samples(path)
    assert out.rate_hz == rate and type(out.rate_hz) is int
