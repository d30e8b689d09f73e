"""Synthetic mixtures, metrics, the radix-2 transform, and WAV round-trips."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gse.audio import (
    MixSpec,
    Signal,
    fft_radix2,
    log_magnitude_frames,
    lsd,
    read_wav,
    sdr_db,
    synthesize_pair,
    write_wav,
)
from gse.errors import ConfigError, DimensionError, DomainError, WavFormatError
from gse.sde import make_rng


class TestSignal:
    def test_duration(self):
        assert Signal(np.zeros(8000), 16000).duration_s == 0.5

    def test_validation(self):
        with pytest.raises(DimensionError):
            Signal(np.zeros((2, 4)), 16000)
        with pytest.raises(DimensionError):
            Signal(np.zeros(0), 16000)
        with pytest.raises(ConfigError):
            Signal(np.zeros(4), 0)
        with pytest.raises(DomainError):
            Signal(np.array([0.0, np.nan]), 16000)


class TestMixSpec:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_duration_rejected(self, value):
        with pytest.raises(ConfigError, match="duration_s must be finite"):
            MixSpec(duration_s=value)

    @pytest.mark.parametrize("duration_s", [1e305, 1e300, 6e14])
    def test_duration_no_array_can_hold_rejected(self, duration_s):
        with pytest.raises(ConfigError, match="duration_s = .* more than an array can hold"):
            MixSpec(duration_s=duration_s)

    @pytest.mark.parametrize("rate, got", [(10**400, "a 401-digit number"), (0, "0")],
                             ids=["401-digits", "zero"])
    def test_sample_rate_outside_one_to_the_largest_float_rejected(self, rate, got):
        with pytest.raises(ConfigError, match=f"sample_rate must be in .*, got {got}$"):
            MixSpec(sample_rate=rate)

    @pytest.mark.parametrize("snr_db", [1e300, -1e300])
    def test_snr_past_the_float_range_is_a_config_error(self, snr_db):
        """10^(snr/10) overflows, or underflows to a zero divisor: not a traceback."""
        with pytest.raises(ConfigError, match="snr_db = .* past a float"):
            synthesize_pair(MixSpec(snr_db=snr_db))

    def test_defaults_and_sample_count(self):
        spec = MixSpec()
        assert spec.n_samples == 4000
        assert MixSpec(duration_s=0.1, sample_rate=8000).n_samples == 800

    def test_validation(self):
        with pytest.raises(ConfigError, match=re.escape(
                "clean_kind must be one of ('sinusoid-sum', 'ar-process', 'gaussian-toy'), "
                "got 'speech'")):
            MixSpec(clean_kind="speech")
        with pytest.raises(ConfigError, match=re.escape(
                "noise_kind must be one of ('white', 'pink'), got 'brown'")):
            MixSpec(noise_kind="brown")
        with pytest.raises(ConfigError):
            MixSpec(duration_s=0.0)
        with pytest.raises(ConfigError):
            MixSpec(snr_db=float("nan"))
        with pytest.raises(ConfigError):
            MixSpec(sample_rate=0)

    def test_file_round_trip(self, tmp_path):
        spec = MixSpec(clean_kind="ar-process", noise_kind="pink", snr_db=-3.5,
                       duration_s=0.5, seed=77, sample_rate=8000)
        path = tmp_path / "mix.cfg"
        spec.to_file(path)
        assert MixSpec.from_file(path) == spec

    def test_file_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "mix.cfg"
        path.write_text("# a recipe\n\nsnr_db = 10  # decibels\nseed = 3\n")
        spec = MixSpec.from_file(path)
        assert spec.snr_db == 10.0 and spec.seed == 3

    def test_file_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "mix.cfg"
        path.write_text("seed = 1\nnot a setting\n")
        with pytest.raises(ConfigError, match=":2:"):
            MixSpec.from_file(path)
        path.write_text("seed = 1\nwhatever = 2\n")
        with pytest.raises(ConfigError, match="unknown key"):
            MixSpec.from_file(path)
        path.write_text("seed = one\n")
        with pytest.raises(ConfigError, match=":1:"):
            MixSpec.from_file(path)


class TestSynthesis:
    @pytest.mark.parametrize("clean_kind", ["sinusoid-sum", "ar-process", "gaussian-toy"])
    @pytest.mark.parametrize("noise_kind", ["white", "pink"])
    def test_requested_snr_hit_exactly(self, clean_kind, noise_kind):
        spec = MixSpec(clean_kind=clean_kind, noise_kind=noise_kind, snr_db=5.0, seed=11)
        clean, noisy = synthesize_pair(spec)
        noise = noisy.samples - clean.samples
        measured = 10.0 * math.log10(
            float(np.sum(clean.samples**2)) / float(np.sum(noise**2))
        )
        assert measured == pytest.approx(5.0, abs=1e-9)

    def test_infinite_snr_returns_clean_copy(self):
        clean, noisy = synthesize_pair(MixSpec(snr_db=float("inf"), seed=2))
        np.testing.assert_array_equal(clean.samples, noisy.samples)
        assert noisy.samples is not clean.samples

    def test_deterministic_given_seed(self):
        a_clean, a_noisy = synthesize_pair(MixSpec(seed=5))
        b_clean, b_noisy = synthesize_pair(MixSpec(seed=5))
        c_clean, _ = synthesize_pair(MixSpec(seed=6))
        np.testing.assert_array_equal(a_clean.samples, b_clean.samples)
        np.testing.assert_array_equal(a_noisy.samples, b_noisy.samples)
        assert not np.array_equal(a_clean.samples, c_clean.samples)

    def test_seed_must_be_an_int(self):
        with pytest.raises(ConfigError, match="seed must be an int, got 1.5"):
            synthesize_pair(MixSpec(seed=1.5))

    def test_shapes_and_rates(self):
        spec = MixSpec(duration_s=0.1, sample_rate=8000, seed=1)
        clean, noisy = synthesize_pair(spec)
        assert clean.samples.shape == noisy.samples.shape == (800,)
        assert clean.sample_rate == noisy.sample_rate == 8000

    def test_sinusoid_peak_headroom(self):
        clean, _ = synthesize_pair(MixSpec(seed=9, snr_db=float("inf")))
        assert float(np.max(np.abs(clean.samples))) == pytest.approx(0.6)


class TestSdr:
    def test_exact_match_caps_high(self):
        x = make_rng(0).normal(size=256)
        assert sdr_db(x, x.copy()) == 120.0

    def test_known_ratio(self):
        ref = np.zeros(100)
        ref[0] = 2.0  # power 4
        est = ref.copy()
        est[1] = 0.2  # error power 0.04
        assert sdr_db(ref, est) == pytest.approx(20.0)

    def test_caps_low(self):
        ref = np.ones(4)
        est = ref + 1e8
        assert sdr_db(ref, est) == -120.0

    def test_infinite_estimate_caps_low(self):
        assert sdr_db(np.ones(4), np.full(4, np.inf)) == -120.0

    def test_zero_reference_rejected(self):
        with pytest.raises(DomainError):
            sdr_db(np.zeros(8), np.ones(8))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            sdr_db(np.zeros(8), np.zeros(9))


class TestFft:
    @pytest.mark.parametrize("n", [1, 2, 8, 64, 512])
    def test_matches_reference_transform(self, n):
        x = make_rng(n).normal(size=n) + 1j * make_rng(n + 1).normal(size=n)
        np.testing.assert_allclose(fft_radix2(x), np.fft.fft(x), rtol=1e-10, atol=1e-10)

    def test_batched_last_axis(self):
        x = make_rng(3).normal(size=(5, 3, 16))
        np.testing.assert_allclose(fft_radix2(x), np.fft.fft(x, axis=-1), rtol=1e-10,
                                   atol=1e-10)

    @pytest.mark.parametrize("n", [0, 3, 12, 100])
    def test_non_power_of_two_rejected(self, n):
        with pytest.raises(DimensionError):
            fft_radix2(np.zeros(n))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([4, 32, 128]))
    def test_parseval(self, seed, n):
        x = make_rng(seed).normal(size=n)
        spec = fft_radix2(x)
        assert float(np.sum(np.abs(spec) ** 2)) / n == pytest.approx(float(np.sum(x**2)))


class TestSpectralDistance:
    def test_identity_is_zero(self):
        x = make_rng(1).normal(size=2048)
        assert lsd(x, x.copy()) == 0.0

    def test_symmetry(self):
        rng = make_rng(2)
        a, b = rng.normal(size=(2, 2048))
        assert lsd(a, b) == pytest.approx(lsd(b, a))

    def test_uniform_gain_gap_in_decibels(self):
        x = make_rng(3).normal(size=4096)
        assert lsd(x, 2.0 * x) == pytest.approx(20.0 * math.log10(2.0), rel=1e-6)

    def test_frame_layout(self):
        frames = log_magnitude_frames(make_rng(4).normal(size=1600))
        assert frames.shape == (5, 257)

    def test_too_short_signal_rejected(self):
        with pytest.raises(DomainError):
            log_magnitude_frames(np.zeros(100))


def _wav_bytes(audio_format=1, channels=1, rate=16000, bits=16, payload=b"\x00\x00",
               leading_chunk=b"", data_header=True):
    fmt_body = struct.pack(
        "<HHIIHH", audio_format, channels, rate,
        rate * channels * bits // 8, channels * bits // 8, bits,
    )
    chunks = leading_chunk
    chunks += b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    if data_header:
        chunks += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


@st.composite
def _mangled_wav(draw):
    """A WAV built from fuzzed header fields, then with bytes overwritten and cut."""
    blob = bytearray(draw(st.builds(
        _wav_bytes,
        audio_format=st.integers(0, 3),
        channels=st.integers(0, 3),
        rate=st.integers(0, 2**24),
        bits=st.sampled_from([0, 8, 16, 24]),
        payload=st.binary(max_size=12),
        data_header=st.booleans(),
    )))
    for _ in range(draw(st.integers(0, 3))):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    return bytes(blob[: draw(st.integers(0, len(blob)))])


class TestWavIo:
    def test_round_trip_within_quantization_error(self, tmp_path):
        x = 0.8 * np.sin(2 * math.pi * 440 * np.arange(1600) / 16000)
        path = tmp_path / "t.wav"
        write_wav(path, Signal(x, 16000))
        back = read_wav(path)
        assert back.sample_rate == 16000
        np.testing.assert_allclose(back.samples, x, atol=0.5 / 32767 + 1e-12)

    def test_out_of_range_samples_clip(self, tmp_path):
        path = tmp_path / "c.wav"
        write_wav(path, Signal(np.array([1.5, -2.0, 0.0]), 8000))
        back = read_wav(path)
        assert back.samples[0] == pytest.approx(1.0)
        assert back.samples[1] == pytest.approx(-32768 / 32767)
        assert back.samples[2] == 0.0

    def test_skips_unknown_chunks_with_word_alignment(self, tmp_path):
        # a 3-byte odd chunk must be padded to 4 when walking to fmt/data
        junk = b"JUNK" + struct.pack("<I", 3) + b"abc" + b"\x00"
        path = tmp_path / "j.wav"
        path.write_bytes(_wav_bytes(payload=b"\x01\x00\x02\x00", leading_chunk=junk))
        back = read_wav(path)
        assert back.samples.shape == (2,)

    def test_not_riff_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"OggS" + bytes(60))
        with pytest.raises(WavFormatError, match="RIFF"):
            read_wav(path)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "s.wav"
        path.write_bytes(_wav_bytes(channels=2))
        with pytest.raises(WavFormatError, match="mono"):
            read_wav(path)

    def test_eight_bit_rejected(self, tmp_path):
        path = tmp_path / "b.wav"
        path.write_bytes(_wav_bytes(bits=8))
        with pytest.raises(WavFormatError, match="16-bit"):
            read_wav(path)

    def test_non_pcm_rejected(self, tmp_path):
        path = tmp_path / "f.wav"
        path.write_bytes(_wav_bytes(audio_format=3))
        with pytest.raises(WavFormatError, match="PCM"):
            read_wav(path)

    def test_truncated_data_rejected(self, tmp_path):
        path = tmp_path / "t.wav"
        blob = _wav_bytes(payload=b"\x00\x00\x01\x00")
        path.write_bytes(blob[:-2])
        with pytest.raises(WavFormatError, match="truncated"):
            read_wav(path)

    def test_missing_data_chunk_rejected(self, tmp_path):
        path = tmp_path / "m.wav"
        path.write_bytes(_wav_bytes(data_header=False))
        with pytest.raises(WavFormatError, match="missing"):
            read_wav(path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=st.one_of(_mangled_wav(), st.binary(max_size=96)))
    @example(blob=_wav_bytes(rate=0))
    @example(blob=_wav_bytes(payload=b""))
    def test_fuzzed_bytes_raise_only_wav_format_error(self, blob, tmp_path):
        path = tmp_path / "fuzz.wav"
        path.write_bytes(blob)
        try:
            read_wav(path)
        except WavFormatError:
            pass

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1,
                           max_size=64))
    def test_round_trip_any_amplitude_bounded_signal(self, values, tmp_path):
        path = tmp_path / "h.wav"
        x = np.array(values)
        write_wav(path, Signal(x, 16000))
        np.testing.assert_allclose(read_wav(path).samples, x, atol=0.5 / 32767 + 1e-12)
