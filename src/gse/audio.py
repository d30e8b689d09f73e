"""Synthetic clean/noisy pairs, waveform metrics, and 16-bit PCM WAV round-trips."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, WavFormatError
from .sde import (make_rng, read_key_values, require_finite, require_sample_rate,
                  sample_count, write_key_values)

__all__ = [
    "Signal",
    "MixSpec",
    "synthesize_pair",
    "sdr_db",
    "lsd",
    "fft_radix2",
    "log_magnitude_frames",
    "read_wav",
    "write_wav",
]

SDR_CAP_DB = 120.0
LSD_EPS = 1e-8


@dataclass
class Signal:
    """Mono sample buffer with its rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise DimensionError("samples must be a non-empty 1-D array")
        require_sample_rate(self.sample_rate)
        if not np.all(np.isfinite(self.samples)):
            raise DomainError("samples must be finite")

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class MixSpec:
    """Recipe for one synthetic (clean, noisy) pair; fully seed-deterministic."""

    clean_kind: str = "sinusoid-sum"
    noise_kind: str = "white"
    snr_db: float = 5.0
    duration_s: float = 0.25
    seed: int = 0
    sample_rate: int = 16000

    def __post_init__(self):
        for name, kinds in (("clean_kind", CLEAN_KINDS), ("noise_kind", NOISE_KINDS)):
            if (kind := getattr(self, name)) not in kinds:
                raise ConfigError(f"{name} must be one of {tuple(kinds)}, got {kind!r}")
        require_finite(self, "duration_s")
        if self.duration_s <= 0.0:
            raise ConfigError(f"duration_s must be positive, got {self.duration_s}")
        require_sample_rate(self.sample_rate)
        if math.isnan(self.snr_db):
            raise ConfigError("snr_db must be a number or +inf")
        self.n_samples  # ConfigError on a count no array can hold

    @property
    def n_samples(self) -> int:
        return max(sample_count(self, "duration_s", self.duration_s * self.sample_rate), 1)

    def to_file(self, path: str | Path) -> None:
        write_key_values(path, self)

    @classmethod
    def from_file(cls, path: str | Path) -> "MixSpec":
        return cls(**read_key_values(path, cls))


def _clean_sinusoid_sum(n: int, rate: int, rng: np.random.Generator) -> np.ndarray:
    """Three harmonics of a random base in [250, 450] Hz, random phases and decaying amps."""
    t = np.arange(n) / rate
    f0 = rng.uniform(250.0, 450.0)
    x = np.zeros(n)
    for h, amp in enumerate((1.0, 0.5, 0.25), start=1):
        a = amp * rng.uniform(0.7, 1.0)
        x += a * np.sin(2.0 * math.pi * h * f0 * t + rng.uniform(0.0, 2.0 * math.pi))
    return 0.6 * x / np.max(np.abs(x))


def _clean_ar_process(n: int, rate: int, rng: np.random.Generator) -> np.ndarray:
    """Stable second-order resonance (~500 Hz, pole radius 0.97) driven by white noise."""
    theta = 2.0 * math.pi * 500.0 / rate
    r = 0.97
    a1, a2 = 2.0 * r * math.cos(theta), -r * r
    w = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = w[0]
    x[1] = a1 * x[0] + w[1]
    for k in range(2, n):
        x[k] = a1 * x[k - 1] + a2 * x[k - 2] + w[k]
    return 0.6 * x / np.max(np.abs(x))


def _clean_gaussian_toy(n: int, rate: int, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(0.0, 0.3, size=n)


def _noise_white(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(n)


def _noise_pink(n: int, rng: np.random.Generator) -> np.ndarray:
    """White noise reshaped to a 1/f power spectrum (-3 dB per octave)."""
    w = rng.standard_normal(n)
    spec = np.fft.rfft(w)
    f = np.fft.rfftfreq(n)
    f[0] = f[1] if n > 1 else 1.0
    spec /= np.sqrt(f)
    spec[0] = 0.0
    x = np.fft.irfft(spec, n)
    return x / np.std(x)


# kind name -> generator: what MixSpec accepts and what synthesize_pair runs
CLEAN_KINDS = {"sinusoid-sum": _clean_sinusoid_sum, "ar-process": _clean_ar_process,
               "gaussian-toy": _clean_gaussian_toy}
NOISE_KINDS = {"white": _noise_white, "pink": _noise_pink}


def synthesize_pair(spec: MixSpec) -> tuple[Signal, Signal]:
    """Deterministic (clean, noisy) pair with the requested SNR hit exactly.

    snr_db = +inf returns y identical to the clean signal.
    """
    rng = make_rng(spec.seed)
    n = spec.n_samples
    x0 = CLEAN_KINDS[spec.clean_kind](n, spec.sample_rate, rng)
    if math.isinf(spec.snr_db):
        return Signal(x0, spec.sample_rate), Signal(x0.copy(), spec.sample_rate)
    noise = NOISE_KINDS[spec.noise_kind](n, rng)
    p_clean = float(np.sum(x0 * x0))
    p_noise = float(np.sum(noise * noise))
    if p_noise == 0.0:
        raise DomainError("degenerate zero noise draw")
    # closed-form scaling: ||x0||^2 / ||alpha * noise||^2 == 10^(snr/10)
    try:  # past about +-3000 dB, 10^(snr/10) overflows or underflows to 0
        alpha = math.sqrt(p_clean / (p_noise * 10.0 ** (spec.snr_db / 10.0)))
    except (OverflowError, ZeroDivisionError) as exc:
        raise ConfigError(f"snr_db = {spec.snr_db} puts the noise scale past a float") from exc
    return Signal(x0, spec.sample_rate), Signal(x0 + alpha * noise, spec.sample_rate)


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def sdr_db(reference: np.ndarray, estimate: np.ndarray) -> float:
    """10*log10(||ref||^2 / ||ref - est||^2), capped to +/-120 dB."""
    reference = np.asarray(reference, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if reference.shape != estimate.shape:
        raise DimensionError(f"shape mismatch: {reference.shape} vs {estimate.shape}")
    p_ref = float(np.sum(reference**2))
    if p_ref == 0.0:
        raise DomainError("reference signal has zero energy")
    p_err = float(np.sum((reference - estimate) ** 2))
    if p_err == 0.0:
        return SDR_CAP_DB
    if p_err == math.inf:  # an infinite estimate
        return -SDR_CAP_DB
    return float(np.clip(10.0 * math.log10(p_ref / p_err), -SDR_CAP_DB, SDR_CAP_DB))


def fft_radix2(x: np.ndarray) -> np.ndarray:
    """Complex128 DFT over the last axis, whose length must be a power of two."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    if n < 1 or n & (n - 1):
        raise DimensionError(f"transform length must be a power of two, got {n}")
    return np.fft.fft(x)


def log_magnitude_frames(
    x: np.ndarray, frame_size: int = 512, hop: int = 256
) -> np.ndarray:
    """Hann-windowed log-magnitude spectra, 20*log10(|X| + 1e-8), one row per frame."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < frame_size:
        raise DomainError(f"need at least frame_size={frame_size} samples, got {x.size}")
    n_frames = 1 + (x.size - frame_size) // hop
    idx = np.arange(frame_size)[None, :] + hop * np.arange(n_frames)[:, None]
    window = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(frame_size) / frame_size)
    spectra = fft_radix2(x[idx] * window)[:, : frame_size // 2 + 1]
    return 20.0 * np.log10(np.abs(spectra) + LSD_EPS)


def lsd(reference: np.ndarray, estimate: np.ndarray, frame_size: int = 512, hop: int = 256) -> float:
    """Log-spectral distance: per-frame RMS log-magnitude gap, averaged over frames."""
    reference = np.asarray(reference, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if reference.shape != estimate.shape:
        raise DimensionError(f"shape mismatch: {reference.shape} vs {estimate.shape}")
    lr = log_magnitude_frames(reference, frame_size, hop)
    le = log_magnitude_frames(estimate, frame_size, hop)
    return float(np.mean(np.sqrt(np.mean((lr - le) ** 2, axis=1))))


# --------------------------------------------------------------------------
# WAV I/O: 16-bit PCM mono little-endian RIFF
# --------------------------------------------------------------------------

_PCM_SCALE = 32767.0


def write_wav(path: str | Path, signal: Signal) -> None:
    """Samples are clipped to [-1, 1] and quantized to 16-bit PCM."""
    q = np.clip(np.rint(signal.samples * _PCM_SCALE), -32768, 32767).astype("<i2")
    payload = q.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    fmt = struct.pack(
        "<4sIHHIIHH", b"fmt ", 16, 1, 1, signal.sample_rate,
        signal.sample_rate * 2, 2, 16,
    )
    data = b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + fmt + data + payload)


def read_wav(path: str | Path) -> Signal:
    """Strictly mono 16-bit PCM; anything else raises WavFormatError."""
    blob = Path(path).read_bytes()
    if len(blob) < 44 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(blob):
        cid = blob[pos : pos + 4]
        (clen,) = struct.unpack_from("<I", blob, pos + 4)
        body = blob[pos + 8 : pos + 8 + clen]
        if len(body) < clen:
            raise WavFormatError(f"{path}: truncated {cid!r} chunk")
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        pos += 8 + clen + (clen & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise WavFormatError(f"{path}: missing fmt/data chunk")
    if len(fmt) < 16:
        raise WavFormatError(f"{path}: malformed fmt chunk")
    audio_format, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt)
    if audio_format != 1:
        raise WavFormatError(f"{path}: only PCM supported, got format {audio_format}")
    if channels != 1:
        raise WavFormatError(f"{path}: only mono supported, got {channels} channels")
    if bits != 16:
        raise WavFormatError(f"{path}: only 16-bit supported, got {bits}")
    if rate < 1:
        raise WavFormatError(f"{path}: sample rate must be >= 1, got {rate}")
    if not data or len(data) % 2:
        raise WavFormatError(f"{path}: empty or odd-length data chunk ({len(data)} bytes)")
    samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / _PCM_SCALE
    return Signal(samples, rate)
