"""Chunked enhancement with recurrent history across chunk boundaries.

``StreamEnhancer`` is the one request driver; ``enhance_offline`` is a stream
of one chunk.  Each chunk, (n,) or rows (B, n), runs its own full reverse
diffusion on the one ``StepPlan`` of its stream; what ties consecutive chunks
together is the stream's ``HistoryBank``, on which every pass runs: one
score-net recurrent state per grid step index (written only by the
predictor's evaluation) plus one denoiser state.  Output for chunk c therefore
depends on chunks 1..c only, and the algorithmic latency is exactly one chunk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, DomainError
from .sampler import CostLedger, HistoryBank, SamplerConfig, StepPlan, reverse_process
from .sde import (SdeParams, as_signal, make_rng, require_count, require_finite,
                  require_sample_rate, sample_count)

__all__ = [
    "StreamConfig",
    "HistoryBank",
    "LatencyReport",
    "process_chunk",
    "enhance_offline",
    "enhance_stream",
    "StreamEnhancer",
    "realtime_factor",
]

PEAK_TARGET = 0.9
_PEAK_FLOOR = 1e-8


@dataclass(frozen=True)
class StreamConfig:
    chunk_ms: float = 50.0
    sample_rate: int = 16000

    def __post_init__(self):
        require_finite(self, "chunk_ms")
        if self.chunk_ms <= 0.0:
            raise ConfigError(f"chunk_ms must be positive, got {self.chunk_ms}")
        require_sample_rate(self.sample_rate)
        if self.chunk_size < 1:
            raise ConfigError("chunk shorter than one sample")

    @property
    def chunk_size(self) -> int:
        """Samples per chunk, K = round(chunk_ms * sample_rate / 1000)."""
        return sample_count(self, "chunk_ms", self.chunk_ms * self.sample_rate / 1000.0)


def process_chunk(y_chunk: np.ndarray, bank: HistoryBank, plan: StepPlan, rng, ledger=None):
    """``reverse_process`` of ``plan`` for one chunk (L,) or rows (B, L) on ``bank``;
    returns (x_c, bank)."""
    x, _ = reverse_process(y_chunk, plan, rng, bank=bank, ledger=ledger)
    return x, bank


@dataclass
class LatencyReport:
    """Algorithmic latency is the chunk duration; wall times are measured per chunk."""

    chunk_ms: float
    chunk_size: int
    wall_times_s: list = field(default_factory=list)

    @property
    def algorithmic_latency_ms(self) -> float:
        return self.chunk_ms

    def as_dict(self) -> dict:
        return {
            "algorithmic_latency_ms": self.algorithmic_latency_ms,
            "chunk_size": self.chunk_size,
            "n_chunks": len(self.wall_times_s),
            "wall_times_s": list(self.wall_times_s),
        }


def realtime_factor(report: LatencyReport) -> float:
    """Mean per-chunk wall time over the chunk duration; < 1 means faster than input."""
    if not report.wall_times_s:
        raise DomainError("no chunks processed; realtime factor undefined")
    chunk_s = report.chunk_ms / 1000.0
    return float(np.mean(report.wall_times_s)) / chunk_s


def _normalizer(peak):
    return PEAK_TARGET / np.maximum(peak, _PEAK_FLOOR)


def _pad_to_multiple(x: np.ndarray, m: int) -> np.ndarray:
    """``x`` with zeros appended along its last axis up to a multiple of m."""
    rem = x.shape[-1] % m
    return x if rem == 0 else np.concatenate([x, np.zeros(x.shape[:-1] + (m - rem,))], axis=-1)


def enhance_offline(
    y: np.ndarray,
    provider,
    schedule,
    config: SamplerConfig,
    params: SdeParams,
    seed: int | list[int],
    frame_size: int = 1,
    sample_rate: int = 16000,
) -> tuple[np.ndarray, CostLedger, LatencyReport]:
    """Whole-utterance enhancement: ``enhance_stream`` in one chunk, y's length padded
    to a multiple of ``frame_size``; seeds and rows (B, L) as for ``StreamEnhancer``.
    A ``frame_size`` not an int >= 1 or a ``sample_rate`` outside [1, the largest
    float] raises ConfigError."""
    require_count("frame_size", frame_size, 1)
    require_sample_rate(sample_rate)
    y = as_signal(y)
    K = -(-y.shape[-1] // frame_size) * frame_size
    stream = StreamConfig(chunk_ms=1000.0 * K / sample_rate, sample_rate=sample_rate)
    return enhance_stream(y, stream, provider, schedule, config, params, seed)


def enhance_stream(
    y: np.ndarray,
    stream_config: StreamConfig,
    provider,
    schedule,
    config: SamplerConfig,
    params: SdeParams,
    seed: int | list[int],
) -> tuple[np.ndarray, CostLedger, LatencyReport]:
    """Chunked enhancement of a full utterance (L,) with an int seed, or of B
    rows (B, L) with a list of B seeds; returns (x, total ledger or a list of
    one per row, report)."""
    y = as_signal(y)
    enhancer = StreamEnhancer(stream_config, provider, schedule, config, params, seed)
    K = stream_config.chunk_size
    outs = []
    for start in range(0, y.shape[-1], K):
        enhancer.push(y[..., start : start + K])
        outs.append(enhancer.pull())
    return np.concatenate(outs, axis=-1), enhancer.ledger, enhancer.report


class StreamEnhancer:
    """Push/pull interface: push one chunk of noisy samples, pull the enhanced chunk.

    An int seed streams a signal in chunks (n,), a list of B seeds B rows in
    chunks (B, n) under the sampler's row contract: one bank of B state rows,
    and per row a generator, running peak and ledger (``ledger`` and
    ``chunk_ledgers`` hold lists); the report's chunk is all rows' audio.  A
    chunk that does not fit the seed raises DimensionError.

    The enhanced chunk for input chunk c is available right after push(c) — one
    chunk of algorithmic delay.  Short final chunks are zero-padded internally
    and trimmed on output.  Chunk outputs are causal in the input chunks.  A
    chunk with a non-finite sample raises DomainError and leaves the stream as
    it was, so the next chunk's output is what it would have been without it.
    """

    def __init__(
        self,
        stream_config: StreamConfig,
        provider,
        schedule,
        config: SamplerConfig,
        params: SdeParams,
        seed: int | list[int],
    ):
        self.stream_config = stream_config
        self.provider = provider
        self.schedule = schedule
        self.config = config
        self.params = params
        self._rows = len(seed) if isinstance(seed, (list, tuple)) else None
        self.rng = make_rng(seed) if self._rows is None else [make_rng(s) for s in seed]
        self.bank = HistoryBank.for_provider(provider, config, params, self._rows)
        self.plan: StepPlan | None = None  # built on the first push, once per stream
        self.ledger = self._fresh_ledger()  # running total over chunks
        self.chunk_ledgers: list = []
        B = 1 if self._rows is None else self._rows
        self.report = LatencyReport(stream_config.chunk_ms * B, stream_config.chunk_size * B)
        self._outbox: list[np.ndarray] = []
        self._peak = 0.0

    def _fresh_ledger(self):
        return CostLedger() if self._rows is None else [CostLedger() for _ in range(self._rows)]

    def push(self, chunk: np.ndarray) -> None:
        chunk = np.asarray(chunk, dtype=np.float64)
        K = self.stream_config.chunk_size
        if chunk.shape[:-1] != (() if self._rows is None else (self._rows,)):
            seeds = "one int seed" if self._rows is None else f"a list of {self._rows} seeds"
            raise DimensionError(f"a 1-D signal takes one int seed and (B, L) rows a list of B "
                                 f"seeds; got {seeds} for chunk shape {chunk.shape}")
        n = chunk.shape[-1] if chunk.ndim else 0
        if not 1 <= n <= K or chunk.size < 1:
            raise DimensionError(f"chunk must hold 1..{K} samples per row, got {chunk.shape}")
        chunk = _pad_to_multiple(chunk, K)
        # causal per-row normalization: the running peak of everything the row has seen;
        # a non-finite chunk is rejected before a peak or the bank changes
        peak = np.max(np.abs(chunk), axis=-1, keepdims=True)
        if not np.isfinite(peak).all():
            raise DomainError("samples must be finite")
        self._peak = np.maximum(self._peak, peak)
        scale = _normalizer(self._peak)
        t0 = time.perf_counter()  # before the plan's build: an offline report times both
        if self.plan is None:
            self.plan = StepPlan.build(self.provider, self.schedule, self.params, self.config)
        chunk_ledger = self._fresh_ledger()
        x, _ = process_chunk(chunk * scale, self.bank, self.plan, self.rng, chunk_ledger)
        self.report.wall_times_s.append(time.perf_counter() - t0)
        self.chunk_ledgers.append(chunk_ledger)
        self.ledger = (self.ledger + chunk_ledger if self._rows is None
                       else [total + led for total, led in zip(self.ledger, chunk_ledger)])
        self._outbox.append(x[..., :n] / scale)

    def pull(self) -> np.ndarray | None:
        """Enhanced chunk in arrival order, or None when nothing is pending."""
        return self._outbox.pop(0) if self._outbox else None
