"""Chunked enhancement with recurrent history across chunk boundaries.

Each incoming chunk runs its own full reverse diffusion conditioned on the
chunk's noisy samples, on the one ``StepPlan`` of its stream (or of its
``enhance_offline`` request); what ties consecutive chunks together is the history
bank: one score-net recurrent state per grid step index (written only by the
predictor's evaluation) plus one denoiser state.  Output for chunk c therefore
depends on chunks 1..c only, and the algorithmic latency is exactly one chunk.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, DomainError
from .sampler import CostLedger, SamplerConfig, StepPlan, reverse_process
from .sde import SdeParams, make_rng, require_finite, require_sample_rate, sample_count

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


@dataclass
class HistoryBank:
    """Recurrent state, (H,) or (rows, H), for every grid step plus the denoiser; fresh = 0."""

    score_states: dict[int, np.ndarray]
    denoiser_state: np.ndarray | None

    @classmethod
    def for_provider(cls, provider, config: SamplerConfig, params: SdeParams, rows=None):
        """A fresh bank for ``provider``'s nets on the grid of ``params``; ``config`` is unused.

        Without a score net the score states are 1 wide; without a denoiser there is none."""
        lead = () if rows is None else (rows,)
        width = getattr(provider.net, "state_dim", 1)
        states = {n: np.zeros(lead + (width,)) for n in range(1, params.N + 1)}
        den = getattr(provider.denoiser, "state_dim", None)
        return cls(states, None if den is None else np.zeros(lead + (den,)))

    def require_rows(self, lead: tuple) -> None:
        """DimensionError unless all states are (H,) for a 1-D chunk, () = ``lead``,
        or (B, H) for B rows, (B,) = ``lead``."""
        rows = lambda shape: f"{shape[0]} rows" if shape else "a 1-D signal"
        for state in [*self.score_states.values(), self.denoiser_state]:
            if state is not None and state.shape[:-1] != lead:
                raise DimensionError(f"history bank holds states for {rows(state.shape[:-1])}, "
                                     f"chunk has {rows(lead)}")


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


def _normalizer(peak: float) -> float:
    return PEAK_TARGET / max(peak, _PEAK_FLOOR)


def _finite_peak(x: np.ndarray) -> float:
    """max |x|; DomainError, as ``Signal`` raises, if x holds a non-finite sample."""
    peak = float(np.max(np.abs(x)))
    if not math.isfinite(peak):
        raise DomainError("samples must be finite")
    return peak


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
    """Whole-utterance enhancement: one chunk, fresh zero history, peak-normalized.

    A signal (L,) takes one int seed.  B utterances (B, L) take a list of B
    seeds, one generator per row, and run as one batch under the sampler's
    row contract, each row normalized and charged as if alone; x is (B, L)
    and the ledger a list.  Any other seed raises DimensionError, and a
    non-finite sample DomainError; a ``frame_size`` not an int >= 1 or a
    ``sample_rate`` outside [1, the largest float] ConfigError.  The report's
    chunk is all rows' audio.
    """
    if not isinstance(frame_size, (int, np.integer)) or frame_size < 1:
        raise ConfigError(f"frame_size must be an int >= 1, got {frame_size!r}")
    require_sample_rate(sample_rate)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim not in (1, 2) or y.size < 1:
        raise DimensionError("signal must be a non-empty 1-D array or (B, L) rows")
    seed_per_row = isinstance(seed, (list, tuple)) and len(seed) == len(y)
    if not (seed_per_row if y.ndim == 2 else isinstance(seed, (int, np.integer))):
        raise DimensionError(f"a 1-D signal takes one int seed and (B, L) rows a list of B "
                             f"seeds; got seed {seed!r} for shape {y.shape}")
    rows = np.atleast_2d(y)
    rng = make_rng(seed) if y.ndim == 1 else [make_rng(s) for s in seed]
    scale = np.reshape([_normalizer(_finite_peak(r)) for r in rows], y.shape[:-1] + (1,))
    padded = _pad_to_multiple(y * scale, frame_size)
    bank = HistoryBank.for_provider(provider, config, params, None if y.ndim == 1 else len(y))
    ledger = CostLedger() if y.ndim == 1 else [CostLedger() for _ in rows]
    report = LatencyReport(chunk_ms=1000.0 * padded.size / sample_rate, chunk_size=padded.size)
    t0 = time.perf_counter()
    plan = StepPlan.build(provider, schedule, params, config)
    x, _ = process_chunk(padded, bank, plan, rng, ledger)
    report.wall_times_s.append(time.perf_counter() - t0)
    return x[..., : y.shape[-1]] / scale, ledger, report


def enhance_stream(
    y: np.ndarray,
    stream_config: StreamConfig,
    provider,
    schedule,
    config: SamplerConfig,
    params: SdeParams,
    seed: int,
) -> tuple[np.ndarray, CostLedger, LatencyReport]:
    """Chunked enhancement of a full utterance; returns (x, total ledger, report)."""
    enhancer = StreamEnhancer(stream_config, provider, schedule, config, params, seed)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size < 1:
        raise DimensionError("signal must be a non-empty 1-D array")
    K = stream_config.chunk_size
    outs = []
    for start in range(0, y.size, K):
        enhancer.push(y[start : start + K])
        outs.append(enhancer.pull())
    x = np.concatenate(outs)[: y.size]
    return x, enhancer.ledger, enhancer.report


class StreamEnhancer:
    """Push/pull interface: push one chunk of noisy samples, pull the enhanced chunk.

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
        seed: int,
    ):
        self.stream_config = stream_config
        self.provider = provider
        self.schedule = schedule
        self.config = config
        self.params = params
        self.rng = make_rng(seed)
        self.bank = HistoryBank.for_provider(provider, config, params)
        self.plan: StepPlan | None = None  # built on the first push, once per stream
        self.ledger = CostLedger()  # running total over chunks
        self.chunk_ledgers: list[CostLedger] = []
        self.report = LatencyReport(stream_config.chunk_ms, stream_config.chunk_size)
        self._outbox: list[np.ndarray] = []
        self._peak = 0.0

    def push(self, chunk: np.ndarray) -> None:
        chunk = np.asarray(chunk, dtype=np.float64)
        K = self.stream_config.chunk_size
        if chunk.ndim != 1 or not 1 <= chunk.size <= K:
            raise DimensionError(f"chunk must be 1-D with 1..{K} samples, got {chunk.shape}")
        n = chunk.size
        if n < K:
            chunk = np.concatenate([chunk, np.zeros(K - n)])
        # causal per-utterance normalization: running peak of everything seen so far;
        # a non-finite chunk is rejected before the peak or the bank changes
        self._peak = max(self._peak, _finite_peak(chunk))
        scale = _normalizer(self._peak)
        if self.plan is None:
            self.plan = StepPlan.build(self.provider, self.schedule, self.params, self.config)
        chunk_ledger = CostLedger()
        t0 = time.perf_counter()
        x, _ = process_chunk(chunk * scale, self.bank, self.plan, self.rng, chunk_ledger)
        self.report.wall_times_s.append(time.perf_counter() - t0)
        self.chunk_ledgers.append(chunk_ledger)
        self.ledger = self.ledger + chunk_ledger
        self._outbox.append(x[:n] / scale)

    def pull(self) -> np.ndarray | None:
        """Enhanced chunk in arrival order, or None when nothing is pending."""
        return self._outbox.pop(0) if self._outbox else None
