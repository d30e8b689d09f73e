"""The acceptance recipe the benchmark drives, and everything it derives from it.

Score net hidden 160, denoiser hidden 96, frame 40 samples, ``SdeParams()``
(N = 30), one corrector step at snr 0.5.  The nets are randomly initialised:
their cost does not depend on the weight values, so no training is needed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import gse
import numpy as np

SAMPLE_RATE = 16000
FRAME = 40
SCORE_HIDDEN = 160
DENOISER_HIDDEN = 96
EMB_DIM = 32  # ScoreNet's default time-embedding width
SCORE_INIT_SEED = 0
DENOISER_INIT_SEED = 1
CORRECTORS = 1
CORRECTOR_SNR = 0.5
GROUPS = (0, 12, 30)  # n_phi: learned, hybrid, fully guided
STREAM = gse.StreamConfig(chunk_ms=50.0, sample_rate=SAMPLE_RATE)  # 800 samples, 20 frames


def macs_per_frame(d_in: int, hidden: int, frame: int) -> int:
    """Encoder, two gates (input and recurrent halves) and decoder of one frame."""
    return hidden * d_in + 4 * hidden * hidden + frame * 2 * hidden


SCORE_MACS_PER_FRAME = macs_per_frame(2 * FRAME + EMB_DIM, SCORE_HIDDEN, FRAME)
DENOISER_MACS_PER_FRAME = macs_per_frame(FRAME, DENOISER_HIDDEN, FRAME)


@dataclass(frozen=True)
class ExpectedLedger:
    """Closed-form cost of one request of ``n_samples`` (a multiple of FRAME)."""

    score_net_forwards: int
    denoiser_forwards: int
    mac_total: int
    steps_guided: int
    steps_learned: int
    corrector_evals: int


def expected_ledger(n_phi: int, n_samples: int, n_steps: int, with_denoiser: bool) -> ExpectedLedger:
    frames = n_samples // FRAME
    score_fw = (1 + CORRECTORS) * (n_steps - n_phi)
    den_fw = 1 if with_denoiser else 0
    return ExpectedLedger(
        score_net_forwards=score_fw,
        denoiser_forwards=den_fw,
        mac_total=frames * (score_fw * SCORE_MACS_PER_FRAME + den_fw * DENOISER_MACS_PER_FRAME),
        steps_guided=n_phi,
        steps_learned=n_steps - n_phi,
        corrector_evals=CORRECTORS * n_steps,
    )


def uses_denoiser(n_phi: int) -> bool:
    """The ``gse enhance`` provider rule: only the pure learned provider skips the denoiser."""
    return n_phi > 0


def make_provider(score_net, denoiser, params: gse.SdeParams, n_phi: int):
    """Pick the provider the way ``gse enhance`` does."""
    if n_phi == 0:
        return gse.LearnedScore(score_net, params)
    if n_phi == params.N:
        return gse.DiscriminativeScore(denoiser, params)
    return gse.HybridScore(score_net, denoiser, params)


def write_checkpoints(workdir: Path, params: gse.SdeParams) -> tuple[Path, Path]:
    score = gse.ScoreNet(params, frame_size=FRAME, hidden=SCORE_HIDDEN, emb_dim=EMB_DIM,
                         seed=SCORE_INIT_SEED)
    den = gse.DenoiserNet(frame_size=FRAME, hidden=DENOISER_HIDDEN, seed=DENOISER_INIT_SEED)
    score_path, den_path = workdir / "score.npz", workdir / "denoiser.npz"
    gse.save_checkpoint(score_path, score, train_seed=SCORE_INIT_SEED)
    gse.save_checkpoint(den_path, den, train_seed=DENOISER_INIT_SEED)
    return score_path, den_path


@dataclass
class Setup:
    """What one set-up builds: nets, one provider and schedule per n_phi group."""

    params: gse.SdeParams
    sampler: gse.SamplerConfig
    score_net: object
    denoiser: object
    providers: dict
    schedules: dict
    score_path: Path
    denoiser_path: Path

    def bank_bytes(self, n_phi: int) -> int:
        """Size of one history bank for the group, from its array shapes."""
        bank = gse.HistoryBank.for_provider(self.providers[n_phi], self.sampler, self.params)
        den = 0 if bank.denoiser_state is None else bank.denoiser_state.nbytes
        return sum(a.nbytes for a in bank.score_states.values()) + den


def set_up(score_path: Path, den_path: Path, hybrid_everywhere: bool) -> tuple[Setup, float]:
    """Load both checkpoints, build the providers and the first stream; returns (setup, s).

    ``hybrid_everywhere`` mirrors ``gse sweep-nphi``, which always builds the
    hybrid provider; otherwise providers follow the ``gse enhance`` rule.
    """
    params = gse.SdeParams()
    sampler = gse.SamplerConfig(corrector_steps=CORRECTORS, corrector_snr=CORRECTOR_SNR)
    t0 = time.perf_counter()
    score_net, _ = gse.load_checkpoint(score_path)
    denoiser, _ = gse.load_checkpoint(den_path)
    schedules = {g: gse.GuidanceSchedule.from_guided_steps(g, params) for g in GROUPS}
    if hybrid_everywhere:
        providers = {g: gse.HybridScore(score_net, denoiser, params) for g in GROUPS}
    else:
        providers = {g: make_provider(score_net, denoiser, params, g) for g in GROUPS}
    first = GROUPS[0]
    gse.StreamEnhancer(STREAM, providers[first], schedules[first], sampler, params, seed=0)
    elapsed = time.perf_counter() - t0
    setup = Setup(params, sampler, score_net, denoiser, providers, schedules, score_path, den_path)
    return setup, elapsed


def utterance(seed: int, duration_s: float) -> np.ndarray:
    """Noisy half of a synthetic pair; only its length matters to the work done."""
    spec = gse.MixSpec(seed=seed, duration_s=duration_s, sample_rate=SAMPLE_RATE)
    return gse.synthesize_pair(spec)[1].samples
