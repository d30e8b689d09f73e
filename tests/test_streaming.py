"""Chunked streaming: history-bank plumbing, causality, latency accounting."""

import numpy as np
import pytest

from gse.errors import ConfigError, DimensionError, DomainError
from gse.nets import DenoiserNet, ScoreNet
from gse.sampler import CostLedger, SamplerConfig
from gse.score import GuidanceSchedule, HybridScore
from gse.sde import SdeParams, make_rng
from gse.streaming import (
    HistoryBank,
    LatencyReport,
    StreamConfig,
    StreamEnhancer,
    enhance_offline,
    enhance_stream,
    process_chunk,
    realtime_factor,
)

P = SdeParams()
FRAME = 4


def tiny_provider(seed_score=3, seed_den=4):
    score_net = ScoreNet(P, frame_size=FRAME, hidden=6, seed=seed_score)
    denoiser = DenoiserNet(frame_size=FRAME, hidden=5, seed=seed_den)
    return HybridScore(score_net, denoiser, P)


# 2 ms at 16 kHz = 32 samples per chunk; a multiple of the 4-sample frame
SC = StreamConfig(chunk_ms=2.0, sample_rate=16000)


class TestStreamConfig:
    def test_default_chunk_is_800_samples(self):
        assert StreamConfig().chunk_size == 800

    def test_chunk_size_rounds_from_ms_and_rate(self):
        assert SC.chunk_size == 32
        assert StreamConfig(chunk_ms=12.5, sample_rate=8000).chunk_size == 100

    def test_validation(self):
        with pytest.raises(ConfigError):
            StreamConfig(chunk_ms=0.0)
        with pytest.raises(ConfigError):
            StreamConfig(sample_rate=0)
        with pytest.raises(ConfigError):
            StreamConfig(chunk_ms=0.01, sample_rate=1000)  # rounds to zero samples
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="chunk_ms must be finite"):
                StreamConfig(chunk_ms=value)


class TestHistoryBank:
    def test_fresh_bank_has_one_zero_state_per_grid_step(self):
        bank = HistoryBank.fresh(30, 6, 5)
        assert sorted(bank.score_states) == list(range(1, 31))
        for state in bank.score_states.values():
            assert state.shape == (6,)
            assert not state.any()
        assert bank.denoiser_state.shape == (5,)
        assert not bank.denoiser_state.any()

    def test_fresh_without_denoiser_state(self):
        bank = HistoryBank.fresh(5, 3)
        assert bank.denoiser_state is None

    def test_invalid_step_count(self):
        with pytest.raises(ConfigError):
            HistoryBank.fresh(0, 4)

    def test_mismatched_bank_rejected(self):
        provider = tiny_provider()
        bank = HistoryBank.fresh(15, 6, 5)
        with pytest.raises(ConfigError):
            process_chunk(
                np.zeros(32), bank, provider, GuidanceSchedule.from_guided_steps(0, P),
                SamplerConfig(), P, make_rng(0),
            )

    def test_predictor_evaluations_write_learned_entries_only(self):
        """Guided steps never run the score net, so their states stay zero."""
        provider = tiny_provider()
        schedule = GuidanceSchedule.from_guided_steps(12, P)
        bank = HistoryBank.for_provider(provider, SamplerConfig(), P)
        y = make_rng(1).normal(size=32)
        process_chunk(y, bank, provider, schedule, SamplerConfig(corrector_steps=1), P,
                      make_rng(2))
        for n in range(1, 31):
            touched = bank.score_states[n].any()
            assert touched == (n <= 18), f"grid step {n}"


class TestStreamingEquivalence:
    def test_single_chunk_stream_matches_offline_exactly(self):
        provider = tiny_provider()
        schedule = GuidanceSchedule.from_guided_steps(12, P)
        cfg = SamplerConfig(corrector_steps=1)
        y = make_rng(5).normal(size=SC.chunk_size)
        offline, led_off, _ = enhance_offline(y, provider, schedule, cfg, P, seed=9,
                                              frame_size=FRAME)
        streamed, led_str, _ = enhance_stream(y, SC, provider, schedule, cfg, P, seed=9)
        np.testing.assert_array_equal(offline, streamed)
        assert led_off.as_dict() == led_str.as_dict()

    def test_outputs_causal_in_input_chunks(self):
        """Perturbing chunk c leaves every emitted sample before chunk c bit-identical."""
        provider = tiny_provider()
        schedule = GuidanceSchedule.from_guided_steps(12, P)
        cfg = SamplerConfig(corrector_steps=1)
        K = SC.chunk_size
        y = make_rng(6).normal(size=4 * K)
        y_perturbed = y.copy()
        y_perturbed[2 * K :] += 0.25  # chunks 3 and 4 change, 1 and 2 do not
        a, _, _ = enhance_stream(y, SC, provider, schedule, cfg, P, seed=11)
        b, _, _ = enhance_stream(y_perturbed, SC, provider, schedule, cfg, P, seed=11)
        np.testing.assert_array_equal(a[: 2 * K], b[: 2 * K])
        assert not np.array_equal(a[2 * K : 3 * K], b[2 * K : 3 * K])

    def test_short_final_chunk_padded_and_trimmed(self):
        provider = tiny_provider()
        schedule = GuidanceSchedule.from_guided_steps(0, P)
        cfg = SamplerConfig()
        y = make_rng(7).normal(size=2 * SC.chunk_size + 10)
        x, _, report = enhance_stream(y, SC, provider, schedule, cfg, P, seed=3)
        assert x.shape == y.shape
        assert len(report.wall_times_s) == 3


class TestLedgers:
    def test_totals_are_exact_sums_of_chunk_ledgers(self):
        provider = tiny_provider()
        schedule = GuidanceSchedule.from_guided_steps(12, P)
        enhancer = StreamEnhancer(SC, provider, schedule, SamplerConfig(corrector_steps=1),
                                  P, seed=4)
        rng = make_rng(8)
        for _ in range(5):
            enhancer.push(rng.normal(size=SC.chunk_size))
        assert len(enhancer.chunk_ledgers) == 5
        summed = CostLedger()
        for led in enhancer.chunk_ledgers:
            summed = summed + led
        assert summed.as_dict() == enhancer.ledger.as_dict()

    def test_one_denoiser_forward_per_chunk(self):
        provider = tiny_provider()
        schedule = GuidanceSchedule.from_guided_steps(12, P)
        y = make_rng(9).normal(size=5 * SC.chunk_size)
        _, ledger, _ = enhance_stream(y, SC, provider, schedule,
                                      SamplerConfig(corrector_steps=1), P, seed=5)
        assert ledger.denoiser_forwards == 5
        assert ledger.score_net_forwards == 5 * (1 + 1) * (30 - 12)
        assert ledger.steps_guided == 5 * 12
        assert ledger.steps_learned == 5 * 18


class TestPushPull:
    def test_pull_before_push_returns_none(self):
        enhancer = StreamEnhancer(SC, tiny_provider(), GuidanceSchedule.from_guided_steps(0, P),
                                  SamplerConfig(), P, seed=0)
        assert enhancer.pull() is None

    def test_enhanced_chunk_available_after_each_push(self):
        enhancer = StreamEnhancer(SC, tiny_provider(), GuidanceSchedule.from_guided_steps(0, P),
                                  SamplerConfig(), P, seed=0)
        rng = make_rng(10)
        first = rng.normal(size=SC.chunk_size)
        enhancer.push(first)
        out = enhancer.pull()
        assert out.shape == first.shape
        assert enhancer.pull() is None

    def test_bad_chunks_rejected(self):
        enhancer = StreamEnhancer(SC, tiny_provider(), GuidanceSchedule.from_guided_steps(0, P),
                                  SamplerConfig(), P, seed=0)
        with pytest.raises(DimensionError):
            enhancer.push(np.zeros(SC.chunk_size + 1))
        with pytest.raises(DimensionError):
            enhancer.push(np.zeros(0))
        with pytest.raises(DimensionError):
            enhancer.push(np.zeros((4, 8)))


class TestLatency:
    def test_algorithmic_latency_equals_chunk_duration(self):
        report = LatencyReport(chunk_ms=50.0, chunk_size=800)
        assert report.algorithmic_latency_ms == 50.0

    def test_realtime_factor_from_wall_times(self):
        report = LatencyReport(chunk_ms=50.0, chunk_size=800, wall_times_s=[0.025, 0.025])
        assert realtime_factor(report) == pytest.approx(0.5)

    def test_realtime_factor_requires_chunks(self):
        with pytest.raises(DomainError):
            realtime_factor(LatencyReport(chunk_ms=50.0, chunk_size=800))
