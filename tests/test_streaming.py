"""Chunked streaming: history-bank plumbing, causality, latency accounting."""

import numpy as np
import pytest

from gse.errors import ConfigError, DimensionError, DomainError
from gse.nets import DenoiserNet, ScoreNet
from gse.sampler import CostLedger, SamplerConfig, StepPlan, reverse_process
from gse.score import DiscriminativeScore, GuidanceSchedule, HybridScore, LearnedScore
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


def plan_12(provider):
    """The step plan of 12 guided steps on ``P`` with one corrector."""
    return StepPlan.build(provider, GuidanceSchedule.from_guided_steps(12, P), P, SamplerConfig())


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

    @pytest.mark.parametrize("chunk_ms, sample_rate", [(1e308, 16000), (1e300, 16000), (1e16, 10**6)])
    def test_chunk_no_array_can_hold_rejected(self, chunk_ms, sample_rate):
        with pytest.raises(ConfigError, match="chunk_ms = .* more than an array can hold"):
            StreamConfig(chunk_ms=chunk_ms, sample_rate=sample_rate)

    def test_sample_rate_past_the_largest_float_rejected(self):
        with pytest.raises(ConfigError, match="sample_rate .* got a 401-digit number"):
            StreamConfig(sample_rate=10**400)


class TestHistoryBank:
    def test_fresh_bank_has_one_zero_state_per_grid_step(self):
        bank = HistoryBank.for_provider(tiny_provider(), SamplerConfig(), P)
        assert sorted(bank.score_states) == list(range(1, 31))
        for state in bank.score_states.values():
            assert state.shape == (6,)
            assert not state.any()
        assert bank.denoiser_state.shape == (5,)
        assert not bank.denoiser_state.any()

    def test_single_source_banks(self):
        """Without a denoiser there is no denoiser state; without a score net the score
        states are 1 wide."""
        p5 = SdeParams(N=5)
        provider = tiny_provider()
        learned = HistoryBank.for_provider(LearnedScore(provider.net, p5), SamplerConfig(), p5)
        assert sorted(learned.score_states) == list(range(1, 6))
        assert learned.denoiser_state is None
        guided = HistoryBank.for_provider(DiscriminativeScore(provider.denoiser, p5),
                                          SamplerConfig(), p5, rows=3)
        assert {a.shape for a in guided.score_states.values()} == {(3, 1)}
        assert guided.denoiser_state.shape == (3, 5)

    def test_mismatched_bank_rejected(self):
        provider = tiny_provider()
        bank = HistoryBank.for_provider(provider, SamplerConfig(), SdeParams(N=15))
        with pytest.raises(ConfigError, match="history bank built for N=15, sampler runs N=30"):
            process_chunk(np.zeros(32), bank, plan_12(provider), make_rng(0))

    def test_predictor_evaluations_write_learned_entries_only(self):
        """Guided steps never run the score net, so their states stay zero."""
        provider = tiny_provider()
        bank = HistoryBank.for_provider(provider, SamplerConfig(), P)
        y = make_rng(1).normal(size=32)
        process_chunk(y, bank, plan_12(provider), make_rng(2))
        for n in range(1, 31):
            touched = bank.score_states[n].any()
            assert touched == (n <= 18), f"grid step {n}"


class TestBankGuard:
    """The pass checks the bank it writes: a chunk it rejects changes nothing."""

    @pytest.mark.parametrize("call", ["process_chunk", "reverse_process"])
    def test_non_finite_chunk_leaves_the_bank_as_it_was(self, call):
        p6 = SdeParams(N=6)
        provider = HybridScore(ScoreNet(p6, frame_size=FRAME, hidden=6, seed=3),
                               DenoiserNet(frame_size=FRAME, hidden=5, seed=4), p6)
        cfg = SamplerConfig(corrector_steps=1)
        plan = StepPlan.build(provider, GuidanceSchedule.from_guided_steps(2, p6), p6, cfg)
        first, clean = make_rng(13).normal(size=(2, 32))

        def run(chunk, bank, rng):
            if call == "process_chunk":
                return process_chunk(chunk, bank, plan, rng)[0]
            return reverse_process(chunk, plan, rng, bank=bank)[0]

        def after_first():
            bank, rng = HistoryBank.for_provider(provider, cfg, p6), make_rng(0)
            run(first, bank, rng)
            return bank, rng

        def arrays(bank):
            return [a.tobytes() for a in (*bank.score_states.values(), bank.denoiser_state)]

        bank, rng = after_first()
        for bad in (np.nan, np.inf):
            hit = clean.copy()
            hit[5] = bad
            before = arrays(bank)
            with pytest.raises(DomainError, match="finite"):
                run(hit, bank, rng)
            assert arrays(bank) == before
        untouched_bank, untouched_rng = after_first()
        assert run(clean, bank, rng).tobytes() == run(clean, untouched_bank,
                                                      untouched_rng).tobytes()


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
        assert led_off == led_str

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


class TestBatchedRows:
    """The row contract of a batch of utterances at the benchmark's widths."""

    RTOL = 1e-12  # the benchmark's reference tolerance (gsebench/reference.py)
    ORDERS = ([0, 1], [1, 0], [2, 0, 1, 3], [3, 4, 0, 2], [4, 3, 2, 1, 0], [0, 2, 4, 1, 3])

    @pytest.fixture(scope="class")
    def nets(self):
        return (ScoreNet(P, frame_size=40, hidden=160, seed=0),
                DenoiserNet(frame_size=40, hidden=96, seed=1))

    @pytest.mark.parametrize("n_phi", [0, 12, 30])
    def test_rows_are_independent_of_batch_and_close_to_solo(self, nets, n_phi):
        provider = HybridScore(*nets, P)
        schedule = GuidanceSchedule.from_guided_steps(n_phi, P)
        cfg = SamplerConfig(corrector_steps=1)
        ys = [make_rng(60 + i).normal(size=800) for i in range(5)]
        seeds = [70 + i for i in range(5)]
        solo = [enhance_offline(y, provider, schedule, cfg, P, s, frame_size=40)
                for y, s in zip(ys, seeds)]
        rows = {i: [] for i in range(5)}
        for order in self.ORDERS:
            x, ledgers, _ = enhance_offline(np.stack([ys[i] for i in order]), provider,
                                            schedule, cfg, P, [seeds[i] for i in order],
                                            frame_size=40)
            for r, i in enumerate(order):
                rows[i].append(x[r])
                assert ledgers[r] == solo[i][1], (order, r)
        for i, got in rows.items():
            for other in got[1:]:
                np.testing.assert_array_equal(other, got[0])
            x_solo = solo[i][0]
            assert np.linalg.norm(got[0] - x_solo) <= self.RTOL * np.linalg.norm(x_solo)

    def test_one_row_is_the_one_dimensional_run(self, nets):
        provider = HybridScore(*nets, P)
        schedule = GuidanceSchedule.from_guided_steps(12, P)
        y = make_rng(61).normal(size=800)
        x, led, rep = enhance_offline(y, provider, schedule, SamplerConfig(), P, 5,
                                      frame_size=40)
        xb, leds, repb = enhance_offline(y[None], provider, schedule, SamplerConfig(), P, [5],
                                         frame_size=40)
        np.testing.assert_array_equal(xb[0], x)
        assert leds == [led] and repb.chunk_size == rep.chunk_size

    def test_report_covers_the_audio_of_all_rows(self):
        provider = tiny_provider()
        schedule = GuidanceSchedule.from_guided_steps(12, P)
        y = make_rng(62).normal(size=(3, 30))  # padded to 32 samples per row
        x, ledgers, report = enhance_offline(y, provider, schedule, SamplerConfig(), P,
                                             [1, 2, 3], frame_size=FRAME)
        assert x.shape == y.shape and len(ledgers) == 3
        assert report.chunk_size == 3 * 32
        assert report.chunk_ms == 1000.0 * 3 * 32 / 16000

    def test_batched_bank_holds_one_state_row_per_row(self):
        bank = HistoryBank.for_provider(tiny_provider(), SamplerConfig(), P, rows=3)
        assert all(s.shape == (3, 6) for s in bank.score_states.values())
        assert bank.denoiser_state.shape == (3, 5)

    @pytest.mark.parametrize("bank_rows, chunk_shape, message", [
        (None, (3, 32), "states for a 1-D signal, chunk has 3 rows"),
        (2, (3, 32), "states for 2 rows, chunk has 3 rows"),
        (3, (32,), "states for 3 rows, chunk has a 1-D signal"),
    ])
    def test_bank_rows_must_match_chunk_rows(self, bank_rows, chunk_shape, message):
        provider = tiny_provider()
        bank = HistoryBank.for_provider(provider, SamplerConfig(), P, rows=bank_rows)
        ledgers = [CostLedger() for _ in range(3)]
        with pytest.raises(DimensionError, match=message):
            process_chunk(np.zeros(chunk_shape), bank, plan_12(provider), make_rng(0),
                          ledgers if len(chunk_shape) == 2 else ledgers[0])
        assert ledgers == [CostLedger()] * 3  # raised before any forward

    def test_denoiser_state_rows_are_checked_too(self):
        provider = tiny_provider()
        bank = HistoryBank.for_provider(provider, SamplerConfig(), P, rows=3)
        bank.denoiser_state = np.zeros(5)
        with pytest.raises(DimensionError, match="states for a 1-D signal, chunk has 3 rows"):
            process_chunk(np.zeros((3, 32)), bank, plan_12(provider), make_rng(0))

    @pytest.mark.parametrize("shape, seed", [((3, 32), [1, 2]), ((3, 32), 1), ((32,), [1]),
                                             ((32,), (1,))],
                             ids=["rows-short-list", "rows-int", "signal-list", "signal-tuple"])
    def test_seed_must_fit_the_signal_shape(self, shape, seed):
        """Rows sharing one int seed would share one generator: row 0 would then
        depend on its batch-mates."""
        with pytest.raises(DimensionError, match="a 1-D signal takes one int seed and "
                                                 r"\(B, L\) rows a list of B seeds"):
            enhance_offline(np.ones(shape), tiny_provider(),
                            GuidanceSchedule.from_guided_steps(12, P), SamplerConfig(), P, seed,
                            frame_size=FRAME)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("shape, seed", [((32,), 1), ((3, 32), [1, 2, 3])])
    def test_non_finite_sample_is_domain_error(self, shape, seed, bad):
        """Bad input is named as such, not reported as a numerical divergence."""
        y = np.ones(shape)
        y[..., 7] = bad
        with pytest.raises(DomainError, match="finite"):
            enhance_offline(y, tiny_provider(), GuidanceSchedule.from_guided_steps(12, P),
                            SamplerConfig(), P, seed, frame_size=FRAME)

    @pytest.mark.parametrize("name, value", [("frame_size", 0), ("frame_size", -8),
                                             ("frame_size", 8.0), ("sample_rate", 0),
                                             ("sample_rate", -5), ("sample_rate", float("nan"))])
    def test_frame_size_and_sample_rate_are_config_errors(self, name, value):
        """A frame size that is not an int >= 1, or a sample rate outside [1, the largest
        float], is named before any work, not met as a ZeroDivisionError or a report."""
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            enhance_offline(np.ones(32), tiny_provider(), GuidanceSchedule.from_guided_steps(
                12, P), SamplerConfig(), P, 1, **{"frame_size": FRAME, name: value})


class TestRowStreams:
    """A stream of B rows, (B, n) chunks under one list of B seeds: each row streams as
    it would alone, with its own generator, running peak and ledger."""

    K = StreamConfig().chunk_size  # 50 ms at 16 kHz

    @pytest.fixture(scope="class")
    def nets(self):
        return (ScoreNet(P, frame_size=40, hidden=160, seed=0),
                DenoiserNet(frame_size=40, hidden=96, seed=1))

    def stream(self, provider, schedule, y, seed):
        """Push y in 50 ms chunks; returns (output, chunk ledgers, report)."""
        enhancer = StreamEnhancer(StreamConfig(), provider, schedule,
                                  SamplerConfig(corrector_steps=1), P, seed)
        outs = []
        for start in range(0, y.shape[-1], self.K):
            enhancer.push(y[..., start : start + self.K])
            outs.append(enhancer.pull())
        return np.concatenate(outs, axis=-1), enhancer.chunk_ledgers, enhancer.report

    @pytest.mark.parametrize("n_phi", [0, 12, 30])
    def test_rows_are_independent_of_batch_and_close_to_solo(self, nets, n_phi):
        provider = HybridScore(*nets, P)
        schedule = GuidanceSchedule.from_guided_steps(n_phi, P)
        L = 2 * self.K + 200  # a short final chunk
        ramp = np.linspace(0.2, 1.0, L)  # each row's running peak grows from chunk to chunk
        ys = [(0.2 + 0.3 * i) * ramp * make_rng(80 + i).normal(size=L) for i in range(5)]
        seeds = [90 + i for i in range(5)]
        solo = [self.stream(provider, schedule, y, s) for y, s in zip(ys, seeds)]
        rows = {i: [] for i in range(5)}
        for order in TestBatchedRows.ORDERS:
            x, chunk_ledgers, report = self.stream(provider, schedule,
                                                   np.stack([ys[i] for i in order]),
                                                   [seeds[i] for i in order])
            assert report.chunk_size == len(order) * self.K
            for r, i in enumerate(order):
                rows[i].append(x[r])
                assert [leds[r] for leds in chunk_ledgers] == solo[i][1], (order, r)
        for i, got in rows.items():
            for other in got[1:]:
                assert other.tobytes() == got[0].tobytes()
            x_solo = solo[i][0]
            assert np.linalg.norm(got[0] - x_solo) <= TestBatchedRows.RTOL * np.linalg.norm(x_solo)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_in_one_row_leaves_every_row_as_it_was(self, bad):
        """The rejected chunk touches no row's peak, generator or ledger, nor the bank."""
        chunks = make_rng(16).normal(size=(3, 3, SC.chunk_size))  # (chunk, row, sample)
        hit = chunks[1].copy()
        hit[1, 5] = bad

        def stream(*pushes):
            enhancer = StreamEnhancer(SC, tiny_provider(), GuidanceSchedule.from_guided_steps(
                6, P), SamplerConfig(corrector_steps=1), P, seed=[0, 1, 2])
            for chunk in pushes:
                if np.isfinite(chunk).all():
                    enhancer.push(chunk)
                    out = enhancer.pull()
                else:
                    with pytest.raises(DomainError, match="finite"):
                        enhancer.push(chunk)
                    assert enhancer.pull() is None
            return out, enhancer

        after, hit_stream = stream(chunks[0], hit, chunks[2])
        clean, clean_stream = stream(chunks[0], chunks[2])
        assert after.shape == (3, SC.chunk_size)
        assert after.tobytes() == clean.tobytes()
        assert hit_stream.ledger == clean_stream.ledger

    @pytest.mark.parametrize("seed, shape", [([1, 2, 3], (SC.chunk_size,)), (1, (3, SC.chunk_size)),
                                             ([1, 2], (3, SC.chunk_size))],
                             ids=["list-seed-signal", "int-seed-rows", "short-list-rows"])
    def test_a_chunk_that_does_not_fit_the_seed_is_rejected_before_any_draw(self, seed, shape):
        """After the rejected chunk, a chunk that fits gives what a fresh stream gives."""
        def make():
            return StreamEnhancer(SC, tiny_provider(), GuidanceSchedule.from_guided_steps(12, P),
                                  SamplerConfig(), P, seed)

        enhancer, fresh = make(), make()
        with pytest.raises(DimensionError, match="a 1-D signal takes one int seed and "
                                                 r"\(B, L\) rows a list of B seeds"):
            enhancer.push(np.ones(shape))
        rows = () if seed == 1 else (len(seed),)
        fits = make_rng(17).normal(size=rows + (SC.chunk_size,))
        enhancer.push(fits)
        fresh.push(fits)
        assert enhancer.pull().tobytes() == fresh.pull().tobytes()
        assert enhancer.ledger == fresh.ledger and len(enhancer.report.wall_times_s) == 1


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
        assert summed == enhancer.ledger

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

    def test_seed_must_be_an_int(self):
        with pytest.raises(ConfigError, match="seed must be an int, got 1.5"):
            StreamEnhancer(SC, tiny_provider(), GuidanceSchedule.from_guided_steps(0, P),
                           SamplerConfig(), P, seed=1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_chunk_rejected_and_leaves_the_stream_as_it_was(self, bad):
        """A rejected chunk touches neither the peak, the bank, the generator nor the
        ledger: the next chunk's output equals a stream's that never saw it, bit for bit."""
        chunks = make_rng(12).normal(size=(3, SC.chunk_size))
        hit = chunks[1].copy()
        hit[5] = bad

        def stream(*pushes):
            enhancer = StreamEnhancer(SC, tiny_provider(), GuidanceSchedule.from_guided_steps(
                6, P), SamplerConfig(corrector_steps=1), P, seed=0)
            for chunk in pushes:
                if np.isfinite(chunk).all():
                    enhancer.push(chunk)
                    out = enhancer.pull()
                else:
                    with pytest.raises(DomainError, match="finite"):
                        enhancer.push(chunk)
                    assert enhancer.pull() is None
            return out, enhancer

        after, hit_stream = stream(chunks[0], hit, chunks[2])
        clean, clean_stream = stream(chunks[0], chunks[2])
        assert after.tobytes() == clean.tobytes()
        assert hit_stream.ledger == clean_stream.ledger
        assert len(hit_stream.report.wall_times_s) == 2


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
