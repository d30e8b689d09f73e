"""Reverse predictor-corrector sampler: step algebra, cost accounting, toy recovery."""

import copy
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from gse.errors import ConfigError, DimensionError, DivergenceError, DomainError
from gse.nets import DenoiserNet, ScoreNet
from gse.sampler import (
    CostLedger,
    DiffusionState,
    SamplerConfig,
    StepPlan,
    corrector_step,
    predictor_step,
    reverse_process,
)
from gse.score import (
    AnalyticGaussianScore,
    DiscriminativeScore,
    GaussianPrior,
    GuidanceSchedule,
    HybridScore,
    LearnedScore,
    analytic_gaussian_score,
)
from gse.sde import SdeParams, diffusion_coeff, make_rng, mean, std, variance
from gse.streaming import HistoryBank

P = SdeParams()
WIDE = SdeParams(sigma_min=0.05, sigma_max=0.5)
# sigma_max == sigma_min kills the diffusion coefficient identically
FROZEN = SdeParams(sigma_min=0.1, sigma_max=0.1)
LEARNED = GuidanceSchedule.from_guided_steps(0, P)  # every step on the learned branch


def plan_of(provider, schedule=LEARNED, config=SamplerConfig(), params=P):
    """The ``StepPlan`` of a pass; by default all learned, one corrector, on ``P``."""
    return StepPlan.build(provider, schedule, params, config)


class _ZeroNoise:
    """Stands in for a Generator when a test wants the z draw pinned to zero."""

    def standard_normal(self, shape):
        return np.zeros(shape)


class _OracleDenoiser:
    """Duck-typed denoiser that returns a fixed clean signal in every row, whatever y holds."""

    def __init__(self, x0: np.ndarray):
        self.x0 = np.asarray(x0, dtype=np.float64)

    def forward(self, y, state=None):
        return np.broadcast_to(self.x0, np.shape(y)).copy(), state

    def macs_per_forward(self, n_samples: int) -> int:
        return 0


def _reference_normal(rng, shape):
    return np.array([r.standard_normal(shape[-1]) for r in rng])


def _reference_predictor(x, y, score, params, dt, rng, g):
    """The predictor as one expression; the in-place step must give its bits."""
    return (x + (-(params.gamma * (y - x)) + g * g * score) * dt
            + g * math.sqrt(dt) * _reference_normal(rng, x.shape))


def _reference_corrector(x, score, r, rngs):
    """The corrector's row loop with np.linalg.norm and one expression per row."""
    x_new = np.atleast_2d(x).copy()
    for x_i, s_i, rng_i, out in zip(np.atleast_2d(x), np.atleast_2d(score), rngs, x_new):
        s_norm = float(np.linalg.norm(s_i))
        if s_norm == 0.0:
            continue
        z = rng_i.standard_normal(s_i.shape)
        try:
            eps = 2.0 * (r * float(np.linalg.norm(z)) / s_norm) ** 2
        except OverflowError:
            eps = math.inf
        np.add(x_i + eps * s_i, math.sqrt(2.0 * eps) * z, out=out)
    return x_new.reshape(x.shape)


@pytest.mark.parametrize("rows", [1, 3], ids=["B=1", "rows=3"])
class TestStepBits:
    """The in-place steps reproduce their one-expression forms bit for bit, at B = 1 and
    on rows, and write into no array they were given."""

    @staticmethod
    def rngs(rows, seed):
        return [make_rng(seed + i) for i in range(rows)]

    @staticmethod
    def arrays(rows, seed, n=3):
        return make_rng(seed).normal(size=(n, rows, 800))

    def test_predictor(self, rows):
        x, y, score = self.arrays(rows, 60)
        given = [a.copy() for a in (x, y, score)]
        g, dt = diffusion_coeff(0.5, P), P.T / P.N
        got = predictor_step(DiffusionState(x, 0.5), y, score, P, dt, self.rngs(rows, 61), g)
        want = _reference_predictor(x, y, score, P, dt, self.rngs(rows, 61), g)
        assert got.x.tobytes() == want.tobytes()
        for a, b in zip((x, y, score), given):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ["plain", "zero", "overflow"])
    def test_corrector(self, rows, kind):
        """A zero-score row keeps its input, draws nothing and counts a skip; a score so
        small that eps overflows leaves its row non-finite (the sampler then diverges)."""
        x, score = self.arrays(rows, 62, 2)
        i = 0 if rows == 1 else 1  # the row of the given kind
        score[i] *= {"plain": 1.0, "zero": 0.0, "overflow": 1e-160}[kind]
        given = [a.copy() for a in (x, score)]
        ledgers, rngs = [CostLedger() for _ in range(rows)], self.rngs(rows, 63)
        with np.errstate(over="ignore", invalid="ignore"):
            got = corrector_step(DiffusionState(x, 0.4), score, 0.5, rngs, ledgers)
            want = _reference_corrector(x, score, 0.5, self.rngs(rows, 63))
        assert got.x.tobytes() == want.tobytes() and got.t == 0.4
        for a, b in zip((x, score), given):
            assert a.tobytes() == b.tobytes()
        x_i, out_i = x[i], got.x[i]
        assert [led.corrector_evals for led in ledgers] == [1] * rows
        assert [led.corrector_skips for led in ledgers] == [int(k == i and kind == "zero")
                                                            for k in range(rows)]
        if kind == "zero":
            assert out_i.tobytes() == x_i.tobytes() and not np.shares_memory(got.x, x)
            np.testing.assert_array_equal(rngs[i].standard_normal(3),
                                          make_rng(63 + i).standard_normal(3))
        assert np.isfinite(out_i).all() == (kind != "overflow")
        assert np.isfinite(np.delete(got.x, i, axis=0)).all()


class TestPredictorStep:
    def test_zero_score_zero_noise_is_pure_drift_reversal(self):
        rng = make_rng(0)
        x = rng.normal(size=(1, 12))
        y = rng.normal(size=(1, 12))
        dt = 0.05
        out = predictor_step(DiffusionState(x, 0.5), y, np.zeros((1, 12)), FROZEN, dt, [rng])
        expected = x + (-(FROZEN.gamma * (y - x)) + 0.0) * dt
        np.testing.assert_array_equal(out.x, expected)
        assert out.t == 0.45

    def test_reversed_drift_moves_away_from_condition(self):
        x = np.array([[1.0, -2.0, 0.3]])
        y = np.array([[0.2, 0.2, 0.2]])
        out = predictor_step(DiffusionState(x, 0.9), y, np.zeros((1, 3)), FROZEN, 0.1,
                             [make_rng(1)])
        assert np.all(np.abs(out.x - y) > np.abs(x - y))

    def test_time_hits_zero_exactly_from_final_grid_step(self):
        x = np.zeros((1, 4))
        out = predictor_step(DiffusionState(x, 1.0 / 30.0), x, x, P, 1.0 / 30.0, [make_rng(0)])
        assert out.t == 0.0

    def test_bad_dt_rejected(self):
        st = DiffusionState(np.zeros((1, 4)), 0.5)
        with pytest.raises(DomainError):
            predictor_step(st, np.zeros((1, 4)), np.zeros((1, 4)), P, 0.0, [make_rng(0)])
        with pytest.raises(DomainError):
            predictor_step(st, np.zeros((1, 4)), np.zeros((1, 4)), P, 0.6, [make_rng(0)])

    def test_shape_mismatch_rejected(self):
        st = DiffusionState(np.zeros((1, 4)), 0.5)
        with pytest.raises(DimensionError):
            predictor_step(st, np.zeros((1, 5)), np.zeros((1, 4)), P, 0.1, [make_rng(0)])


class TestCorrectorStep:
    def test_zero_noise_draw_is_identity(self):
        x = make_rng(2).normal(size=(1, 6))
        ledger = CostLedger()
        out = corrector_step(DiffusionState(x, 0.4), np.ones_like(x), 0.5, [_ZeroNoise()],
                             [ledger])
        np.testing.assert_array_equal(out.x, x)
        assert out.t == 0.4
        assert ledger.corrector_evals == 1 and ledger.corrector_skips == 0

    def test_zero_score_skips_and_leaves_rng_untouched(self):
        x = make_rng(3).normal(size=(1, 6))
        rng = make_rng(4)
        ledger = CostLedger()
        out = corrector_step(DiffusionState(x, 0.4), np.zeros_like(x), 0.5, [rng], [ledger])
        np.testing.assert_array_equal(out.x, x)
        assert out.x is not x  # a copy, not an alias
        assert ledger.corrector_skips == 1
        # the skip happened before any draw: the stream continues from the start
        np.testing.assert_array_equal(rng.standard_normal(3), make_rng(4).standard_normal(3))

    def test_langevin_iterations_improve_marginal_fit(self):
        """Corrections pull a mis-centered ensemble toward the analytic marginal.

        One long vector state is a Langevin chain on the product density, so each
        coordinate's marginal relaxes to the scalar marginal; the fit is measured
        with a KS statistic against the exact normal CDF.
        """
        prior = GaussianPrior(m0=1.0, var0=0.04)
        y_c, t = 0.4, 0.5
        n = 4000
        m = float(mean(np.array([prior.m0]), np.array([y_c]), t, WIDE)[0])
        var_m = math.exp(-2.0 * WIDE.gamma * t) * prior.var0 + variance(t, WIDE)
        rng = make_rng(5)
        x = rng.normal(m + 0.3, math.sqrt(var_m), size=(1, n))  # mis-centered start
        y = np.full((1, n), y_c)

        def ks(samples):
            xs = np.sort(samples)
            cdf = 0.5 * (1.0 + np.vectorize(math.erf)((xs - m) / math.sqrt(2.0 * var_m)))
            emp_hi = np.arange(1, n + 1) / n
            emp_lo = np.arange(0, n) / n
            return float(max(np.max(np.abs(emp_hi - cdf)), np.max(np.abs(emp_lo - cdf))))

        before = ks(x[0])
        state = DiffusionState(x, t)
        for _ in range(20):
            score = analytic_gaussian_score(state.x, y, t, prior, WIDE)
            state = corrector_step(state, score, 0.5, [rng], [CostLedger()])
        after = ks(state.x[0])
        assert after < before
        assert after < 0.1


class TestReverseProcess:
    def make_hybrid(self, frame_size=4, hidden=6):
        score_net = ScoreNet(P, frame_size=frame_size, hidden=hidden, seed=3)
        denoiser = DenoiserNet(frame_size=frame_size, hidden=hidden, seed=4)
        return HybridScore(score_net, denoiser, P)

    def test_hybrid_cost_identities(self):
        y = make_rng(6).normal(size=32)
        provider = self.make_hybrid()
        schedule = GuidanceSchedule.from_guided_steps(12, P)
        cfg = SamplerConfig(corrector_steps=1)
        _, ledger = reverse_process(y, plan_of(provider, schedule, cfg), make_rng(7))
        assert ledger.score_net_forwards == (1 + 1) * (30 - 12)
        assert ledger.denoiser_forwards == 1
        assert ledger.steps_guided == 12
        assert ledger.steps_learned == 18
        assert ledger.corrector_evals == 30

    def test_analytic_provider_costs_nothing(self):
        y = np.full(8, 0.4)
        provider = AnalyticGaussianScore(GaussianPrior(1.0, 0.04), P)
        _, ledger = reverse_process(y, plan_of(provider), make_rng(8))
        assert ledger.score_net_forwards == 0
        assert ledger.denoiser_forwards == 0
        assert ledger.mac_total == 0
        assert ledger.steps_learned == 30 and ledger.steps_guided == 0

    def test_mac_total_affine_in_guided_count(self):
        y = make_rng(9).normal(size=32)
        provider = self.make_hybrid()
        cfg = SamplerConfig(corrector_steps=1)
        macs = []
        forwards = []
        for n_phi in (0, 6, 12):
            schedule = GuidanceSchedule.from_guided_steps(n_phi, P)
            _, ledger = reverse_process(y, plan_of(provider, schedule, cfg), make_rng(10))
            macs.append(ledger.mac_total)
            forwards.append(ledger.score_net_forwards)
        assert macs[0] - macs[1] == macs[1] - macs[2]  # exact affine law
        assert forwards == [60, 48, 36]

    def test_same_seed_bitwise_reproducible(self):
        y = make_rng(11).normal(size=32)
        provider = self.make_hybrid()
        schedule = GuidanceSchedule.from_guided_steps(10, P)
        cfg = SamplerConfig(corrector_steps=1)
        plan = plan_of(provider, schedule, cfg)
        a, _ = reverse_process(y, plan, make_rng(42))
        b, _ = reverse_process(y, plan, make_rng(42))
        c, _ = reverse_process(y, plan, make_rng(43))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_divergence_reports_step_index(self):
        class ExplodingProvider(AnalyticGaussianScore):
            def bind(self, y, ledger, plan, denoiser_state=None):
                bound, st = super().bind(y, ledger, plan, denoiser_state)
                bound.evaluate = lambda x, t, s, g: (np.full_like(x, np.inf), s)
                return bound, st

        provider = ExplodingProvider(GaussianPrior(1.0, 0.04), P)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="n="):
            reverse_process(np.zeros(4), plan_of(provider), make_rng(12))

    def test_divergence_names_the_step_phase_and_rows(self):
        class RowOneExploding(AnalyticGaussianScore):
            def bind(self, y, ledger, plan, denoiser_state=None):
                bound, st = super().bind(y, ledger, plan, denoiser_state)

                def evaluate(x, t, s, g):
                    score = np.zeros_like(x)
                    score[1] = np.inf
                    return score, s

                bound.evaluate = evaluate
                return bound, st

        provider = RowOneExploding(GaussianPrior(1.0, 0.04), P)
        rngs = [make_rng(i) for i in range(3)]
        with np.errstate(all="ignore"), pytest.raises(
            DivergenceError, match=r"after the predictor at step n=30 in rows \[1\]$"
        ):
            reverse_process(np.zeros((3, 4)), plan_of(provider), rngs)

    @staticmethod
    def fixed_score(value):
        """An oracle provider whose every evaluation returns rows [1, value, 1] * ones."""
        class Fixed(AnalyticGaussianScore):
            def bind(self, y, ledger, plan, denoiser_state=None):
                bound, st = super().bind(y, ledger, plan, denoiser_state)
                bound.evaluate = lambda x, t, s, g: (np.ones_like(x) * [[1.0], [value], [1.0]], s)
                return bound, st

        return Fixed(GaussianPrior(1.0, 0.04), P)

    def test_corrector_step_overflow_is_a_divergence(self):
        """A score so small that the corrector's eps overflows leaves a non-finite row."""
        rngs = [make_rng(i) for i in range(3)]
        with pytest.raises(DivergenceError, match=r"after the corrector at step n=30 in rows \[1\]$"):
            reverse_process(np.zeros((3, 8)), plan_of(self.fixed_score(1e-160)), rngs)

    def test_a_huge_finite_state_is_no_divergence(self):
        """Squares past the float range overflow the finite check's fast path, not the run."""
        y = np.full((3, 8), 1e200)
        x, _ = reverse_process(y, plan_of(self.fixed_score(0.0)), [make_rng(i) for i in range(3)])
        assert np.isfinite(x).all() and np.abs(x).min() > 1e199

    def test_rows_draw_from_their_own_generators(self):
        """Row i of a batch draws what a run of it alone draws, whatever the other rows."""
        provider = AnalyticGaussianScore(GaussianPrior(1.0, 0.04), P)
        y = make_rng(13).normal(size=(3, 8))
        cfg = SamplerConfig(corrector_steps=2)
        rngs = [make_rng(20 + i) for i in range(3)]
        plan = plan_of(provider, config=cfg)
        x, ledgers = reverse_process(y, plan, rngs)
        for i in range(3):
            solo, led = reverse_process(y[i], plan, make_rng(20 + i))
            np.testing.assert_array_equal(x[i], solo)
            assert ledgers[i] == led

    def test_corrector_skips_and_counts_per_row(self):
        x = make_rng(14).normal(size=(2, 6))
        score = np.vstack([np.zeros(6), np.ones(6)])
        ledgers = [CostLedger(), CostLedger()]
        rngs = [make_rng(15), make_rng(16)]
        out = corrector_step(DiffusionState(x, 0.4), score, 0.5, rngs, ledgers)
        np.testing.assert_array_equal(out.x[0], x[0])
        solo = corrector_step(DiffusionState(x[1:], 0.4), score[1:], 0.5, [make_rng(16)],
                              [CostLedger()])
        np.testing.assert_array_equal(out.x[1], solo.x[0])
        assert [(l.corrector_evals, l.corrector_skips) for l in ledgers] == [(1, 1), (1, 0)]
        # the skipped row drew nothing
        np.testing.assert_array_equal(rngs[0].standard_normal(3), make_rng(15).standard_normal(3))

    def test_generator_count_must_match_rows(self):
        provider = AnalyticGaussianScore(GaussianPrior(1.0, 0.04), P)
        with pytest.raises(DimensionError):
            reverse_process(np.zeros((3, 4)), plan_of(provider), [make_rng(0), make_rng(1)])

    @pytest.mark.parametrize("kind", ["learned", "hybrid", "discriminative"])
    @pytest.mark.parametrize("shape", [(32,), (3, 32)], ids=["signal", "rows3"])
    def test_a_pass_without_a_bank_equals_one_on_a_fresh_bank(self, kind, shape):
        """The default bank is a fresh zero one: outputs and ledgers are the same bits."""
        hybrid = self.make_hybrid()
        provider, n_guided = {"learned": (LearnedScore(hybrid.net, P), 0), "hybrid": (hybrid, 12),
                              "discriminative": (DiscriminativeScore(hybrid.denoiser, P), 30)}[kind]
        plan = plan_of(provider, GuidanceSchedule.from_guided_steps(n_guided, P))
        y = make_rng(14).normal(size=shape)

        def run(bank):
            rng = make_rng(15) if len(shape) == 1 else [make_rng(15 + i) for i in range(3)]
            return reverse_process(y, plan, rng, bank=bank)

        rows = 1 if len(shape) == 1 else 3
        (x, ledger), (x_bank, ledger_bank) = run(None), run(
            HistoryBank.for_provider(provider, plan.config, P, rows))
        assert x.tobytes() == x_bank.tobytes()
        assert ledger == ledger_bank

    def test_corrector_steps_must_be_an_int(self):
        with pytest.raises(ConfigError, match="corrector_steps must be an int >= 0, got 1.5"):
            SamplerConfig(corrector_steps=1.5)

    def test_schedule_grid_mismatch_rejected(self):
        y = np.zeros(8)
        provider = AnalyticGaussianScore(GaussianPrior(1.0, 0.04), P)
        schedule = GuidanceSchedule.from_guided_steps(5, SdeParams(N=15))
        with pytest.raises(ConfigError, match="schedule built for N=15, sampler runs N=30"):
            plan_of(provider, schedule)


class TestRowRule:
    """``reverse_process`` takes a signal (L,) with one generator and one ledger, rows (B, L)
    with a list of one of each per row; the steps and ``bind`` take rows only.  Anything
    else raises DimensionError before a draw, a forward or a bank write."""

    P6 = SdeParams(N=6)
    CASES = {  # y's shape, then whether rng and ledger are one (False) or a list (True)
        "rows_one_generator": ((3, 8), False, True),
        "rows_one_ledger": ((3, 8), True, False),
        "signal_generator_list": ((8,), True, False),
        "signal": ((8,), False, False),  # what only reverse_process takes
    }

    def case(self, name):
        shape, rng_list, ledger_list = self.CASES[name]
        provider = HybridScore(ScoreNet(self.P6, frame_size=4, hidden=6, seed=1),
                               DenoiserNet(frame_size=4, hidden=5, seed=2), self.P6)
        plan = plan_of(provider, GuidanceSchedule.from_guided_steps(2, self.P6), params=self.P6)
        rows = shape[0] if len(shape) == 2 else 1
        bank = HistoryBank.for_provider(provider, plan.config, self.P6, rows)
        rngs = [make_rng(30 + i) for i in range(rows)]
        ledgers = [CostLedger() for _ in range(rows)]
        return SimpleNamespace(
            y=make_rng(40).normal(size=shape), plan=plan, bank=bank, kept=copy.deepcopy(bank),
            rngs=rngs, ledgers=ledgers,
            rng=rngs if rng_list else rngs[0], ledger=ledgers if ledger_list else ledgers[0])

    @staticmethod
    def assert_untouched(case):
        """The bank holds its states bit for bit, each generator draws from its start, and
        every ledger is fresh."""
        bank, kept = case.bank, case.kept
        pairs = [(bank.denoiser_state, kept.denoiser_state)]
        pairs += [(bank.score_states[n], kept.score_states[n]) for n in kept.score_states]
        assert bank.score_states.keys() == kept.score_states.keys()
        assert all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in pairs)
        for i, rng in enumerate(case.rngs):
            np.testing.assert_array_equal(rng.standard_normal(3),
                                          make_rng(30 + i).standard_normal(3))
        assert case.ledgers == [CostLedger() for _ in case.ledgers]

    @pytest.mark.parametrize("name", [name for name in CASES if name != "signal"])
    def test_reverse_process(self, name):
        case = self.case(name)
        with pytest.raises(DimensionError, match=r"takes one (generator|ledger) and rows \(B, L\)"):
            reverse_process(case.y, case.plan, case.rng, case.bank, case.ledger)
        self.assert_untouched(case)

    @pytest.mark.parametrize("name", ["rows_one_generator", "signal"])
    def test_predictor_step(self, name):
        case = self.case(name)
        with pytest.raises(DimensionError,
                           match=r"got one Generator for shape " + re.escape(str(case.y.shape))):
            predictor_step(DiffusionState(case.y, 0.5), case.y, case.y, self.P6, 0.1, case.rng)
        self.assert_untouched(case)

    @pytest.mark.parametrize("name", list(CASES))
    def test_corrector_step(self, name):
        case = self.case(name)
        with pytest.raises(DimensionError, match=r"takes one (generator|ledger) and rows \(B, L\)"):
            corrector_step(DiffusionState(case.y, 0.5), case.y, 0.5, case.rng, case.ledger)
        self.assert_untouched(case)

    @pytest.mark.parametrize("name", ["rows_one_ledger", "signal"])
    def test_bind(self, name):
        case = self.case(name)
        with pytest.raises(DimensionError,
                           match=r"got one CostLedger for shape " + re.escape(str(case.y.shape))):
            case.plan.provider.bind(case.y, case.ledger, case.plan, case.bank.denoiser_state)
        self.assert_untouched(case)


class TestToyRecovery:
    def test_terminal_moments_match_gaussian_prior(self):
        """Analytic-score reverse runs land on the clean prior's moments.

        The schedule must actually be variance-exploding relative to the prior
        (sigma(T) well above sqrt(var0)), otherwise the N(y, sigma(T)^2) start
        misses most of the signal spread.  Runs are batched as one iid vector
        per pass: the corrector's shared step size couples coordinates weakly
        (a (L+2)/L variance factor) and is outright unstable for scalar states,
        so a production-sized L is part of the contract, not a shortcut.
        """
        params = SdeParams(sigma_min=0.05, sigma_max=0.5, t_eps=1e-3, N=200)
        prior = GaussianPrior(m0=1.0, var0=0.04)
        y = np.full(128, 0.4)
        provider = AnalyticGaussianScore(prior, params)
        schedule = GuidanceSchedule.from_guided_steps(0, params)
        cfg = SamplerConfig(corrector_steps=1, corrector_snr=0.1)
        plan = plan_of(provider, schedule, cfg, params)
        rng = make_rng(100)
        finals = []
        for _ in range(200):
            x_out, _ = reverse_process(y, plan, rng)
            finals.append(x_out)
        samples = np.concatenate(finals)
        assert abs(float(np.mean(samples)) - prior.m0) < 0.02 * prior.m0
        assert abs(float(np.var(samples)) - prior.var0) < 0.10 * prior.var0

    def test_more_guided_steps_track_denoiser_target_closer(self):
        """With an oracle denoiser and an untrained score net, guidance wins."""
        rng = make_rng(200)
        x0 = rng.normal(size=32)
        y = x0 + 0.3 * rng.normal(size=32)
        score_net = ScoreNet(P, frame_size=4, hidden=6, seed=9)  # untrained: noise
        provider = HybridScore(score_net, _OracleDenoiser(x0), P)
        cfg = SamplerConfig(corrector_steps=1)
        errs = []
        for n_phi in (0, 15, 30):
            plan = plan_of(provider, GuidanceSchedule.from_guided_steps(n_phi, P), cfg)
            run_errs = []
            for seed in range(5):
                x_out, _ = reverse_process(y, plan, make_rng(300 + seed))
                run_errs.append(float(np.linalg.norm(x_out - x0)))
            errs.append(float(np.median(run_errs)))
        assert errs[0] > errs[1] > errs[2]


class TestStepPlan:
    # the second grid has T/N below t_eps, so its two lowest steps are clamped
    @pytest.mark.parametrize("params", [P, SdeParams(N=100, t_eps=0.03)], ids=["N30", "N100"])
    def test_columns_equal_the_closed_forms(self, params):
        net = ScoreNet(params, frame_size=4, hidden=6, seed=1)
        provider = HybridScore(net, DenoiserNet(frame_size=4, hidden=5, seed=2), params)
        schedule = GuidanceSchedule.from_guided_steps(params.N // 3, params)
        plan = plan_of(provider, schedule, params=params)
        dt = params.T / params.N
        x0, y = make_rng(30).normal(size=(2, 8))
        assert plan.dt == dt and plan.prior_std == std(params.T, params)
        for n in range(1, params.N + 1):
            t_n = params.grid_time(n)
            assert plan.t[n - 1] == t_n
            assert plan.g[n - 1] == diffusion_coeff(t_n, params)
            assert plan.t_eval[n - 1] == max(max(t_n - dt, 0.0), params.t_eps)
            assert plan.guided[n - 1] == (n > params.N - schedule.n_guided)
            for t in (t_n, plan.t_eval[n - 1]):
                i = plan.point_of[t]
                tc = min(max(t, params.t_eps), params.T)
                v, a, rise = plan.kernel[i]
                assert v == variance(tc, params)
                np.testing.assert_array_equal(a * x0 + rise * y, mean(x0, y, tc, params))
                assert plan.gain[i] == net.gain(tc) == 1.0 / std(tc, params)
                np.testing.assert_array_equal(plan.emb[i], net.emb.embed(tc))
        assert plan.guided == tuple(provider.guided_steps(schedule))

    def test_plan_is_immutable_and_only_carries_net_rows_when_needed(self):
        net = ScoreNet(P, frame_size=4, hidden=6, seed=1)
        provider = HybridScore(net, DenoiserNet(frame_size=4, hidden=5, seed=2), P)
        plan = plan_of(provider, GuidanceSchedule.from_guided_steps(12, P))
        with pytest.raises(AttributeError):
            plan.dt = 0.5
        with pytest.raises(ValueError):
            plan.emb[0, 0] = 1.0
        all_guided = plan_of(provider, GuidanceSchedule.from_guided_steps(P.N, P))
        assert all_guided.emb is None and all_guided.gain is None

    def test_two_plans_built_alike_give_the_same_run(self):
        y = make_rng(31).normal(size=32)
        provider = TestReverseProcess().make_hybrid()
        schedule = GuidanceSchedule.from_guided_steps(12, P)
        a, led_a = reverse_process(y, plan_of(provider, schedule), make_rng(3))
        b, led_b = reverse_process(y, plan_of(provider, schedule), make_rng(3))
        np.testing.assert_array_equal(a, b)
        assert led_a == led_b


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SamplerConfig(corrector_steps=-1)
        with pytest.raises(ConfigError):
            SamplerConfig(corrector_snr=0.0)
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="corrector_snr must be finite"):
                SamplerConfig(corrector_snr=value)

    def test_ledger_addition(self):
        a = CostLedger(score_net_forwards=2, mac_total=10, steps_learned=1)
        b = CostLedger(score_net_forwards=3, denoiser_forwards=1, steps_guided=4)
        c = a + b
        assert c.score_net_forwards == 5
        assert c.denoiser_forwards == 1
        assert c.mac_total == 10
        assert c.steps_guided == 4 and c.steps_learned == 1
