"""Guided/learned score surrogates, the switch schedule, and provider accounting."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gse.errors import ConfigError, DimensionError, DomainError
from gse.nets import DenoiserNet, ScoreNet
from gse.sampler import CostLedger, SamplerConfig, StepPlan, reverse_process
from gse.score import (
    AnalyticGaussianScore,
    DiscriminativeScore,
    GaussianPrior,
    GuidanceSchedule,
    HybridScore,
    LearnedScore,
    analytic_gaussian_score,
    discriminative_score,
)
from gse.sde import SdeParams, kernel_coefficients, make_rng, perturb, std, variance

P = SdeParams()


class TestOracleIdentity:
    def test_exact_recovery_of_noise_direction(self, wide_noise_params):
        """Feeding the true clean signal as x_d returns -z/std(t) to 1e-12."""
        p = wide_noise_params
        rng = make_rng(42)
        worst = 0.0
        for _ in range(200):
            t = rng.uniform(p.t_eps, p.T)
            x0 = rng.normal(0.0, 0.5, size=12)
            y = x0 + rng.normal(0.0, 0.2, size=12)
            z = rng.standard_normal(12)
            x_t = perturb(x0, y, t, z, p)
            s = discriminative_score(x_t, y, t, x0, p)
            worst = max(worst, float(np.max(np.abs(s + z / std(t, p)))))
        assert worst <= 1e-12

    @pytest.mark.parametrize("shape", [(800,), (3, 800)], ids=["B=1", "rows=3"])
    @pytest.mark.parametrize("t", [P.t_eps, 0.5, P.T])
    def test_bits_of_the_one_expression_form(self, shape, t):
        """The in-place score gives the bits of (a x_d + rise y - x_t) / v and writes into
        none of its inputs, with the kernel given or computed."""
        x_t, y, x_d = make_rng(44).normal(size=(3, *shape))
        given = [a.copy() for a in (x_t, y, x_d)]
        v, a, rise = kernel = kernel_coefficients(t, P)
        want = ((a * x_d + rise * y - x_t) / v).tobytes()
        assert discriminative_score(x_t, y, t, x_d, P, kernel).tobytes() == want
        assert discriminative_score(x_t, y, t, x_d, P).tobytes() == want
        for arr, kept in zip((x_t, y, x_d), given):
            assert arr.tobytes() == kept.tobytes()

    def test_rejects_times_outside_window(self):
        x = np.zeros(4)
        with pytest.raises(DomainError):
            discriminative_score(x, x, P.t_eps / 2, x, P)
        with pytest.raises(DomainError):
            discriminative_score(x, x, P.T * 1.5, x, P)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionError):
            discriminative_score(np.zeros(4), np.zeros(4), 0.5, np.zeros(5), P)
        with pytest.raises(DimensionError):
            discriminative_score(np.zeros(5), np.zeros(4), 0.5, np.zeros(5), P)


def branches(schedule):
    """``ScoreProvider.guided_steps`` of a provider with both sources; entry n - 1 is step n."""
    return HybridScore(object(), object(), P).guided_steps(schedule)


class TestSchedule:
    def test_reference_step_counts(self):
        assert GuidanceSchedule.from_switch_time(0.6, P).n_guided == 12
        p15 = SdeParams(N=15)
        t13 = p15.grid_time(p15.N - 13)
        assert t13 == pytest.approx(2.0 / 15.0, rel=1e-15)
        assert GuidanceSchedule.from_switch_time(2.0 / 15.0, p15).n_guided == 13

    def test_switch_time_and_count_round_trip(self):
        for k in range(P.N + 1):
            t_switch = P.grid_time(P.N - k)
            assert GuidanceSchedule.from_switch_time(t_switch, P).n_guided == k

    def test_tie_goes_to_learned_branch(self):
        # a switch exactly on a grid node leaves that node un-guided
        t_switch = P.grid_time(18)
        sched = GuidanceSchedule.from_switch_time(t_switch, P)
        assert sched.n_guided == 12
        assert not branches(sched)[18 - 1]
        assert branches(sched)[19 - 1]

    def test_partition_matches_count(self):
        flags = branches(GuidanceSchedule.from_guided_steps(7, P))
        assert sum(flags) == 7
        assert flags == [n > P.N - 7 for n in range(1, P.N + 1)]

    def test_constructors_agree(self):
        a = GuidanceSchedule.from_guided_steps(12, P)
        b = GuidanceSchedule.from_switch_time(P.grid_time(P.N - 12), P)
        assert (a.n_guided, a.n_steps) == (b.n_guided, b.n_steps)

    def test_out_of_range_rejected(self):
        for n_guided in (-1, P.N + 1):
            with pytest.raises(DomainError):
                GuidanceSchedule.from_guided_steps(n_guided, P)
        with pytest.raises(DomainError):
            GuidanceSchedule.from_switch_time(-0.1, P)

    @pytest.mark.parametrize("n_guided", [-3, 7, 40])
    def test_direct_construction_checks_the_count(self, n_guided):
        """A schedule built without a named constructor guides 0..n_steps steps, so the
        n_phi a run reports is the count it ran."""
        with pytest.raises(DomainError, match=f"guided-step count {n_guided} outside 0..6"):
            GuidanceSchedule(n_guided, 6)
        assert GuidanceSchedule(6, 6).n_guided == 6

    def test_direct_construction_takes_an_int_count(self):
        """GuidanceSchedule(2.5, 6) would run 3 guided steps and report 2.5."""
        with pytest.raises(DomainError, match="n_guided must be an int, got 2.5"):
            GuidanceSchedule(2.5, 6)

    def test_guided_steps_are_not_truncated(self):
        """from_guided_steps(2.9, P) would run int(2.9) = 2 guided steps."""
        with pytest.raises(DomainError, match="n_guided must be an int, got 2.9"):
            GuidanceSchedule.from_guided_steps(2.9, P)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_guided_count_monotone_in_switch_time(ta, tb):
    lo, hi = sorted((ta, tb))
    n_lo = GuidanceSchedule.from_switch_time(lo, P).n_guided
    assert n_lo >= GuidanceSchedule.from_switch_time(hi, P).n_guided
    assert 0 <= n_lo <= P.N


class TestAnalyticGaussianScore:
    def test_linear_in_x_with_expected_slope(self):
        prior = GaussianPrior(m0=1.0, var0=0.04)
        t = 0.6
        y = np.full(3, 0.4)
        x1 = np.array([0.0, 0.5, 1.0])
        x2 = x1 + 0.25
        s1 = analytic_gaussian_score(x1, y, t, prior, P)
        s2 = analytic_gaussian_score(x2, y, t, prior, P)
        slope = (s2 - s1) / 0.25
        expected = -1.0 / (math.exp(-2 * P.gamma * t) * prior.var0 + variance(t, P))
        np.testing.assert_allclose(slope, expected, rtol=1e-12)

    def test_zero_at_marginal_mean(self):
        prior = GaussianPrior(m0=0.7, var0=0.01)
        y = np.full(4, 0.2)
        t = 0.8
        a = math.exp(-P.gamma * t)
        x_t = np.full(4, a * prior.m0 + (1 - a) * 0.2)
        s = analytic_gaussian_score(x_t, y, t, prior, P)
        np.testing.assert_allclose(s, 0.0, atol=1e-12)

    def test_degenerate_prior_rejected(self):
        with pytest.raises(ConfigError):
            GaussianPrior(m0=0.0, var0=-1.0)


class _ConstScoreNet:
    """Duck-typed score net returning a constant score; no state_dim."""

    def __init__(self, value: float):
        self.value = value

    def forward(self, x_t, y, t, state=None, cond=None, point=0):
        return np.full_like(x_t, self.value), state

    def macs_per_forward(self, n_samples: int) -> int:
        return 0


class _FixedDenoiser:
    """Duck-typed denoiser returning a fixed estimate x_d in every row; no state_dim."""

    def __init__(self, x_d):
        self.x_d = np.asarray(x_d, dtype=np.float64)

    def forward(self, y, state=None):
        return np.broadcast_to(self.x_d, np.shape(y)).copy(), state

    def macs_per_forward(self, n_samples: int) -> int:
        return 0


LEARNED, GUIDED = (GuidanceSchedule.from_guided_steps(n, P) for n in (0, P.N))


def bind(provider, y, ledger, schedule, params=P):
    """``provider.bind`` of the one row y (1, L) with its ledger on the step plan of
    ``schedule`` over the grid of ``params``."""
    return provider.bind(y, [ledger], StepPlan.build(provider, schedule, params, SamplerConfig()))


class TestHybridDispatch:
    """The provider's per-step rule: guided above the switch time, learned below."""

    def setup_method(self):
        self.sched = GuidanceSchedule.from_guided_steps(12, P)
        rng = make_rng(0)
        self.x0 = rng.normal(size=(1, 8))
        self.y = self.x0 + 0.1
        self.x_t = self.x0 + 0.05
        self.provider = HybridScore(_ConstScoreNet(7.0), _FixedDenoiser(self.x0), P)

    def test_branches(self):
        guided = self.provider.guided_steps(self.sched)
        bound, _ = bind(self.provider, self.y, CostLedger(), self.sched)
        # the top step, the lowest guided step, the step on the switch time, the last step
        for n in (P.N, 19, 18, 1):
            t = P.grid_time(n)
            s, _ = bound.evaluate(self.x_t, t, None, guided[n - 1])
            if t > P.grid_time(P.N - 12):
                np.testing.assert_array_equal(
                    s, discriminative_score(self.x_t, self.y, t, self.x0, P)
                )
            else:
                np.testing.assert_array_equal(s, 7.0)

    def test_ledger_records_branch(self):
        cfg = SamplerConfig(corrector_steps=0)
        plan = StepPlan.build(self.provider, self.sched, P, cfg)
        _, ledger = reverse_process(self.y[0], plan, make_rng(1))
        assert (ledger.steps_guided, ledger.steps_learned) == (12, P.N - 12)


def tiny_nets():
    score_net = ScoreNet(P, frame_size=4, hidden=6, seed=3)
    denoiser = DenoiserNet(frame_size=4, hidden=5, seed=4)
    return score_net, denoiser


class TestProviders:
    def test_learned_provider_counts_each_evaluation(self):
        net, _ = tiny_nets()
        ledger = CostLedger()
        provider = LearnedScore(net, P)
        bound, _ = bind(provider, np.zeros((1, 8)), ledger, LEARNED)
        state = np.zeros((1, net.state_dim))
        _, state = bound.evaluate(np.zeros((1, 8)), 0.5, state, guided=False)
        _, state = bound.evaluate(np.zeros((1, 8)), 0.4, state, guided=False)
        assert ledger.score_net_forwards == 2
        assert ledger.denoiser_forwards == 0
        assert ledger.mac_total == 2 * net.macs_per_forward(8)

    def test_learned_provider_clamps_time(self):
        """At N = 100, T/N < t_eps: the lowest grid times are evaluated at t_eps."""
        params = SdeParams(N=100)
        net = ScoreNet(params, frame_size=4, hidden=6, seed=3)
        bound, _ = bind(LearnedScore(net, params), np.zeros((1, 8)), CostLedger(),
                        GuidanceSchedule.from_guided_steps(0, params), params)
        state = np.zeros((1, net.state_dim))
        s_floor, _ = net.forward(np.ones((1, 8)), np.zeros((1, 8)), params.t_eps, state)
        for t in (params.grid_time(1), params.grid_time(2), params.t_eps):
            s, _ = bound.evaluate(np.ones((1, 8)), t, state, False)
            np.testing.assert_array_equal(s, s_floor)

    def test_discriminative_provider_runs_denoiser_once(self):
        _, denoiser = tiny_nets()
        ledger = CostLedger()
        provider = DiscriminativeScore(denoiser, P)
        y = make_rng(1).normal(size=(1, 8))
        bound, den_state = bind(provider, y, ledger, GUIDED)
        assert ledger.denoiser_forwards == 1
        assert ledger.mac_total == denoiser.macs_per_forward(8)
        before = ledger.mac_total
        state_in = np.zeros((1, 1))
        _, state_out = bound.evaluate(y, 0.9, state_in, guided=True)
        _, _ = bound.evaluate(y, 0.5, state_in, guided=True)
        assert ledger.denoiser_forwards == 1  # evaluations are free
        assert ledger.mac_total == before
        assert state_out is state_in  # no recurrent net on this path

    def test_hybrid_provider_binds_denoiser_even_if_never_guided(self):
        net, denoiser = tiny_nets()
        ledger = CostLedger()
        provider = HybridScore(net, denoiser, P)
        sched = GuidanceSchedule.from_guided_steps(0, P)
        bind(provider, np.zeros((1, 8)), ledger, sched)
        assert ledger.denoiser_forwards == 1
        assert not any(provider.guided_steps(sched))

    def test_schedule_needing_a_missing_source_rejected(self):
        net, denoiser = tiny_nets()
        learned_only = LearnedScore(net, P)
        with pytest.raises(ConfigError):
            learned_only.guided_steps(GuidanceSchedule.from_guided_steps(1, P))
        with pytest.raises(ConfigError):
            StepPlan.build(learned_only, GUIDED, P, SamplerConfig())
        denoiser_only = DiscriminativeScore(denoiser, P)
        with pytest.raises(ConfigError):
            denoiser_only.guided_steps(GuidanceSchedule.from_guided_steps(P.N - 1, P))
        with pytest.raises(ConfigError):
            StepPlan.build(denoiser_only, LEARNED, P, SamplerConfig())

    def test_bind_rejects_a_plan_built_for_another_provider(self):
        """Before the denoiser runs: a learned provider bound to a hybrid plan would end in
        a raw TypeError at its first guided evaluation."""
        net, denoiser = tiny_nets()
        hybrid, learned = HybridScore(net, denoiser, P), LearnedScore(net, P)
        plan_12 = StepPlan.build(hybrid, GuidanceSchedule.from_guided_steps(12, P), P,
                                 SamplerConfig())
        for provider, plan in ((learned, plan_12), (hybrid, StepPlan.build(
                learned, LEARNED, P, SamplerConfig()))):
            ledger = CostLedger()
            with pytest.raises(ConfigError, match="step plan built for another provider"):
                provider.bind(make_rng(2).normal(size=(1, 8)), [ledger], plan)
            assert ledger == CostLedger()

    def test_the_plans_constants_drive_the_guided_kernel(self):
        """A provider built for gamma = 1.5 under a plan for gamma = 3.0 runs gamma = 3.0."""
        _, denoiser = tiny_nets()
        p3 = SdeParams(gamma=3.0)
        guided = GuidanceSchedule.from_guided_steps(p3.N, p3)
        plans = [StepPlan.build(DiscriminativeScore(denoiser, params), guided, p3, SamplerConfig())
                 for params in (P, p3)]
        y = make_rng(5).normal(size=8)
        a, b = (reverse_process(y, plan, make_rng(6))[0] for plan in plans)
        np.testing.assert_array_equal(a, b)

    def test_single_source_providers_follow_their_source(self):
        net, denoiser = tiny_nets()
        assert LearnedScore(net, P).guided_steps(LEARNED) == [False] * P.N
        assert DiscriminativeScore(denoiser, P).guided_steps(GUIDED) == [True] * P.N
        analytic = AnalyticGaussianScore(GaussianPrior(1.0, 0.04), P)
        assert analytic.guided_steps(LEARNED) == [False] * P.N

    def test_hybrid_dispatch_matches_pure_providers(self):
        net, denoiser = tiny_nets()
        y = make_rng(9).normal(size=(1, 8))
        x_t = y + 0.1
        hybrid = HybridScore(net, denoiser, P)
        hb, _ = bind(hybrid, y, CostLedger(), GuidanceSchedule.from_guided_steps(12, P))
        lb, _ = bind(LearnedScore(net, P), y, CostLedger(), LEARNED)
        db, _ = bind(DiscriminativeScore(denoiser, P), y, CostLedger(), GUIDED)
        state = np.zeros((1, net.state_dim))
        s_h, _ = hb.evaluate(x_t, 0.9, state, guided=True)
        s_d, _ = db.evaluate(x_t, 0.9, state, guided=True)
        np.testing.assert_array_equal(s_h, s_d)
        s_h, _ = hb.evaluate(x_t, 0.2, state, guided=False)
        s_l, _ = lb.evaluate(x_t, 0.2, state, guided=False)
        np.testing.assert_array_equal(s_h, s_l)

    def test_planned_evaluations_equal_direct_ones(self):
        """A bound evaluation reads its plan's rows; the bits are those of direct calls."""
        net, denoiser = tiny_nets()
        provider = HybridScore(net, denoiser, P)
        y = make_rng(11).normal(size=(1, 8))
        x_t = y + 0.3
        bound, _ = bind(provider, y, CostLedger(), GuidanceSchedule.from_guided_steps(12, P))
        assert bound.cond is not None
        x_d, _ = denoiser.forward(y)
        state = make_rng(12).normal(size=(1, net.state_dim))
        for t in bound.plan.point_of:
            s, s_state = bound.evaluate(x_t, t, state, True)
            np.testing.assert_array_equal(s, discriminative_score(x_t, y, P.clamp(t), x_d, P))
            assert s_state is state
            s, s_state = bound.evaluate(x_t, t, state, False)
            want, want_state = net.forward(x_t, y, t, state)
            np.testing.assert_array_equal(s, want)
            np.testing.assert_array_equal(s_state, want_state)

    def test_evaluation_off_the_plan_raises(self):
        """A bound evaluator reads plan rows only; it does not recompute an off-grid time."""
        net, denoiser = tiny_nets()
        provider = HybridScore(net, denoiser, P)
        schedule = GuidanceSchedule.from_guided_steps(12, P)
        bound, _ = bind(provider, np.zeros((1, 8)), CostLedger(), schedule)
        for guided in (True, False):
            with pytest.raises(KeyError):
                bound.evaluate(np.zeros((1, 8)), 0.55, np.zeros((1, net.state_dim)), guided)

    def test_hybrid_bound_is_freed_by_refcount_alone(self):
        """Dropping a bound evaluator frees it and the request's y at once,
        without waiting for a cyclic GC pass."""
        net, denoiser = tiny_nets()
        provider = HybridScore(net, denoiser, P)
        gc.disable()
        try:
            y = make_rng(10).normal(size=(1, 8))
            y_ref = weakref.ref(y)
            bound, _ = bind(provider, y, CostLedger(), GuidanceSchedule.from_guided_steps(12, P))
            bound_ref = weakref.ref(bound)
            bound.evaluate(y, 0.9, np.zeros((1, net.state_dim)), guided=True)
            bound.evaluate(y, 0.2, np.zeros((1, net.state_dim)), guided=False)
            del bound, y
            assert bound_ref() is None
            assert y_ref() is None
        finally:
            gc.enable()

    def test_analytic_provider_costs_nothing(self):
        ledger = CostLedger()
        provider = AnalyticGaussianScore(GaussianPrior(1.0, 0.04), P)
        bound, _ = bind(provider, np.full((1, 4), 0.4), ledger, LEARNED)
        bound.evaluate(np.zeros((1, 4)), 0.5, None, guided=False)
        assert ledger.score_net_forwards == 0
        assert ledger.mac_total == 0


class TestEvaluationScratch:
    """A bound evaluation takes its scratch from the bind's score-net conditioning, and
    what it returns is its own: at the sweep's shape, B = 4 rows of 100 frames."""

    @pytest.fixture
    def bound(self):
        provider = HybridScore(ScoreNet(P, frame_size=40, hidden=160, seed=0),
                               DenoiserNet(frame_size=40, hidden=96, seed=1), P)
        plan = StepPlan.build(provider, LEARNED, P, SamplerConfig())
        y = make_rng(80).normal(size=(4, 4000))
        bound, _ = provider.bind(y, [CostLedger() for _ in range(4)], plan)
        return bound, plan

    def test_an_evaluation_allocates_no_more_than_it_returns(self, bound):
        bound, plan = bound
        rng = make_rng(81)
        x, state = rng.normal(size=(4, 4000)), rng.normal(size=(4, 160))
        bound.evaluate(x, plan.t[-1], state, False)  # one-time first-call allocations fall outside
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            score, new_state = bound.evaluate(x, plan.t[-1], state, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # numpy's broadcasting ufuncs take a transient buffer of up to 64 KiB
        transient = peak - before - score.nbytes - new_state.nbytes
        assert transient <= score.nbytes, transient

    def test_consecutive_evaluations_do_not_alias(self, bound):
        bound, plan = bound
        rng = make_rng(82)
        x1, x2 = rng.normal(size=(2, 4, 4000))
        state = rng.normal(size=(4, 160))
        state_in = state.copy()
        first = bound.evaluate(x1, plan.t[-1], state, False)
        kept = [a.copy() for a in first]
        second = bound.evaluate(x2, plan.t[-2], state, False)
        for a, b, want in zip(first, second, kept):
            np.testing.assert_array_equal(a, want)
            assert not np.shares_memory(a, b)
        np.testing.assert_array_equal(state, state_in)
