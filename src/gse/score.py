"""Score functions and the guided/learned switching schedule.

Three interchangeable score sources drive the reverse sampler:

* a learned score network,
* a guided score assembled from a one-shot denoiser estimate x_d:
      s_d(x_t, y, t) = (mean(x_d, y, t) - x_t) / variance(t)
* a closed-form oracle for a Gaussian clean prior (test harness).

A ``GuidanceSchedule`` splits the N-step reverse grid at a switch time: grid
steps with t above the threshold use the guided score, the rest use the
learned one.  The guided-step count n of a threshold is the cardinality of
{ n*T/N > t_switch : n = 1..N }, and the inverse returns the largest
grid-aligned threshold with that count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, DomainError
from .sde import SdeParams, mean, variance

__all__ = [
    "GuidanceSchedule",
    "GaussianPrior",
    "discriminative_score",
    "analytic_gaussian_score",
    "hybrid_score",
    "LearnedScore",
    "DiscriminativeScore",
    "HybridScore",
    "AnalyticGaussianScore",
]

# Absorbs float noise when a user-supplied threshold was itself computed from
# grid arithmetic; genuine mathematical ties stay on the learned branch.
_TIE_REL = 1e-9


def guided_step_count(t_switch: float, params: SdeParams) -> int:
    """How many of the N grid times n*T/N (n=1..N) lie strictly above t_switch."""
    if not (0.0 <= t_switch <= params.T):
        raise DomainError(f"switch time {t_switch} outside [0, {params.T}]")
    guard = t_switch + _TIE_REL * params.T
    return sum(1 for n in range(1, params.N + 1) if params.grid_time(n) > guard)


def switch_time_for_count(n_guided: int, params: SdeParams) -> float:
    """Largest grid-aligned switch time that yields exactly n_guided guided steps."""
    if not 0 <= n_guided <= params.N:
        raise DomainError(f"guided-step count {n_guided} outside 0..{params.N}")
    return params.grid_time(params.N - n_guided)


@dataclass(frozen=True)
class GuidanceSchedule:
    """Switch point between guided and learned reverse steps on an N-step grid."""

    t_switch: float
    n_guided: int
    n_steps: int

    @classmethod
    def from_switch_time(cls, t_switch: float, params: SdeParams) -> "GuidanceSchedule":
        return cls(float(t_switch), guided_step_count(t_switch, params), params.N)

    @classmethod
    def from_guided_steps(cls, n_guided: int, params: SdeParams) -> "GuidanceSchedule":
        return cls(switch_time_for_count(n_guided, params), int(n_guided), params.N)

    def guided_at_step(self, n: int) -> bool:
        """Grid step n (1..N) uses the guided branch iff it is one of the top n_guided."""
        if not 1 <= n <= self.n_steps:
            raise DomainError(f"step {n} outside 1..{self.n_steps}")
        return n > self.n_steps - self.n_guided


def discriminative_score(
    x_t: np.ndarray,
    y: np.ndarray,
    t: float,
    x_d: np.ndarray,
    params: SdeParams,
) -> np.ndarray:
    """score = (mean(x_d, y, t) - x_t) / variance(t)

    Plugging the perturbation of x_d itself back in recovers -z/std(t) exactly.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    x_d = np.asarray(x_d, dtype=np.float64)
    if x_t.shape != x_d.shape:
        raise DimensionError(f"x_t shape {x_t.shape} != x_d shape {x_d.shape}")
    if not (params.t_eps <= t <= params.T):
        raise DomainError(f"t={t} outside [{params.t_eps}, {params.T}]")
    v = variance(t, params)
    if v <= 0.0:
        raise DomainError(f"variance({t}) = {v}; guided score undefined")
    return (mean(x_d, y, t, params) - x_t) / v


@dataclass(frozen=True)
class GaussianPrior:
    """Clean-signal prior N(m0, var0 * I) for closed-form score checks."""

    m0: float
    var0: float

    def __post_init__(self):
        if not self.var0 >= 0.0:
            raise ConfigError(f"var0 must be >= 0, got {self.var0}")


def analytic_gaussian_score(
    x_t: np.ndarray,
    y: np.ndarray,
    t: float,
    prior: GaussianPrior,
    params: SdeParams,
) -> np.ndarray:
    """Marginal score when x0 ~ N(m0, var0*I) independent of y.

    The kernel then gives x_t | y ~ N(mean(m0, y, t), exp(-2 gamma t) var0 + variance(t)),
    so score = -(x_t - mean(m0*1, y, t)) / (exp(-2 gamma t) var0 + variance(t)).
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m0 = np.full_like(x_t, prior.m0)
    denom = float(np.exp(-2.0 * params.gamma * t)) * prior.var0 + variance(t, params)
    if denom <= 0.0:
        raise DomainError("degenerate marginal: var0 and variance(t) both zero")
    return -(x_t - mean(m0, y, t, params)) / denom


def hybrid_score(
    x_t: np.ndarray,
    y: np.ndarray,
    t: float,
    schedule: GuidanceSchedule,
    learned_fn,
    x_d: np.ndarray,
    params: SdeParams,
    ledger=None,
) -> np.ndarray:
    """Time-threshold dispatch: guided branch for t above the switch, else learned.

    Ties (t == t_switch) go to the learned branch.  When a ledger is passed the
    branch that fired is recorded.
    """
    guided = t > schedule.t_switch + _TIE_REL * params.T
    if ledger is not None:
        ledger.record_branch(guided)
    if guided:
        return discriminative_score(x_t, y, t, x_d, params)
    return np.asarray(learned_fn(x_t, y, t), dtype=np.float64)


# --------------------------------------------------------------------------
# Provider layer used by the sampler: per-run binding caches the one denoiser
# pass, per-evaluation calls thread recurrent state for streaming.
# --------------------------------------------------------------------------


class _Bound:
    """Per-run score evaluator. ``guided_for_step`` fixes the branch of grid step n."""

    def guided_for_step(self, n: int, schedule: GuidanceSchedule | None) -> bool:
        raise NotImplementedError

    def evaluate(self, x_t, t, state, guided: bool):
        """Return (score, new_state); new_state is state unless a net ran."""
        raise NotImplementedError


class ScoreProvider:
    kind = "abstract"
    needs_schedule = False

    def bind(self, y: np.ndarray, ledger, denoiser_state=None):
        """Prepare a per-utterance/chunk evaluator; returns (bound, denoiser_state)."""
        raise NotImplementedError

    @property
    def state_dim(self) -> int:
        return 0

    @property
    def denoiser_state_dim(self) -> int | None:
        return None


class _FixedBranchBound(_Bound):
    def __init__(self, fn, guided: bool):
        self._fn = fn
        self._guided = guided

    def guided_for_step(self, n, schedule):
        return self._guided

    def evaluate(self, x_t, t, state, guided):
        return self._fn(x_t, t, state)


class AnalyticGaussianScore(ScoreProvider):
    """Oracle provider: closed-form marginal score, no nets, no cost."""

    kind = "analytic_gaussian"

    def __init__(self, prior: GaussianPrior, params: SdeParams):
        self.prior = prior
        self.params = params

    def bind(self, y, ledger, denoiser_state=None):
        y = np.asarray(y, dtype=np.float64)

        def fn(x_t, t, state):
            return analytic_gaussian_score(x_t, y, t, self.prior, self.params), state

        return _FixedBranchBound(fn, guided=False), denoiser_state


class LearnedScore(ScoreProvider):
    """Provider wrapping a trained (or fresh) score network."""

    kind = "learned"

    def __init__(self, net, params: SdeParams):
        self.net = net
        self.params = params

    @property
    def state_dim(self) -> int:
        return self.net.state_dim

    def _clamped(self, t: float) -> float:
        return min(max(t, self.params.t_eps), self.params.T)

    def bind(self, y, ledger, denoiser_state=None):
        y = np.asarray(y, dtype=np.float64)
        net = self.net

        def fn(x_t, t, state):
            score, new_state = net.forward(x_t, y, self._clamped(t), state)
            ledger.score_net_forwards += 1
            ledger.mac_total += net.macs_per_forward(x_t.size)
            return score, new_state

        return _FixedBranchBound(fn, guided=False), denoiser_state


class DiscriminativeScore(ScoreProvider):
    """Provider deriving every score from one denoiser pass over y."""

    kind = "discriminative"

    def __init__(self, denoiser, params: SdeParams):
        self.denoiser = denoiser
        self.params = params

    @property
    def denoiser_state_dim(self) -> int | None:
        return self.denoiser.state_dim

    def _run_denoiser(self, y, ledger, denoiser_state):
        x_d, new_state = self.denoiser.forward(y, denoiser_state)
        ledger.denoiser_forwards += 1
        ledger.mac_total += self.denoiser.macs_per_forward(y.size)
        return x_d, new_state

    def bind(self, y, ledger, denoiser_state=None):
        y = np.asarray(y, dtype=np.float64)
        x_d, denoiser_state = self._run_denoiser(y, ledger, denoiser_state)
        params = self.params

        def fn(x_t, t, state):
            tt = min(max(t, params.t_eps), params.T)
            return discriminative_score(x_t, y, tt, x_d, params), state

        return _FixedBranchBound(fn, guided=True), denoiser_state


class HybridScore(ScoreProvider):
    """Guided warm start, learned finish; the denoiser runs exactly once per bind."""

    kind = "hybrid"
    needs_schedule = True

    def __init__(self, net, denoiser, params: SdeParams):
        self._learned = LearnedScore(net, params)
        self._guided = DiscriminativeScore(denoiser, params)
        self.params = params

    @property
    def state_dim(self) -> int:
        return self._learned.state_dim

    @property
    def denoiser_state_dim(self) -> int | None:
        return self._guided.denoiser_state_dim

    def bind(self, y, ledger, denoiser_state=None):
        y = np.asarray(y, dtype=np.float64)
        guided_bound, denoiser_state = self._guided.bind(y, ledger, denoiser_state)
        learned_bound, _ = self._learned.bind(y, ledger, None)
        return _HybridBound(guided_bound, learned_bound), denoiser_state


class _HybridBound(_Bound):
    """Schedule-driven dispatch between a guided and a learned bound evaluator.

    Defined once at module level: a class made per bind is a reference cycle
    that would keep each request's y and x_d alive until a cyclic GC pass.
    """

    def __init__(self, guided: _Bound, learned: _Bound):
        self._guided = guided
        self._learned = learned

    def guided_for_step(self, n, schedule):
        if schedule is None:
            raise ConfigError("hybrid provider requires a guidance schedule")
        return schedule.guided_at_step(n)

    def evaluate(self, x_t, t, state, guided):
        if guided:
            return self._guided.evaluate(x_t, t, state, True)
        return self._learned.evaluate(x_t, t, state, False)
