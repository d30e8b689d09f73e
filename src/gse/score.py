"""Score functions, the guided/learned switching schedule and the score provider.

Three interchangeable score sources drive the reverse sampler:

* a learned score network,
* a guided score assembled from a one-shot denoiser estimate x_d:
      s_d(x_t, y, t) = (mean(x_d, y, t) - x_t) / variance(t)
* a closed-form oracle for a Gaussian clean prior (test harness).

A ``GuidanceSchedule`` is the guided-step count n_phi on an N-step reverse
grid: the top n_phi grid steps use the guided score, the rest the learned one.
A switch time t_phi maps to the count of { n*T/N > t_phi : n = 1..N }; the
switch time a count runs is the grid time (N - n_phi)*T/N.

One ``ScoreProvider`` holds a score net, a denoiser, or both, and one rule
(``ScoreProvider.guided_steps``) fixes the branch of every grid step: the
schedule's top n_guided steps are guided, the rest learned.  The denoiser
runs once per ``bind``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, DomainError
from .sde import SdeParams, kernel_coefficients, mean, per_row, variance

__all__ = [
    "GuidanceSchedule",
    "GaussianPrior",
    "discriminative_score",
    "analytic_gaussian_score",
    "ScoreProvider",
    "LearnedScore",
    "DiscriminativeScore",
    "HybridScore",
    "AnalyticGaussianScore",
]

# Absorbs float noise when a user-supplied threshold was itself computed from
# grid arithmetic; genuine mathematical ties stay on the learned branch.
_TIE_REL = 1e-9


@dataclass(frozen=True)
class GuidanceSchedule:
    """The number of guided reverse steps, the top ones of an N-step grid."""

    n_guided: int
    n_steps: int

    def __post_init__(self):
        for name in ("n_guided", "n_steps"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise DomainError(f"{name} must be an int, got {getattr(self, name)!r}")
        if not 0 <= self.n_guided <= self.n_steps:
            raise DomainError(f"guided-step count {self.n_guided} outside 0..{self.n_steps}")

    @classmethod
    def from_switch_time(cls, t_switch: float, params: SdeParams) -> "GuidanceSchedule":
        """Guides the grid times n*T/N (n = 1..N) that lie strictly above t_switch."""
        if not (0.0 <= t_switch <= params.T):
            raise DomainError(f"switch time {t_switch} outside [0, {params.T}]")
        guard = t_switch + _TIE_REL * params.T
        n_guided = sum(1 for n in range(1, params.N + 1) if params.grid_time(n) > guard)
        return cls(n_guided, params.N)

    @classmethod
    def from_guided_steps(cls, n_guided: int, params: SdeParams) -> "GuidanceSchedule":
        """Guides the top n_guided steps of the grid of ``params``."""
        return cls(n_guided, params.N)


def discriminative_score(
    x_t: np.ndarray,
    y: np.ndarray,
    t: float,
    x_d: np.ndarray,
    params: SdeParams,
    kernel: tuple[float, float, float] | None = None,
) -> np.ndarray:
    """score = (mean(x_d, y, t) - x_t) / variance(t)

    ``kernel`` is ``kernel_coefficients(t, params)`` from a step plan; with it t
    (clamped by the plan) and the arrays (float64, one shape) are not checked,
    without it they are and the kernel is computed here.  Plugging the
    perturbation of x_d itself back in recovers -z/std(t) exactly.
    """
    if kernel is None:
        x_t = np.asarray(x_t, dtype=np.float64)
        x_d = np.asarray(x_d, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if not x_t.shape == y.shape == x_d.shape:
            raise DimensionError(f"x_t, y, x_d shapes {x_t.shape}, {y.shape}, {x_d.shape} differ")
        if not (params.t_eps <= t <= params.T):
            raise DomainError(f"t={t} outside [{params.t_eps}, {params.T}]")
    v, a, rise = kernel_coefficients(t, params) if kernel is None else kernel
    if v <= 0.0:
        raise DomainError(f"variance({t}) = {v}; guided score undefined")
    score = np.multiply(x_d, a)
    score += np.multiply(y, rise)
    score -= x_t
    score /= v
    return score


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


# --------------------------------------------------------------------------
# The provider used by the sampler: one bind per run caches the one denoiser
# pass, per-evaluation calls thread recurrent state for streaming.
# --------------------------------------------------------------------------


class ScoreProvider:
    """Score source of the reverse sampler: a score net, a denoiser, or both.

    A provider without a denoiser is learned-only: its learned branch is the
    score net (or, in a subclass, an oracle).  A provider without a score net
    is guided-only.  ``guided_steps`` is the one rule that picks the branch of
    each grid step, from the schedule.  A pass runs on its ``StepPlan``'s
    constants; only the analytic oracle reads ``params``.
    """

    def __init__(self, net, denoiser, params: SdeParams):
        self.net = net
        self.denoiser = denoiser
        self.params = params

    def guided_steps(self, schedule: GuidanceSchedule) -> list[bool]:
        """Branch of the schedule's grid steps 1..N (entry n-1 is step n, True = guided).

        A schedule that needs a source the provider lacks raises ConfigError.
        """
        learned = schedule.n_steps - schedule.n_guided  # steps 1..learned; the rest guided
        guided = [n > learned for n in range(1, schedule.n_steps + 1)]
        if self.denoiser is None and any(guided):
            raise ConfigError(f"schedule guides {schedule.n_guided} steps; provider has no denoiser")
        if self.net is None and self.denoiser is not None and not all(guided):
            raise ConfigError(f"schedule leaves {learned} steps learned; provider has no score net")
        return guided

    def bind(self, y: np.ndarray, ledger, plan, denoiser_state=None):
        """Prepare a per-utterance/chunk evaluator on ``plan``, a ``StepPlan``;
        returns (bound, denoiser_state).

        ``y`` is (L,) with one ledger or rows (B, L) with a list of one per
        row, each charged what its row costs alone; any other ledger raises
        DimensionError, and a plan built for another provider ConfigError,
        before the denoiser runs.  A provider holding a denoiser runs it here,
        once; guided evaluations then cost no forward pass.  If the plan has
        embedding rows, the score net's conditioning is made here too
        (``condition``): y's and the time terms, the fused gates from the
        current weights and the scratch that every score forward of the bind's
        evaluations shares.
        """
        if plan.provider is not self:
            raise ConfigError("step plan built for another provider")
        y = np.asarray(y, dtype=np.float64)
        ledgers = per_row(ledger, y.shape, "ledger")
        x_d = None
        if self.denoiser is not None:
            x_d, denoiser_state = self.denoiser.forward(y, denoiser_state)
            for led in ledgers:
                led.denoiser_forwards += 1
                led.mac_total += self.denoiser.macs_per_forward(y.shape[-1])
        cond = None if plan.emb is None else self.net.condition(y, plan.emb, plan.gain)
        return _BoundScore(self, y, x_d, ledgers, plan, cond), denoiser_state

    def learned_score(self, x_t, y, t, state, ledgers, cond, point):
        """Learned branch: one score-net forward; (score, new_state).

        ``cond`` is the bind's score-net conditioning and ``point`` the row of t in it.
        """
        score, new_state = self.net.forward(x_t, y, t, state, cond, point)
        macs = self.net.macs_per_forward(x_t.shape[-1])
        for led in ledgers:
            led.score_net_forwards += 1
            led.mac_total += macs
        return score, new_state


class _BoundScore:
    """Per-run evaluator: a provider with its y, denoiser estimate x_d and row ledgers.

    An evaluation at a time of the bound ``StepPlan`` reads its rows; any
    other time raises KeyError.  It holds no reference back to itself, so
    dropping it frees the request's y and x_d by refcount alone, without
    waiting for a cyclic GC pass.
    """

    def __init__(self, provider: ScoreProvider, y: np.ndarray, x_d, ledgers, plan, cond):
        self.provider = provider
        self.y = y
        self.x_d = x_d
        self.ledgers = ledgers
        self.plan = plan
        self.cond = cond

    def evaluate(self, x_t, t, state, guided: bool):
        """Return (score, new_state); new_state is state unless a net ran."""
        i = self.plan.point_of[t]
        if guided:  # the plan clamped t and holds its kernel
            params, kernel = self.plan.params, self.plan.kernel[i]
            return discriminative_score(x_t, self.y, t, self.x_d, params, kernel), state
        return self.provider.learned_score(x_t, self.y, t, state, self.ledgers, self.cond, i)


# Named constructors of the three net combinations; none changes behaviour.


class LearnedScore(ScoreProvider):
    def __init__(self, net, params: SdeParams):
        super().__init__(net, None, params)


class DiscriminativeScore(ScoreProvider):
    def __init__(self, denoiser, params: SdeParams):
        super().__init__(None, denoiser, params)


class HybridScore(ScoreProvider):
    def __init__(self, net, denoiser, params: SdeParams):
        super().__init__(net, denoiser, params)


class AnalyticGaussianScore(ScoreProvider):
    """Oracle provider: closed-form marginal score, no nets, no cost."""

    def __init__(self, prior: GaussianPrior, params: SdeParams):
        super().__init__(None, None, params)
        self.prior = prior

    def learned_score(self, x_t, y, t, state, ledgers, cond, point):
        return analytic_gaussian_score(x_t, y, t, self.prior, self.params), state
