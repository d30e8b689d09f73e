"""Predictor-corrector reverse sampler with exact cost accounting.

One reverse pass runs N predictor steps on the grid t_n = n*T/N (n = N..1),
each followed by ``corrector_steps`` annealed Langevin refinements evaluated at
the new time (clamped to t_eps) and sharing the predictor's guidance branch.
The prior is x_T ~ N(y, variance(T) * I); the returned state sits at t_eps.

A pass is one immutable ``StepPlan``: the provider, the constants ``SdeParams``
(N is the grid size), the ``SamplerConfig`` and, from these and the schedule,
per grid step t_n the correctors' time, g(t_n) and the branch; per evaluation
time the kernel's variance and mean coefficients and the score net's gain and
time embedding.  Each column is the expression a step would evaluate, so no
bit changes.

A pass runs B rows (B, L) that share the plan, the time terms and the gates;
row i has its own generator (it draws what a run of it alone draws), corrector
norms and ``CostLedger``.  ``reverse_process`` runs a signal (L,) as one row
(1, L); every function below it takes rows only.  Row contract: B = 1 is the
one-signal arithmetic (its recurrent product a gemv); from B = 2 on row i's bits
do not depend on its batch-mates or position, on each OpenBLAS kernel family
(see ``gse.nets`` on padding), and stay within rounding (~5e-16) of its solo run.

A pass always runs on a ``HistoryBank``, the nets' recurrent states (B, H): a
stream's bank carries them from chunk to chunk, and a pass given none runs on
fresh zeros, which the nets read as they read no state.

Arithmetic.  A grid step runs the score s, the predictor ((g^2 s) - gamma (y - x)) dt
+ x + (g sqrt(dt)) z, a finite check, and per corrector a score, eps = 2 (r |z| / |s|)^2
per row (|v| = sqrt(v . v)), (eps s + x) + sqrt(2 eps) z and a finite check; each in place,
left to right, on arrays made in that call, so it rounds as the one-line form and writes
into no state, score, y or x_d it is given.

Every score-model forward, denoiser forward, branch decision and analytic MAC
count lands in a ``CostLedger``; for a provider with both nets the totals obey

    score_net_forwards = (1 + corrector_steps) * (N - n_guided)
    denoiser_forwards  = 1
    mac_total          affine in n_guided with slope -(1+corrector_steps)*score_macs
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DimensionError, DivergenceError, DomainError
from .sde import (SdeParams, as_signal, diffusion_coeff, kernel_coefficients, per_row,
                  require_count, require_finite, std)

__all__ = [
    "SamplerConfig",
    "CostLedger",
    "DiffusionState",
    "StepPlan",
    "HistoryBank",
    "predictor_step",
    "corrector_step",
    "reverse_process",
]


@dataclass
class SamplerConfig:
    """The corrector's knobs; the grid size is ``SdeParams.N``."""

    corrector_steps: int = 1
    corrector_snr: float = 0.5

    def __post_init__(self):
        require_count("corrector_steps", self.corrector_steps, 0)
        require_finite(self, "corrector_snr")
        if self.corrector_snr <= 0.0:
            raise ConfigError("corrector_snr must be positive")


@dataclass
class CostLedger:
    """Additive run-cost counters."""

    score_net_forwards: int = 0
    denoiser_forwards: int = 0
    mac_total: int = 0
    steps_guided: int = 0
    steps_learned: int = 0
    corrector_evals: int = 0
    corrector_skips: int = 0

    def record_branch(self, guided: bool) -> None:
        if guided:
            self.steps_guided += 1
        else:
            self.steps_learned += 1

    def __add__(self, other: "CostLedger") -> "CostLedger":
        return CostLedger(
            **{f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        )


@dataclass
class DiffusionState:
    x: np.ndarray
    t: float


@dataclass(frozen=True)
class StepPlan:
    """A reverse pass; step columns are indexed n - 1, ``point_of`` maps a time to its row."""

    provider: object  # a ScoreProvider
    params: SdeParams
    config: SamplerConfig
    dt: float
    prior_std: float  # std(T)
    t: tuple  # t_n = (n T) / N
    t_eval: tuple  # the correctors' time max(max(t_n - dt, 0), t_eps)
    g: tuple  # g(t_n)
    guided: tuple  # ScoreProvider.guided_steps
    point_of: dict
    kernel: tuple  # sde.kernel_coefficients at the clamped time, per row
    gain: tuple | None  # the score net's 1/std(t) per row; None without a learned step
    emb: np.ndarray | None  # the score net's time-embedding rows, read-only

    @classmethod
    def build(cls, provider, schedule, params: SdeParams, config: SamplerConfig) -> "StepPlan":
        if schedule.n_steps != params.N:
            raise ConfigError(f"schedule built for N={schedule.n_steps}, sampler runs N={params.N}")
        guided = tuple(provider.guided_steps(schedule))
        dt = params.T / params.N
        t = tuple(params.grid_time(n) for n in range(1, params.N + 1))
        t_eval = tuple(max(max(t_n - dt, 0.0), params.t_eps) for t_n in t)
        times = tuple(dict.fromkeys(params.clamp(s) for s in t + t_eval))  # distinct
        kernel = tuple(kernel_coefficients(s, params) for s in times)
        embed = getattr(provider.net, "embed_times", None)  # test doubles have none
        gain = emb = None
        if embed is not None and not all(guided):
            gain, emb = tuple(provider.net.gain(s) for s in times), embed(times)
            emb.flags.writeable = False
        point_of = {s: times.index(params.clamp(s)) for s in t + t_eval}
        return cls(provider, params, config, dt, std(params.T, params), t, t_eval,
                   tuple(diffusion_coeff(t_n, params) for t_n in t), guided, point_of, kernel,
                   gain, emb)


def _normal(rng, out: np.ndarray) -> np.ndarray:
    """Fill row i of ``out`` (B, L) with standard-normal draws from rng[i]; anything but
    a list of B generators raises DimensionError before a draw."""
    for r, row in zip(per_row(rng, out.shape, "generator"), out):
        r.standard_normal(out=row)
    return out


def _all_finite(x: np.ndarray) -> bool:
    # a finite squared norm has finite terms; only an overflow needs the entrywise test
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


def _check_finite(x: np.ndarray, n: int, phase: str) -> None:
    if not _all_finite(x):
        rows = np.flatnonzero(~np.isfinite(x).all(axis=-1)).tolist()
        raise DivergenceError(f"non-finite state after the {phase} at step n={n} in rows {rows}")


def predictor_step(
    state: DiffusionState,
    y: np.ndarray,
    score: np.ndarray,
    params: SdeParams,
    dt: float,
    rng,
    g: float | None = None,
) -> DiffusionState:
    """One reverse Euler-Maruyama step from t to t - dt:

        x <- x + [-f(x, y) + g(t)^2 * score] * dt + g(t) * sqrt(dt) * z

    ``g`` is g(t) from a step plan, computed here when not given.  With
    score = 0 and g = 0 this is pure drift reversal (x moves away from y).
    ``rng`` is a list of one generator per row of the state (B, L); anything else
    raises DimensionError before a draw.
    """
    t = state.t
    if dt <= 0.0 or t - dt < -1e-12:
        raise DomainError(f"cannot step by dt={dt} from t={t}")
    x, y, score = state.x, np.asarray(y), np.asarray(score)
    if x.shape != y.shape or x.shape != score.shape:
        raise DimensionError("state, condition and score must share one shape")
    if g is None:
        g = diffusion_coeff(t, params)
    x_new = np.subtract(y, x)
    x_new *= params.gamma  # the drift f(x, y)
    work = np.multiply(score, g * g, dtype=np.float64)  # float64: it then holds the draw
    np.subtract(work, x_new, out=x_new)
    x_new *= dt
    x_new += x
    z = _normal(rng, work)
    z *= g * math.sqrt(dt)
    x_new += z
    return DiffusionState(x_new, max(t - dt, 0.0))


def _langevin(x, s, r: float, rng, ledger, out):
    """``corrector_step`` on one row x with score s, into ``out``."""
    s_norm = math.sqrt(s.dot(s))  # np.linalg.norm of a float64 vector
    ledger.corrector_evals += 1
    ledger.corrector_skips += s_norm == 0.0
    if s_norm == 0.0:  # a skipped row keeps its input, copied (+x is x), and draws nothing
        return np.positive(x, out)
    z = rng.standard_normal(s.shape)
    try:
        eps = 2.0 * (r * math.sqrt(z.dot(z)) / s_norm) ** 2
    except OverflowError:  # so large a step diverges; the caller's check names the row
        eps = math.inf
    out = np.multiply(s, eps, out)
    out += x
    z *= math.sqrt(2.0 * eps)
    out += z
    return out


def corrector_step(
    state: DiffusionState,
    score: np.ndarray,
    r: float,
    rng,
    ledger,
) -> DiffusionState:
    """Annealed Langevin refinement at fixed time, given the score s at (state.x, state.t):

        eps_i = 2 * (r * ||z_i|| / ||s_i||)^2,   x_i <- x_i + eps_i * s_i + sqrt(2 eps_i) * z_i

    per row i of the state (B, L).  The caller evaluates s, as for
    ``predictor_step``; ``rng`` and ``ledger`` are lists of one per row; anything
    else raises DimensionError before a draw.  A row with a zero score skips the
    step (its input row, no draw), recorded in its ledger.
    """
    x, s = state.x, np.asarray(score, dtype=np.float64)
    rngs, ledgers = per_row(rng, x.shape, "generator"), per_row(ledger, x.shape, "ledger")
    x_new = np.empty_like(x)
    for x_i, s_i, rng_i, led, out in zip(x, s, rngs, ledgers, x_new):
        _langevin(x_i, s_i, r, rng_i, led, out)
    return DiffusionState(x_new, state.t)


@dataclass
class HistoryBank:
    """Recurrent state (rows, H) for every grid step plus the denoiser; fresh = 0."""

    score_states: dict[int, np.ndarray]
    denoiser_state: np.ndarray | None

    @classmethod
    def for_provider(cls, provider, config: SamplerConfig, params: SdeParams, rows: int = 1):
        """A fresh bank for ``provider``'s nets on the grid of ``params``; ``config`` is unused.

        States are (rows, H), 1 wide without a score net; without a denoiser there is none."""
        width = getattr(provider.net, "state_dim", 1)
        states = {n: np.zeros((rows, width)) for n in range(1, params.N + 1)}
        den = getattr(provider.denoiser, "state_dim", None)
        return cls(states, None if den is None else np.zeros((rows, den)))

    def require_rows(self, shape: tuple) -> None:
        """DimensionError unless every state is (B, H) for a chunk of ``shape`` (B, L)."""
        for state in [*self.score_states.values(), self.denoiser_state]:
            if state is not None and state.shape[:-1] != shape[:-1]:
                raise DimensionError(f"history bank holds states of shape {state.shape}, "
                                     f"chunk has shape {shape}")


@np.errstate(over="ignore", invalid="ignore")  # a non-finite state raises DivergenceError
def reverse_process(y: np.ndarray, plan: StepPlan, rng, bank=None, ledger=None):
    """Full reverse pass of ``plan`` conditioned on y, (L,) or (B, L); returns (x_out, ledger).

    ``rng`` and ``ledger`` are lists of one per row of y (B, L) (fresh ledgers by
    default); a signal (L,) takes one of each and runs as the row (1, L).  The
    branch of every grid step is the plan's ``guided`` column; the predictor and
    its correctors read it.

    The pass runs on ``bank`` (a fresh zero ``HistoryBank`` by default): the
    score-net state consumed at grid step n is the bank's entry for n and the
    predictor's evaluation (only) writes the updated state back; the denoiser
    state is threaded through the bank as well.  Before anything is drawn or
    written, a y that is not (L,) or (B, L) (the rows the bank holds), or a
    ``rng`` or ``ledger`` that is not one per row, raises ``DimensionError``, a
    bank for another N ``ConfigError`` and a non-finite y ``DomainError``.  A
    non-finite state raises ``DivergenceError`` naming step, phase and rows.
    """
    y, params, config = as_signal(y), plan.params, plan.config
    if signal := y.ndim == 1:  # the one row (1, L); per_row rejects a list for a signal
        for item, what in ((rng, "generator"), (ledger, "ledger")):
            if isinstance(item, (list, tuple)):
                per_row(item, y.shape, what)
        y, rng, ledger = y[None], [rng], None if ledger is None else [ledger]
    if bank is None:
        bank = HistoryBank.for_provider(plan.provider, config, params, len(y))
    if (built := len(bank.score_states)) != params.N:
        raise ConfigError(f"history bank built for N={built}, sampler runs N={params.N}")
    bank.require_rows(y.shape)
    if not _all_finite(y):
        raise DomainError("samples must be finite")
    if ledger is None:
        ledger = [CostLedger() for _ in y]
    ledgers = per_row(ledger, y.shape, "ledger")
    per_row(rng, y.shape, "generator")  # the first draw comes after bind's bank write
    bound, bank.denoiser_state = plan.provider.bind(y, ledger, plan, bank.denoiser_state)

    state = DiffusionState(y + plan.prior_std * _normal(rng, np.empty(y.shape)), params.T)
    columns = (plan.t, plan.t_eval, plan.g, plan.guided)
    evaluate, dt, snr = bound.evaluate, plan.dt, config.corrector_snr
    for n, t_n, t_eval, g, guided in zip(range(params.N, 0, -1), *map(reversed, columns)):
        for led in ledgers:
            led.record_branch(guided)
        state_in = bank.score_states[n]
        score, bank.score_states[n] = evaluate(state.x, t_n, state_in, guided)
        state = predictor_step(DiffusionState(state.x, t_n), y, score, params, dt, rng, g)
        _check_finite(state.x, n, "predictor")
        for _ in range(config.corrector_steps):
            # the corrector re-reads the predictor's input net state; its end state is discarded
            score, _ = evaluate(state.x, t_eval, state_in, guided)
            state = corrector_step(DiffusionState(state.x, t_eval), score, snr, rng, ledger)
            _check_finite(state.x, n, "corrector")

    return (state.x[0], ledger[0]) if signal else (state.x, ledger)
