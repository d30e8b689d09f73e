"""Closed forms of the mean-reverting variance-exploding diffusion.

The forward process relaxes a signal x toward the observed noisy signal y
with stiffness ``gamma`` while injecting noise on a geometric scale ladder:

    dx_t = gamma * (y - x_t) dt + g(t) dw_t
    g(t) = sigma_min * (sigma_max / sigma_min)**t * sqrt(2 * ln(sigma_max / sigma_min))

With that g(t) the perturbation kernel is Gaussian with

    mean(x0, y, t) = exp(-gamma t) * x0 + (1 - exp(-gamma t)) * y
    variance(t)    = sigma_min^2 * ((sigma_max/sigma_min)^(2t) - exp(-2 gamma t))
                     * ln(sigma_max/sigma_min) / (gamma + ln(sigma_max/sigma_min))

which is the unique variance satisfying d/dt var = -2*gamma*var + g(t)^2 with
var(0) = 0.  State vectors are float64 arrays, 1-D or stacked rows (B, L).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, DomainError

__all__ = [
    "SdeParams",
    "make_rng",
    "diffusion_coeff",
    "mean",
    "variance",
    "std",
    "perturb",
    "sample_perturbed",
    "forward_ensemble_moments",
]


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; a fixed seed reproduces every draw bit-exactly."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.Philox(seed))


def per_row(item, shape: tuple, what: str) -> tuple:
    """``item`` as one per row of an array of ``shape``: a signal (L,) takes one ``what``,
    rows (B, L) a list or tuple of B; anything else raises DimensionError."""
    many = isinstance(item, (list, tuple))
    if not many and len(shape) == 1:
        return (item,)
    if many and len(shape) == 2 and len(item) == shape[0]:
        return tuple(item)
    got = f"a list of {len(item)}" if many else f"one {type(item).__name__}"
    raise DimensionError(f"a signal (L,) takes one {what} and rows (B, L) a list of B; "
                         f"got {got} for shape {shape}")


def require_finite(config, *names: str) -> None:
    """ConfigError unless each named field of ``config`` is a finite number."""
    for name in names:
        if not math.isfinite(getattr(config, name)):
            raise ConfigError(f"{name} must be finite, got {getattr(config, name)}")


def require_sample_rate(sample_rate) -> None:
    """ConfigError unless ``sample_rate`` lies in [1, the largest float]."""
    top = float(np.finfo(float).max)  # a Python float: an int past it compares, not converts
    if not 1 <= sample_rate <= top:
        got = str(sample_rate)
        raise ConfigError(f"sample_rate must be in [1, {top:g}], got "
                          f"{got if len(got) <= 24 else f'a {len(got)}-digit number'}")


def sample_count(config, name: str, samples: float) -> int:
    """round(samples), the sample count that field ``name`` of ``config`` gives; ConfigError
    unless it is finite and no larger than an array index can be."""
    if not samples <= np.iinfo(np.intp).max:
        raise ConfigError(f"{name} = {getattr(config, name)} gives {samples:g} samples, "
                          "more than an array can hold")
    return round(samples)


@dataclass(frozen=True)
class SdeParams:
    """Process constants. ``sigma_max == sigma_min`` degenerates to a noise-free ODE."""

    gamma: float = 1.5
    sigma_min: float = 1e-4
    sigma_max: float = 1e-1
    T: float = 1.0
    N: int = 30
    t_eps: float = 0.03

    def __post_init__(self):
        require_finite(self, "gamma", "sigma_min", "sigma_max", "T", "t_eps")
        if not (self.gamma > 0.0):
            raise ConfigError(f"gamma must be positive, got {self.gamma}")
        if not (0.0 < self.sigma_min <= self.sigma_max):
            raise ConfigError(
                f"need 0 < sigma_min <= sigma_max, got {self.sigma_min}, {self.sigma_max}"
            )
        if not (self.T > 0.0):
            raise ConfigError(f"T must be positive, got {self.T}")
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise ConfigError(f"N must be an int >= 1, got {self.N!r}")
        if not (0.0 < self.t_eps < self.T):
            raise ConfigError(f"t_eps must lie in (0, T), got {self.t_eps}")
        try:  # both grow with t, so T bounds them
            top = variance(self.T, self) + diffusion_coeff(self.T, self) ** 2
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise ConfigError(f"variance(T) or g(T)^2 overflows with sigma_min = {self.sigma_min}, "
                              f"sigma_max = {self.sigma_max}, T = {self.T}")

    @cached_property
    def log_ratio(self) -> float:
        return math.log(self.sigma_max / self.sigma_min)

    def grid_time(self, n: int) -> float:
        """Time of grid node n in 0..N; node times are (n*T)/N, strictly increasing."""
        if not 0 <= n <= self.N:
            raise DomainError(f"grid index {n} outside 0..{self.N}")
        return (n * self.T) / self.N

    def clamp(self, t: float) -> float:
        """The time a score is evaluated at: t clamped to [t_eps, T]."""
        return min(max(float(t), self.t_eps), self.T)

    # -- flat key=value config round-trip -------------------------------------
    def to_file(self, path: str | Path) -> None:
        write_key_values(path, self)

    @classmethod
    def from_file(cls, path: str | Path) -> "SdeParams":
        return cls(**read_key_values(path, cls))


def write_key_values(path: str | Path, obj) -> None:
    """Write each field of the dataclass ``obj`` as one ``key = value`` line."""
    Path(path).write_text("".join(f"{f.name} = {getattr(obj, f.name)}\n" for f in fields(obj)))


def read_key_values(path: str | Path, cls) -> dict:
    """Parse a flat ``key = value`` file ('#' starts a comment) into dataclass ``cls``'s fields.

    Each value is cast to its field default's type.  Unknown keys, malformed
    lines, bad values and unreadable or non-UTF-8 files raise ConfigError.
    """
    casts = {f.name: type(f.default) for f in fields(cls)}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: unreadable config ({exc})") from exc
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in casts:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            kwargs[key] = casts[key](value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return kwargs


def _check_t(t: float, params: SdeParams, lo: float = 0.0) -> float:
    t = float(t)
    if not (lo <= t <= params.T):
        raise DomainError(f"t={t} outside [{lo}, {params.T}]")
    return t


def _check_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionError(f"shape mismatch: {x.shape} vs {y.shape}")
    return x, y


def diffusion_coeff(t: float, params: SdeParams) -> float:
    """g(t) on the geometric ladder; zero for the degenerate sigma_max == sigma_min."""
    t = _check_t(t, params)
    lr = params.log_ratio
    if lr == 0.0:
        return 0.0
    return params.sigma_min * math.exp(t * lr) * math.sqrt(2.0 * lr)


def mean(x0: np.ndarray, y: np.ndarray, t: float, params: SdeParams) -> np.ndarray:
    """Kernel mean: exponential relaxation from x0 toward y at rate gamma."""
    x0, y = _check_pair(x0, y)
    a = math.exp(-params.gamma * _check_t(t, params))
    return a * x0 + (1.0 - a) * y


def variance(t: float, params: SdeParams) -> float:
    """Kernel variance; the unique solution of dv/dt = -2*gamma*v + g(t)^2, v(0)=0."""
    t = _check_t(t, params)
    lr = params.log_ratio
    if lr == 0.0:
        return 0.0
    grow = math.exp(2.0 * t * lr)
    decay = math.exp(-2.0 * params.gamma * t)
    return params.sigma_min**2 * (grow - decay) * lr / (params.gamma + lr)


def std(t: float, params: SdeParams) -> float:
    return math.sqrt(variance(t, params))


def kernel_coefficients(t: float, params: SdeParams) -> tuple[float, float, float]:
    """(variance(t), e^{-gamma t}, 1 - e^{-gamma t}): mean(x0, y, t) = a x0 + (1 - a) y."""
    a = math.exp(-params.gamma * _check_t(t, params))
    return variance(t, params), a, 1.0 - a


def perturb(
    x0: np.ndarray, y: np.ndarray, t: float, z: np.ndarray, params: SdeParams
) -> np.ndarray:
    """x_t = mean(x0, y, t) + std(t) * z for a caller-chosen z."""
    x0, y = _check_pair(x0, y)
    z = np.asarray(z, dtype=np.float64)
    if z.shape != x0.shape:
        raise DimensionError(f"noise shape {z.shape} != signal shape {x0.shape}")
    return mean(x0, y, t, params) + std(t, params) * z


def sample_perturbed(
    x0: np.ndarray,
    y: np.ndarray,
    t: float,
    params: SdeParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (x_t, z) from the kernel at training time t in [t_eps, T]."""
    _check_t(t, params, lo=params.t_eps)
    x0, y = _check_pair(x0, y)
    z = rng.standard_normal(x0.shape)
    return perturb(x0, y, t, z, params), z


def forward_ensemble_moments(
    x0: np.ndarray,
    y: np.ndarray,
    params: SdeParams,
    paths: int,
    steps: int,
    grid: np.ndarray,
    rng: np.random.Generator,
) -> list[dict]:
    """Monte-Carlo moments of the forward process captured at the requested times.

    ``paths`` copies of x0 are integrated from 0 to T by Euler-Maruyama in
    ``steps`` uniform steps, each path drawing its own noise.  Each grid time
    must sit on the integration grid (a multiple of T/steps).  Returns one dict
    per grid point with empirical mean/variance next to the closed-form values.
    """
    x0, y = _check_pair(x0, y)
    if x0.ndim != 1:
        raise DimensionError("x0 must be 1-D; paths are stacked internally")
    if steps < 1:
        raise DomainError(f"need steps >= 1, got {steps}")
    dt = params.T / steps
    snap = {}
    for t in np.asarray(grid, dtype=np.float64):
        k = round(float(t) / dt)
        if abs(k * dt - t) > 1e-9 * params.T or not 0 <= k <= steps:
            raise DomainError(f"grid time {t} is not a multiple of T/steps")
        snap[k] = float(t)
    rows = []
    x = np.broadcast_to(x0, (paths, x0.size)).copy()
    sq = math.sqrt(dt)
    for k in range(steps + 1):
        if k > 0:
            g = diffusion_coeff((k - 1) * dt, params)
            x += params.gamma * (y - x) * dt + g * sq * rng.standard_normal(x.shape)
        if k not in snap:
            continue
        t = snap[k]
        emp_mean = x.mean(axis=0)
        emp_var = float(x.var(axis=0, ddof=1).mean())
        model_mean = mean(x0, y, t, params)
        denom = np.linalg.norm(model_mean)
        err = float(np.linalg.norm(emp_mean - model_mean) / denom) if denom > 0 else float(
            np.linalg.norm(emp_mean)
        )
        rows.append(
            {
                "t": t,
                "mean_rel_err": err,
                "empirical_var": emp_var,
                "model_var": variance(t, params),
            }
        )
    return rows
