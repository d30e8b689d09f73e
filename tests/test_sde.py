"""Forward-process closed forms against independently derived constants.

The frozen numbers below were computed from the defining formulas with
high-precision arithmetic before the implementation existed; they pin the
closed forms, and the finite-difference test pins the variance to its ODE.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gse.audio import MixSpec
from gse.errors import ConfigError, DimensionError, DomainError
from gse.sde import (
    SdeParams,
    diffusion_coeff,
    forward_ensemble_moments,
    make_rng,
    mean,
    perturb,
    sample_perturbed,
    std,
    variance,
)

P = SdeParams()

# frozen reference values for the default parameters
G_AT_0 = 3.7169221888498383e-4
G_AT_1 = 0.3716922188849838
VAR_AT_1 = 8.215932440770948e-3
STD_AT_1 = 0.09064178087819627
VAR_AT_HALF = 8.214099627405609e-6
EXP_MINUS_GAMMA = 0.22313016014842982  # e^{-1.5}
EXP_MINUS_HALF_GAMMA = 0.4723665527410147  # e^{-0.75}


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


class TestDiffusionCoeff:
    def test_endpoints(self):
        assert rel(diffusion_coeff(0.0, P), G_AT_0) < 1e-12
        assert rel(diffusion_coeff(1.0, P), G_AT_1) < 1e-12

    def test_geometric_midpoint(self):
        # on a geometric ladder the midpoint is the geometric mean of the ends
        g_mid = diffusion_coeff(0.5, P)
        assert rel(g_mid, math.sqrt(G_AT_0 * G_AT_1)) < 1e-12

    def test_degenerate_band_is_noise_free(self):
        flat = SdeParams(sigma_min=0.01, sigma_max=0.01)
        assert diffusion_coeff(0.3, flat) == 0.0
        assert variance(0.7, flat) == 0.0

    def test_time_domain(self):
        with pytest.raises(DomainError):
            diffusion_coeff(-0.1, P)
        with pytest.raises(DomainError):
            diffusion_coeff(P.T + 0.1, P)


class TestKernelMoments:
    def test_mean_relaxation_factors(self):
        one = np.ones(3)
        zero = np.zeros(3)
        assert np.allclose(mean(one, zero, 1.0, P), EXP_MINUS_GAMMA, rtol=1e-12)
        assert np.allclose(mean(one, zero, 0.5, P), EXP_MINUS_HALF_GAMMA, rtol=1e-12)
        np.testing.assert_array_equal(mean(one, zero, 0.0, P), one)

    def test_mean_is_convex_combination(self):
        x0 = np.array([2.0, -1.0])
        y = np.array([0.5, 0.5])
        a = math.exp(-P.gamma * 0.37)
        np.testing.assert_allclose(mean(x0, y, 0.37, P), a * x0 + (1 - a) * y, rtol=1e-15)

    def test_variance_frozen_values(self):
        assert variance(0.0, P) == 0.0
        assert rel(variance(1.0, P), VAR_AT_1) < 1e-12
        assert rel(variance(0.5, P), VAR_AT_HALF) < 1e-12
        assert rel(std(1.0, P), STD_AT_1) < 1e-12

    def test_variance_solves_its_ode(self):
        # dv/dt = -2*gamma*v + g^2, checked by central differences
        h = 1e-6
        for t in np.linspace(0.05, P.T - h, 40):
            lhs = (variance(t + h, P) - variance(t - h, P)) / (2 * h)
            rhs = -2.0 * P.gamma * variance(t, P) + diffusion_coeff(t, P) ** 2
            assert rel(lhs, rhs) < 1e-3

    def test_perturb_is_mean_plus_scaled_noise(self):
        rng = make_rng(5)
        x0, y, z = rng.normal(size=(3, 8))
        t = 0.6
        np.testing.assert_array_equal(
            perturb(x0, y, t, z, P), mean(x0, y, t, P) + std(t, P) * z
        )

    def test_sample_perturbed_returns_consistent_noise(self):
        rng = make_rng(7)
        x0 = rng.normal(size=16)
        y = x0 + 0.1
        x_t, z = sample_perturbed(x0, y, 0.8, P, rng)
        np.testing.assert_allclose(x_t, perturb(x0, y, 0.8, z, P), rtol=0, atol=0)

    def test_sample_perturbed_respects_time_floor(self):
        rng = make_rng(7)
        x0 = np.zeros(4)
        with pytest.raises(DomainError):
            sample_perturbed(x0, x0, P.t_eps / 2, P, rng)


@given(
    t1=st.floats(min_value=0.0, max_value=1.0),
    t2=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_variance_strictly_increasing(t1, t2):
    lo, hi = sorted((t1, t2))
    if hi - lo > 1e-9:
        assert variance(lo, P) < variance(hi, P)


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_mean_stays_between_endpoints(t, seed):
    rng = make_rng(seed)
    x0, y = rng.normal(size=(2, 5))
    m = mean(x0, y, t, P)
    assert np.all(m <= np.maximum(x0, y) + 1e-12)
    assert np.all(m >= np.minimum(x0, y) - 1e-12)


class TestEulerMaruyama:
    def test_degenerate_band_matches_ode_solution(self):
        """Noise-free, every path is the Euler solution of dx = gamma (y - x) dt."""
        flat = SdeParams(sigma_min=0.01, sigma_max=0.01)
        x0 = np.array([1.0, -2.0])
        y = np.array([0.0, 1.0])
        (row,) = forward_ensemble_moments(x0, y, flat, paths=2, steps=2000,
                                          grid=np.array([flat.T]), rng=make_rng(0))
        exact = y + math.exp(-flat.gamma * flat.T) * (x0 - y)
        np.testing.assert_allclose(mean(x0, y, flat.T, flat), exact, rtol=1e-15)
        assert row["mean_rel_err"] < 5e-3
        assert row["empirical_var"] == row["model_var"] == 0.0

    def test_ensemble_moments_track_closed_forms(self):
        x0 = np.array([1.0])
        y = np.array([0.1])
        rows = forward_ensemble_moments(
            x0, y, P, paths=1500, steps=400, grid=np.array([0.25, 0.5, 1.0]), rng=make_rng(3)
        )
        assert [r["t"] for r in rows] == [0.25, 0.5, 1.0]
        for r in rows:
            assert r["mean_rel_err"] < 0.01
            assert rel(r["empirical_var"], r["model_var"]) < 0.12

    def test_ensemble_snapshot_is_the_euler_maruyama_paths(self):
        """Snapshot at T of the ensemble == the stacked paths stepped by
        x <- x + gamma (y - x) dt + g(t_k) sqrt(dt) z, bit for bit."""
        x0, y = np.array([1.0, -0.5]), np.array([0.1, 0.3])
        paths, steps = 64, 200
        (row,) = forward_ensemble_moments(x0, y, P, paths, steps, np.array([P.T]), make_rng(9))
        x, y_paths = np.tile(x0, (paths, 1)), np.tile(y, (paths, 1))
        dt, rng = P.T / steps, make_rng(9)
        for k in range(steps):
            g = diffusion_coeff(k * dt, P)
            x += P.gamma * (y_paths - x) * dt + g * math.sqrt(dt) * rng.standard_normal(x.shape)
        assert row["empirical_var"] == float(x.var(axis=0, ddof=1).mean())

    def test_snapshot_must_sit_on_integration_grid(self):
        x0 = np.array([1.0])
        with pytest.raises(DomainError):
            forward_ensemble_moments(
                x0, x0, P, paths=10, steps=400, grid=np.array([1 / 3]), rng=make_rng(0)
            )


_CONFIG_KEYS = sorted({f.name for f in fields(SdeParams)} | {f.name for f in fields(MixSpec)})
_CONFIG_VALUE = st.one_of(
    st.text(max_size=8), st.floats().map(repr), st.integers().map(str),
    st.sampled_from(["white", "pink", "sinusoid-sum", "nan", "inf", "-0", "1e400"]),
)
_CONFIG_LINE = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(_CONFIG_KEYS), _CONFIG_VALUE),
    st.text(max_size=12),
)
#: `key = value` lines over the real keys, mixed with arbitrary lines
_CONFIG_TEXT = st.lists(_CONFIG_LINE, max_size=6).map(
    lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass")
)


class TestParams:
    def test_grid_times(self):
        assert P.grid_time(0) == 0.0
        assert P.grid_time(P.N) == P.T
        assert P.grid_time(12) == pytest.approx(0.4, abs=0)
        with pytest.raises(DomainError):
            P.grid_time(P.N + 1)

    def test_clamp(self):
        """Score times are clamped to [t_eps, T] and returned as a plain float."""
        assert (P.clamp(0.0), P.clamp(0.5), P.clamp(2.0)) == (P.t_eps, 0.5, P.T)
        assert P.clamp(P.t_eps / 10) == P.t_eps
        assert P.clamp(P.t_eps) == P.t_eps and P.clamp(P.T) == P.T
        clamped = P.clamp(np.float32(0.25))
        assert type(clamped) is float and clamped == float(np.float32(0.25))
        assert all(P.clamp(P.grid_time(n)) == max(P.grid_time(n), P.t_eps) for n in range(P.N + 1))

    def test_validation(self):
        with pytest.raises(ConfigError):
            SdeParams(gamma=0.0)
        with pytest.raises(ConfigError):
            SdeParams(sigma_min=0.2, sigma_max=0.1)
        with pytest.raises(ConfigError):
            SdeParams(t_eps=0.0)
        with pytest.raises(ConfigError):
            SdeParams(N=0)

    @pytest.mark.parametrize("n", [2.5, 6.0])
    def test_grid_size_must_be_an_int(self, n):
        """A float N, even a whole one, used to end in a raw TypeError in StepPlan.build."""
        with pytest.raises(ConfigError, match=f"N must be an int >= 1, got {n}"):
            SdeParams(N=n)

    @pytest.mark.parametrize("field", ["gamma", "sigma_min", "sigma_max", "T", "t_eps"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            SdeParams(**{field: value})

    @pytest.mark.parametrize("kwargs", [{"sigma_max": 1e300}, {"T": 200.0},
                                        {"sigma_max": 1e100, "T": 3.0}])
    def test_overflowing_variance_rejected(self, kwargs):
        """Finite constants whose variance(T) or g(T)^2 overflows a float."""
        with pytest.raises(ConfigError, match="overflows"):
            SdeParams(**kwargs)
        assert math.isfinite(variance(1.0, SdeParams(sigma_max=1e150)))

    def test_config_file_round_trip(self, tmp_path):
        p = SdeParams(gamma=2.0, sigma_min=0.02, sigma_max=0.3, T=2.0, N=16, t_eps=0.05)
        path = tmp_path / "sde.cfg"
        p.to_file(path)
        assert SdeParams.from_file(path) == p

    @pytest.mark.parametrize("config, text", [
        (SdeParams(), "gamma = 1.5\nsigma_min = 0.0001\nsigma_max = 0.1\nT = 1.0\nN = 30\n"
                      "t_eps = 0.03\n"),
        (MixSpec(), "clean_kind = sinusoid-sum\nnoise_kind = white\nsnr_db = 5.0\n"
                    "duration_s = 0.25\nseed = 0\nsample_rate = 16000\n"),
    ], ids=["SdeParams", "MixSpec"])
    def test_config_file_bytes_are_fixed(self, config, text, tmp_path):
        """``to_file`` writes the defaults as these exact bytes."""
        path = tmp_path / "default.cfg"
        config.to_file(path)
        assert path.read_bytes() == text.encode()

    def test_config_file_accepts_comments_and_blanks(self, tmp_path):
        path = tmp_path / "sde.cfg"
        path.write_text("# comment\n\ngamma = 2.5\nN = 10  # trailing\n")
        p = SdeParams.from_file(path)
        assert p.gamma == 2.5 and p.N == 10

    def test_config_file_reports_bad_lines(self, tmp_path):
        path = tmp_path / "sde.cfg"
        path.write_text("gamma = 1.0\nwhat is this\n")
        with pytest.raises(ConfigError, match=":2:"):
            SdeParams.from_file(path)
        path.write_text("unknown_knob = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            SdeParams.from_file(path)

    @pytest.mark.parametrize("cls", [SdeParams, MixSpec])
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=st.one_of(_CONFIG_TEXT, st.binary(max_size=64)))
    def test_fuzzed_config_text_raises_only_config_error(self, cls, blob, tmp_path):
        path = tmp_path / "fuzz.cfg"
        path.write_bytes(blob)
        try:
            cls.from_file(path)
        except ConfigError:
            pass

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            mean(np.zeros(3), np.zeros(4), 0.5, P)


def test_rng_is_reproducible():
    a = make_rng(123).standard_normal(5)
    b = make_rng(123).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert isinstance(make_rng(0).bit_generator, np.random.Philox)


def test_negative_seed_is_config_error():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        make_rng(-1)
