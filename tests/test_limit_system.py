"""Tests for the window-scheme limit simulator and the Picard solver."""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from stablechaos.distributions import StableSpec, validate_heavy_tail
from stablechaos.errors import ConfigError, RegimeError
from stablechaos.limit_system import picard_solve, simulate_limit
from stablechaos.models import DriftSpec, InitSpec, KickSpec, ModelSpec, RateSpec
from stablechaos.particle_system import proposal_events
from stablechaos.rngtools import particle_streams, stream
from stablechaos.stable_process import path_from_window_sums, sample_driving_path

STABLE_15 = StableSpec(alpha=1.5, a_plus=0.3, a_minus=0.3)
STABLE_08 = StableSpec(alpha=0.8, a_plus=0.3, a_minus=0.3)


def const_model(c=1.0):
    return ModelSpec(f=RateSpec("constant", c=c), nu0=InitSpec("gaussian", 0.0, 1.0))


def sample_path(spec, seed=0, T=1.0, step=0.1, K=np.inf):
    return sample_driving_path(spec, T, step, K, stream(seed, "path"))


class TestConfig:
    def test_m_minimum(self):
        path = sample_path(STABLE_15)
        with pytest.raises(ConfigError):
            simulate_limit(const_model(), path, np.zeros(1))
        with pytest.raises(ConfigError):
            picard_solve(const_model(), sample_path(STABLE_15, K=5.0), np.zeros(1), 2)

    def test_step_positive(self):
        # the window length is the path's grid step, checked where the path is built
        with pytest.raises(ConfigError):
            sample_path(STABLE_15, step=0.0)


class TestConstantIntegrand:
    def test_exact_transport(self):
        # b = 0, psi = 0, f = c: X_t - X_0 = c^{1/alpha} * S_t exactly
        c = 0.7
        path = sample_path(STABLE_15, seed=1)
        init = np.array([0.0, 1.0, -2.0, 0.5])
        out = simulate_limit(const_model(c), path, init)
        vals = path.grid_values()
        factor = c ** (1.0 / 1.5)
        for j, t in enumerate(out.times):
            expected = init + factor * vals[j]
            assert np.allclose(out.positions[:, j], expected, atol=1e-12)

    def test_spread_conserved(self):
        # common increments preserve max - min across particles
        path = sample_path(STABLE_15, seed=2)
        init = stream(2, "init").normal(0, 1, 16)
        out = simulate_limit(const_model(), path, init)
        spread = out.positions.max(axis=0) - out.positions.min(axis=0)
        assert np.allclose(spread, init.max() - init.min(), atol=1e-12)

    def test_observation_at_zero(self):
        path = sample_path(STABLE_15, seed=3)
        init = np.array([1.0, 2.0, 3.0])
        out = simulate_limit(const_model(), path, init, obs_times=[0.0, 1.0])
        assert np.array_equal(out.positions[:, 0], init)


class TestDeterminism:
    def test_bit_exact_rerun(self):
        path = sample_path(STABLE_15, seed=4)
        init = stream(4, "init").normal(0, 1, 8)
        a = simulate_limit(const_model(), path, init)
        b = simulate_limit(const_model(), path, init)
        assert np.array_equal(a.positions, b.positions)


class TestMainJumps:
    def test_requires_shared_events(self):
        model = ModelSpec(
            f=RateSpec("constant", c=1.0),
            psi=KickSpec("tanh", c=0.3),
            nu0=InitSpec("gaussian", 0.0, 1.0),
        )
        path = sample_path(STABLE_08, seed=5)
        with pytest.raises(ConfigError):
            simulate_limit(model, path, np.zeros(4))

    def test_exchangeable_marginals(self):
        # with i.i.d. initials and per-particle clocks, particle marginals
        # at the horizon are exchangeable
        model = ModelSpec(
            f=RateSpec("logistic", lo=0.5, hi=1.5),
            psi=KickSpec("tanh", c=0.5),
            nu0=InitSpec("gaussian", 0.0, 1.0),
        )
        first, last = [], []
        m = 4
        for r in range(400):
            path = sample_driving_path(STABLE_08, 1.0, 0.1, np.inf, stream(6, "path", r))
            init = model.nu0.sample(stream(6, "init", r), m)
            ev = proposal_events(m, 1.5, 1.0, particle_streams(6, r, m))
            out = simulate_limit(model, path, init, events=ev, obs_times=[1.0])
            first.append(out.positions[0, -1])
            last.append(out.positions[m - 1, -1])
        assert ks_2samp(first, last).pvalue > 0.01


class TestPicard:
    def setup_method(self):
        self.model = ModelSpec(
            b=DriftSpec("tanh", beta0=1.0, beta1=0.5),
            f=RateSpec("logistic", lo=0.5, hi=1.5),
            nu0=InitSpec("gaussian", 0.0, 1.0),
        )
        self.path = sample_driving_path(STABLE_15, 1.0, 0.01, 5.0, stream(7, "path"), eps=0.05)
        self.init = self.model.nu0.sample(stream(7, "init"), 128)

    def test_regime_error_below_one(self):
        path = sample_path(STABLE_08, seed=8)
        with pytest.raises(RegimeError):
            picard_solve(const_model(), path, np.zeros(4), 2)

    def test_requires_finite_truncation(self):
        path = sample_path(STABLE_15, seed=9)
        with pytest.raises(ConfigError):
            picard_solve(const_model(), path, np.zeros(4), 2)

    def test_requires_iterations(self):
        with pytest.raises(ConfigError):
            picard_solve(self.model, self.path, self.init, 0)

    def test_constant_rate_fixed_point_immediately(self):
        _, u = picard_solve(const_model(), self.path, self.init, 2)
        assert u[0] <= 1e-12

    def test_contraction(self):
        _, u = picard_solve(self.model, self.path, self.init, 5)
        assert np.all(u[1:] < u[:-1])

    def test_matches_window_scheme(self):
        # fixed point vs the window-scheme simulator on the truncated path
        bundle, _ = picard_solve(self.model, self.path, self.init, 8)
        direct = simulate_limit(self.model, self.path, self.init)
        gap = np.abs(bundle.positions[:, -1] - direct.positions[:, -1]).mean()
        # both schemes discretize at the same step; gaps are O(step)
        assert gap < 0.1
