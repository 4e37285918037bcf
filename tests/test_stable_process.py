"""Tests for driving-path sampling, truncation, and window-sum assembly."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import expon, kstest

from stablechaos.distributions import StableSpec, sample_stable
from stablechaos.errors import ConfigError, MomentUndefined
from stablechaos.metrics import ks_two_sample
from stablechaos.stable_process import (
    COUPLED,
    SAMPLED,
    big_jump_rate,
    compensator_MK,
    default_truncation,
    path_from_window_sums,
    sample_driving_path,
)

SYM_15 = StableSpec(alpha=1.5, a_plus=0.3, a_minus=0.3)
SKEW_15 = StableSpec(alpha=1.5, a_plus=0.3, a_minus=0.1)
SYM_08 = StableSpec(alpha=0.8, a_plus=0.3, a_minus=0.3)


def path_total(path):
    """Path value at the horizon."""
    return float(np.sum(path.increments) + np.sum(path.big_sizes))


def grid_values(path):
    """Path value at each grid time: increments plus big jumps up to that time."""
    vals = np.cumsum(path.increments)
    if path.big_times.size:
        add = np.zeros(path.n_cells)
        cells = np.minimum(np.ceil(path.big_times / path.grid_step).astype(int) - 1, path.n_cells - 1)
        np.add.at(add, np.maximum(cells, 0), path.big_sizes)
        vals = vals + np.cumsum(add)
    return vals


class TestRates:
    def test_big_jump_rate_value(self):
        assert big_jump_rate(SYM_15, 10.0) == pytest.approx(0.012649110640673518, rel=1e-9)

    def test_big_jump_rate_vanishes(self):
        assert big_jump_rate(SYM_15, 1e12) < 1e-15

    def test_big_jump_rate_alpha_below_one(self):
        spec = StableSpec(alpha=0.5, a_plus=1.0, a_minus=1.0)
        assert big_jump_rate(spec, 1.0) == pytest.approx(4.0)

    def test_compensator_symmetric_zero(self):
        assert compensator_MK(SYM_15, 2.0) == 0.0

    def test_compensator_value(self):
        assert compensator_MK(SKEW_15, 2.0) == pytest.approx(0.2828427124746, rel=1e-9)

    def test_compensator_infinite_K(self):
        assert compensator_MK(SKEW_15, np.inf) == 0.0

    def test_compensator_undefined_below_one(self):
        with pytest.raises(MomentUndefined):
            compensator_MK(SYM_08, 2.0)

    def test_compensator_matches_quadrature(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            alpha = rng.uniform(1.05, 1.95)
            spec = StableSpec(alpha=alpha, a_plus=rng.uniform(0.1, 1.0), a_minus=rng.uniform(0.1, 1.0))
            K = rng.uniform(0.5, 5.0)
            pos, _ = quad(lambda z: z * spec.a_plus * z ** (-alpha - 1.0), K, np.inf)
            neg, _ = quad(lambda z: z * spec.a_minus * z ** (-alpha - 1.0), K, np.inf)
            assert compensator_MK(spec, K) == pytest.approx(pos - neg, abs=1e-9)

    def test_default_truncation_budget(self):
        K = default_truncation(SYM_15, 1.0)
        assert 1.0 - math.exp(-big_jump_rate(SYM_15, K) * 1.0) == pytest.approx(0.01, rel=1e-9)


class TestSampledPaths:
    def test_no_big_jumps_when_rate_zero(self):
        path = sample_driving_path(SYM_15, 1.0, 0.1, np.inf, np.random.default_rng(1))
        assert path.big_times.size == 0
        assert path.t_K == np.inf
        assert path.mode == SAMPLED

    def test_config_errors(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ConfigError):
            sample_driving_path(SYM_15, 1.0, 2.0, np.inf, rng)
        with pytest.raises(ConfigError):
            sample_driving_path(SYM_15, 1.0, 0.1, 1.0, rng, eps=2.0)

    def test_t_K_exponential(self):
        K = 2.0
        lam = big_jump_rate(SYM_15, K)
        T = 200.0
        rng = np.random.default_rng(3)
        ts = []
        for _ in range(10_000):
            n = rng.poisson(lam * T)
            ts.append(float(np.sort(rng.uniform(0, T, n))[0]) if n else np.inf)
        ts = np.array(ts)
        finite = ts[np.isfinite(ts)]
        # conditional law given a jump occurred: truncated exponential; use full KS
        # against Exp by choosing T large enough that censoring is negligible
        assert np.isfinite(ts).mean() > 0.99
        stat = kstest(finite, expon(scale=1.0 / lam).cdf).statistic
        assert stat < 0.02

    def test_t_K_exponential_from_paths(self):
        K = 1.0
        lam = big_jump_rate(SYM_15, K)
        rng = np.random.default_rng(4)
        # coarse eps: t_K depends only on the big jumps
        ts = np.array([
            sample_driving_path(SYM_15, 20.0, 1.0, K, rng, eps=0.5).t_K
            for _ in range(10_000)
        ])
        finite = ts[np.isfinite(ts)]
        assert np.isfinite(ts).mean() > 0.99
        stat = kstest(finite, expon(scale=1.0 / lam).cdf).statistic
        assert stat < 0.02

    def test_self_similarity_alpha_above_one(self):
        # total over [0, T] vs T^{1/alpha} * fresh stable draws
        rng = np.random.default_rng(5)
        T, step, K = 1.0, 0.5, 5.0
        totals = np.array([
            path_total(sample_driving_path(SYM_15, T, step, K, rng, eps=K * 0.01))
            for _ in range(100_000)
        ])
        ref = T ** (1.0 / 1.5) * sample_stable(SYM_15, rng, 100_000)
        assert ks_two_sample(totals, ref) < 0.01

    def test_self_similarity_skewed(self):
        rng = np.random.default_rng(6)
        T, step, K = 1.0, 0.5, 5.0
        totals = np.array([
            path_total(sample_driving_path(SKEW_15, T, step, K, rng, eps=K * 0.005))
            for _ in range(100_000)
        ])
        ref = sample_stable(SKEW_15, rng, 100_000)
        assert ks_two_sample(totals, ref) < 0.01

    def test_self_similarity_alpha_below_one(self):
        rng = np.random.default_rng(7)
        T, step, K = 1.0, 0.5, 10.0
        totals = np.array([
            path_total(sample_driving_path(SYM_08, T, step, K, rng, eps=K * 1e-3))
            for _ in range(100_000)
        ])
        ref = sample_stable(SYM_08, rng, 100_000)
        assert ks_two_sample(totals, ref) < 0.01

    def test_scaling_doubling(self):
        # S_{2h} vs 2^{1/alpha} S_h over fresh paths
        rng = np.random.default_rng(8)
        K = 5.0
        tot2 = np.array([
            path_total(sample_driving_path(SYM_15, 2.0, 1.0, K, rng, eps=0.05))
            for _ in range(100_000)
        ])
        tot1 = np.array([
            path_total(sample_driving_path(SYM_15, 1.0, 1.0, K, rng, eps=0.05))
            for _ in range(100_000)
        ])
        assert ks_two_sample(tot2, 2.0 ** (1.0 / 1.5) * tot1) < 0.01

    def test_stationary_increments_permutation(self):
        # cell increments of one long path are exchangeable
        rng = np.random.default_rng(9)
        path = sample_driving_path(SYM_15, 200.0, 1.0, 5.0, rng, eps=0.05)
        vals = grid_values(path)
        inc = np.diff(np.concatenate([[0.0], vals]))
        half = inc.size // 2
        obs = abs(inc[:half].mean() - inc[half:].mean())
        perm_stats = []
        for _ in range(500):
            p = rng.permutation(inc)
            perm_stats.append(abs(p[:half].mean() - p[half:].mean()))
        p_val = np.mean(np.asarray(perm_stats) >= obs)
        assert p_val > 0.01

    def test_remainder_diagnostic_below_one(self):
        path = sample_driving_path(SYM_08, 2.0, 0.5, 10.0, np.random.default_rng(10), eps=0.01)
        expected = 0.6 * 0.01 ** 0.2 / 0.2 * 2.0
        assert path.small_jump_remainder == pytest.approx(expected, rel=1e-9)

    def test_grid_values_include_big_jumps(self):
        rng = np.random.default_rng(11)
        path = sample_driving_path(SYM_15, 10.0, 1.0, 0.5, rng)
        assert path.big_times.size > 0
        vals = grid_values(path)
        assert vals[-1] == pytest.approx(path_total(path), abs=1e-12)


class TestCoupledPaths:
    def test_zero_windows(self):
        path = path_from_window_sums(np.zeros(8), 0.25, SYM_08)
        assert np.all(grid_values(path) == 0.0)
        assert path.mode == COUPLED

    def test_single_window_arithmetic(self):
        path = path_from_window_sums(np.array([1.0]), 0.25, StableSpec(0.5, 1.0, 1.0))
        assert path.increments[0] == pytest.approx(0.0625)

    def test_stable_windows_give_stable_increments(self):
        rng = np.random.default_rng(12)
        w = sample_stable(SYM_15, rng, 100_000)
        delta = 0.1
        path = path_from_window_sums(w, delta, SYM_15)
        ref = delta ** (1.0 / 1.5) * sample_stable(SYM_15, rng, 100_000)
        assert ks_two_sample(path.increments, ref) < 0.01

    def test_censoring_window_start(self):
        delta = 0.25
        K = 2.0
        w = np.array([0.1, 0.1, 5.0, 0.1])
        path = path_from_window_sums(w, delta, SYM_15, K)
        assert path.t_K == pytest.approx(2 * delta)

    def test_no_censoring_when_small(self):
        path = path_from_window_sums(np.full(4, 0.1), 0.25, SYM_15, K=2.0)
        assert path.t_K == np.inf
