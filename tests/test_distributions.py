"""Tests for the heavy-tailed family and the stable sampler."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from stablechaos.distributions import (
    StableSpec,
    heavy_cdf,
    heavy_mean,
    heavy_quantile,
    sample_heavy,
    sample_stable,
    stable_params_from_heavy,
    tail_constant,
    validate_heavy_tail,
)
from stablechaos.errors import (
    ForbiddenIndex,
    MassConstraintViolated,
    MomentUndefined,
    RangeError,
)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_accepts_valid_spec(self):
        spec = validate_heavy_tail(0.5, 0.6, 0.0, 0.2, 0.1, 1.0)
        assert spec.alpha == 0.5
        # one-sided tail mass 0.3 <= 0.5
        assert spec.tail_survival_at_cutoff() == pytest.approx(0.3)

    def test_mass_constraint_violated(self):
        with pytest.raises(MassConstraintViolated):
            validate_heavy_tail(0.5, 0.6, 0.0, 0.6, 1e-12, 1.0)

    def test_alpha_one_forbidden(self):
        with pytest.raises(ForbiddenIndex):
            validate_heavy_tail(1.0, 0.6, 0.0, 0.2, 0.1, 1.0)

    @pytest.mark.parametrize("alpha,gamma", [(0.5, 0.5), (1.5, 0.5)])
    def test_index_sum_forbidden(self, alpha, gamma):
        with pytest.raises(ForbiddenIndex):
            validate_heavy_tail(alpha, gamma, 0.0, 0.1, 0.1, 2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(beta=1.5),
            dict(A=-0.1),
            dict(A_tilde=0.0),
            dict(L=0.0),
            dict(gamma=-0.2),
        ],
    )
    def test_range_errors(self, kwargs):
        base = dict(alpha=0.5, gamma=0.6, beta=0.0, A=0.2, A_tilde=0.1, L=1.0)
        base.update(kwargs)
        with pytest.raises(RangeError):
            validate_heavy_tail(**base)

    def test_auto_centering_regimes(self):
        assert validate_heavy_tail(1.5, 0.6, 0.0, 0.1, 0.05, 1.0).centered
        assert not validate_heavy_tail(0.5, 0.6, 0.0, 0.2, 0.1, 1.0).centered


# ---------------------------------------------------------------------------
# CDF
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def atom_spec():
    return validate_heavy_tail(0.5, 0.6, 0.0, 0.2, 0.1, 1.0, middle_fill="atom")


class TestHeavyCdf:
    def test_right_tail_value(self, atom_spec):
        # 1 - G(2) = 0.2 * 2^-0.5 + 0.1 * 2^-1.1
        assert heavy_cdf(atom_spec, 2.0) == pytest.approx(0.8119269941858501, abs=1e-12)

    def test_left_cutoff_value(self, atom_spec):
        assert heavy_cdf(atom_spec, -1.0) == pytest.approx(0.3, abs=1e-12)

    def test_atom_at_zero(self, atom_spec):
        assert heavy_cdf(atom_spec, 0.0) == pytest.approx(0.7, abs=1e-12)
        assert heavy_cdf(atom_spec, -1e-9) == pytest.approx(0.3, abs=1e-12)

    def test_monotone_and_limits(self, atom_spec):
        grid = np.concatenate([
            -np.logspace(6, -3, 5000), np.logspace(-3, 6, 5000),
        ])
        grid.sort()
        vals = heavy_cdf(atom_spec, grid)
        assert np.all(np.diff(vals) >= -1e-15)
        # an alpha = 0.5 tail needs |x| ~ 1e30 before the CDF is within 1e-12
        # of its limits
        assert heavy_cdf(atom_spec, -1e30) <= 1e-12
        assert heavy_cdf(atom_spec, 1e30) >= 1.0 - 1e-12

    def test_uniform_fill_continuous(self):
        spec = validate_heavy_tail(0.5, 0.6, 0.0, 0.2, 0.1, 1.0, middle_fill="uniform")
        xs = np.linspace(-0.999, 0.999, 101)
        vals = heavy_cdf(spec, xs)
        assert np.all(np.diff(vals) > 0.0)
        assert heavy_cdf(spec, -1.0 + 1e-12) == pytest.approx(0.3, abs=1e-9)


class TestHeavyMean:
    def test_closed_form_matches_quadrature(self):
        spec = validate_heavy_tail(1.5, 0.6, 0.5, 0.1, 0.05, 1.0)
        # density of the right tail: (1+beta)(alpha A x^{-alpha-1} + (alpha+gamma) At x^{-alpha-gamma-1})
        def dens(x, side):
            w = (1.0 + spec.beta) if side > 0 else (1.0 - spec.beta)
            return w * (
                spec.alpha * spec.A * x ** (-spec.alpha - 1.0)
                + (spec.alpha + spec.gamma) * spec.A_tilde * x ** (-spec.alpha - spec.gamma - 1.0)
            )
        pos, _ = quad(lambda x: x * dens(x, +1), spec.L, np.inf)
        neg, _ = quad(lambda x: x * dens(x, -1), spec.L, np.inf)
        assert heavy_mean(spec) == pytest.approx(pos - neg, abs=1e-9)
        assert heavy_mean(spec) == pytest.approx(0.39545454545454545, abs=1e-9)

    def test_symmetric_mean_zero(self):
        spec = validate_heavy_tail(1.5, 0.6, 0.0, 0.1, 0.05, 1.0)
        assert heavy_mean(spec) == 0.0

    def test_moment_undefined(self, atom_spec):
        with pytest.raises(MomentUndefined):
            heavy_mean(atom_spec)


# ---------------------------------------------------------------------------
# Sampling the heavy-tailed law
# ---------------------------------------------------------------------------

class TestSampleHeavy:
    def test_tail_fraction_ci(self, atom_spec):
        rng = np.random.default_rng(1)
        x = sample_heavy(atom_spec, rng, 1_000_000)
        p_plus = atom_spec.p_plus
        frac = np.mean(x >= atom_spec.L)
        se = math.sqrt(p_plus * (1 - p_plus) / x.size)
        assert abs(frac - p_plus) < 3 * se

    def test_atom_support(self, atom_spec):
        rng = np.random.default_rng(2)
        x = sample_heavy(atom_spec, rng, 100_000)
        ok = (x == 0.0) | (x >= atom_spec.L) | (x <= -atom_spec.L)
        assert np.all(ok)

    def test_centered_mean_zero(self):
        spec = validate_heavy_tail(1.5, 0.6, 0.5, 0.1, 0.05, 1.0)
        rng = np.random.default_rng(3)
        x = sample_heavy(spec, rng, 10_000_000)
        se = x.std() / math.sqrt(x.size)
        assert abs(x.mean()) < 3 * se

    def test_quantile_cdf_round_trip(self, atom_spec):
        rng = np.random.default_rng(4)
        # tail regions on both sides
        us = np.concatenate([
            rng.uniform(1e-6, atom_spec.p_minus - 1e-9, 500),
            rng.uniform(1.0 - atom_spec.p_plus + 1e-9, 1.0 - 1e-6, 500),
        ])
        x = heavy_quantile(atom_spec, us)
        back = heavy_cdf(atom_spec, x)
        assert np.all(back >= us - 1e-9)
        assert np.all(back <= us + 1e-9)

    def test_fractional_moment_stable_under_doubling(self, atom_spec):
        rng = np.random.default_rng(5)
        a_prime = 0.4  # < alpha = 0.5
        m1 = np.mean(np.abs(sample_heavy(atom_spec, rng, 200_000)) ** a_prime)
        m2 = np.mean(np.abs(sample_heavy(atom_spec, rng, 400_000)) ** a_prime)
        assert 0.8 < m1 / m2 < 1.25


# ---------------------------------------------------------------------------
# Stable parameters and sampler
# ---------------------------------------------------------------------------

class TestStableParams:
    def test_intensities(self):
        spec = validate_heavy_tail(1.5, 0.6, 0.0, 0.2, 0.05, 1.0)
        st_spec = stable_params_from_heavy(spec)
        assert st_spec.a_plus == pytest.approx(0.3)
        assert st_spec.a_minus == pytest.approx(0.3)
        assert st_spec.beta_stable == 0.0

    def test_sigma_scale_relation(self):
        # sigma^alpha * alpha * C_alpha = a_+ + a_-, pinned by the tail law
        spec = StableSpec(alpha=1.5, a_plus=0.3, a_minus=0.3)
        assert spec.sigma ** 1.5 == pytest.approx(1.0026513098524001, rel=1e-9)
        assert spec.sigma ** 1.5 * 1.5 * tail_constant(1.5) == pytest.approx(0.6, rel=1e-12)

    def test_skewed_params(self):
        spec = validate_heavy_tail(0.8, 0.5, 0.5, 0.2, 0.1, 1.0)
        st_spec = stable_params_from_heavy(spec)
        assert st_spec.a_plus == pytest.approx(1.5 * 0.8 * 0.2)
        assert st_spec.beta_stable == pytest.approx(0.5)


class TestSampleStable:
    def test_symmetric_median_zero(self):
        spec = StableSpec(alpha=1.5, a_plus=0.3, a_minus=0.3)
        rng = np.random.default_rng(6)
        x = sample_stable(spec, rng, 1_000_000)
        # se of the sample median ~ 1/(2 f(0) sqrt(n)); bound density by 1
        assert abs(np.median(x)) < 0.01

    def test_tail_matches_levy_intensity(self):
        # x^alpha P(S > x) -> a_plus / alpha; this cross-checks the sigma relation
        spec = StableSpec(alpha=1.5, a_plus=0.3, a_minus=0.3)
        rng = np.random.default_rng(7)
        x = sample_stable(spec, rng, 10_000_000)
        thresh = np.quantile(x, 0.999)
        est = thresh ** spec.alpha * np.mean(x > thresh)
        assert est == pytest.approx(spec.a_plus / spec.alpha, rel=0.15)

    def test_tail_ratio_matches_intensity_ratio(self):
        spec = StableSpec(alpha=1.5, a_plus=0.45, a_minus=0.15)
        rng = np.random.default_rng(8)
        x = sample_stable(spec, rng, 10_000_000)
        thresh = np.quantile(np.abs(x), 0.9995)
        ratio = np.sum(x > thresh) / np.sum(x < -thresh)
        assert ratio == pytest.approx(spec.a_plus / spec.a_minus, rel=0.2)

    @pytest.mark.parametrize("alpha", [0.8, 1.5])
    def test_self_similarity(self, alpha):
        spec = StableSpec(alpha=alpha, a_plus=0.3, a_minus=0.3)
        rng = np.random.default_rng(9)
        n = 1_000_000
        pair = sample_stable(spec, rng, 2 * n)
        single = sample_stable(spec, rng, n)
        lhs = pair[:n] + pair[n:]
        rhs = 2.0 ** (1.0 / alpha) * single
        from stablechaos.metrics import ks_two_sample
        assert ks_two_sample(lhs, rhs) < 0.005

    def test_skewed_strictly_stable_sum(self):
        # strict stability must hold for asymmetric laws too (zero-shift CMS)
        spec = StableSpec(alpha=0.8, a_plus=0.4, a_minus=0.1)
        rng = np.random.default_rng(10)
        n = 500_000
        pair = sample_stable(spec, rng, 2 * n)
        single = sample_stable(spec, rng, n)
        from stablechaos.metrics import ks_two_sample
        assert ks_two_sample(pair[:n] + pair[n:], 2.0 ** (1.0 / 0.8) * single) < 0.005


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

_alpha_strategy = st.floats(0.2, 1.9).filter(lambda a: abs(a - 1.0) > 0.05)


class TestProperties:
    @given(
        alpha=_alpha_strategy,
        gamma=st.floats(0.05, 1.0),
        beta=st.floats(-1.0, 1.0),
        u=st.floats(1e-6, 1.0 - 1e-6),
    )
    @settings(max_examples=200, deadline=None)
    def test_quantile_round_trip_property(self, alpha, gamma, beta, u):
        s = alpha + gamma
        if abs(s - 1.0) < 0.02 or abs(s - 2.0) < 0.02:
            return
        spec = validate_heavy_tail(alpha, gamma, beta, 0.2, 0.1, 1.2)
        x = heavy_quantile(spec, u)
        assert heavy_cdf(spec, x) >= u - 1e-9

    @given(alpha=_alpha_strategy, x=st.floats(-100.0, 100.0), y=st.floats(-100.0, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_cdf_ordering_property(self, alpha, x, y):
        spec = validate_heavy_tail(alpha, 0.31, 0.25, 0.2, 0.1, 1.2)
        lo, hi = min(x, y), max(x, y)
        assert heavy_cdf(spec, lo) <= heavy_cdf(spec, hi) + 1e-15
