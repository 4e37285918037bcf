"""Tests for the empirical distance estimators and the rate fitter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from stablechaos.errors import DegenerateDesign, EmptySample
from stablechaos.metrics import (
    chi2_independence_p,
    d_q,
    ks_two_sample,
    loglog_slope,
    wdq_upper,
    wp_empirical,
)


class TestWpEmpirical:
    def test_identical_samples(self):
        x = np.array([1.0, 2.0, 5.0])
        assert wp_empirical(x, x, 1.0) == 0.0

    def test_two_point_example(self):
        assert wp_empirical([0.0, 1.0], [0.0, 2.0], 1.0) == pytest.approx(0.5)

    def test_single_pair_p2(self):
        assert wp_empirical([0.0], [3.0], 2.0) == pytest.approx(3.0)

    def test_concave_order_is_mean_power(self):
        # p < 1 returns mean gap^p without the outer root
        assert wp_empirical([0.0], [4.0], 0.5) == pytest.approx(2.0)

    def test_unequal_sizes_via_quantile_grid(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, 5000)
        y = rng.normal(0, 1, 20_000)
        assert wp_empirical(x, y, 1.0) < 0.05

    def test_empty_sample_raises(self):
        with pytest.raises(EmptySample):
            wp_empirical([], [1.0], 1.0)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            wp_empirical([0.0], [1.0], 0.0)


class TestDq:
    def test_big_gap_uses_power(self):
        assert d_q(0.0, 4.0, 0.5) == pytest.approx(2.0)

    def test_small_gap_is_plain_distance(self):
        assert d_q(0.0, 0.5, 0.5) == pytest.approx(0.5)

    def test_wdq_examples(self):
        assert wdq_upper([0.0], [4.0], 0.5) == pytest.approx(2.0)
        assert wdq_upper([0.0], [0.5], 0.5) == pytest.approx(0.5)
        x = np.array([1.0, 2.0])
        assert wdq_upper(x, x, 0.7) == 0.0

    def test_wdq_below_w1(self):
        rng = np.random.default_rng(1)
        x = rng.standard_cauchy(1000)
        y = rng.standard_cauchy(1000)
        assert wdq_upper(x, y, 0.5) <= wp_empirical(x, y, 1.0) + 1e-12

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            wdq_upper([0.0], [1.0], 1.5)


class TestKs:
    def test_identical(self):
        x = np.array([1.0, 2.0, 3.0])
        assert ks_two_sample(x, x) == 0.0

    def test_disjoint(self):
        assert ks_two_sample([1.0, 2.0], [3.0, 4.0]) == 1.0

    def test_interleaved(self):
        assert ks_two_sample([1.0, 3.0], [2.0, 4.0]) == pytest.approx(0.5)


class TestChi2Independence:
    def test_matches_scipy_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            t = rng.integers(0, 40, (4, 4)).astype(float)
            t[t.sum(axis=1) == 0, 0] = 1.0
            t[0, t.sum(axis=0) == 0] = 1.0
            assert chi2_independence_p(t) == float(chi2_contingency(t)[1])

    def test_empty_rows_and_columns_dropped(self):
        t = np.array([[5.0, 0.0, 3.0], [0.0, 0.0, 0.0], [2.0, 0.0, 9.0]])
        assert chi2_independence_p(t) == chi2_independence_p(t[[0, 2]][:, [0, 2]])

    def test_fewer_than_two_by_two_cells(self):
        with pytest.raises(DegenerateDesign):
            chi2_independence_p([[0.0, 4.0], [0.0, 7.0]])


class TestLoglogSlope:
    def test_exact_power_law(self):
        slope, stderr = loglog_slope([(10, 1.0), (100, 0.1), (1000, 0.01)])
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_constant(self):
        slope, _ = loglog_slope([(1, 2.0), (10, 2.0), (100, 2.0)])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_half_power(self):
        pts = [(x, 4.0 * x ** -0.5) for x in (4, 16, 64)]
        slope, _ = loglog_slope(pts)
        assert slope == pytest.approx(-0.5, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(DegenerateDesign):
            loglog_slope([(1, 1.0), (2, 2.0)])

    def test_nonpositive_rejected(self):
        with pytest.raises(DegenerateDesign):
            loglog_slope([(1, 1.0), (2, -1.0), (3, 1.0)])

    def test_coincident_abscissae(self):
        with pytest.raises(DegenerateDesign):
            loglog_slope([(2, 1.0), (2, 2.0), (2, 3.0)])


_samples = st.lists(st.floats(-100.0, 100.0), min_size=4, max_size=32)


class TestProperties:
    @given(a=_samples, b=_samples, c=_samples)
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality_w1(self, a, b, c):
        m = min(len(a), len(b), len(c))
        a, b, c = a[:m], b[:m], c[:m]
        dab = wp_empirical(a, b, 1.0)
        dbc = wp_empirical(b, c, 1.0)
        dac = wp_empirical(a, c, 1.0)
        assert dac <= dab + dbc + 1e-12

    @given(a=_samples, b=_samples, c=st.floats(-10.0, 10.0).filter(lambda v: abs(v) > 1e-6))
    @settings(max_examples=200, deadline=None)
    def test_scale_equivariance(self, a, b, c):
        m = min(len(a), len(b))
        a = np.asarray(a[:m])
        b = np.asarray(b[:m])
        lhs = wp_empirical(c * a, c * b, 1.0)
        rhs = abs(c) * wp_empirical(a, b, 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, rhs))

    @given(q1=st.floats(0.1, 1.0), q2=st.floats(0.1, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_wdq_monotone_in_q_for_big_gaps(self, q1, q2):
        # with all gaps >= 1, gap^q is nondecreasing in q
        lo, hi = min(q1, q2), max(q1, q2)
        x = np.array([0.0, 0.0, 0.0])
        y = np.array([1.5, 3.0, 10.0])
        assert wdq_upper(x, y, lo) <= wdq_upper(x, y, hi) + 1e-12

    @given(a=_samples, b=_samples, q=st.floats(0.1, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_wdq_never_exceeds_w1(self, a, b, q):
        m = min(len(a), len(b))
        assert wdq_upper(a[:m], b[:m], q) <= wp_empirical(a[:m], b[:m], 1.0) + 1e-12
