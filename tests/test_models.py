"""Tests for the coefficient registry and the assumption audit."""

import numpy as np
import pytest

from stablechaos.errors import ConfigError, EmptyMeasure
from stablechaos.models import (
    DriftSpec,
    InitSpec,
    KickSpec,
    ModelSpec,
    RateSpec,
    assumption_audit,
    drift,
    eval_component,
    sorted_tanh_mean,
)


def tanh_model():
    return ModelSpec(
        b=DriftSpec("tanh", beta0=1.0, beta1=0.5),
        f=RateSpec("logistic", lo=0.5, hi=1.5),
        psi=KickSpec("tanh", c=0.3),
        nu0=InitSpec("gaussian", 0.0, 1.0),
    )


class TestEval:
    def test_tanh_drift_at_zero(self):
        spec = ModelSpec(b=DriftSpec("tanh", beta0=1.0, beta1=0.0))
        assert eval_component(spec, "b", 0.0, [1.0, 2.0]) == pytest.approx(0.0)

    def test_logistic_midpoint(self):
        spec = ModelSpec(f=RateSpec("logistic", lo=0.5, hi=1.5))
        assert eval_component(spec, "f", 0.0) == pytest.approx(1.0)

    def test_constant_kick(self):
        spec = ModelSpec(psi=KickSpec("constant", c=0.3))
        assert eval_component(spec, "psi", 1.7, [0.0]) == pytest.approx(-0.3)

    def test_unknown_component(self):
        with pytest.raises(ConfigError):
            eval_component(ModelSpec(), "g", 0.0)

    def test_measure_dependence_requires_measure(self):
        spec = ModelSpec(b=DriftSpec("tanh", beta0=1.0, beta1=0.5))
        with pytest.raises(EmptyMeasure):
            eval_component(spec, "b", 0.0, [])

    def test_rate_always_within_bounds(self):
        spec = ModelSpec(f=RateSpec("logistic", lo=0.5, hi=1.5))
        xs = np.linspace(-50, 50, 1001)
        vals = eval_component(spec, "f", xs)
        assert np.all(vals >= 0.5)
        assert np.all(vals <= 1.5)

    def test_sorted_tanh_mean_permutation_invariant(self):
        rng = np.random.default_rng(0)
        t = np.tanh(rng.normal(0, 2, 257))
        assert sorted_tanh_mean(t.copy()) == sorted_tanh_mean(rng.permutation(t))


def textbook_drift(spec, x, p):
    """The drift formula written out, with tanh taken twice and a sorted copy."""
    b = spec.b
    return -b.beta0 * np.tanh(x) + b.beta1 * np.tanh(np.sort(np.tanh(p)).sum() / p.size)


class TestDriftBits:
    """``drift`` gives the bits of the written-out formula and writes into no input."""

    SPEC = ModelSpec(b=DriftSpec("tanh", beta0=1.0, beta1=0.5))

    def _check(self, x, p):
        x_before, p_before = x.copy(), p.copy()
        got = drift(self.SPEC, x, p)
        assert np.array_equal(got, textbook_drift(self.SPEC, x_before, p_before))
        assert np.array_equal(x, x_before)
        assert np.array_equal(p, p_before)

    def test_positions_are_x(self):
        x = np.random.default_rng(1).normal(0, 2, 1001)
        self._check(x, x)

    def test_distinct_positions(self):
        rng = np.random.default_rng(2)
        self._check(rng.normal(0, 2, 300), rng.standard_cauchy(517))

    def test_column_view(self):
        grid = np.random.default_rng(3).normal(0, 2, (257, 5))
        col = grid[:, 2]
        assert not col.flags.c_contiguous
        self._check(col, col)

    def test_saturated_ties(self):
        rng = np.random.default_rng(4)
        x = rng.choice([-1.0, 1.0], 400) * rng.uniform(20.5, 60.0, 400)
        assert np.unique(np.tanh(x)).size == 2
        self._check(x, x)


class TestValidate:
    def test_main_jumps_forbidden_above_one(self):
        with pytest.raises(ConfigError):
            tanh_model().validate(1.5)

    def test_main_jumps_allowed_below_one(self):
        tanh_model().validate(0.8)

    def test_unbounded_rate_rejected(self):
        spec = ModelSpec(f=RateSpec("linear"))
        with pytest.raises(ConfigError):
            spec.validate(1.5)

    def test_inverted_logistic_rejected(self):
        spec = ModelSpec(f=RateSpec("logistic", lo=1.5, hi=0.5))
        with pytest.raises(ConfigError):
            spec.validate(1.5)


class TestInitLaws:
    def test_point_mass(self):
        x = InitSpec("point", a=2.0).sample(np.random.default_rng(1), 5)
        assert np.all(x == 2.0)

    def test_uniform_support(self):
        x = InitSpec("uniform", a=-1.0, b=1.0).sample(np.random.default_rng(2), 1000)
        assert np.all((x >= -1.0) & (x <= 1.0))

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            InitSpec("cauchy").sample(np.random.default_rng(3), 1)


class TestAudit:
    def test_registry_model_passes(self):
        report = assumption_audit(tanh_model(), alpha_minus=0.72)
        assert report.passed

    def test_logistic_lipschitz_bound(self):
        report = assumption_audit(ModelSpec(f=RateSpec("logistic", lo=0.5, hi=1.5)), 0.72)
        entry = next(e for e in report.entries if e.name == "f Lipschitz")
        # analytic max slope (f_hi - f_lo)/4 = 0.25
        assert entry.passed
        assert entry.measured <= 0.25 + 1e-6

    def test_zero_families_trivial(self):
        report = assumption_audit(ModelSpec(f=RateSpec("constant", c=1.0)), 0.72)
        assert report.passed
        for e in report.entries:
            if e.name.startswith(("b ", "psi ")):
                assert e.measured == 0.0

    def test_linear_rate_fails_boundedness(self):
        report = assumption_audit(ModelSpec(f=RateSpec("linear")), 0.72)
        assert not report.passed
        entry = next(e for e in report.entries if e.name == "f bounded")
        assert not entry.passed

    def test_grid_refinement_stable(self):
        coarse = assumption_audit(tanh_model(), 0.72, grid_points=10_000)
        fine = assumption_audit(tanh_model(), 0.72, grid_points=20_000)
        for e_c, e_f in zip(coarse.entries, fine.entries):
            scale = max(abs(e_c.measured), abs(e_f.measured), 1e-9)
            assert abs(e_c.measured - e_f.measured) / scale < 0.05

    def test_report_string(self):
        text = str(assumption_audit(tanh_model(), 0.72))
        assert "overall: PASS" in text
