"""Tests for the event-driven finite-particle simulator."""

import math

import numpy as np
import pytest

from stablechaos.distributions import StableSpec, validate_heavy_tail
from stablechaos.errors import ConfigError
from stablechaos.limit_system import simulate_limit
from stablechaos.models import DriftSpec, InitSpec, KickSpec, ModelSpec, RateSpec
from stablechaos.particle_system import (
    interaction_term,
    ledger_from_events,
    proposal_events,
    simulate_finite,
)
from stablechaos.rngtools import particle_streams, stream
from stablechaos.stable_process import sample_driving_path

STABLE_15 = StableSpec(alpha=1.5, a_plus=0.3, a_minus=0.3)
HEAVY_08 = validate_heavy_tail(0.8, 0.5, 0.0, 0.2, 0.1, 1.0)


def free_model(**kwargs):
    defaults = dict(f=RateSpec("constant", c=1.0), nu0=InitSpec("gaussian", 0.0, 1.0))
    defaults.update(kwargs)
    return ModelSpec(**defaults)


class TestPreconditions:
    def test_window_condition(self):
        with pytest.raises(ConfigError):
            simulate_finite(free_model(), STABLE_15, 4, 1.0, 0.6, master_seed=0)

    def test_minimum_particles(self):
        with pytest.raises(ConfigError):
            simulate_finite(free_model(), STABLE_15, 1, 1.0, 0.25, master_seed=0)

    def test_seed_required_without_streams(self):
        with pytest.raises(ConfigError):
            simulate_finite(free_model(), STABLE_15, 4, 1.0, 0.25)


class TestEventStatistics:
    def test_accepted_count_poisson(self):
        # N=2, f = 1: accepted events over [0, 1] are Poisson(2)
        counts = []
        for r in range(10_000):
            _, ledger = simulate_finite(
                free_model(nu0=InitSpec("point", 0.0)), STABLE_15, 2, 1.0, 0.25,
                master_seed=42, replicate=r,
            )
            counts.append(int(ledger.accepted.sum()))
        counts = np.asarray(counts, dtype=float)
        se_mean = math.sqrt(2.0 / counts.size)
        assert abs(counts.mean() - 2.0) < 3 * se_mean
        assert abs(counts.var() - 2.0) < 0.2

    def test_window_counts_poisson_mean_var(self):
        model = free_model(f=RateSpec("constant", c=0.8))
        _, ledger = simulate_finite(
            model, STABLE_15, 8, 500.0, 0.5, master_seed=7,
        )
        lam = 8 * 0.8 * 0.5
        counts = ledger.window_counts.astype(float)
        se = math.sqrt(lam / counts.size)
        assert abs(counts.mean() - lam) < 3 * se
        assert abs(counts.var() / lam - 1.0) < 0.15

    def test_acceptance_rate_thinning(self):
        # near-zero collateral kicks freeze X at the initials, so the
        # acceptance rate must match mean f(X0) / f_hi
        tiny = StableSpec(alpha=1.5, a_plus=1e-12, a_minus=1e-12)
        model = free_model(f=RateSpec("logistic", lo=0.5, hi=1.5))
        initials = model.nu0.sample(stream(3, "init"), 64)
        from stablechaos.models import rate
        p_exp = float(np.mean(rate(model, initials))) / 1.5
        accs, props = 0, 0
        for r in range(40):
            _, ledger = simulate_finite(
                model, tiny, 64, 5.0, 0.25, master_seed=3, replicate=r, initials=initials,
            )
            accs += int(ledger.accepted.sum())
            props += ledger.accepted.size
        se = math.sqrt(p_exp * (1 - p_exp) / props)
        assert abs(accs / props - p_exp) < 3 * se


class TestDeterminismAndExchangeability:
    def test_bit_exact_rerun(self):
        kwargs = dict(master_seed=11, replicate=2)
        b1, l1 = simulate_finite(free_model(), STABLE_15, 8, 1.0, 0.25, **kwargs)
        b2, l2 = simulate_finite(free_model(), STABLE_15, 8, 1.0, 0.25, **kwargs)
        assert np.array_equal(b1.positions, b2.positions)
        assert np.array_equal(l1.u, l2.u, equal_nan=True)
        assert np.array_equal(l1.times, l2.times)

    def test_permutation_equivariance(self):
        model = free_model(
            b=DriftSpec("tanh", beta0=1.0, beta1=0.5),
            f=RateSpec("logistic", lo=0.5, hi=1.5),
        )
        n, seed = 8, 13
        initials = model.nu0.sample(stream(seed, "init"), n)
        rng = np.random.default_rng(99)
        pi = rng.permutation(n)

        streams = particle_streams(seed, 0, n)
        ev = proposal_events(n, 1.5, 1.0, streams)
        b1, _ = simulate_finite(
            model, STABLE_15, n, 1.0, 0.25, initials=initials, events=ev,
            collateral_rng=stream(seed, "collateral"),
        )
        streams_p = [particle_streams(seed, 0, n)[pi[i]] for i in range(n)]
        ev_p = proposal_events(n, 1.5, 1.0, streams_p)
        b2, _ = simulate_finite(
            model, STABLE_15, n, 1.0, 0.25, initials=initials[pi], events=ev_p,
            collateral_rng=stream(seed, "collateral"),
        )
        assert np.array_equal(b2.positions, b1.positions[pi])


class TestBookkeeping:
    def test_free_motion_identity(self):
        # b = 0, psi = 0: each particle moves exactly by the collateral sums
        # of the OTHERS, i.e. interaction term minus its own contributions
        n, T = 8, 2.0
        model = free_model(nu0=InitSpec("point", 0.0))
        bundle, ledger = simulate_finite(
            model, HEAVY_08, n, T, 0.25, obs_times=[T], master_seed=21,
        )
        inv_root = n ** (-1.0 / HEAVY_08.alpha)
        total = interaction_term(ledger, HEAVY_08, n, T)
        for i in range(n):
            own = ledger.accepted & (ledger.particles == i)
            expected = total - inv_root * np.sum(ledger.u[own])
            assert bundle.positions[i, -1] == pytest.approx(expected, abs=1e-12)

    def test_rejected_events_carry_no_u(self):
        _, ledger = simulate_finite(
            free_model(f=RateSpec("logistic", lo=0.5, hi=1.5)),
            STABLE_15, 8, 2.0, 0.25, master_seed=5,
        )
        assert np.all(np.isnan(ledger.u[~ledger.accepted]))
        assert not np.any(np.isnan(ledger.u[ledger.accepted]))

    def test_window_aggregates_match_events(self):
        _, ledger = simulate_finite(free_model(), STABLE_15, 8, 2.0, 0.25, master_seed=6)
        assert int(ledger.window_counts.sum()) == int(ledger.accepted.sum())
        assert ledger.window_sums.sum() == pytest.approx(
            np.nansum(ledger.u[ledger.accepted]), abs=1e-12
        )


class TestInteractionTerm:
    def test_empty(self):
        ledger = ledger_from_events([], [], [], [], [], 0.25, 1.0)
        assert interaction_term(ledger, HEAVY_08, 16, 1.0) == 0.0

    def test_single_event_arithmetic(self):
        spec = validate_heavy_tail(0.5, 0.6, 0.0, 0.2, 0.1, 1.0)
        ledger = ledger_from_events([0.4], [0], [True], [2.0], [False], 0.25, 1.0)
        assert interaction_term(ledger, spec, 16, 1.0) == pytest.approx(2.0 / 256.0)

    def test_additivity(self):
        ledger = ledger_from_events(
            [0.1, 0.4, 0.9], [0, 1, 0], [True, True, True], [1.0, -2.0, 3.0],
            [False] * 3, 0.25, 1.0,
        )
        a_half = interaction_term(ledger, HEAVY_08, 16, 0.5)
        a_full = interaction_term(ledger, HEAVY_08, 16, 1.0)
        assert a_full == pytest.approx(a_half + 3.0 * 16 ** (-1.0 / 0.8), abs=1e-12)

    def test_beyond_horizon_rejected(self):
        ledger = ledger_from_events([], [], [], [], [], 0.25, 1.0)
        with pytest.raises(ConfigError):
            interaction_term(ledger, HEAVY_08, 16, 2.0)


class TestLedgerWindows:
    def test_boundary_event_belongs_to_left_window(self):
        # window k covers (k delta, (k+1) delta]
        ledger = ledger_from_events(
            [0.25, 0.2500000001], [0, 1], [True, True], [1.0, 1.0], [False, False],
            0.25, 1.0,
        )
        assert ledger.window_counts[0] == 1
        assert ledger.window_counts[1] == 1

    def test_main_jump_flag_alpha_below_one(self):
        model = free_model(psi=KickSpec("tanh", c=0.3), nu0=InitSpec("gaussian", 0.0, 1.0))
        _, ledger = simulate_finite(model, HEAVY_08, 8, 2.0, 0.25, master_seed=8)
        assert np.array_equal(ledger.main_applied, ledger.accepted)

    def test_horizon_rounds_up_to_whole_windows(self):
        _, ledger = simulate_finite(free_model(), STABLE_15, 4, 0.9, 0.25, master_seed=9)
        assert ledger.n_windows == 4
        assert ledger.horizon == pytest.approx(1.0)


class TestObservationRules:
    """Observation rules shared by the finite and limit simulators' event walk."""

    # no drift and f = f_hi: the state moves only at events, and every proposal is accepted
    MODEL = ModelSpec(
        f=RateSpec("constant", c=1.5),
        psi=KickSpec("constant", c=0.3),
        nu0=InitSpec("gaussian", 0.0, 1.0),
    )
    SPEC = StableSpec(alpha=0.8, a_plus=0.3, a_minus=0.3)
    N, DELTA = 8, 0.25

    def setup_method(self):
        self.initials = self.MODEL.nu0.sample(stream(31, "init"), self.N)
        self.events = proposal_events(self.N, 1.5, 1.0, particle_streams(31, 0, self.N))

    def _event_and_margin(self):
        """An event strictly inside a window, and a margin that reaches no other event or edge."""
        times = self.events.times
        for j in range(1, times.size - 1):
            te = float(times[j])
            edge = min(te % self.DELTA, self.DELTA - te % self.DELTA)
            margin = 0.25 * min(te - times[j - 1], times[j + 1] - te, edge)
            if margin > 1e-6:
                return j, te, margin
        raise AssertionError("no interior event")

    def _check_event_rules(self, positions, initials):
        # columns: t = 0, just before the event, at the event, just after it
        assert np.array_equal(positions[:, 0], initials)
        assert np.array_equal(positions[:, 2], positions[:, 3])
        assert not np.array_equal(positions[:, 1], positions[:, 2])

    def test_finite(self):
        j, te, eps = self._event_and_margin()
        bundle, ledger = simulate_finite(
            self.MODEL, self.SPEC, self.N, 1.0, self.DELTA, [0.0, te - eps, te, te + eps],
            initials=self.initials, events=self.events, collateral_rng=stream(31, "collateral"),
        )
        assert ledger.accepted[j]
        self._check_event_rules(bundle.positions, self.initials)

    def test_limit(self):
        j, te, eps = self._event_and_margin()
        path = sample_driving_path(self.SPEC, 1.0, self.DELTA, np.inf, stream(31, "path"))
        first_events = self.events.times[self.events.times <= self.DELTA]
        before_end = 0.5 * (first_events[-1] + self.DELTA)
        obs = [0.0, te - eps, te, te + eps, before_end, self.DELTA - 1e-12, self.DELTA]
        out = simulate_limit(self.MODEL, path, self.initials, self.events, obs)
        pos = out.positions[:, np.argsort(np.argsort(obs))]
        self._check_event_rules(pos, self.initials)
        # at a window end (within the tolerance) the window's increment is applied
        factor = 1.5 ** (1.0 / 0.8)
        assert np.allclose(pos[:, 6], pos[:, 4] + factor * path.increments[0], rtol=0, atol=1e-12)
        assert np.array_equal(pos[:, 5], pos[:, 6])
        assert not np.array_equal(pos[:, 4], pos[:, 6])
