"""Tests for the event-driven finite-particle simulator."""

import math

import numpy as np
import pytest

from stablechaos.coupling import replicate_inputs
from stablechaos.distributions import StableSpec, validate_heavy_tail
from stablechaos.errors import ConfigError
from stablechaos.limit_system import simulate_limit
from stablechaos.models import DriftSpec, InitSpec, KickSpec, ModelSpec, RateSpec, drift
from stablechaos.particle_system import flow, ledger_from_events, proposal_events, simulate_finite
from stablechaos.rngtools import particle_streams, stream
from stablechaos.stable_process import sample_driving_path

STABLE_15 = StableSpec(alpha=1.5, a_plus=0.3, a_minus=0.3)
HEAVY_08 = validate_heavy_tail(0.8, 0.5, 0.0, 0.2, 0.1, 1.0)


def free_model(**kwargs):
    defaults = dict(f=RateSpec("constant", c=1.0), nu0=InitSpec("gaussian", 0.0, 1.0))
    defaults.update(kwargs)
    return ModelSpec(**defaults)


def run_replicate(model, collateral, N, T, delta, seed, replicate=0, obs_times=None):
    """The finite system on replicate ``replicate`` of ``seed``; T is a whole number of windows."""
    inputs = replicate_inputs(model, N, T, seed, replicate)
    return simulate_finite(model, collateral, *inputs, T, delta, obs_times)


class TestPreconditions:
    def test_window_condition(self):
        with pytest.raises(ConfigError):
            run_replicate(free_model(), STABLE_15, 4, 1.0, 0.6, seed=0)

    def test_minimum_particles(self):
        with pytest.raises(ConfigError):
            run_replicate(free_model(), STABLE_15, 1, 1.0, 0.25, seed=0)


class TestEventStatistics:
    def test_accepted_count_poisson(self):
        # N=2, f = 1: accepted events over [0, 1] are Poisson(2)
        counts = []
        for r in range(10_000):
            _, ledger = run_replicate(
                free_model(nu0=InitSpec("point", 0.0)), STABLE_15, 2, 1.0, 0.25, seed=42, replicate=r,
            )
            counts.append(int(ledger.accepted.sum()))
        counts = np.asarray(counts, dtype=float)
        se_mean = math.sqrt(2.0 / counts.size)
        assert abs(counts.mean() - 2.0) < 3 * se_mean
        assert abs(counts.var() - 2.0) < 0.2

    def test_window_counts_poisson_mean_var(self):
        model = free_model(f=RateSpec("constant", c=0.8))
        _, ledger = run_replicate(model, STABLE_15, 8, 500.0, 0.5, seed=7)
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
            _, events, collateral_rng = replicate_inputs(model, 64, 5.0, 3, r)
            _, ledger = simulate_finite(model, tiny, initials, events, collateral_rng, 5.0, 0.25)
            accs += int(ledger.accepted.sum())
            props += ledger.accepted.size
        se = math.sqrt(p_exp * (1 - p_exp) / props)
        assert abs(accs / props - p_exp) < 3 * se


class TestDeterminismAndExchangeability:
    def test_bit_exact_rerun(self):
        kwargs = dict(seed=11, replicate=2)
        b1, l1 = run_replicate(free_model(), STABLE_15, 8, 1.0, 0.25, **kwargs)
        b2, l2 = run_replicate(free_model(), STABLE_15, 8, 1.0, 0.25, **kwargs)
        assert np.array_equal(b1.positions, b2.positions)
        assert np.array_equal(l1.u, l2.u, equal_nan=True)
        assert np.array_equal(l1.accepted, l2.accepted)

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
            model, STABLE_15, initials, ev, stream(seed, "collateral"), 1.0, 0.25,
        )
        streams_p = [particle_streams(seed, 0, n)[pi[i]] for i in range(n)]
        ev_p = proposal_events(n, 1.5, 1.0, streams_p)
        b2, _ = simulate_finite(
            model, STABLE_15, initials[pi], ev_p, stream(seed, "collateral"), 1.0, 0.25,
        )
        assert np.array_equal(b2.positions, b1.positions[pi])


class TestBookkeeping:
    def test_free_motion_identity(self):
        # b = 0, psi = 0: each particle moves exactly by the collateral sums
        # of the OTHERS: the interaction term A^N_T = N^{-1/alpha} * (sum of
        # accepted u) minus the particle's own contributions
        n, T = 8, 2.0
        model = free_model(nu0=InitSpec("point", 0.0))
        initials, events, collateral_rng = replicate_inputs(model, n, T, 21, 0)
        bundle, ledger = simulate_finite(
            model, HEAVY_08, initials, events, collateral_rng, T, 0.25, obs_times=[T],
        )
        inv_root = n ** (-1.0 / HEAVY_08.alpha)
        total = inv_root * np.sum(ledger.u[ledger.accepted])
        for i in range(n):
            own = ledger.accepted & (events.particles == i)
            expected = total - inv_root * np.sum(ledger.u[own])
            assert bundle.positions[i, -1] == pytest.approx(expected, abs=1e-12)

    def test_rejected_events_carry_no_u(self):
        _, ledger = run_replicate(
            free_model(f=RateSpec("logistic", lo=0.5, hi=1.5)), STABLE_15, 8, 2.0, 0.25, seed=5,
        )
        assert np.all(np.isnan(ledger.u[~ledger.accepted]))
        assert not np.any(np.isnan(ledger.u[ledger.accepted]))

    def test_window_aggregates_match_events(self):
        _, ledger = run_replicate(free_model(), STABLE_15, 8, 2.0, 0.25, seed=6)
        assert int(ledger.window_counts.sum()) == int(ledger.accepted.sum())
        assert ledger.window_sums.sum() == pytest.approx(
            np.nansum(ledger.u[ledger.accepted]), abs=1e-12
        )


class TestLedgerWindows:
    def test_boundary_event_belongs_to_left_window(self):
        # window k covers (k delta, (k+1) delta]
        ledger = ledger_from_events([0.25, 0.2500000001], [True, True], [1.0, 1.0], 0.25, 4)
        assert ledger.window_counts[0] == 1
        assert ledger.window_counts[1] == 1

    def test_main_jump_flag_alpha_below_one(self):
        # alpha < 1 and psi = -c: every accepted event also moves its own particle by -c
        n, T, c = 8, 2.0, 0.3
        model = free_model(psi=KickSpec("constant", c=c), nu0=InitSpec("point", 0.0))
        initials, events, collateral_rng = replicate_inputs(model, n, T, 8, 0)
        bundle, ledger = simulate_finite(model, HEAVY_08, initials, events, collateral_rng, T, 0.25)
        inv_root = n ** (-1.0 / HEAVY_08.alpha)
        total = inv_root * np.sum(ledger.u[ledger.accepted])
        for i in range(n):
            own = ledger.accepted & (events.particles == i)
            expected = total - inv_root * np.sum(ledger.u[own]) - c * own.sum()
            assert bundle.positions[i, -1] == pytest.approx(expected, abs=1e-12)
        assert ledger.accepted.any()

    def test_horizon_rounds_up_to_whole_windows(self):
        model = free_model()
        inputs = replicate_inputs(model, 4, 1.0, 9, 0)
        bundle, ledger = simulate_finite(model, STABLE_15, *inputs, 0.9, 0.25)
        assert ledger.window_counts.size == 4
        assert bundle.times.tolist() == [0.9]
        # observations may reach the rounded-up horizon 1.0, but not beyond it
        simulate_finite(model, STABLE_15, *inputs, 0.9, 0.25, obs_times=[1.0])
        with pytest.raises(ConfigError):
            simulate_finite(model, STABLE_15, *inputs, 0.9, 0.25, obs_times=[1.0 + 1e-6])


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
            self.MODEL, self.SPEC, self.initials, self.events, stream(31, "collateral"),
            1.0, self.DELTA, [0.0, te - eps, te, te + eps],
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


def textbook_flow(model, X, dt, flow_step):
    """RK4 written out as one expression per stage, the reference for ``flow``'s bits."""
    nsub = max(1, int(math.ceil(dt / flow_step)))
    h = dt / nsub
    for _ in range(nsub):
        k1 = drift(model, X, X)
        x2 = X + 0.5 * h * k1
        k2 = drift(model, x2, x2)
        x3 = X + 0.5 * h * k2
        k3 = drift(model, x3, x3)
        x4 = X + h * k3
        k4 = drift(model, x4, x4)
        X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return X


class TestFlowBits:
    MODEL = ModelSpec(b=DriftSpec("tanh", beta0=1.0, beta1=0.5))

    @pytest.mark.parametrize("n,dt", [(2, 0.004), (257, 0.01), (4096, 0.037)])
    def test_equals_textbook_rk4_and_keeps_input(self, n, dt):
        X = np.random.default_rng(n).standard_cauchy(n)
        before = X.copy()
        got = flow(self.MODEL, X, dt, 0.01)
        assert np.array_equal(got, textbook_flow(self.MODEL, before, dt, 0.01))
        assert np.array_equal(X, before)
        assert got is not X
