"""Tests for window aggregation, normalized sums, and the coupled experiment."""

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from stablechaos.coupling import (
    CouplingReport,
    build_coupled_driver,
    coupled_error_experiment,
    normalized_window_variables,
    replicate_inputs,
    resolve_stable,
)
from stablechaos.distributions import StableSpec, validate_heavy_tail
from stablechaos.errors import ConfigError
from stablechaos.metrics import ks_two_sample
from stablechaos.models import InitSpec, ModelSpec, RateSpec
from stablechaos.particle_system import ledger_from_events, simulate_finite
from stablechaos.distributions import sample_stable
from stablechaos.rngtools import stream

STABLE_15 = StableSpec(alpha=1.5, a_plus=0.3, a_minus=0.3)


def const_model(c=1.0):
    return ModelSpec(f=RateSpec("constant", c=c), nu0=InitSpec("gaussian", 0.0, 1.0))


class TestWindowAggregate:
    def test_two_events(self):
        ledger = ledger_from_events([0.1, 0.3], [True, True], [1.0, -2.0], 0.25, 2)
        counts, sums = ledger.window_counts, ledger.window_sums
        assert counts.tolist() == [1, 1]
        assert sums.tolist() == [1.0, -2.0]

    def test_empty(self):
        ledger = ledger_from_events([], [], [], 0.25, 4)
        counts, sums = ledger.window_counts, ledger.window_sums
        assert counts.tolist() == [0, 0, 0, 0]
        assert sums.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_three_in_one_window(self):
        ledger = ledger_from_events([0.1, 0.15, 0.2], [True] * 3, [1.0, 1.0, -1.0], 0.25, 1)
        counts, sums = ledger.window_counts, ledger.window_sums
        assert counts.tolist() == [3]
        assert sums[0] == pytest.approx(1.0)

    def test_rejected_events_excluded(self):
        ledger = ledger_from_events([0.1, 0.2], [True, False], [1.0, np.nan], 0.25, 1)
        counts, sums = ledger.window_counts, ledger.window_sums
        assert counts.tolist() == [1]
        assert sums[0] == pytest.approx(1.0)


class TestNormalizedWindowVariable:
    def test_single_event_identity(self):
        rng = stream(0, "fresh")
        w = normalized_window_variables([1], [3.7], rng, STABLE_15)
        assert w[0] == pytest.approx(3.7)
        # not a fresh draw: the stream is left untouched
        assert rng.random() == stream(0, "fresh").random()

    def test_power_normalization(self):
        spec = StableSpec(alpha=0.5, a_plus=1.0, a_minus=1.0)
        w = normalized_window_variables([4], [8.0], stream(0, "fresh"), spec)
        assert w[0] == pytest.approx(8.0 / 16.0)

    def test_empty_window_fresh_draw(self):
        w = normalized_window_variables([0], [0.0], stream(0, "fresh"), STABLE_15)
        assert w[0] == sample_stable(STABLE_15, stream(0, "fresh"), 1)[0]
        assert np.isfinite(w[0])

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            normalized_window_variables([-1], [0.0], stream(0, "fresh"), STABLE_15)

    def test_mixed_windows(self):
        counts = np.array([0, 1, 4, 0, 2])
        sums = np.array([0.0, 3.0, 8.0, 0.0, -1.0])
        w = normalized_window_variables(counts, sums, stream(1, "fresh"), STABLE_15)
        assert w[1] == pytest.approx(3.0)
        assert w[2] == pytest.approx(8.0 / 4.0 ** (1.0 / 1.5))
        assert np.all(np.isfinite(w))


@pytest.fixture(scope="module")
def exact_windows():
    # finite system with exactly-stable collateral; many short runs give
    # a large pool of windows
    model = const_model(1.0)
    counts_all, w_all = [], []
    rng = stream(17, "fresh")
    for r in range(40):
        inputs = replicate_inputs(model, 8, 50.0, 17, r)
        _, ledger = simulate_finite(model, STABLE_15, *inputs, 50.0, 0.4)
        counts = ledger.window_counts
        w = normalized_window_variables(counts, ledger.window_sums, rng, STABLE_15)
        keep = counts > 0
        counts_all.append(counts[keep])
        w_all.append(w[keep])
    return np.concatenate(counts_all), np.concatenate(w_all)


class TestExactMode:
    def test_window_variables_are_stable(self, exact_windows):
        counts, w = exact_windows
        ref = sample_stable(STABLE_15, stream(18, "misc"), w.size)
        assert ks_two_sample(w, ref) < 0.05

    def test_independence_of_count_and_variable(self, exact_windows):
        counts, w = exact_windows
        p_edges = np.quantile(counts.astype(float), [0.25, 0.5, 0.75])
        w_edges = np.quantile(w, [0.25, 0.5, 0.75])
        p_bin = np.searchsorted(p_edges, counts.astype(float), side="right")
        w_bin = np.searchsorted(w_edges, w, side="right")
        table = np.zeros((4, 4))
        np.add.at(table, (p_bin, w_bin), 1.0)
        assert chi2_contingency(table)[1] > 0.01


class TestCoupledDriver:
    def test_interaction_identity(self):
        # the interaction term A^N_T = N^{-1/alpha} * (sum of accepted u)
        # equals sum_k (P_k / N)^{1/alpha} W_k exactly
        n = 16
        model = const_model(1.0)
        inputs = replicate_inputs(model, n, 2.0, 19, 0)
        _, ledger = simulate_finite(model, STABLE_15, *inputs, 2.0, 0.25)
        counts = ledger.window_counts
        w = normalized_window_variables(counts, ledger.window_sums, stream(19, "fresh"), STABLE_15)
        nonzero = counts > 0
        recon = np.sum(
            (counts[nonzero] / n) ** (1.0 / 1.5) * w[nonzero]
        )
        interaction = n ** (-1.0 / 1.5) * np.sum(ledger.u[ledger.accepted])
        assert interaction == pytest.approx(recon, abs=1e-12)

    def test_driver_independent_of_initials(self):
        # exact mode: correlation between the first initial position and each
        # driver increment vanishes
        model = const_model(1.0)
        inits, incs = [], []
        for r in range(400):
            initial, events, collateral_rng = replicate_inputs(model, 8, 1.0, 23, r)
            _, ledger = simulate_finite(model, STABLE_15, initial, events, collateral_rng, 1.0, 0.25)
            driver = build_coupled_driver(ledger, STABLE_15, stream(23, "fresh", r))
            inits.append(initial[0])
            incs.append(driver.increments)
        inits = np.asarray(inits)
        incs = np.asarray(incs)
        for k in range(incs.shape[1]):
            col = incs[:, k]
            # clip to rank statistics to tame the heavy tail before correlating
            r1 = np.argsort(np.argsort(inits)).astype(float)
            r2 = np.argsort(np.argsort(col)).astype(float)
            corr = np.corrcoef(r1, r2)[0, 1]
            assert abs(corr) < 3.0 / np.sqrt(inits.size)


class TestCoupledErrorExperiment:
    def test_time_zero_error_is_zero(self):
        model = const_model(1.0)
        rep = coupled_error_experiment(
            model, STABLE_15, 8, 0.25, 1.0, np.inf, [0.0, 0.5, 1.0], 5, 31,
        )
        assert rep.err_mean[0] == 0.0
        assert rep.err_se[0] == 0.0

    def test_alpha_below_one_requires_alpha_minus(self):
        heavy = validate_heavy_tail(0.8, 0.5, 0.0, 0.2, 0.1, 1.0)
        with pytest.raises(ConfigError):
            coupled_error_experiment(
                const_model(1.0), heavy, 8, 0.25, 1.0, np.inf, [0.0, 1.0], 2, 0,
            )

    def test_replication_chunks_recombine(self):
        # first_replicate makes chunked and monolithic runs identical
        model = const_model(1.0)
        kwargs = dict(
            model=model, collateral=STABLE_15, N=8, delta=0.25, T=1.0,
            K=np.inf, obs_times=[0.0, 0.5, 1.0], master_seed=37,
        )
        whole = coupled_error_experiment(replications=6, **kwargs)
        merged = CouplingReport.concat([
            coupled_error_experiment(replications=3, first_replicate=0, **kwargs),
            coupled_error_experiment(replications=3, first_replicate=3, **kwargs),
        ])
        for name in (
            "err_mean", "err_se", "err_censored_mean", "censor_frac", "terminal_ok",
            "terminal_finite_pool", "terminal_limit_pool",
        ):
            assert np.array_equal(getattr(merged, name), getattr(whole, name)), name

    def test_resolve_stable_passthrough_and_mapping(self):
        assert resolve_stable(STABLE_15) is STABLE_15
        heavy = validate_heavy_tail(0.8, 0.5, 0.5, 0.2, 0.1, 1.0)
        spec = resolve_stable(heavy)
        assert spec.a_plus == pytest.approx(1.5 * 0.8 * 0.2)
        with pytest.raises(ConfigError):
            resolve_stable("not a law")
