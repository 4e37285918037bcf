"""End-to-end acceptance checks for the library's statistical guarantees.

Each test class exercises one headline property at production scale:
self-similarity of normalized window sums, the heavy-tail-to-stable
convergence rate, Poisson window counts, the law of the first big-jump
time, decay of the coupled finite-vs-limit error, propagation of chaos,
Picard contraction, conditional-law consistency in the limit-system size,
and byte-exact reproducibility.  Fixture constants are frozen; the
asserted tolerances are the acceptance bands.
"""

import filecmp
import math
import os

import numpy as np
import pytest
from scipy.stats import chisquare, expon, kstest, poisson

from stablechaos.distributions import StableSpec, validate_heavy_tail
from stablechaos.harness import (
    ExperimentConfig,
    chaos_distance,
    clt_rate_experiment,
    run_coupled_sweep,
    run_experiment,
    selfsim_experiment,
)
from stablechaos.limit_system import picard_solve, simulate_limit
from stablechaos.metrics import loglog_slope, wp_empirical
from stablechaos.models import DriftSpec, InitSpec, KickSpec, ModelSpec, RateSpec
from stablechaos.particle_system import simulate_finite
from stablechaos.rngtools import stream
from stablechaos.stable_process import big_jump_rate, sample_driving_path

MASTER_SEED = 20260823
THREADS = os.cpu_count() or 1

SYM_15 = StableSpec(alpha=1.5, a_plus=0.3, a_minus=0.3)

# coupled-sweep fixture: tanh drift and kick, logistic rate bounded so that
# the scheme precondition 2*delta*f_hi < 1 holds down to N = 64
TANH_MODEL_08 = ModelSpec(
    b=DriftSpec("tanh", 1.0, 0.5),
    f=RateSpec("logistic", lo=0.5, hi=1.1),
    psi=KickSpec("tanh", 0.3),
    nu0=InitSpec("gaussian", 0.0, 1.0),
)
TANH_MODEL_15 = ModelSpec(
    b=DriftSpec("tanh", 1.0, 0.5),
    f=RateSpec("logistic", lo=0.5, hi=1.1),
    psi=KickSpec("zero"),
    nu0=InitSpec("gaussian", 0.0, 1.0),
)
HEAVY_08 = validate_heavy_tail(0.8, 0.5, 0.5, 0.2, 0.1, 1.0)
HEAVY_15 = validate_heavy_tail(1.5, 0.3, 0.0, 0.2, 0.1, 1.0)
SWEEP_NS = (64, 256, 1024, 4096)


@pytest.fixture(scope="module")
def sweep_08():
    """Coupled sweep, alpha = 0.8 / gamma = 0.5, delta = N^{-0.2}, 200 reps."""
    cfg = ExperimentConfig(
        experiment="coupling-sweep",
        model=TANH_MODEL_08,
        law=HEAVY_08,
        n_list=SWEEP_NS,
        T=1.0,
        K=None,
        alpha_minus=0.72,
        eta=0.2,
        replications=200,
        master_seed=MASTER_SEED,
    ).validate()
    return run_coupled_sweep(cfg, threads=THREADS)


@pytest.fixture(scope="module")
def sweep_15():
    """Coupled sweep, alpha = 1.5 / gamma = 0.3, policy delta, 200 reps."""
    cfg = ExperimentConfig(
        experiment="chaos-test",
        model=TANH_MODEL_15,
        law=HEAVY_15,
        n_list=SWEEP_NS,
        T=1.0,
        K=None,
        replications=200,
        master_seed=MASTER_SEED,
    ).validate()
    return run_coupled_sweep(cfg, threads=THREADS)


class TestRandomSumSelfSimilarity:
    """Normalized window sums of stable jumps are stable and count-independent."""

    @pytest.mark.parametrize("alpha", [0.8, 1.5])
    def test_exact_mode(self, alpha):
        spec = StableSpec(alpha=alpha, a_plus=0.3, a_minus=0.3)
        res = selfsim_experiment(spec, 100_000, 50.0, stream(MASTER_SEED, "selfsim"))
        assert res["ks_stat"] < 0.01
        assert res["chi2_p"] > 0.01


class TestStableCltRate:
    """Distance from the stable attractor decays at the predicted rate."""

    def test_alpha_15(self):
        heavy = validate_heavy_tail(1.5, 0.3, 0.0, 0.1, 0.4, 1.0)
        res = clt_rate_experiment(
            heavy, [100, 1000, 10_000], 10_000, 1_000_000,
            stream(MASTER_SEED, "clt"),
        )
        dists = [row[1] for row in res["rows"]]
        assert dists[0] > dists[1] > dists[2]
        assert res["slope"] == pytest.approx(-0.2, abs=0.15)

    def test_alpha_08(self):
        heavy = validate_heavy_tail(0.8, 0.5, 0.5, 0.2, 0.1, 1.0)
        res = clt_rate_experiment(
            heavy, [100, 1000, 10_000], 10_000, 1_000_000,
            stream(MASTER_SEED, "clt"), alpha_minus=0.72,
        )
        dists = [row[1] for row in res["rows"]]
        assert dists[0] > dists[1] > dists[2]
        assert res["slope"] <= -0.1


class TestPoissonWindowCounts:
    """With a constant rate the per-window accepted counts are Poisson(N c delta)."""

    def test_chi_square_fit(self):
        N, c, delta, n_windows = 8, 1.0, 0.4, 10_000
        model = ModelSpec(
            b=DriftSpec("zero"),
            f=RateSpec("constant", c=c),
            psi=KickSpec("zero"),
            nu0=InitSpec("point", 0.0),
        )
        _, ledger = simulate_finite(
            model, StableSpec(0.8, 0.3, 0.3), N, n_windows * delta, delta,
            master_seed=MASTER_SEED,
        )
        counts = ledger.window_counts
        assert counts.size == n_windows
        lam = N * c * delta
        # merge bins so every expected count is at least 5
        kmax = int(poisson.ppf(1.0 - 5.0 / n_windows, lam))
        observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
        expected = poisson.pmf(np.arange(kmax + 1), lam)
        expected[-1] = 1.0 - expected[:-1].sum()
        expected *= n_windows
        res = chisquare(observed, expected)
        assert res.pvalue > 0.01


class TestFirstBigJumpTime:
    """The first jump above K in a sampled path is Exp(big_jump_rate)."""

    def test_ks_against_exponential(self):
        K, T = 1.0, 20.0
        lam = big_jump_rate(SYM_15, K)
        rng = stream(MASTER_SEED, "path")
        # coarse eps: the censoring time depends only on the big jumps
        ts = np.array([
            sample_driving_path(SYM_15, T, 1.0, K, rng, eps=0.5).t_K
            for _ in range(10_000)
        ])
        finite = ts[np.isfinite(ts)]
        assert np.isfinite(ts).mean() > 0.99
        res = kstest(finite, expon(scale=1.0 / lam).cdf)
        assert res.pvalue > 0.01


class TestCouplingErrorDecay:
    """The censored mean coupled error at T shrinks as N grows."""

    def test_strictly_decreasing_with_slope(self, sweep_08):
        terminal = [float(sweep_08[n].err_censored_mean[-1]) for n in SWEEP_NS]
        assert all(a > b for a, b in zip(terminal, terminal[1:]))
        slope, _ = loglog_slope(list(zip(SWEEP_NS, terminal)))
        assert -0.45 <= slope <= -0.05

    def test_initial_error_is_exactly_zero(self, sweep_08):
        for n in SWEEP_NS:
            assert sweep_08[n].err_censored_mean[0] == 0.0


class TestPropagationOfChaos:
    """Terminal empirical laws of the finite and limit systems converge."""

    def test_alpha_08_wdq_decreasing(self, sweep_08):
        dists = [chaos_distance(sweep_08[n], 0.8, 0.72) for n in SWEEP_NS]
        assert all(a > b for a, b in zip(dists, dists[1:]))

    def test_alpha_15_w1_decreasing(self, sweep_15):
        dists = [chaos_distance(sweep_15[n], 1.5) for n in SWEEP_NS]
        assert all(a > b for a, b in zip(dists, dists[1:]))


class TestPicardContraction:
    """Successive Picard iterates of the truncated equation contract."""

    def test_iterate_gaps_shrink(self):
        spec = StableSpec(1.5, 0.3, 0.3)
        model = ModelSpec(
            b=DriftSpec("tanh", 1.0, 0.5),
            f=RateSpec("logistic", lo=0.5, hi=1.5),
            psi=KickSpec("zero"),
            nu0=InitSpec("gaussian", 0.0, 1.0),
        )
        path = sample_driving_path(spec, 1.0, 0.05, 3.0, stream(MASTER_SEED, "path"), eps=0.03)
        initials = model.nu0.sample(stream(MASTER_SEED, "init"), 200)
        _, u = picard_solve(model, path, initials, 6)
        ratios = u[2:6] / u[1:5]
        assert np.all(ratios < 1.0)

    def test_constant_rate_fixed_point_after_one_step(self):
        spec = StableSpec(1.5, 0.3, 0.3)
        model = ModelSpec(
            b=DriftSpec("zero"),
            f=RateSpec("constant", c=1.0),
            psi=KickSpec("zero"),
            nu0=InitSpec("gaussian", 0.0, 1.0),
        )
        path = sample_driving_path(spec, 1.0, 0.05, 3.0, stream(MASTER_SEED, "path"), eps=0.03)
        initials = model.nu0.sample(stream(MASTER_SEED, "init"), 200)
        _, u = picard_solve(model, path, initials, 2)
        assert u[0] <= 1e-12


class TestConditionalLawInM:
    """The limit system's terminal law stabilizes as the particle count M grows."""

    def test_m_versus_4m_distance_halves(self):
        spec = StableSpec(1.5, 0.36, 0.24)
        model = ModelSpec(
            b=DriftSpec("tanh", 1.0, 0.5),
            f=RateSpec("logistic", lo=0.5, hi=1.5),
            psi=KickSpec("zero"),
            nu0=InitSpec("gaussian", 0.0, 1.0),
        )
        K, step, reps = 5.0, 0.1, 20
        dists = {m: [] for m in (250, 1000, 4000)}
        for r in range(reps):
            path = sample_driving_path(
                spec, 1.0, step, K, stream(MASTER_SEED, "path", r), eps=0.05,
            )
            for m in dists:
                init4 = model.nu0.sample(stream(MASTER_SEED, "init", r), 4 * m)
                small = simulate_limit(model, path, init4[:m], obs_times=[1.0])
                big = simulate_limit(model, path, init4, obs_times=[1.0])
                dists[m].append(
                    wp_empirical(small.positions[:, -1], big.positions[:, -1], 1.0)
                )
        means = [(m, float(np.mean(v))) for m, v in sorted(dists.items())]
        vals = [d for _, d in means]
        assert vals[0] > vals[1] > vals[2]
        slope, _ = loglog_slope(means)
        assert slope == pytest.approx(-0.5, abs=0.2)


class TestReproducibility:
    """Identical seeds produce byte-identical experiment outputs."""

    def _run_twice(self, cfg, tmp_path, fnames, threads=(1, 1)):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_experiment(cfg, str(a), threads[0]) == 0
        assert run_experiment(cfg, str(b), threads[1]) == 0
        for fname in fnames:
            assert filecmp.cmp(a / fname, b / fname, shallow=False), fname

    def test_selfsim_outputs(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="selfsim",
            model=TANH_MODEL_15,
            law=StableSpec(1.5, 0.3, 0.3),
            n_windows=2000,
            master_seed=MASTER_SEED,
        )
        self._run_twice(cfg, tmp_path, ["selfsim.csv", "manifest.json"])

    def test_coupling_sweep_outputs(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="coupling-sweep",
            model=TANH_MODEL_08,
            law=HEAVY_08,
            n_list=(64, 128, 256),
            alpha_minus=0.72,
            eta=0.2,
            replications=3,
            master_seed=MASTER_SEED,
        )
        self._run_twice(
            cfg, tmp_path, ["coupling_sweep.csv", "coupling_summary.csv"],
        )

    def test_chaos_outputs(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="chaos-test",
            model=TANH_MODEL_08,
            law=HEAVY_08,
            n_list=(64, 128, 256),
            alpha_minus=0.72,
            eta=0.2,
            replications=3,
            master_seed=MASTER_SEED,
        )
        self._run_twice(cfg, tmp_path, ["chaos.csv"])

    @pytest.mark.parametrize(
        "experiment,fnames",
        [("coupling-sweep", ["coupling_sweep.csv", "coupling_summary.csv"]),
         ("chaos-test", ["chaos.csv"])],
        ids=["coupling-sweep", "chaos-test"],
    )
    def test_threads_do_not_change_outputs(self, tmp_path, experiment, fnames):
        # 4 replications on 2 threads take the process-pool path
        cfg = ExperimentConfig(
            experiment=experiment,
            model=TANH_MODEL_08,
            law=HEAVY_08,
            n_list=(64, 128, 256),
            alpha_minus=0.72,
            eta=0.2,
            replications=4,
            master_seed=MASTER_SEED,
        )
        self._run_twice(cfg, tmp_path, fnames, threads=(1, 2))
