"""The coupling construction: windowed random sums and the coupled driver.

The finite system's accepted collateral jumps are aggregated per window of
length delta.  Each window's normalized sum ``W_k = (sum u) / P_k^{1/alpha}``
is (exactly, when the collateral law is itself strictly stable; approximately
otherwise) a strictly stable variable independent of the count ``P_k``; empty
windows receive a fresh stable draw.  The grid path with increments
``delta^{1/alpha} W_k`` is the coupled driver shared by the limit system,
and the coupled error experiment measures the finite-vs-limit gap under this
common noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import HeavyTailSpec, StableSpec, sample_stable, stable_params_from_heavy
from .errors import ConfigError
from .limit_system import simulate_limit
from .metrics import d_q
from .models import ModelSpec
from .particle_system import JumpLedger, proposal_events, simulate_finite
from .rngtools import particle_streams, stream
from .stable_process import DrivingPath, path_from_window_sums


def resolve_stable(collateral) -> StableSpec:
    """The stable attractor of the collateral law (identity for stable input)."""
    if isinstance(collateral, StableSpec):
        return collateral
    if isinstance(collateral, HeavyTailSpec):
        return stable_params_from_heavy(collateral)
    raise ConfigError(f"unsupported collateral law {type(collateral).__name__}")


def normalized_window_variables(
    counts: np.ndarray,
    sums: np.ndarray,
    alpha: float,
    rng: np.random.Generator,
    spec: StableSpec,
) -> np.ndarray:
    """W_k = sums_k / counts_k^{1/alpha} per window; fresh stable draws fill the empty ones."""
    counts = np.asarray(counts, dtype=float)
    if np.any(counts < 0):
        raise ConfigError("window counts must be nonnegative")
    sums = np.asarray(sums, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = sums / counts ** (1.0 / alpha)
    empty = counts == 0
    n_empty = int(empty.sum())
    if n_empty:
        w[empty] = sample_stable(spec, rng, n_empty)
    return w


def build_coupled_driver(
    ledger: JumpLedger,
    collateral,
    delta: float,
    rng: np.random.Generator,
    K: float = np.inf,
) -> DrivingPath:
    """Assemble the coupled driving path from the ledger's window aggregates."""
    if abs(delta - ledger.delta) > 1e-12 * max(1.0, delta):
        raise ConfigError("delta must match the ledger window length")
    spec = resolve_stable(collateral)
    w = normalized_window_variables(ledger.window_counts, ledger.window_sums, spec.alpha, rng, spec)
    return path_from_window_sums(w, delta, spec, K)


@dataclass(frozen=True)
class CouplingReport:
    """Per-replication finite-vs-limit coupling errors and terminal values.

    Every statistic across replications is reduced from these rows, so a
    report concatenated from replication chunks in replicate order reduces
    to exactly the same numbers as one run over all replications.
    """

    obs_times: np.ndarray
    config: dict
    errs: np.ndarray                  # error per (replication, obs time)
    uncensored: np.ndarray            # obs time precedes the driver's first big window
    # all particles' terminal values, shape (replications, N)
    terminal_finite_pool: np.ndarray
    terminal_limit_pool: np.ndarray

    @classmethod
    def concat(cls, parts: list["CouplingReport"]) -> "CouplingReport":
        """Join replication chunks, given in replicate order, into one report."""
        return cls(
            obs_times=parts[0].obs_times,
            config=parts[0].config,
            errs=np.concatenate([p.errs for p in parts]),
            uncensored=np.concatenate([p.uncensored for p in parts]),
            terminal_finite_pool=np.concatenate([p.terminal_finite_pool for p in parts]),
            terminal_limit_pool=np.concatenate([p.terminal_limit_pool for p in parts]),
        )

    @cached_property
    def err_mean(self) -> np.ndarray:
        return self.errs.mean(axis=0)

    @cached_property
    def err_se(self) -> np.ndarray:
        reps = self.errs.shape[0]
        if reps > 1:
            return self.errs.std(axis=0, ddof=1) / math.sqrt(reps)
        return np.zeros(self.obs_times.size)

    @cached_property
    def err_censored_mean(self) -> np.ndarray:
        """Mean error over the replications still uncensored at each time (NaN if none)."""
        ok = self.uncensored
        with np.errstate(invalid="ignore"):
            ok_sum = ok.sum(axis=0)
            return np.where(ok_sum > 0, (self.errs * ok).sum(axis=0) / np.maximum(ok_sum, 1), np.nan)

    @cached_property
    def censor_frac(self) -> np.ndarray:
        return 1.0 - self.uncensored.mean(axis=0)

    @cached_property
    def terminal_ok(self) -> np.ndarray:
        """Per replication: True when the terminal time precedes the first big window."""
        return self.uncensored[:, -1].copy()


def coupled_error_experiment(
    model: ModelSpec,
    collateral,
    N: int,
    delta: float,
    T: float,
    K: float,
    obs_times,
    replications: int,
    master_seed: int,
    alpha_minus: float | None = None,
    first_replicate: int = 0,
) -> CouplingReport:
    """Run the coupled finite-vs-limit experiment.

    Per replication: shared initials and per-particle proposal clocks are
    drawn once; the finite system produces the jump ledger; the coupled
    driver is assembled from it; the limit system (M = N) is driven by that
    path with the same clocks.  The tracked error is the per-particle gap
    averaged over all particles (the particles are exchangeable, so this
    estimates the same expectation as any single coordinate with far lower
    variance), plain |x - y| for alpha > 1 and the bounded metric
    d_{alpha_minus} otherwise.  Censoring discards times at or beyond the first big-window
    time of the driver.
    """
    if replications < 1:
        raise ConfigError("need at least one replication")
    spec = resolve_stable(collateral)
    alpha = spec.alpha
    if alpha < 1.0 and alpha_minus is None:
        raise ConfigError("alpha_minus is required for the d_q error metric when alpha < 1")
    f_hi = model.f.f_hi
    n_windows = int(math.ceil(T / delta - 1e-9))
    horizon = n_windows * delta
    obs_times = np.sort(np.asarray(obs_times, dtype=float))

    n_obs = obs_times.size
    errs = np.empty((replications, n_obs))
    cens = np.empty((replications, n_obs), dtype=bool)
    pool_fin = np.empty((replications, N))
    pool_lim = np.empty((replications, N))

    for idx in range(replications):
        r = first_replicate + idx
        initials = model.nu0.sample(stream(master_seed, "init", r), N)
        events = proposal_events(N, f_hi, horizon, particle_streams(master_seed, r, N))
        fin, ledger = simulate_finite(
            model, collateral, N, horizon, delta, obs_times,
            initials=initials, events=events,
            collateral_rng=stream(master_seed, "collateral", r),
        )
        driver = build_coupled_driver(ledger, collateral, delta, stream(master_seed, "fresh", r), K)
        lim = simulate_limit(model, driver, initials, events, obs_times)
        if alpha > 1.0:
            errs[idx] = np.abs(fin.positions - lim.positions).mean(axis=0)
        else:
            errs[idx] = d_q(fin.positions, lim.positions, alpha_minus).mean(axis=0)
        cens[idx] = obs_times < driver.t_K
        pool_fin[idx] = fin.positions[:, -1]
        pool_lim[idx] = lim.positions[:, -1]

    gamma = collateral.gamma if isinstance(collateral, HeavyTailSpec) else float("nan")
    return CouplingReport(
        obs_times=obs_times,
        config={
            "N": N, "delta": delta, "K": K, "alpha": alpha,
            "gamma": gamma, "seed": master_seed, "T": T,
        },
        errs=errs,
        uncensored=cens,
        terminal_finite_pool=pool_fin,
        terminal_limit_pool=pool_lim,
    )
