"""Path-level machinery for the driving alpha-stable process.

Paths come in two flavors:

* ``sampled`` — simulated directly from the Levy measure: explicit big jumps
  (|z| > K) at Poisson times, compound-Poisson medium jumps per grid cell,
  and for alpha > 1 a drift compensation plus a Gaussian small-jump
  correction so that the total over [0, T] is strictly stable in law.
* ``coupled`` — assembled from per-window normalized sums handed over by the
  coupling module; grid resolution only, no sub-window structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import StableSpec
from .errors import ConfigError, MomentUndefined

SAMPLED = "sampled"
COUPLED = "coupled"


@dataclass(frozen=True)
class DrivingPath:
    """A driving stable path on a regular grid, big jumps kept explicit."""

    spec: StableSpec
    horizon: float
    grid_step: float
    increments: np.ndarray          # one per grid cell, big jumps excluded
    big_times: np.ndarray
    big_sizes: np.ndarray
    K: float
    t_K: float                      # first big-jump (or censoring-window) time
    mode: str
    small_jump_remainder: float = 0.0  # expected |mass| dropped below eps (alpha < 1)

    @property
    def n_cells(self) -> int:
        return self.increments.size

    def grid_times(self) -> np.ndarray:
        return self.grid_step * np.arange(1, self.n_cells + 1)


def big_jump_rate(spec: StableSpec, K: float) -> float:
    """Levy mass of {|z| > K}: (a_+ + a_-) K^{-alpha} / alpha."""
    if K <= 0.0:
        raise ConfigError("truncation level K must be positive")
    return (spec.a_plus + spec.a_minus) * K ** -spec.alpha / spec.alpha


def compensator_MK(spec: StableSpec, K: float) -> float:
    """Mean of the truncated-away big jumps: (a_+ - a_-) K^{1-alpha} / (alpha - 1)."""
    if spec.alpha < 1.0:
        raise MomentUndefined("the big-jump first moment diverges for alpha < 1")
    if not np.isfinite(K):
        return 0.0
    return (spec.a_plus - spec.a_minus) * K ** (1.0 - spec.alpha) / (spec.alpha - 1.0)


# Probability of a big jump on [0, horizon] under the default truncation level.
_BIG_JUMP_PROB = 0.01


def default_truncation(spec: StableSpec, horizon: float) -> float:
    """Truncation level K making a big jump on [0, horizon] rarer than 1 %."""
    budget = -math.log(1.0 - _BIG_JUMP_PROB)
    return ((spec.a_plus + spec.a_minus) * horizon / (spec.alpha * budget)) ** (1.0 / spec.alpha)


def _truncated_pareto(rng, n: int, lo: float, hi: float, alpha: float) -> np.ndarray:
    """Magnitudes with density proportional to z^{-alpha-1} on (lo, hi]."""
    u = rng.random(n)
    inv_lo = lo ** -alpha
    inv_hi = hi ** -alpha if np.isfinite(hi) else 0.0
    return (inv_lo - u * (inv_lo - inv_hi)) ** (-1.0 / alpha)


def _signs(rng, n: int, spec: StableSpec) -> np.ndarray:
    p_pos = spec.a_plus / (spec.a_plus + spec.a_minus)
    return np.where(rng.random(n) < p_pos, 1.0, -1.0)


def sample_driving_path(
    spec: StableSpec,
    horizon: float,
    step: float,
    K: float,
    rng: np.random.Generator,
    eps: float | None = None,
) -> DrivingPath:
    """Simulate a stable path with explicit big jumps above K.

    Medium jumps (eps < |z| <= K) are compound Poisson per cell.  For
    alpha > 1 each cell also receives the drift compensation
    ``-step * int_{|z| > eps} z levy(dz)`` (covering both the medium band and
    the truncated big jumps, so the total over [0, T] is strictly stable) and
    a Gaussian correction matching the variance of the dropped |z| <= eps
    part.  For alpha < 1 nothing is compensated; the expected absolute mass
    of the dropped part is recorded as a diagnostic.
    """
    if not (0.0 < step <= horizon):
        raise ConfigError("need 0 < step <= horizon")
    if eps is None:
        eps = K * 1e-3 if np.isfinite(K) else 1e-3
    if eps >= K:
        raise ConfigError("small-jump cutoff eps must be below K")
    a = spec.alpha
    total_intensity = spec.a_plus + spec.a_minus
    n_cells = int(round(horizon / step))
    if abs(n_cells * step - horizon) > 1e-9 * max(1.0, horizon):
        raise ConfigError("horizon must be an integer number of grid steps")

    # --- big jumps -------------------------------------------------------
    if np.isfinite(K):
        rate = big_jump_rate(spec, K)
        n_big = rng.poisson(rate * horizon)
        big_times = np.sort(rng.uniform(0.0, horizon, n_big))
        big_sizes = _truncated_pareto(rng, n_big, K, np.inf, a) * _signs(rng, n_big, spec)
    else:
        big_times = np.empty(0)
        big_sizes = np.empty(0)
    t_K = float(big_times[0]) if big_times.size else np.inf

    # --- medium jumps per cell ------------------------------------------
    lam_med = total_intensity * (eps ** -a - (K ** -a if np.isfinite(K) else 0.0)) / a
    counts = rng.poisson(lam_med * step, n_cells)
    n_med = int(counts.sum())
    sizes = _truncated_pareto(rng, n_med, eps, K, a) * _signs(rng, n_med, spec)
    cells = np.repeat(np.arange(n_cells), counts)
    increments = np.bincount(cells, weights=sizes, minlength=n_cells).astype(float)

    remainder = 0.0
    if a > 1.0:
        # Compensate everything above eps (medium band plus truncated big jumps).
        drift = (spec.a_plus - spec.a_minus) * eps ** (1.0 - a) / (a - 1.0)
        increments -= step * drift
        var_rate = total_intensity * eps ** (2.0 - a) / (2.0 - a)
        increments += rng.normal(0.0, np.sqrt(step * var_rate), n_cells)
    else:
        remainder = total_intensity * eps ** (1.0 - a) / (1.0 - a) * horizon

    return DrivingPath(
        spec=spec,
        horizon=n_cells * step,
        grid_step=step,
        increments=increments,
        big_times=big_times,
        big_sizes=big_sizes,
        K=K if np.isfinite(K) else np.inf,
        t_K=t_K,
        mode=SAMPLED,
        small_jump_remainder=remainder,
    )


def path_from_window_sums(
    window_vars: np.ndarray,
    delta: float,
    spec: StableSpec,
    K: float = np.inf,
) -> DrivingPath:
    """Assemble a grid-only path whose cell increments are delta^{1/alpha} W_k.

    A window whose increment exceeds K * delta^{1/alpha} in magnitude marks
    the (conservative) censoring time t_K at the START of that window: the
    underlying large event happened somewhere inside it, so everything from
    the window start onward is treated as censored.
    """
    w = np.asarray(window_vars, dtype=float)
    increments = delta ** (1.0 / spec.alpha) * w
    t_K = np.inf
    if np.isfinite(K):
        over = np.nonzero(np.abs(increments) > K * delta ** (1.0 / spec.alpha))[0]
        if over.size:
            t_K = float(over[0] * delta)
    return DrivingPath(
        spec=spec,
        horizon=delta * w.size,
        grid_step=delta,
        increments=increments,
        big_times=np.empty(0),
        big_sizes=np.empty(0),
        K=K,
        t_K=t_K,
        mode=COUPLED,
    )

