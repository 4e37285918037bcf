"""Simulation of the conditional mean-field limit system.

Given a common driving path, M exchangeable particles evolve by the
mean-field drift, their own thinned main jumps (alpha < 1), and a COMMON
stochastic increment per grid window: every particle receives
``(mu_hat(f))^{1/alpha} * dS_k`` where ``mu_hat`` is the M-particle
empirical measure frozen at the window start.  The conditional law of the
limit is approximated by that empirical measure throughout.

Also provides the explicit Picard iteration for the big-jump-truncated
equation (alpha > 1), used for cross-validation of the window scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RegimeError
from .models import ModelSpec, drift, kick, rate
from .particle_system import (
    EventTable,
    TrajectoryBundle,
    _rate_scalar,
    flow,
)
from .stable_process import COUPLED, DrivingPath, compensator_MK

_TOL = 1e-9


@dataclass(frozen=True)
class LimitConfig:
    """Knobs for the limit-system simulators."""

    M: int
    step: float
    K: float = np.inf
    picard_iters: int = 0
    flow_step: float | None = None

    def __post_init__(self):
        if self.M < 2:
            raise ConfigError("need at least two particles for the empirical law")
        if self.step <= 0.0:
            raise ConfigError("step must be positive")


def _mean_rate(model: ModelSpec, X: np.ndarray) -> float:
    """Empirical f-mean with canonical summation order, clamped to [f_lo, f_hi]."""
    vals = np.sort(rate(model, X)).sum() / X.size
    return float(min(max(vals, model.f.f_lo), model.f.f_hi))


def simulate_limit(
    model: ModelSpec,
    cfg: LimitConfig,
    path: DrivingPath,
    initials: np.ndarray,
    events: EventTable | None = None,
    obs_times=None,
) -> TrajectoryBundle:
    """Window scheme for the limit system driven by ``path``.

    ``events`` carries the shared per-particle proposal clocks used for main
    jumps (alpha < 1); pass the SAME table used by the finite system for
    common-random-numbers coupling.  Big jumps of a sampled path are applied
    at their exact times to every particle, with the empirical measure frozen
    at the preceding grid point.
    """
    alpha = path.spec.alpha
    model.validate(alpha)
    if abs(cfg.step - path.grid_step) > _TOL * max(1.0, path.grid_step):
        raise ConfigError("config step must match the path grid step")
    delta = path.grid_step
    flow_step = cfg.flow_step if cfg.flow_step is not None else min(delta, 0.01)
    f_hi = model.f.f_hi
    main_enabled = alpha < 1.0 and not model.psi.is_zero
    if main_enabled and events is None:
        raise ConfigError("main jumps require a shared proposal-event table")

    X = np.array(initials, dtype=float, copy=True)
    if X.size != cfg.M:
        raise ConfigError("initials must have length M")

    horizon = path.horizon
    if obs_times is None:
        obs_times = path.grid_times()
    obs_times = np.sort(np.asarray(obs_times, dtype=float))
    if obs_times.size and obs_times[-1] > horizon + _TOL:
        raise ConfigError("observation times exceed the path horizon")

    positions = np.empty((cfg.M, obs_times.size))
    obs_idx = 0
    # Observations at t = 0 (or below the first window) come straight from initials.
    while obs_idx < obs_times.size and obs_times[obs_idx] <= _TOL:
        positions[:, obs_idx] = X
        obs_idx += 1

    t_cur = 0.0
    for k in range(path.n_cells):
        t1 = (k + 1) * delta
        factor = _mean_rate(model, X) ** (1.0 / alpha)

        # Collect in-window actions: thinned proposals and sampled big jumps.
        actions = []  # (time, kind, payload)
        if main_enabled:
            lo = np.searchsorted(events.times, t_cur, side="right")
            hi = np.searchsorted(events.times, t1, side="right")
            for j in range(lo, hi):
                actions.append((float(events.times[j]), 0, j))
        if path.big_times.size:
            lo = np.searchsorted(path.big_times, t_cur, side="right")
            hi = np.searchsorted(path.big_times, t1, side="right")
            for j in range(lo, hi):
                actions.append((float(path.big_times[j]), 1, j))
        actions.sort()

        for t_act, kind, j in actions:
            while obs_idx < obs_times.size and obs_times[obs_idx] < t_act:
                X = flow(model, X, obs_times[obs_idx] - t_cur, flow_step)
                t_cur = float(obs_times[obs_idx])
                positions[:, obs_idx] = X
                obs_idx += 1
            X = flow(model, X, t_act - t_cur, flow_step)
            t_cur = t_act
            if kind == 0:
                i = int(events.particles[j])
                if i < cfg.M:
                    fx = _rate_scalar(model, float(X[i]))
                    if events.uniforms[j] * f_hi <= fx:
                        X[i] += float(kick(model, X[i], X))
            else:
                X = X + factor * float(path.big_sizes[j])

        while obs_idx < obs_times.size and obs_times[obs_idx] < t1 - _TOL:
            X = flow(model, X, obs_times[obs_idx] - t_cur, flow_step)
            t_cur = float(obs_times[obs_idx])
            positions[:, obs_idx] = X
            obs_idx += 1
        X = flow(model, X, t1 - t_cur, flow_step)
        t_cur = t1
        X = X + factor * float(path.increments[k])
        while obs_idx < obs_times.size and obs_times[obs_idx] <= t1 + _TOL:
            positions[:, obs_idx] = X
            obs_idx += 1

    return TrajectoryBundle(times=obs_times, positions=positions)


def picard_solve(
    model: ModelSpec,
    cfg: LimitConfig,
    path: DrivingPath,
    initials: np.ndarray,
) -> tuple[TrajectoryBundle, np.ndarray]:
    """Explicit Picard iteration for the K-truncated equation (alpha > 1).

    Iterate n + 1 is a plain quadrature along the grid of functions of iterate
    n: drift at the previous trajectory, the common stochastic term
    ``(mu^{[n]}(f))^{1/alpha} dS`` with big contributions removed, and the
    compensator drift ``-M_K (mu^{[n]}(f))^{1/alpha}``.  All iterates reuse
    the same path (common random numbers).

    Returns the final iterate and the contraction diagnostics
    ``u[n-1] = max_t mean_i |X^{[n+1]}_t - X^{[n]}_t|`` for n = 1..picard_iters;
    with a constant rate (and no drift) iterate 1 is already the fixed point,
    so u[0] vanishes.
    """
    alpha = path.spec.alpha
    if alpha < 1.0:
        raise RegimeError("the Picard solver requires alpha > 1")
    if cfg.picard_iters < 1:
        raise ConfigError("picard_iters must be at least 1")
    if not np.isfinite(cfg.K):
        raise ConfigError("the Picard solver requires a finite truncation level K")
    if abs(cfg.step - path.grid_step) > _TOL * max(1.0, path.grid_step):
        raise ConfigError("config step must match the path grid step")

    h = path.grid_step
    n_cells = path.n_cells
    M = cfg.M
    X0 = np.array(initials, dtype=float, copy=True)
    if X0.size != M:
        raise ConfigError("initials must have length M")

    # Restriction to |z| <= K: sampled paths already exclude big jumps from
    # their increments; coupled paths get their big windows zeroed.
    dS = np.array(path.increments, dtype=float, copy=True)
    if path.mode == COUPLED:
        dS[np.abs(dS) > cfg.K * h ** (1.0 / alpha)] = 0.0
    m_k = compensator_MK(path.spec, cfg.K)

    X_prev = np.tile(X0[:, None], (1, n_cells + 1))
    gaps = []
    for _ in range(cfg.picard_iters + 1):
        contrib = np.empty((M, n_cells))
        for m in range(n_cells):
            col = X_prev[:, m]
            factor = _mean_rate(model, col) ** (1.0 / alpha)
            contrib[:, m] = drift(model, col, col) * h + factor * dS[m] - m_k * factor * h
        X_new = np.empty_like(X_prev)
        X_new[:, 0] = X0
        X_new[:, 1:] = X0[:, None] + np.cumsum(contrib, axis=1)
        gaps.append(float(np.max(np.mean(np.abs(X_new - X_prev), axis=0))))
        X_prev = X_new

    times = np.concatenate([[0.0], path.grid_times()])
    return TrajectoryBundle(times=times, positions=X_prev), np.asarray(gaps[1:])
