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

import numpy as np

from .errors import ConfigError, RegimeError
from .models import ModelSpec, drift, rate
from .particle_system import EventTable, EventWalker, TrajectoryBundle, flow
from .stable_process import COUPLED, DrivingPath, compensator_MK

_TOL = 1e-9


def _mean_rate(model: ModelSpec, X: np.ndarray) -> float:
    """Empirical f-mean with canonical summation order, clamped to [f_lo, f_hi]."""
    vals = np.sort(rate(model, X)).sum() / X.size
    return float(min(max(vals, model.f.f_lo), model.f.f_hi))


def _in_window(times: np.ndarray, t0: float, t1: float, kind: int) -> list:
    """(time, kind, index) for every entry of the sorted ``times`` in (t0, t1]."""
    lo, hi = np.searchsorted(times, [t0, t1], side="right")
    return [(float(times[j]), kind, j) for j in range(lo, hi)]


def simulate_limit(
    model: ModelSpec,
    path: DrivingPath,
    initials: np.ndarray,
    events: EventTable | None = None,
    obs_times=None,
) -> TrajectoryBundle:
    """Window scheme for the limit system driven by ``path``.

    M = len(initials) particles; windows are the path's grid cells.
    ``events`` carries the shared per-particle proposal clocks used for main
    jumps (alpha < 1); pass the SAME table used by the finite system for
    common-random-numbers coupling.  Big jumps of a sampled path are applied
    at their exact times to every particle, with the empirical measure frozen
    at the preceding grid point.
    """
    alpha = path.spec.alpha
    delta = path.grid_step
    walk = EventWalker(
        model, alpha, initials, path.grid_times() if obs_times is None else obs_times,
        path.horizon, delta, flow,
    )
    if walk.main and events is None:
        raise ConfigError("main jumps require a shared proposal-event table")
    M = walk.X.size
    # Observations at t = 0 (or below the first window) come straight from initials.
    walk.record(_TOL)
    for k in range(path.n_cells):
        t1 = (k + 1) * delta
        factor = _mean_rate(model, walk.X) ** (1.0 / alpha)

        # In-window actions (time, kind, index): sampled big jumps and thinned proposals.
        actions = _in_window(path.big_times, walk.t, t1, 1)
        if walk.main:
            actions += _in_window(events.times, walk.t, t1, 0)
        actions.sort()

        for t_act, kind, j in actions:
            walk.advance(t_act)
            if kind == 1:
                walk.X = walk.X + factor * float(path.big_sizes[j])
            elif events.particles[j] < M:
                walk.thin(int(events.particles[j]), events.uniforms[j])

        walk.advance(t1, _TOL)
        walk.X = walk.X + factor * float(path.increments[k])
        walk.record(t1 + _TOL)

    return TrajectoryBundle(times=walk.obs_times, positions=walk.positions)


def picard_solve(
    model: ModelSpec,
    path: DrivingPath,
    initials: np.ndarray,
    iters: int,
) -> tuple[TrajectoryBundle, np.ndarray]:
    """Explicit Picard iteration for the K-truncated equation (alpha > 1).

    Iterate n + 1 is a plain quadrature along the grid of functions of iterate
    n: drift at the previous trajectory, the common stochastic term
    ``(mu^{[n]}(f))^{1/alpha} dS`` with big contributions removed, and the
    compensator drift ``-M_K (mu^{[n]}(f))^{1/alpha}``.  All iterates reuse
    the same path (common random numbers).

    M = len(initials); the step and K are the path's.  Returns the final
    iterate and the contraction diagnostics
    ``u[n-1] = max_t mean_i |X^{[n+1]}_t - X^{[n]}_t|`` for n = 1..iters;
    with a constant rate (and no drift) iterate 1 is already the fixed point,
    so u[0] vanishes.
    """
    alpha = path.spec.alpha
    if alpha < 1.0:
        raise RegimeError("the Picard solver requires alpha > 1")
    if iters < 1:
        raise ConfigError("iters must be at least 1")
    if not np.isfinite(path.K):
        raise ConfigError("the Picard solver requires a finite truncation level K")

    h = path.grid_step
    n_cells = path.n_cells
    X0 = np.array(initials, dtype=float, copy=True)
    M = X0.size
    if M < 2:
        raise ConfigError("need at least two particles for the empirical law")

    # Restriction to |z| <= K: sampled paths already exclude big jumps from
    # their increments; coupled paths get their big windows zeroed.
    dS = np.array(path.increments, dtype=float, copy=True)
    if path.mode == COUPLED:
        dS[np.abs(dS) > path.K * h ** (1.0 / alpha)] = 0.0
    m_k = compensator_MK(path.spec, path.K)

    X_prev = np.tile(X0[:, None], (1, n_cells + 1))
    gaps = []
    for _ in range(iters + 1):
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
