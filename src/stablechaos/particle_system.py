"""Event-driven simulation of the finite N-particle system.

Each particle carries an independent proposal clock of rate f_hi whose events
are tested by thinning (accept with probability f(x)/f_hi).  On acceptance
the firing particle takes its main jump (alpha < 1 only) and every OTHER
particle receives the collateral kick u / N^{1/alpha} with u drawn from the
collateral law.  Between events all particles follow the mean-field drift
ODE, integrated by RK4.

The per-particle clock streams are shared verbatim with the limit-system
simulator, which is what couples the two systems through the same underlying
point measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .distributions import HeavyTailSpec, StableSpec, sample_heavy, sample_stable
from .errors import ConfigError
from .models import ModelSpec, drift, kick, rate


# ---------------------------------------------------------------------------
# Shared event machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EventTable:
    """Merged per-particle proposal events: (time, particle, thinning uniform)."""

    times: np.ndarray
    particles: np.ndarray
    uniforms: np.ndarray


def proposal_events(n: int, f_hi: float, horizon: float, streams) -> EventTable:
    """Draw each particle's Poisson(f_hi) proposal clock and merge by time.

    Each particle consumes only its own stream, so permuting (streams,
    initial positions) permutes the simulation output exactly.
    """
    all_times, all_parts, all_us = [], [], []
    chunk = max(8, int(1.5 * f_hi * horizon) + 8)
    for i in range(n):
        rng = streams[i]
        pieces = []
        t_acc = 0.0
        while True:
            gaps = rng.standard_exponential(chunk) / f_hi
            cs = t_acc + np.cumsum(gaps)
            pieces.append(cs)
            t_acc = float(cs[-1])
            if t_acc > horizon:
                break
        times_i = np.concatenate(pieces)
        times_i = times_i[times_i <= horizon]
        us_i = rng.random(times_i.size)
        all_times.append(times_i)
        all_parts.append(np.full(times_i.size, i, dtype=np.int64))
        all_us.append(us_i)
    times = np.concatenate(all_times)
    order = np.argsort(times, kind="stable")
    return EventTable(
        times=times[order],
        particles=np.concatenate(all_parts)[order],
        uniforms=np.concatenate(all_us)[order],
    )


# Collateral sizes drawn per call of the vectorized sampler.
_DRAW_CHUNK = 1024


def collateral_draws(collateral, rng):
    """Chunks of collateral sizes from either law family, in draw order; each drawn only when asked for."""
    if not isinstance(collateral, (StableSpec, HeavyTailSpec)):
        raise ConfigError(f"unsupported collateral law {type(collateral).__name__}")
    sampler = sample_stable if isinstance(collateral, StableSpec) else sample_heavy
    while True:
        yield sampler(collateral, rng, _DRAW_CHUNK)


def flow(model: ModelSpec, X: np.ndarray, dt: float, flow_step: float) -> np.ndarray:
    """Integrate dx/dt = b(x, mu) over dt by RK4; mu is the moving empirical law.

    Each step keeps the operation order of the textbook
    ``X + h/6 (k1 + 2 k2 + 2 k3 + k4)``, in one reused stage buffer and in
    place in ``k1``, so the bits are the same; ``X`` itself is never written.
    """
    if model.b.is_zero or dt <= 0.0:
        return X
    nsub = max(1, int(math.ceil(dt / flow_step)))
    h = dt / nsub
    half = 0.5 * h
    stage = np.empty_like(X, dtype=float)
    for _ in range(nsub):
        k1 = drift(model, X, X)
        np.multiply(k1, half, out=stage)
        stage += X
        k2 = drift(model, stage, stage)
        np.multiply(k2, half, out=stage)
        stage += X
        k3 = drift(model, stage, stage)
        np.multiply(k3, h, out=stage)
        stage += X
        k4 = drift(model, stage, stage)
        k2 *= 2.0
        k1 += k2
        k3 *= 2.0
        k1 += k3
        k1 += k4
        k1 *= h / 6.0
        X = X + k1
    return X


class EventWalker:
    """Positions, clock and observation cursor shared by the finite and limit simulators.

    An observation before a flow target is recorded on the way; one at the
    target sees the state after what the caller applies there.  ``flow_fn``
    is the caller's module-level ``flow``, so each side's flows stay its own.
    Construction checks what both simulators require: a model valid for
    ``alpha``, at least two particles, and observations (sorted here) no
    later than ``horizon`` + 1e-9.
    """

    def __init__(self, model: ModelSpec, alpha: float, initials, obs_times, horizon: float,
                 delta: float, flow_fn):
        model.validate(alpha)
        self.model = model
        self.X = np.array(initials, dtype=float, copy=True)
        if self.X.size < 2:
            raise ConfigError("need at least two particles")
        self.obs_times = np.sort(np.asarray(obs_times, dtype=float))
        if self.obs_times.size and self.obs_times[-1] > horizon + 1e-9:
            raise ConfigError("observation times must not exceed the horizon")
        self.t = 0.0
        self.positions = np.empty((self.X.size, self.obs_times.size))
        self.obs_idx = 0
        # alpha < 1 only: an accepted proposal also moves its own particle
        self.main = alpha < 1.0 and not model.psi.is_zero
        self._f_hi = model.f.f_hi
        self._flow = flow_fn
        self._flow_step = min(delta, 0.01)

    def advance(self, t: float, tol: float = 0.0) -> None:
        """Flow to ``t``, recording every observation before ``t - tol`` on the way."""
        obs = self.obs_times
        while self.obs_idx < obs.size and obs[self.obs_idx] < t - tol:
            self.X = self._flow(self.model, self.X, obs[self.obs_idx] - self.t, self._flow_step)
            self.t = float(obs[self.obs_idx])
            self.positions[:, self.obs_idx] = self.X
            self.obs_idx += 1
        self.X = self._flow(self.model, self.X, t - self.t, self._flow_step)
        self.t = t

    def record(self, t: float) -> None:
        """Record the pending observations up to ``t`` without flowing."""
        obs = self.obs_times
        while self.obs_idx < obs.size and obs[self.obs_idx] <= t:
            self.positions[:, self.obs_idx] = self.X
            self.obs_idx += 1

    def thin(self, i: int, uniform: float) -> bool:
        """Thinning test of particle ``i``'s proposal; if accepted, its main jump (if any)."""
        accept = uniform * self._f_hi <= rate(self.model, self.X[i])
        if accept and self.main:
            self.X[i] += float(kick(self.model, self.X[i], self.X))
        return accept


# ---------------------------------------------------------------------------
# Outputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectoryBundle:
    """Positions of all particles at the requested observation times."""

    times: np.ndarray
    positions: np.ndarray  # shape (n_particles, n_times)


@dataclass(frozen=True)
class JumpLedger:
    """Per-event acceptance and collateral sizes plus per-window aggregates.

    Event times and particles are those of the ``EventTable`` the ledger was
    built from; the number of windows is ``window_counts.size``.
    """

    delta: float
    accepted: np.ndarray       # bool
    u: np.ndarray              # collateral sizes; NaN for rejected proposals
    window_counts: np.ndarray  # P_k
    window_sums: np.ndarray    # sum of u over window k


def _window_index(times: np.ndarray, delta: float, n_windows: int) -> np.ndarray:
    """Window k covers (k delta, (k+1) delta]."""
    k = np.ceil(times / delta).astype(int) - 1
    return np.clip(k, 0, n_windows - 1)


def window_count(T: float, delta: float) -> int:
    """Number of windows of length ``delta`` covering [0, T] (at least one).

    A T within 1e-9 windows above a multiple of ``delta`` is taken as that
    multiple, so a horizon that is a whole number of windows up to rounding
    gains no extra window.
    """
    return max(1, int(math.ceil(T / delta - 1e-9)))


def ledger_from_events(times, accepted, u, delta, n_windows) -> JumpLedger:
    times = np.asarray(times, dtype=float)
    accepted = np.asarray(accepted, dtype=bool)
    u = np.asarray(u, dtype=float)
    ks = _window_index(times[accepted], delta, n_windows)
    return JumpLedger(
        delta=delta,
        accepted=accepted,
        u=u,
        window_counts=np.bincount(ks, minlength=n_windows).astype(np.int64),
        window_sums=np.bincount(ks, weights=u[accepted], minlength=n_windows).astype(float),
    )


# ---------------------------------------------------------------------------
# Finite-system simulation
# ---------------------------------------------------------------------------

def simulate_finite(
    model: ModelSpec,
    collateral,
    initials: np.ndarray,
    events: EventTable,
    collateral_rng: np.random.Generator,
    T: float,
    delta: float,
    obs_times=None,
) -> tuple[TrajectoryBundle, JumpLedger]:
    """Simulate the N = len(initials) particle system up to the window-grid horizon >= T.

    The effective horizon is ``window_count(T, delta) * delta`` so that the
    jump ledger always covers whole windows; observations may reach it.  The
    initial positions, the merged proposal-event table and the collateral RNG
    are one replicate's random inputs (``coupling.replicate_inputs``); the
    coupling shares the first two with the limit system.
    """
    alpha = collateral.alpha
    if not (2.0 * delta * model.f.f_hi < 1.0):
        raise ConfigError(f"need 2 * delta * f_hi < 1, got {2.0 * delta * model.f.f_hi}")
    n_windows = window_count(T, delta)
    walk = EventWalker(
        model, alpha, initials, [T] if obs_times is None else obs_times, n_windows * delta, delta, flow,
    )
    sizes = chain.from_iterable(collateral_draws(collateral, collateral_rng))
    inv_root = walk.X.size ** (-1.0 / alpha)

    n_ev = events.times.size
    accepted = np.zeros(n_ev, dtype=bool)
    u = np.full(n_ev, np.nan)
    for j in range(n_ev):
        walk.advance(float(events.times[j]))
        i = int(events.particles[j])
        if walk.thin(i, events.uniforms[j]):
            u_val = float(next(sizes))
            accepted[j] = True
            u[j] = u_val
            xi = walk.X[i]
            walk.X = walk.X + u_val * inv_root
            walk.X[i] = xi
    obs_times = walk.obs_times
    if walk.obs_idx < obs_times.size:
        walk.advance(float(obs_times[-1]))
        walk.record(obs_times[-1])

    bundle = TrajectoryBundle(times=obs_times, positions=walk.positions)
    return bundle, ledger_from_events(events.times, accepted, u, delta, n_windows)
