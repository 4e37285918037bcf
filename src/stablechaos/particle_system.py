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

import numpy as np

from .distributions import HeavyTailSpec, StableSpec, sample_heavy, sample_stable
from .errors import ConfigError
from .models import ModelSpec, drift, kick
from .rngtools import particle_streams, stream


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


class DrawCache:
    """Batches scalar draws from a vectorized sampler, preserving draw order."""

    def __init__(self, sampler, rng, batch: int = 1024):
        self._sampler = sampler
        self._rng = rng
        self._batch = batch
        self._buf = np.empty(0)
        self._pos = 0

    def take(self) -> float:
        if self._pos >= self._buf.size:
            self._buf = np.asarray(self._sampler(self._rng, self._batch))
            self._pos = 0
        val = float(self._buf[self._pos])
        self._pos += 1
        return val


def collateral_sampler(collateral):
    """Sampler closure for either law family (heavy-tailed or exactly stable)."""
    if isinstance(collateral, StableSpec):
        return lambda rng, size: sample_stable(collateral, rng, size)
    if isinstance(collateral, HeavyTailSpec):
        return lambda rng, size: sample_heavy(collateral, rng, size)
    raise ConfigError(f"unsupported collateral law {type(collateral).__name__}")


def flow(model: ModelSpec, X: np.ndarray, dt: float, flow_step: float) -> np.ndarray:
    """Integrate dx/dt = b(x, mu) over dt by RK4; mu is the moving empirical law."""
    if model.b.is_zero or dt <= 0.0:
        return X
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


def _rate_scalar(model: ModelSpec, x: float) -> float:
    f = model.f
    if f.family == "constant":
        return f.c
    if f.family == "logistic":
        # overflow-safe sigmoid
        z = math.exp(-abs(x))
        sig = 1.0 / (1.0 + z) if x >= 0.0 else z / (1.0 + z)
        return f.lo + (f.hi - f.lo) * sig
    return x


class EventWalker:
    """Positions, clock and observation cursor shared by the finite and limit simulators.

    An observation before a flow target is recorded on the way; one at the
    target sees the state after what the caller applies there.  ``flow_fn``
    is the caller's module-level ``flow``, so each side's flows stay its own.
    """

    def __init__(self, model: ModelSpec, initials, obs_times: np.ndarray, delta: float, flow_fn):
        self.model = model
        self.X = np.array(initials, dtype=float, copy=True)
        self.t = 0.0
        self.obs_times = obs_times
        self.positions = np.empty((self.X.size, obs_times.size))
        self.obs_idx = 0
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

    def thin(self, i: int, uniform: float, main: bool) -> bool:
        """Thinning test of particle ``i``'s proposal; if accepted and ``main``, its main jump."""
        accept = uniform * self._f_hi <= _rate_scalar(self.model, float(self.X[i]))
        if accept and main:
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
    """Complete event record plus per-window aggregates of accepted jumps."""

    delta: float
    horizon: float
    n_windows: int
    times: np.ndarray
    particles: np.ndarray
    accepted: np.ndarray       # bool
    u: np.ndarray              # collateral sizes; NaN for rejected proposals
    main_applied: np.ndarray   # bool
    window_counts: np.ndarray  # P_k
    window_sums: np.ndarray    # sum of u over window k


def _window_index(times: np.ndarray, delta: float, n_windows: int) -> np.ndarray:
    """Window k covers (k delta, (k+1) delta]."""
    k = np.ceil(times / delta).astype(int) - 1
    return np.clip(k, 0, n_windows - 1)


def ledger_from_events(times, particles, accepted, u, main_applied, delta, horizon) -> JumpLedger:
    n_windows = int(math.ceil(horizon / delta - 1e-9))
    times = np.asarray(times, dtype=float)
    accepted = np.asarray(accepted, dtype=bool)
    u = np.asarray(u, dtype=float)
    acc_t = times[accepted]
    acc_u = u[accepted]
    if acc_t.size:
        ks = _window_index(acc_t, delta, n_windows)
        counts = np.bincount(ks, minlength=n_windows).astype(np.int64)
        sums = np.bincount(ks, weights=acc_u, minlength=n_windows)
    else:
        counts = np.zeros(n_windows, dtype=np.int64)
        sums = np.zeros(n_windows)
    return JumpLedger(
        delta=delta,
        horizon=horizon,
        n_windows=n_windows,
        times=times,
        particles=np.asarray(particles, dtype=np.int64),
        accepted=accepted,
        u=u,
        main_applied=np.asarray(main_applied, dtype=bool),
        window_counts=counts,
        window_sums=sums,
    )


# ---------------------------------------------------------------------------
# Finite-system simulation
# ---------------------------------------------------------------------------

def simulate_finite(
    model: ModelSpec,
    collateral,
    N: int,
    T: float,
    delta: float,
    obs_times=None,
    *,
    master_seed: int | None = None,
    replicate: int = 0,
    initials: np.ndarray | None = None,
    events: EventTable | None = None,
    collateral_rng: np.random.Generator | None = None,
) -> tuple[TrajectoryBundle, JumpLedger]:
    """Simulate the N-particle system up to the window-grid horizon >= T.

    The effective horizon is ceil(T / delta) * delta so that the jump ledger
    always covers whole windows.  Initial positions, the merged proposal-event
    table, and the collateral RNG may be supplied explicitly (the coupling
    shares them with the limit system); otherwise they are derived from
    ``(master_seed, replicate)``.
    """
    alpha = collateral.alpha
    f_hi = model.f.f_hi
    model.validate(alpha)
    if N < 2:
        raise ConfigError("need at least two particles")
    if not (2.0 * delta * f_hi < 1.0):
        raise ConfigError(f"need 2 * delta * f_hi < 1, got {2.0 * delta * f_hi}")

    n_windows = int(math.ceil(T / delta - 1e-9))
    horizon = n_windows * delta
    if obs_times is None:
        obs_times = np.array([T])
    obs_times = np.sort(np.asarray(obs_times, dtype=float))
    if obs_times.size and obs_times[-1] > horizon + 1e-12:
        raise ConfigError("observation times must not exceed the horizon")

    if initials is None or events is None or collateral_rng is None:
        if master_seed is None:
            raise ConfigError("master_seed required when streams are not supplied")
    if initials is None:
        initials = model.nu0.sample(stream(master_seed, "init", replicate), N)
    if events is None:
        events = proposal_events(N, f_hi, horizon, particle_streams(master_seed, replicate, N))
    if collateral_rng is None:
        collateral_rng = stream(master_seed, "collateral", replicate)

    cache = DrawCache(collateral_sampler(collateral), collateral_rng)
    inv_root = N ** (-1.0 / alpha)
    main_enabled = alpha < 1.0 and not model.psi.is_zero

    walk = EventWalker(model, initials, obs_times, delta, flow)
    n_ev = events.times.size
    accepted = np.zeros(n_ev, dtype=bool)
    u = np.full(n_ev, np.nan)
    for j in range(n_ev):
        walk.advance(float(events.times[j]))
        i = int(events.particles[j])
        if walk.thin(i, events.uniforms[j], main_enabled):
            u_val = cache.take()
            accepted[j] = True
            u[j] = u_val
            xi = walk.X[i]
            walk.X = walk.X + u_val * inv_root
            walk.X[i] = xi
    if walk.obs_idx < obs_times.size:
        walk.advance(float(obs_times[-1]))
        walk.record(obs_times[-1])

    bundle = TrajectoryBundle(times=obs_times, positions=walk.positions)
    ledger = ledger_from_events(
        events.times, events.particles, accepted, u, accepted & main_enabled, delta, horizon
    )
    return bundle, ledger


def interaction_term(ledger: JumpLedger, collateral, N: int, t: float) -> float:
    """A^N_t = N^{-1/alpha} * sum of accepted collateral sizes up to time t."""
    if t > ledger.horizon + 1e-12:
        raise ConfigError("t exceeds the ledger horizon")
    mask = ledger.accepted & (ledger.times <= t)
    return float(N ** (-1.0 / collateral.alpha) * np.sum(ledger.u[mask]))

