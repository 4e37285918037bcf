"""Samplers and analytics for heavy-tailed laws and strictly alpha-stable laws.

The heavy-tailed family has distribution function

    1 - G(x) = (1 + beta) * (A x^{-alpha} + A_tilde x^{-alpha-gamma})   for x >= L,
        G(x) = (1 - beta) * (A|x|^{-alpha} + A_tilde |x|^{-alpha-gamma})  for x <= -L,

with the middle region (-L, L) filled either by an atom at zero or by a
uniform density.  Normalized sums of i.i.d. draws from this family converge to
the strictly alpha-stable law whose Levy measure has densities
``a_plus * z^{-alpha-1}`` on z > 0 and ``a_minus * |z|^{-alpha-1}`` on z < 0,
with ``a_plus_minus = (1 +/- beta) * alpha * A``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma_fn

from .errors import (
    ForbiddenIndex,
    MassConstraintViolated,
    MomentUndefined,
    RangeError,
    RootFindFailure,
)

ATOM_AT_ZERO = "atom"
UNIFORM_ON_MIDDLE = "uniform"

_INDEX_TOL = 1e-12


def tail_constant(alpha: float) -> float:
    """The constant C_alpha = (1 - alpha) / (Gamma(2 - alpha) * cos(pi alpha / 2)).

    For a stable law of scale sigma and skewness beta_st this constant governs
    the tail: x^alpha * P(X > x) -> C_alpha * (1 + beta_st) * sigma^alpha / 2.
    """
    return (1.0 - alpha) / (_gamma_fn(2.0 - alpha) * math.cos(math.pi * alpha / 2.0))


# ---------------------------------------------------------------------------
# Heavy-tailed family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeavyTailSpec:
    """Parameters of the two-term power-tail family (validated)."""

    alpha: float
    gamma: float
    beta: float
    A: float
    A_tilde: float
    L: float
    middle_fill: str = ATOM_AT_ZERO

    # -- derived quantities -------------------------------------------------

    @property
    def centered(self) -> bool:
        """Sampling subtracts the mean exactly when it exists (alpha > 1)."""
        return self.alpha > 1.0

    def tail_survival_at_cutoff(self) -> float:
        """A L^{-alpha} + A_tilde L^{-alpha-gamma} (one-sided, before skew weights)."""
        return self.A * self.L ** -self.alpha + self.A_tilde * self.L ** (-self.alpha - self.gamma)

    @property
    def p_plus(self) -> float:
        """Mass of the right tail [L, inf)."""
        return (1.0 + self.beta) * self.tail_survival_at_cutoff()

    @property
    def p_minus(self) -> float:
        """Mass of the left tail (-inf, -L]."""
        return (1.0 - self.beta) * self.tail_survival_at_cutoff()

    @property
    def middle_mass(self) -> float:
        return 1.0 - self.p_plus - self.p_minus


def validate_heavy_tail(
    alpha: float,
    gamma: float,
    beta: float,
    A: float,
    A_tilde: float,
    L: float,
    middle_fill: str = ATOM_AT_ZERO,
) -> HeavyTailSpec:
    """Check every constraint and return a frozen spec, or raise a diagnostic."""
    if not (0.0 < alpha < 2.0):
        raise RangeError(f"alpha must lie in (0, 2), got {alpha}")
    if abs(alpha - 1.0) < _INDEX_TOL:
        raise ForbiddenIndex("alpha = 1 is excluded")
    if gamma <= 0.0:
        raise RangeError(f"gamma must be positive, got {gamma}")
    for name, val in (("A", A), ("A_tilde", A_tilde), ("L", L)):
        if val <= 0.0:
            raise RangeError(f"{name} must be positive, got {val}")
    if not (-1.0 <= beta <= 1.0):
        raise RangeError(f"beta must lie in [-1, 1], got {beta}")
    if abs(alpha + gamma - 1.0) < _INDEX_TOL or abs(alpha + gamma - 2.0) < _INDEX_TOL:
        raise ForbiddenIndex(f"alpha + gamma = {alpha + gamma} hits a forbidden value in {{1, 2}}")
    if middle_fill not in (ATOM_AT_ZERO, UNIFORM_ON_MIDDLE):
        raise RangeError(f"unknown middle_fill {middle_fill!r}")
    mass = L ** -alpha * (A + L ** -gamma * A_tilde)
    if mass > 0.5 + 1e-15:
        raise MassConstraintViolated(
            f"L^-alpha (A + L^-gamma A_tilde) = {mass:.6g} exceeds 1/2"
        )
    return HeavyTailSpec(alpha, gamma, beta, A, A_tilde, L, middle_fill)


def _tail_survival(spec: HeavyTailSpec, y):
    """A y^{-alpha} + A_tilde y^{-alpha-gamma} for y >= L (one-sided, unweighted)."""
    y = np.asarray(y, dtype=float)
    return spec.A * y ** -spec.alpha + spec.A_tilde * y ** (-spec.alpha - spec.gamma)


def heavy_cdf(spec: HeavyTailSpec, x):
    """CDF of the law before centering (centering is a shift applied only in sampling)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)

    right = x >= spec.L
    left = x <= -spec.L
    mid = ~(right | left)
    out[right] = 1.0 - (1.0 + spec.beta) * _tail_survival(spec, x[right])
    out[left] = (1.0 - spec.beta) * _tail_survival(spec, -x[left])

    if np.any(mid):
        p_minus = spec.p_minus
        m0 = spec.middle_mass
        xm = x[mid]
        if spec.middle_fill == ATOM_AT_ZERO:
            out[mid] = np.where(xm >= 0.0, p_minus + m0, p_minus)
        else:
            out[mid] = p_minus + m0 * (xm + spec.L) / (2.0 * spec.L)

    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def heavy_mean(spec: HeavyTailSpec) -> float:
    """E[xi] of the law before centering, in closed form.  Requires alpha > 1."""
    if spec.alpha < 1.0:
        raise MomentUndefined("mean requires alpha > 1")
    a, g, L = spec.alpha, spec.gamma, spec.L
    # One-sided partial mean of the tail density over [L, inf); the skew
    # weights (1 +/- beta) multiply the same integral on each side.
    t_side = (a * spec.A / (a - 1.0)) * L ** (1.0 - a) + (
        (a + g) * spec.A_tilde / (a + g - 1.0)
    ) * L ** (1.0 - a - g)
    mean = (1.0 + spec.beta) * t_side - (1.0 - spec.beta) * t_side
    # Both middle fills are symmetric about 0 and contribute nothing.
    return mean


def _tail_quantile(spec: HeavyTailSpec, s):
    """Solve A y^{-alpha} + A_tilde y^{-alpha-gamma} = s for y >= L (vectorized).

    Safeguarded Newton on the convex decreasing survival function, started at
    the root of the leading term alone; converges monotonically from the left.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    s = np.maximum(s, 1e-300)  # guard against u drawn exactly at the boundary
    a, g, A, At, L = spec.alpha, spec.gamma, spec.A, spec.A_tilde, spec.L
    y = np.maximum(L, (A / s) ** (1.0 / a))
    hi = ((A + At * L ** -g) / s) ** (1.0 / a)
    converged = False
    for _ in range(100):
        phi = A * y ** -a + At * y ** (-a - g) - s
        dphi = -a * A * y ** (-a - 1.0) - (a + g) * At * y ** (-a - g - 1.0)
        step = phi / dphi
        y_new = np.clip(y - step, L, hi)
        rel = np.max(np.abs(y_new - y) / np.maximum(y, 1.0))
        y = y_new
        if rel < 1e-13:
            converged = True
            break
    if not converged:
        raise RootFindFailure("tail quantile Newton iteration failed to converge")
    return y


def heavy_quantile(spec: HeavyTailSpec, u):
    """Quantile function of the law before centering (generalized inverse of heavy_cdf)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.zeros_like(u)

    p_minus, p_plus = spec.p_minus, spec.p_plus
    neg = u < p_minus
    pos = u > 1.0 - p_plus
    mid = ~(neg | pos)

    if np.any(neg):
        out[neg] = -_tail_quantile(spec, u[neg] / (1.0 - spec.beta))
    if np.any(pos):
        out[pos] = _tail_quantile(spec, (1.0 - u[pos]) / (1.0 + spec.beta))
    if np.any(mid):
        if spec.middle_fill == ATOM_AT_ZERO:
            out[mid] = 0.0
        else:
            m0 = spec.middle_mass
            if m0 > 0.0:
                out[mid] = -spec.L + 2.0 * spec.L * (u[mid] - p_minus) / m0
    return out


def sample_heavy(spec: HeavyTailSpec, rng: np.random.Generator, size):
    """I.i.d. draws via inverse CDF; centered specs are shifted by the closed-form mean."""
    u = rng.random(size)
    x = heavy_quantile(spec, u)
    if spec.centered:
        x = x - heavy_mean(spec)
    return x


# ---------------------------------------------------------------------------
# Strictly stable laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StableSpec:
    """Strictly alpha-stable law described by its Levy-measure intensities.

    The Levy measure is ``a_plus z^{-alpha-1} dz`` on z > 0 and
    ``a_minus |z|^{-alpha-1} dz`` on z < 0.  The sampling parametrization
    (scale sigma, skewness beta_stable) is derived so that the tail matches:
    ``x^alpha P(X > x) -> a_plus / alpha``, which pins down
    ``sigma^alpha * alpha * C_alpha = a_plus + a_minus``.
    """

    alpha: float
    a_plus: float
    a_minus: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0) or abs(self.alpha - 1.0) < _INDEX_TOL:
            raise RangeError(f"alpha must lie in (0,2) with alpha != 1, got {self.alpha}")
        if self.a_plus < 0.0 or self.a_minus < 0.0:
            raise RangeError("jump intensities must be nonnegative")
        if self.a_plus + self.a_minus <= 0.0:
            raise RangeError("at least one jump intensity must be positive")

    @property
    def beta_stable(self) -> float:
        return (self.a_plus - self.a_minus) / (self.a_plus + self.a_minus)

    @property
    def sigma(self) -> float:
        return ((self.a_plus + self.a_minus) / (self.alpha * tail_constant(self.alpha))) ** (
            1.0 / self.alpha
        )


def stable_params_from_heavy(spec: HeavyTailSpec) -> StableSpec:
    """Levy intensities of the stable attractor: a_+/- = (1 +/- beta) alpha A."""
    return StableSpec(
        alpha=spec.alpha,
        a_plus=(1.0 + spec.beta) * spec.alpha * spec.A,
        a_minus=(1.0 - spec.beta) * spec.alpha * spec.A,
    )


def sample_stable(spec: StableSpec, rng: np.random.Generator, size):
    """Chambers-Mallows-Stuck draws from the strictly stable law.

    Uses the zero-shift parametrization, which is strictly stable for
    alpha != 1 and mean-zero for alpha > 1.
    """
    a = spec.alpha
    b = spec.beta_stable
    tan_half = math.tan(math.pi * a / 2.0)
    shift = math.atan(b * tan_half) / a
    scale = (1.0 + (b * tan_half) ** 2) ** (1.0 / (2.0 * a))

    v = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size)
    w = rng.standard_exponential(size)
    x = (
        scale
        * np.sin(a * (v + shift))
        / np.cos(v) ** (1.0 / a)
        * (np.cos(v - a * (v + shift)) / w) ** ((1.0 - a) / a)
    )
    return spec.sigma * x
