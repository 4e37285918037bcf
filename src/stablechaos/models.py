"""Registry of coefficient functions (drift b, rate f, kick psi) and initial laws.

The families are deliberately small and smooth: tanh-based drift and kick,
logistic or constant rate.  Every registry member is bounded, Lipschitz, and
(for the rate) bounded away from zero, and the measure dependence enters only
through the bounded statistic <tanh, mu>, so Wasserstein-Lipschitz continuity
holds with unit constant by Kantorovich-Rubinstein duality.  The
``assumption_audit`` verifies all of this numerically and reports constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy.special import expit

from .errors import ConfigError, EmptyMeasure
from .metrics import d_q, wdq_upper


# ---------------------------------------------------------------------------
# Component families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftSpec:
    """b(x, mu) = -beta0 tanh(x) + beta1 tanh(<tanh, mu>); or identically zero."""

    FAMILIES: ClassVar[tuple] = ("zero", "tanh")
    family: str = "zero"
    beta0: float = 0.0
    beta1: float = 0.0

    @property
    def is_zero(self) -> bool:
        return self.family == "zero" or (self.beta0 == 0.0 and self.beta1 == 0.0)

    @property
    def depends_on_measure(self) -> bool:
        return self.family == "tanh" and self.beta1 != 0.0


@dataclass(frozen=True)
class RateSpec:
    """f(x): constant c, or logistic between f_lo and f_hi.

    The "linear" family (f(x) = x) is an intentionally inadmissible audit
    fixture: it is unbounded and must fail the boundedness check.
    """

    FAMILIES: ClassVar[tuple] = ("constant", "logistic", "linear")
    family: str = "constant"
    c: float = 1.0
    lo: float = 0.5
    hi: float = 1.5

    @property
    def f_lo(self) -> float:
        if self.family == "constant":
            return self.c
        if self.family == "logistic":
            return self.lo
        return -np.inf

    @property
    def f_hi(self) -> float:
        if self.family == "constant":
            return self.c
        if self.family == "logistic":
            return self.hi
        return np.inf


@dataclass(frozen=True)
class KickSpec:
    """psi(x, mu): zero, a constant displacement -c, or -c tanh(x)."""

    FAMILIES: ClassVar[tuple] = ("zero", "constant", "tanh")
    family: str = "zero"
    c: float = 0.0

    @property
    def is_zero(self) -> bool:
        return self.family == "zero" or self.c == 0.0


@dataclass(frozen=True)
class InitSpec:
    """Initial law nu0.  All registry laws have moments of every order."""

    FAMILIES: ClassVar[tuple] = ("point", "gaussian", "uniform")
    family: str = "point"
    a: float = 0.0
    b: float = 1.0

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.family == "point":
            return np.full(n, self.a)
        if self.family == "gaussian":
            return rng.normal(self.a, self.b, n)
        if self.family == "uniform":
            return rng.uniform(self.a, self.b, n)
        raise ConfigError(f"unknown initial law {self.family!r}")


@dataclass(frozen=True)
class ModelSpec:
    """A full coefficient set.  Use ``validate`` before simulating."""

    b: DriftSpec = field(default_factory=DriftSpec)
    f: RateSpec = field(default_factory=RateSpec)
    psi: KickSpec = field(default_factory=KickSpec)
    nu0: InitSpec = field(default_factory=InitSpec)

    def validate(self, alpha: float) -> "ModelSpec":
        if not np.isfinite(self.f.f_hi) or self.f.f_lo <= 0.0:
            raise ConfigError(
                "rate must be bounded and bounded away from zero "
                f"(got f_lo={self.f.f_lo}, f_hi={self.f.f_hi})"
            )
        if self.f.family == "logistic" and self.f.lo >= self.f.hi:
            raise ConfigError("logistic rate needs lo < hi")
        if alpha > 1.0 and not self.psi.is_zero:
            raise ConfigError("main jumps (psi) are only allowed for alpha < 1")
        return self


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def sorted_tanh_mean(tanh_values: np.ndarray) -> float:
    """<tanh, mu> from the tanh of mu's support points, summed in sorted order.

    Sorts ``tanh_values`` in place.  Sorting makes the reduction invariant
    under particle permutations bit for bit, which the exchangeability
    contract of the simulators relies on.
    """
    tanh_values.sort()
    return float(tanh_values.sum() / tanh_values.size)


def drift(spec: ModelSpec, x, positions: np.ndarray | None):
    """b(x, mu) with mu the empirical law of ``positions``; neither input is modified.

    When ``positions is x`` (every caller inside the simulators), tanh is taken
    once and that temporary is sorted for the measure term.
    """
    x = np.asarray(x, dtype=float)
    if spec.b.is_zero:
        return np.zeros_like(x)
    tanh_x = np.tanh(x)
    out = -spec.b.beta0 * tanh_x
    if spec.b.depends_on_measure:
        if positions is None or positions.size == 0:
            raise EmptyMeasure("drift requires a nonempty empirical measure")
        tanh_mu = tanh_x if positions is x else np.tanh(positions)
        out += spec.b.beta1 * np.tanh(sorted_tanh_mean(tanh_mu))
    return out


def rate(spec: ModelSpec, x):
    x = np.asarray(x, dtype=float)
    f = spec.f
    if f.family == "constant":
        return np.full_like(x, f.c)
    if f.family == "logistic":
        return f.lo + (f.hi - f.lo) * expit(x)
    return x.astype(float)  # "linear" audit fixture


def kick(spec: ModelSpec, x, positions: np.ndarray | None):
    x = np.asarray(x, dtype=float)
    p = spec.psi
    if p.is_zero:
        return np.zeros_like(x)
    if p.family == "constant":
        return np.full_like(x, -p.c)
    return -p.c * np.tanh(x)


def eval_component(spec: ModelSpec, which: str, x, mu=None):
    """Evaluate one coefficient; ``mu`` is an array of measure support points."""
    positions = None if mu is None else np.asarray(mu, dtype=float)
    if which == "b":
        return drift(spec, x, positions)
    if which == "f":
        return rate(spec, x)
    if which == "psi":
        return kick(spec, x, positions)
    raise ConfigError(f"unknown component {which!r}")


# ---------------------------------------------------------------------------
# Assumption audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditEntry:
    name: str
    measured: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class AuditReport:
    entries: tuple

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def __str__(self) -> str:
        lines = []
        for e in self.entries:
            status = "PASS" if e.passed else "FAIL"
            lines.append(f"{status}  {e.name}: measured {e.measured:.6g}, bound {e.bound:.6g}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _declared_bounds(spec: ModelSpec) -> dict:
    """Analytic sup / Lipschitz bounds per family (infinite when unbounded)."""
    b = spec.b
    b_sup = 0.0 if b.is_zero else abs(b.beta0) + abs(b.beta1)
    b_lip = 0.0 if b.is_zero else abs(b.beta0)
    f = spec.f
    if f.family == "constant":
        f_lip = 0.0
    elif f.family == "logistic":
        f_lip = (f.hi - f.lo) / 4.0
    else:
        f_lip = 1.0
    p = spec.psi
    p_sup = 0.0 if p.is_zero else abs(p.c)
    p_lip = 0.0 if p.is_zero or p.family == "constant" else abs(p.c)
    return {
        "b_sup": b_sup,
        "b_lip": b_lip,
        "f_sup": max(abs(f.f_lo), abs(f.f_hi)),
        "f_lip": f_lip,
        "psi_sup": p_sup,
        "psi_lip": p_lip,
    }


# Random (x, mu) pairs per component in the d_q-Lipschitz check.
_AUDIT_PAIRS = 100


def assumption_audit(
    spec: ModelSpec,
    alpha_minus: float,
    grid_points: int = 10_000,
) -> AuditReport:
    """Numerically verify boundedness, Lipschitz continuity, the strict rate
    lower bound, and the d_q-Lipschitz property of b and psi (q = alpha_minus).

    Report-only: never raises for a failing model.
    """
    rng = np.random.default_rng(0)
    xs = np.linspace(-50.0, 50.0, grid_points)
    bounds = _declared_bounds(spec)
    tol = 1e-9
    entries = []

    ref_mu = rng.normal(0.0, 1.0, 64)

    def fd_lip(vals):
        return float(np.max(np.abs(np.diff(vals)) / np.diff(xs)))

    b_vals = drift(spec, xs, ref_mu) if not spec.b.is_zero else np.zeros_like(xs)
    entries.append(AuditEntry(
        "b bounded", float(np.max(np.abs(b_vals))), bounds["b_sup"],
        np.max(np.abs(b_vals)) <= bounds["b_sup"] + tol,
    ))
    entries.append(AuditEntry(
        "b Lipschitz (x)", fd_lip(b_vals), bounds["b_lip"],
        fd_lip(b_vals) <= bounds["b_lip"] + tol,
    ))

    f_vals = rate(spec, xs)
    f_sup = float(np.max(np.abs(f_vals)))
    entries.append(AuditEntry(
        "f bounded", f_sup, bounds["f_sup"],
        np.isfinite(bounds["f_sup"]) and f_sup <= bounds["f_sup"] + tol,
    ))
    entries.append(AuditEntry(
        "f lower bound positive", float(np.min(f_vals)), spec.f.f_lo,
        spec.f.f_lo > 0.0 and np.min(f_vals) >= spec.f.f_lo - tol,
    ))
    entries.append(AuditEntry(
        "f Lipschitz", fd_lip(f_vals), bounds["f_lip"],
        fd_lip(f_vals) <= bounds["f_lip"] + tol,
    ))

    psi_vals = kick(spec, xs, ref_mu)
    entries.append(AuditEntry(
        "psi bounded", float(np.max(np.abs(psi_vals))), bounds["psi_sup"],
        np.max(np.abs(psi_vals)) <= bounds["psi_sup"] + tol,
    ))
    entries.append(AuditEntry(
        "psi Lipschitz (x)", fd_lip(psi_vals), bounds["psi_lip"],
        fd_lip(psi_vals) <= bounds["psi_lip"] + tol,
    ))

    # d_q-Lipschitz in (x, mu) jointly, with the certified constant
    # max(Lip, 2 sup): for gaps <= 1, d_q is the plain distance; for larger
    # gaps d_q >= 1 and the sup bound takes over.
    for which, sup_b, lip_b in (
        ("b", bounds["b_sup"], bounds["b_lip"]),
        ("psi", bounds["psi_sup"], bounds["psi_lip"]),
    ):
        c_declared = max(lip_b, 2.0 * sup_b)
        worst = 0.0
        for _ in range(_AUDIT_PAIRS):
            x1, x2 = rng.normal(0.0, 3.0, 2)
            mu1 = rng.normal(rng.normal(0, 1), 1.0, 64)
            mu2 = rng.normal(rng.normal(0, 1), 1.0, 64)
            gap = abs(
                float(eval_component(spec, which, x1, mu1))
                - float(eval_component(spec, which, x2, mu2))
            )
            denom = float(d_q(x1, x2, alpha_minus)) + wdq_upper(mu1, mu2, alpha_minus)
            if denom > 0.0:
                worst = max(worst, gap / denom)
        entries.append(AuditEntry(
            f"{which} d_q-Lipschitz (q={alpha_minus})", worst, c_declared,
            worst <= c_declared + tol,
        ))

    return AuditReport(entries=tuple(entries))
