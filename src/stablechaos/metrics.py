"""Empirical distance estimators and rate-fitting helpers.

All Wasserstein-type quantities are computed in one dimension via the
monotone (sorted) coupling.  For order p >= 1 this coupling is optimal; for
concave costs (p < 1 and the bounded metric d_q) it yields a certified upper
bound, which is what every decay experiment in this library needs.
"""

from __future__ import annotations

import numpy as np
from scipy.special import chdtrc

from .errors import DegenerateDesign, EmptySample

QUANTILE_GRID = 10_000


def _as_sorted(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise EmptySample("empirical sample must contain at least one point")
    return np.sort(arr)


def _quantile_grid(sorted_vals: np.ndarray, m: int, trim: float) -> np.ndarray:
    """Quantiles read off the sorted sample.

    With ``trim = 0`` these are the mid-quantiles (i + 1/2)/m; a positive
    ``trim`` spaces the grid over [trim, 1 - trim] instead, discarding the
    extreme-order statistics whose sampling noise would otherwise dominate
    every distance between heavy-tailed laws.
    """
    n = sorted_vals.size
    if trim > 0.0:
        qs = np.linspace(trim, 1.0 - trim, m)
    else:
        qs = (np.arange(m) + 0.5) / m
    idx = np.minimum((qs * n).astype(int), n - 1)
    return sorted_vals[idx]


def _paired(xs, ys, trim: float = 0.0):
    """Common-length sorted pairing; unequal sizes go through a quantile grid."""
    x = _as_sorted(xs)
    y = _as_sorted(ys)
    if x.size != y.size or trim > 0.0:
        m = min(max(x.size, y.size), QUANTILE_GRID)
        x = _quantile_grid(x, m, trim)
        y = _quantile_grid(y, m, trim)
    return x, y


def wp_empirical(xs, ys, p: float, trim: float = 0.0) -> float:
    """Order-p Wasserstein distance under the monotone coupling.

    Exact for p >= 1; an upper bound for p < 1 (returned as the mean of
    p-th power gaps, without the outer 1/p root, matching the transport
    cost for the concave ground cost |x-y|^p).
    """
    if p <= 0.0:
        raise ValueError("order p must be positive")
    x, y = _paired(xs, ys, trim)
    gaps = np.abs(x - y)
    if p >= 1.0:
        return float(np.mean(gaps ** p) ** (1.0 / p))
    return float(np.mean(gaps ** p))


def d_q(x, y, q: float):
    """The bounded-growth metric d_q(x, y) = |x-y| ^ min(1, q-power for big gaps)."""
    gap = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    return np.minimum(gap, gap ** q)


def wdq_upper(xs, ys, q: float, trim: float = 0.0) -> float:
    """Upper bound on the d_q-Wasserstein distance via the monotone coupling."""
    if not (0.0 < q <= 1.0):
        raise ValueError("exponent q must lie in (0, 1]")
    x, y = _paired(xs, ys, trim)
    return float(np.mean(d_q(x, y, q)))


def ks_two_sample(xs, ys) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (sup-norm gap of empirical CDFs)."""
    x = _as_sorted(xs)
    y = _as_sorted(ys)
    both = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, both, side="right") / x.size
    cdf_y = np.searchsorted(y, both, side="right") / y.size
    return float(np.max(np.abs(cdf_x - cdf_y)))


def chi2_independence_p(table) -> float:
    """Pearson chi-square independence p-value of a contingency table.

    Empty rows and columns are dropped first, so no expected count is zero;
    the degrees of freedom are (r - 1)(c - 1) of what is left.
    """
    t = np.asarray(table, dtype=float)
    t = t[t.sum(axis=1) > 0][:, t.sum(axis=0) > 0]
    r, c = t.shape
    if r < 2 or c < 2:
        raise DegenerateDesign(f"need at least 2 x 2 non-empty cells, got {r} x {c}")
    expected = t.sum(axis=1, keepdims=True) * t.sum(axis=0, keepdims=True) / t.sum()
    stat = ((t - expected) ** 2 / expected).sum()
    return float(chdtrc((r - 1) * (c - 1), stat))


def loglog_slope(points) -> tuple[float, float]:
    """Least-squares slope of log y on log x, with its standard error."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise DegenerateDesign("need at least 3 (x, y) points")
    x, y = pts[:, 0], pts[:, 1]
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise DegenerateDesign("log-log fit requires strictly positive coordinates")
    lx, ly = np.log(x), np.log(y)
    if np.unique(lx).size < 2:
        raise DegenerateDesign("abscissae must not all coincide")
    n = lx.size
    sxx = np.sum((lx - lx.mean()) ** 2)
    slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean())) / sxx)
    intercept = ly.mean() - slope * lx.mean()
    resid = ly - (intercept + slope * lx)
    s2 = float(np.sum(resid ** 2)) / (n - 2)
    stderr = float(np.sqrt(max(s2, 0.0) / sxx))
    return slope, stderr
