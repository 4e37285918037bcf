"""Experiment orchestration: window-size selection, config parsing, the four
experiments (self-similarity, stable-CLT rate, coupling sweep, chaos test),
and deterministic CSV emission.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .coupling import CouplingReport, coupled_error_experiment, resolve_stable
from .distributions import (
    HeavyTailSpec,
    StableSpec,
    sample_heavy,
    sample_stable,
    stable_params_from_heavy,
    validate_heavy_tail,
)
from .errors import ConfigError, DegenerateDesign, UncoveredCase
from .metrics import chi2_independence_p, ks_two_sample, loglog_slope, wdq_upper, wp_empirical
from .models import DriftSpec, InitSpec, KickSpec, ModelSpec, RateSpec
from .particle_system import window_count
from .rngtools import stream
from .stable_process import default_truncation

_BOUNDARY_TOL = 1e-9


# ---------------------------------------------------------------------------
# Window-size selection
# ---------------------------------------------------------------------------

def choose_delta(alpha: float, gamma: float, N: int) -> tuple[float, float, float]:
    """Rate-optimal window exponent for the coupled experiment.

    Returns ``(delta, eta, predicted_rate_exponent)`` with delta = N^{-eta}.
    The auxiliary constant C is the dominant decay order of the per-window
    random-sum approximation; eta balances it against the discretization and
    empirical-measure errors.  Boundary parameter values, where the decay
    order changes branch, are rejected as uncovered.
    """
    if alpha <= 0.0 or alpha >= 2.0 or abs(alpha - 1.0) < _BOUNDARY_TOL:
        raise UncoveredCase(f"alpha = {alpha} is not covered")
    if gamma <= 0.0:
        raise UncoveredCase("gamma must be positive")
    if abs(alpha + gamma - 1.0) < _BOUNDARY_TOL or abs(alpha + gamma - 2.0) < _BOUNDARY_TOL:
        raise UncoveredCase(f"alpha + gamma = {alpha + gamma} hits a forbidden boundary")

    if alpha < 1.0:
        if abs(gamma - (1.0 - alpha)) < _BOUNDARY_TOL:
            raise UncoveredCase("gamma = 1 - alpha is a case boundary")
        c = min(gamma / alpha, (1.0 - alpha) / alpha, alpha / 2.0)
        eta = c / (1.0 + c)
        exponent = -eta
    else:
        half, comp = alpha / 2.0, 2.0 - alpha
        if abs(gamma - half) < _BOUNDARY_TOL or abs(gamma - comp) < _BOUNDARY_TOL:
            raise UncoveredCase("gamma sits on a case boundary")
        if gamma < min(half, comp):
            c = gamma / alpha
        elif gamma > comp:
            if abs(alpha - 4.0 / 3.0) < _BOUNDARY_TOL:
                raise UncoveredCase("alpha = 4/3 with gamma > 2 - alpha is a case boundary")
            c = (comp / alpha) if alpha > 4.0 / 3.0 else 0.5
        else:  # gamma in (alpha/2, 2 - alpha)
            c = 0.5
        denom = 1.0 - alpha + c * alpha ** 2 + alpha ** 2
        eta = c * alpha ** 2 / denom
        exponent = -c / (denom * alpha)
    if not (0.0 < eta < 1.0):
        raise UncoveredCase(f"derived eta = {eta} leaves the admissible range")
    return float(N) ** -eta, eta, exponent


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    experiment: str                       # selfsim | clt-rate | coupling-sweep | chaos-test
    model: ModelSpec
    law: object                           # HeavyTailSpec or StableSpec (exact mode)
    n_list: tuple = (64, 256, 1024, 4096)
    T: float = 1.0
    K: float | None = None                # None = auto policy
    alpha_minus: float | None = None
    eta: float | None = None              # override for choose_delta
    replications: int = 100
    master_seed: int = 0
    # experiment-specific knobs
    n_windows: int = 100_000              # selfsim
    poisson_mean: float = 50.0            # selfsim
    clt_n_list: tuple = (100, 1000, 10_000)
    clt_reps: int = 10_000
    ref_size: int = 1_000_000
    obs_count: int = 5                    # observation grid size for the sweep
    raw_text: str = ""

    @property
    def alpha(self) -> float:
        return self.law.alpha

    def validate(self) -> "ExperimentConfig":
        if self.experiment not in ("selfsim", "clt-rate", "coupling-sweep", "chaos-test"):
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ConfigError(f"[experiment] horizon must be positive and finite, got {self.T}")
        if self.K is not None and not self.K > 0.0:
            raise ConfigError(f"[experiment] truncation must be positive, got {self.K}")
        self.model.validate(self.alpha)
        alpha = self.alpha
        if self.alpha_minus is not None:
            if not (0.0 < self.alpha_minus < alpha):
                raise ConfigError("need 0 < alpha_minus < alpha")
            if alpha > 1.0 and self.alpha_minus <= 1.0:
                raise ConfigError("alpha_minus must exceed 1 when alpha > 1")
        if self.experiment in ("coupling-sweep", "chaos-test"):
            if self.obs_count < 2:
                raise ConfigError(
                    f"[experiment] obs_count must be at least 2 (t = 0 and the horizon), "
                    f"got {self.obs_count}"
                )
            if not self.n_list or min(self.n_list) < 2:
                raise ConfigError(f"n_list: every N must be at least 2, got {self.n_list}")
            if self.experiment == "coupling-sweep" and len(set(self.n_list)) < 3:
                raise ConfigError(f"n_list: the slope fit needs 3 distinct N, got {self.n_list}")
            if alpha < 1.0 and self.alpha_minus is None:
                raise ConfigError("alpha_minus is required when alpha < 1")
            if self.eta is None and not isinstance(self.law, HeavyTailSpec):
                raise ConfigError("exact-stable sweeps need an explicit eta")
            if self.eta is not None and not math.isfinite(self.eta):
                raise ConfigError(f"[experiment] eta must be finite, got {self.eta}")
            for n in self.n_list:
                delta = _sweep_delta(self, n)[0]
                if not (2.0 * delta * self.model.f.f_hi < 1.0):
                    raise ConfigError(
                        f"N={n}: window delta={delta:.4g} violates 2 delta f_hi < 1"
                    )
        if self.experiment == "selfsim":
            if self.n_windows < 1:
                raise ConfigError(f"[experiment] n_windows must be at least 1, got {self.n_windows}")
            if not (math.isfinite(self.poisson_mean) and self.poisson_mean > 0.0):
                raise ConfigError(
                    f"[experiment] poisson_mean must be positive and finite, got {self.poisson_mean}"
                )
        if self.experiment == "clt-rate":
            if not isinstance(self.law, HeavyTailSpec):
                raise ConfigError("[law] mode must be heavy: clt-rate requires a heavy-tailed law")
            for key in ("clt_reps", "ref_size"):
                if getattr(self, key) < 1:
                    raise ConfigError(f"[experiment] {key} must be at least 1, got {getattr(self, key)}")
            sizes = self.clt_n_list
            if len(sizes) < 3 or len(set(sizes)) < 2 or min(sizes) < 1:
                raise ConfigError(
                    f"[experiment] clt_n_list: the slope fit needs 3 or more sizes >= 1, "
                    f"not all equal, got {sizes}"
                )
        return self


class _ConfigParser(configparser.ConfigParser):
    """A ConfigParser whose numeric getters name the offending ``[section] key``."""

    def _number(self, conv, kind, section, option, **kwargs):
        try:
            return conv(section, option, **kwargs)
        except ValueError:
            raw = self.get(section, option, raw=True)
            raise ConfigError(f"[{section}] {option} must be {kind}, got {raw!r}") from None

    def getint(self, section, option, **kwargs):
        return self._number(super().getint, "an integer", section, option, **kwargs)

    def getfloat(self, section, option, **kwargs):
        return self._number(super().getfloat, "a number", section, option, **kwargs)


def _family(sec, key: str, registry) -> str:
    """The family under ``key``, checked against ``registry``; its first entry is the default."""
    name = sec.get(key, registry[0])
    if name not in registry:
        raise ConfigError(f"[{sec.name}] {key} must be one of {'|'.join(registry)}, got {name!r}")
    return name


def _model_from_section(sec) -> ModelSpec:
    b = DriftSpec(
        family=_family(sec, "b", DriftSpec.FAMILIES),
        beta0=sec.getfloat("beta0", 0.0),
        beta1=sec.getfloat("beta1", 0.0),
    )
    f = RateSpec(
        family=_family(sec, "f", RateSpec.FAMILIES),
        c=sec.getfloat("c", 1.0),
        lo=sec.getfloat("f_lo", 0.5),
        hi=sec.getfloat("f_hi", 1.5),
    )
    psi = KickSpec(family=_family(sec, "psi", KickSpec.FAMILIES), c=sec.getfloat("kick_c", 0.0))
    nu0 = InitSpec(
        family=_family(sec, "nu0", InitSpec.FAMILIES),
        a=sec.getfloat("nu0_a", 0.0),
        b=sec.getfloat("nu0_b", 1.0),
    )
    return ModelSpec(b=b, f=f, psi=psi, nu0=nu0)


def _law_from_section(sec):
    mode = _family(sec, "mode", ("heavy", "stable"))
    if mode == "stable":
        required = ("alpha", "a_plus", "a_minus")
    else:
        required = ("alpha", "gamma", "big_a", "a_tilde")
    for key in required:
        if key not in sec:
            raise ConfigError(f"[law] {key} is required when mode = {mode}")
    if mode == "stable":
        return StableSpec(
            alpha=sec.getfloat("alpha"),
            a_plus=sec.getfloat("a_plus"),
            a_minus=sec.getfloat("a_minus"),
        )
    return validate_heavy_tail(
        alpha=sec.getfloat("alpha"),
        gamma=sec.getfloat("gamma"),
        beta=sec.getfloat("beta", 0.0),
        A=sec.getfloat("big_a"),
        A_tilde=sec.getfloat("a_tilde"),
        L=sec.getfloat("cutoff", 1.0),
        middle_fill=sec.get("middle_fill", "atom"),
    )


_EXPERIMENT_KEYS = (
    "kind", "n_list", "horizon", "truncation", "alpha_minus", "eta", "replications",
    "master_seed", "n_windows", "poisson_mean", "clt_n_list", "clt_reps", "ref_size", "obs_count",
)


def parse_config(path, seed_override: int | None = None) -> ExperimentConfig:
    """Read the flat INI-style config (sections: experiment, model, law)."""
    parser = _ConfigParser()
    with open(path) as fh:
        text = fh.read()
    parser.read_string(text)
    if "experiment" not in parser or "law" not in parser:
        raise ConfigError("config needs [experiment] and [law] sections")
    exp = parser["experiment"]
    for key in exp:
        if key not in _EXPERIMENT_KEYS:
            raise ConfigError(f"[experiment] {key} is not a known key")
    model = _model_from_section(parser["model"]) if "model" in parser else ModelSpec()
    law = _law_from_section(parser["law"])

    def _ints(key, default):
        if key not in exp:
            return default
        try:
            return tuple(int(v) for v in exp[key].replace(",", " ").split())
        except ValueError:
            raise ConfigError(f"[experiment] {key} must be integers, got {exp[key]!r}") from None

    cfg = ExperimentConfig(
        experiment=exp.get("kind", "selfsim"),
        model=model,
        law=law,
        n_list=_ints("n_list", (64, 256, 1024, 4096)),
        T=exp.getfloat("horizon", 1.0),
        K=exp.getfloat("truncation", fallback=None),
        alpha_minus=exp.getfloat("alpha_minus", fallback=None),
        eta=exp.getfloat("eta", fallback=None),
        replications=exp.getint("replications", 100),
        master_seed=exp.getint("master_seed", 0),
        n_windows=exp.getint("n_windows", 100_000),
        poisson_mean=exp.getfloat("poisson_mean", 50.0),
        clt_n_list=_ints("clt_n_list", (100, 1000, 10_000)),
        clt_reps=exp.getint("clt_reps", 10_000),
        ref_size=exp.getint("ref_size", 1_000_000),
        obs_count=exp.getint("obs_count", 5),
        raw_text=text,
    )
    if seed_override is not None:
        cfg.master_seed = seed_override
    return cfg


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def selfsim_experiment(
    spec: StableSpec,
    n_windows: int,
    poisson_mean: float,
    rng: np.random.Generator,
) -> dict:
    """Random-sum self-similarity check in exact mode.

    Window counts P ~ Pois(poisson_mean); each window's W is the normalized
    sum of P fresh stable draws.  Under strict stability W is again stable
    and independent of P; both facts are tested (KS against fresh draws,
    chi-square independence on a 4x4 quantile grid).  Raises ``ConfigError``
    when the draws leave no non-empty window or fewer than 2 x 2 non-empty
    cells, which small ``n_windows`` or ``poisson_mean`` can do.
    """
    too_few = (f"[experiment] n_windows = {n_windows} and [experiment] poisson_mean = "
               f"{poisson_mean:g} leave too few non-empty windows")
    counts = rng.poisson(poisson_mean, n_windows)
    total = int(counts.sum())
    ys = sample_stable(spec, rng, total)
    cs = np.concatenate([[0.0], np.cumsum(ys)])
    ends = np.cumsum(counts)
    sums = cs[ends] - cs[ends - counts]
    nonzero = counts > 0
    if not nonzero.any():
        raise ConfigError(f"{too_few}: every window is empty")
    w = sums[nonzero] / counts[nonzero] ** (1.0 / spec.alpha)
    ref = sample_stable(spec, rng, int(nonzero.sum()))
    ks = ks_two_sample(w, ref)

    p_nz = counts[nonzero].astype(float)
    p_edges = np.quantile(p_nz, [0.25, 0.5, 0.75])
    w_edges = np.quantile(w, [0.25, 0.5, 0.75])
    p_bin = np.searchsorted(p_edges, p_nz, side="right")
    w_bin = np.searchsorted(w_edges, w, side="right")
    table = np.zeros((4, 4))
    np.add.at(table, (p_bin, w_bin), 1.0)
    try:
        chi2_p = chi2_independence_p(table)
    except DegenerateDesign as exc:
        raise ConfigError(f"{too_few} for the independence test ({exc})") from None

    return {
        "alpha": spec.alpha,
        "n_windows": n_windows,
        "poisson_mean": poisson_mean,
        "ks_stat": float(ks),
        "chi2_p": chi2_p,
        "frac_fresh": float(1.0 - nonzero.mean()),
    }


def clt_rate_experiment(
    heavy: HeavyTailSpec,
    n_list,
    reps: int,
    ref_size: int,
    rng: np.random.Generator,
    alpha_minus: float | None = None,
) -> dict:
    """Distance between normalized i.i.d. sums and the stable attractor, per n.

    Uses W_1 for alpha > 1 and the d_q upper bound (q = alpha_minus) for
    alpha < 1.  Sampling is chunked so memory stays bounded.  The quantile
    pairing discards 1% of each tail above alpha = 1 and 5% below, which
    keeps the order-statistic noise of the heavy-tailed samples below the
    law-vs-law signal.
    """
    spec = stable_params_from_heavy(heavy)
    alpha = heavy.alpha
    trim = 0.01 if alpha > 1.0 else 0.05
    ref = sample_stable(spec, rng, ref_size)
    rows = []
    for n in n_list:
        sums = np.empty(reps)
        chunk = max(1, min(reps, int(2e7) // max(n, 1)))
        done = 0
        while done < reps:
            take = min(chunk, reps - done)
            draws = sample_heavy(heavy, rng, (take, n))
            sums[done:done + take] = draws.sum(axis=1) * float(n) ** (-1.0 / alpha)
            done += take
        if alpha > 1.0:
            dist = wp_empirical(sums, ref, 1.0, trim=trim)
            metric = "w1"
        else:
            q = alpha_minus if alpha_minus is not None else 0.9 * alpha
            dist = wdq_upper(sums, ref, q, trim=trim)
            metric = f"wdq({q:g})"
        rows.append((int(n), float(dist), metric))
    slope, stderr = loglog_slope([(n, d) for n, d, _ in rows])
    predicted = -heavy.gamma / alpha if alpha > 1.0 else (alpha - 1.0) / alpha
    return {"rows": rows, "slope": slope, "stderr": stderr, "predicted": predicted}


def _snap_delta(delta: float, T: float) -> float:
    """Largest window length <= delta that divides the horizon exactly.

    The coupled comparison is only meaningful at window boundaries: inside a
    window the finite system has already received collateral kicks that the
    limit system applies as one common increment at the window end.  Snapping
    puts the terminal observation at a multiple of delta; the intermediate
    points of the shared observation grid may still fall inside a window.
    """
    return T / window_count(T, delta)


def _sweep_delta(cfg: ExperimentConfig, n: int) -> tuple[float, float]:
    """(delta, predicted exponent) for one sweep point."""
    if cfg.eta is not None:
        return _snap_delta(float(n) ** -cfg.eta, cfg.T), float("nan")
    delta, _, exponent = choose_delta(cfg.alpha, cfg.law.gamma, n)
    return _snap_delta(delta, cfg.T), exponent


def _coupled_chunk(args):
    """Worker for replication-level parallelism (top level for pickling)."""
    kwargs, first, count = args
    return coupled_error_experiment(first_replicate=first, replications=count, **kwargs)


def chaos_distance(rep: CouplingReport, alpha: float, alpha_minus: float | None = None) -> float:
    """Mean per-replication distance between the two terminal empirical laws.

    Within one replication the finite and limit systems share the driver, so
    their N-particle terminal empirical measures estimate the same
    conditional law; the distance between them is the propagation-of-chaos
    statistic.  Replications whose driver hit a big window before the
    terminal time are excluded (same censoring as the coupling error), and
    the remaining per-replication distances are averaged.  Pooling the
    particles across replications instead would floor out at the
    across-replication driver noise, which does not shrink with N.
    """
    ok = rep.terminal_ok
    xs = rep.terminal_finite_pool[ok]
    ys = rep.terminal_limit_pool[ok]
    if alpha > 1.0:
        dists = [wp_empirical(x, y, 1.0) for x, y in zip(xs, ys)]
    else:
        if alpha_minus is None:
            raise ConfigError("alpha_minus is required for the d_q chaos metric when alpha < 1")
        dists = [wdq_upper(x, y, alpha_minus) for x, y in zip(xs, ys)]
    return float(np.mean(dists))


def run_coupled_sweep(cfg: ExperimentConfig, threads: int = 1) -> dict[int, CouplingReport]:
    """Coupled error experiment across the N list (shared by both sweep modes).

    With ``threads`` > 1 one process pool runs every (N, replication chunk)
    task; each N's chunks are joined in replicate order, so the reports are
    identical to a serial run.
    """
    spec = resolve_stable(cfg.law)
    obs_times = np.linspace(0.0, cfg.T, cfg.obs_count)
    K = cfg.K if cfg.K is not None else default_truncation(spec, cfg.T)
    kwargs_by_n = {
        n: dict(
            model=cfg.model, collateral=cfg.law, N=n, delta=_sweep_delta(cfg, n)[0], T=cfg.T,
            K=K, obs_times=obs_times, master_seed=cfg.master_seed,
            alpha_minus=cfg.alpha_minus,
        )
        for n in cfg.n_list
    }
    reps = cfg.replications
    if threads <= 1 or reps < 2 * threads:
        return {
            n: coupled_error_experiment(replications=reps, **kwargs)
            for n, kwargs in kwargs_by_n.items()
        }
    per = int(math.ceil(reps / threads))
    firsts = range(0, reps, per)
    tasks = [
        (kwargs, first, min(per, reps - first))
        for kwargs in kwargs_by_n.values()
        for first in firsts
    ]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(_coupled_chunk, tasks))
    k = len(firsts)
    return {
        n: CouplingReport.concat(parts[i * k:(i + 1) * k])
        for i, n in enumerate(kwargs_by_n)
    }


# ---------------------------------------------------------------------------
# CSV / manifest emission and dispatch
# ---------------------------------------------------------------------------

def _write_manifest(cfg: ExperimentConfig, out_dir: str) -> None:
    digest = hashlib.sha256(cfg.raw_text.encode()).hexdigest()
    manifest = {
        "experiment": cfg.experiment,
        "config_sha256": digest,
        "master_seed": cfg.master_seed,
        "numpy_version": np.__version__,
        "package_version": __version__,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_experiment(cfg: ExperimentConfig, out_dir: str, threads: int = 1) -> int:
    """Dispatch one experiment; returns a process exit code (0 ok, 2 invalid)."""
    try:
        cfg.validate()
    except (ConfigError, UncoveredCase) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    _write_manifest(cfg, out_dir)

    if cfg.experiment == "selfsim":
        spec = resolve_stable(cfg.law)
        try:
            res = selfsim_experiment(
                spec, cfg.n_windows, cfg.poisson_mean, stream(cfg.master_seed, "selfsim")
            )
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        with open(os.path.join(out_dir, "selfsim.csv"), "w") as fh:
            fh.write("alpha,n_windows,poisson_mean,ks_stat,chi2_p,frac_fresh\n")
            fh.write(
                f"{res['alpha']:.12g},{res['n_windows']},{res['poisson_mean']:.12g},"
                f"{res['ks_stat']:.12g},{res['chi2_p']:.12g},{res['frac_fresh']:.12g}\n"
            )
        return 0

    if cfg.experiment == "clt-rate":
        res = clt_rate_experiment(
            cfg.law, cfg.clt_n_list, cfg.clt_reps, cfg.ref_size,
            stream(cfg.master_seed, "clt"), cfg.alpha_minus,
        )
        with open(os.path.join(out_dir, "clt_rate.csv"), "w") as fh:
            fh.write("n,distance,metric,alpha,gamma\n")
            for n, d, metric in res["rows"]:
                fh.write(f"{n},{d:.12g},{metric},{cfg.alpha:.12g},{cfg.law.gamma:.12g}\n")
        with open(os.path.join(out_dir, "clt_summary.csv"), "w") as fh:
            fh.write("slope,stderr,predicted\n")
            fh.write(f"{res['slope']:.12g},{res['stderr']:.12g},{res['predicted']:.12g}\n")
        return 0

    reports = run_coupled_sweep(cfg, threads)
    for n, rep in reports.items():
        if not rep.terminal_ok.any():
            print(f"config error: N={n}: every replication is censored before the horizon; "
                  f"raise [experiment] truncation (K={rep.config['K']:.6g})", file=sys.stderr)
            return 2
    if cfg.experiment == "coupling-sweep":
        with open(os.path.join(out_dir, "coupling_sweep.csv"), "w") as fh:
            fh.write("t,err_mean,err_se,err_censored_mean,censor_frac,N,delta,K,alpha,gamma,seed\n")
            for n, rep in reports.items():
                c = rep.config
                for j, t in enumerate(rep.obs_times):
                    fh.write(
                        f"{t:.12g},{rep.err_mean[j]:.12g},{rep.err_se[j]:.12g},"
                        f"{rep.err_censored_mean[j]:.12g},{rep.censor_frac[j]:.12g},"
                        f"{c['N']},{c['delta']:.12g},{c['K']:.12g},"
                        f"{c['alpha']:.12g},{c['gamma']:.12g},{c['seed']}\n"
                    )
        pts = [(n, float(rep.err_censored_mean[-1])) for n, rep in reports.items()]
        slope, stderr = loglog_slope(pts)
        predicted = _sweep_delta(cfg, cfg.n_list[0])[1]
        with open(os.path.join(out_dir, "coupling_summary.csv"), "w") as fh:
            fh.write("fitted_slope,stderr,predicted_exponent\n")
            fh.write(f"{slope:.12g},{stderr:.12g},{predicted:.12g}\n")
        return 0

    # chaos-test
    metric = "w1" if cfg.alpha > 1.0 else f"wdq({cfg.alpha_minus:g})"
    with open(os.path.join(out_dir, "chaos.csv"), "w") as fh:
        fh.write("N,terminal_distance,metric,alpha,seed\n")
        for n, rep in reports.items():
            dist = chaos_distance(rep, cfg.alpha, cfg.alpha_minus)
            fh.write(f"{n},{dist:.12g},{metric},{cfg.alpha:.12g},{cfg.master_seed}\n")
    return 0
