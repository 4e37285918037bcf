"""Layered benchmark for stablechaos.

Runs one workload through the CLI's own code path (``stablechaos.cli.main``
-> ``harness.run_experiment``) in a closed loop of one client, checks every
output, and prints one JSON result as the last line of standard output:

    python3 perfbench/run.py --workload coupled-a08 --seed 20260823 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``setup_s``,
``cpu_s``, ``peak_rss_mb``); ``--trace 1`` reports the per-layer metrics of
``layertrace`` plus the tracing overhead.  Times are rescaled to reference
seconds by ``speedprobe``, which divides out the host's speed drift.  Run it
from the repository root; it imports the library from ``src/`` and writes only
under ``perfbench/out/``.
See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from speedprobe import SpeedProbe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

DEFAULT_SEED = 20260823   # the acceptance tests' master seed
MIN_ITERATIONS = 3        # a median needs at least three samples
HARD_LIMIT_S = 140.0      # never start an iteration predicted to end later
SETUP_SAMPLES = 7         # fewest fresh set-up interpreters per run

# The acceptance fixtures TANH_MODEL_08 / TANH_MODEL_15 and HEAVY_08 / HEAVY_15,
# written as CLI config sections.
_MODEL = """
[model]
b = tanh
beta0 = 1.0
beta1 = 0.5
f = logistic
f_lo = 0.5
f_hi = 1.1
psi = {psi}
kick_c = 0.3
nu0 = gaussian
nu0_a = 0.0
nu0_b = 1.0
"""
MODEL_08 = _MODEL.format(psi="tanh")
MODEL_15 = _MODEL.format(psi="zero")
LAW_08 = """
[law]
mode = heavy
alpha = 0.8
gamma = 0.5
beta = 0.5
big_a = 0.2
a_tilde = 0.1
cutoff = 1.0
"""
LAW_15 = """
[law]
mode = heavy
alpha = 1.5
gamma = 0.3
beta = 0.0
big_a = 0.2
a_tilde = 0.1
cutoff = 1.0
"""


@dataclass(frozen=True)
class Call:
    """One CLI invocation: subcommand, config text and worker count."""

    command: str
    config: str
    threads: int = 1


def workload_calls(name: str, seed: int) -> list[Call]:
    """The calls making up one iteration of ``name``; the seed is the only input."""
    if name == "coupled-a08":
        return [Call("coupling-sweep", f"""
[experiment]
kind = coupling-sweep
n_list = 256 1024 4096
alpha_minus = 0.72
eta = 0.2
replications = 2
master_seed = {seed}
""" + MODEL_08 + LAW_08)]
    if name == "chaos-a15":
        return [Call("chaos-test", f"""
[experiment]
kind = chaos-test
n_list = 256 1024 4096
replications = 3
master_seed = {seed}
""" + MODEL_15 + LAW_15)]
    if name == "sampling":
        return [
            Call("selfsim", f"""
[experiment]
kind = selfsim
n_windows = 100000
poisson_mean = 50
master_seed = {seed}

[law]
mode = stable
alpha = 0.8
a_plus = 0.3
a_minus = 0.3
"""),
            Call("clt-rate", f"""
[experiment]
kind = clt-rate
clt_n_list = 100 1000 10000
clt_reps = 600
ref_size = 1000000
master_seed = {seed}

[law]
mode = heavy
alpha = 1.5
gamma = 0.3
beta = 0.0
big_a = 0.1
a_tilde = 0.4
cutoff = 1.0
"""),
        ]
    if name == "sweep-p2":
        return [Call("coupling-sweep", f"""
[experiment]
kind = coupling-sweep
n_list = 64 128 256
alpha_minus = 0.72
eta = 0.2
replications = 32
master_seed = {seed}
""" + MODEL_08 + LAW_08, threads=2)]
    raise KeyError(name)


WORKLOADS = ("coupled-a08", "chaos-a15", "sampling", "sweep-p2")

# Files each subcommand must write, and how many data rows each holds.
_EXPECTED = {
    "selfsim": {"selfsim.csv": 1},
    "clt-rate": {"clt_rate.csv": 3, "clt_summary.csv": 1},
    "coupling-sweep": {"coupling_sweep.csv": 15, "coupling_summary.csv": 1},   # 3 N x 5 times
    "chaos-test": {"chaos.csv": 3},
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

@dataclass
class CallResult:
    command: str
    exit_code: object
    nonfinite: list = field(default_factory=list)   # a failed call
    problems: list = field(default_factory=list)    # a wrong output or a crash
    sha256: str = ""

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.nonfinite)


def check_outputs(res: CallResult, out_dir: Path) -> None:
    """Finite fields, row counts and the t = 0 invariant; hash the CSVs."""
    digest = hashlib.sha256()
    for fname, rows_expected in _EXPECTED[res.command].items():
        path = out_dir / fname
        if not path.is_file():
            res.problems.append(f"{fname} missing")
            continue
        data = path.read_bytes()
        digest.update(fname.encode() + b"\0" + data)
        header, *rows = [line.split(",") for line in data.decode().splitlines()]
        if len(rows) != rows_expected:
            res.problems.append(f"{fname}: {len(rows)} rows, expected {rows_expected}")
        for row in rows:
            for col, text in zip(header, row):
                try:
                    value = float(text)
                except ValueError:
                    continue   # a label such as "w1"
                # With eta fixed in the config there is no predicted exponent,
                # and run_experiment writes nan for it by design.
                if not math.isfinite(value) and col != "predicted_exponent":
                    res.nonfinite.append(f"{fname}: {col}={text}")
        if fname == "coupling_sweep.csv":
            at_zero = [dict(zip(header, r)) for r in rows if float(r[0]) == 0.0]
            if not at_zero:
                res.problems.append("coupling_sweep.csv: no t=0 rows")
            for r in at_zero:
                if float(r["err_censored_mean"]) != 0.0:
                    res.problems.append(
                        f"err_censored_mean at t=0 is {r['err_censored_mean']} for N={r['N']}")
    res.sha256 = digest.hexdigest()


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

def _children_cpu_s() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime + _children_cpu_s()


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    calls: list
    start: float   # perf_counter() at the start and the end
    end: float


def run_iteration(cli, calls: list[Call], cfg_paths: list[Path], work: Path) -> Iteration:
    results = []
    for k in range(len(calls)):
        shutil.rmtree(work / f"out{k}", ignore_errors=True)
    t0, c0 = time.perf_counter(), _cpu_s()
    for k, (call, cfg) in enumerate(zip(calls, cfg_paths)):
        out_dir = work / f"out{k}"
        argv = [call.command, "--config", str(cfg), "--out", str(out_dir),
                "--threads", str(call.threads)]
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:   # a crash is a failed call, not the end of the run
            traceback.print_exc(file=sys.stderr)
            code = "raised"
        results.append(CallResult(call.command, code))
    t1, c1 = time.perf_counter(), _cpu_s()
    # Checked after the clock stops: reading the CSVs back is not the program's work.
    for k, res in enumerate(results):
        if res.exit_code == 0:
            check_outputs(res, work / f"out{k}")
        else:   # every workload is a valid config, so any other exit is a defect
            res.problems.append(f"{res.command} exited with {res.exit_code!r}")
    return Iteration(t1 - t0, c1 - c0, results, t0, t1)


def measure(run_one, budget_s: float, min_iterations: int) -> list[Iteration]:
    """Call ``run_one(k)`` for k = 0, 1, ... until the next would overrun ``budget_s``."""
    start = time.perf_counter()
    done, steps = [], []
    while True:
        t0 = time.perf_counter()
        done.append(run_one(len(done)))
        steps.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        typical = statistics.median(steps)
        if elapsed + typical > HARD_LIMIT_S:
            break
        if len(done) >= min_iterations and elapsed + typical > budget_s:
            break
    return done


def quartiles(values) -> dict:
    values = list(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"q1": q1, "median": med, "q3": q3, "n": len(values), "samples": values}


# ---------------------------------------------------------------------------
# Set-up time and environment
# ---------------------------------------------------------------------------

_SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[3])
from speedprobe import SpeedProbe
with SpeedProbe(sys.argv[4]) as probe:
    t0 = time.perf_counter()
    import stablechaos.cli as cli
    t1 = time.perf_counter()
    cli.parse_config(sys.argv[2]).validate()
    t2 = time.perf_counter()
print(t1 - t0, t2 - t0, probe.factor(t0, t2))
"""


def measure_setup(cfg_path: Path, env: dict) -> dict:
    """Import + parse_config + validate, in a fresh interpreter that probes its
    own speed while it sets up."""
    probe_dir = cfg_path.parent / "probe"
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_SNIPPET, str(SRC), str(cfg_path), str(BENCH_DIR),
         str(probe_dir)],
        capture_output=True, text=True, timeout=30, env=env, check=True,
    )
    import_s, total_s, factor = (float(v) for v in proc.stdout.split())
    return {"import_s": import_s, "setup_s": total_s, "speed_factor": factor}


def _commit(env: dict) -> str:
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = dict(env, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(env: dict) -> dict:
    import numpy
    import scipy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": _commit(env),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "loadavg_before": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _tally(iterations) -> tuple[int, int, list, list]:
    calls = [c for it in iterations for c in it.calls]
    failed = sum(c.failed for c in calls)
    problems = [p for c in calls for p in c.problems]
    nonfinite = [p for c in calls for p in c.nonfinite]
    return len(calls), failed, problems, nonfinite


def _hashes(iterations) -> list[str]:
    """Per call position, the output hash; every iteration must reproduce it."""
    first = [c.sha256 for c in iterations[0].calls]
    for it in iterations[1:]:
        if [c.sha256 for c in it.calls] != first:
            return []
    return first


def plain_run(cli, calls, cfg_paths, work, seconds, env) -> tuple[dict, dict]:
    """Iterations, each followed by one set-up sample, so that set-up time sees
    the same host states as the iterations; then more samples up to
    ``SETUP_SAMPLES``.  Every time is rescaled to reference seconds by the
    speed probe of the process that spent it."""
    setup = []
    kids = None

    def run_one(k: int) -> Iteration:
        nonlocal kids
        it = run_iteration(cli, calls, cfg_paths, work)
        if kids is None:
            # The pool workers are reaped by now.  The set-up interpreters are
            # children too, so the workers' peak is read before the first starts;
            # every iteration does the same work.
            kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        setup.append(measure_setup(cfg_paths[0], env))
        return it

    with SpeedProbe(work / "probe") as probe:
        iterations = measure(run_one, seconds, MIN_ITERATIONS)
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup(cfg_paths[0], env))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    factors = [probe.factor(it.start, it.end) for it in iterations]
    wall = quartiles(it.wall_s * f for it, f in zip(iterations, factors))
    cpu = quartiles(it.cpu_s * f for it, f in zip(iterations, factors))
    setup_q = quartiles(s["setup_s"] * s["speed_factor"] for s in setup)
    metrics = {
        "wall_s": _metric(wall["median"], "s"),
        "setup_s": _metric(setup_q["median"], "s"),
        "cpu_s": _metric(cpu["median"], "s"),
        "peak_rss_mb": _metric(max(own, kids) / 1024.0, "MB"),
    }
    detail = {
        "wall_s": wall, "cpu_s": cpu, "setup_s": setup_q,
        "raw_wall_s": quartiles(it.wall_s for it in iterations),
        "raw_cpu_s": quartiles(it.cpu_s for it in iterations),
        "speed_factor": factors, "raw_setup": setup,
        "peak_rss_mb": {"self": own / 1024.0, "children": kids / 1024.0},
    }
    return metrics, detail | {"iterations": iterations}


def traced_run(cli, calls, cfg_paths, work, seconds, env) -> tuple[dict, dict]:
    """Untraced and traced iterations in the order U T T U ..., so that both
    sides see early and late iterations alike; the median gap, in reference
    seconds, is the overhead."""
    import layertrace

    trace_dir = work / "trace"
    trace_dir.mkdir()
    tracer = layertrace.Tracer()
    untraced, traced = [], []
    worker_cpu = 0.0

    def run_one(k: int) -> Iteration:
        nonlocal worker_cpu
        if k % 4 in (0, 3):
            untraced.append(run_iteration(cli, calls, cfg_paths, work))
            return untraced[-1]
        os.environ[layertrace.TRACE_DIR_ENV] = str(trace_dir)
        tracer.install()
        kids0 = _children_cpu_s()
        try:
            traced.append(run_iteration(cli, calls, cfg_paths, work))
        finally:
            tracer.uninstall()
            del os.environ[layertrace.TRACE_DIR_ENV]
        worker_cpu += _children_cpu_s() - kids0
        tracer.merge_worker_files(str(trace_dir))
        return traced[-1]

    with SpeedProbe(work / "probe") as probe:
        iterations = measure(run_one, seconds, 4)
    layers = layertrace.layer_metrics(tracer, len(traced), worker_cpu)
    plain_wall = quartiles(it.wall_s * probe.factor(it.start, it.end) for it in untraced)
    traced_wall = quartiles(it.wall_s * probe.factor(it.start, it.end) for it in traced)
    overhead = traced_wall["median"] - plain_wall["median"]
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_frac"] = overhead / plain_wall["median"]

    metrics = {name: _metric(value, _unit(name)) for name, value in layers.items()}
    detail = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall}
    return metrics, detail | {"iterations": iterations, "spans": tracer.state()}


def _unit(name: str) -> str:
    base = name.removesuffix(".finite").removesuffix(".limit")
    if base.endswith(("_frac", "_ratio")):
        return "ratio"
    return "s" if base.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stablechaos" / "__init__.py").is_file():
        print(f"benchmark: no library sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # The CLI lets these override its flags; the benchmark fixes its own.
    for var in ("STABLECHAOS_SEED", "STABLECHAOS_OUT", "STABLECHAOS_THREADS"):
        os.environ.pop(var, None)
    env = dict(os.environ)
    sys.path.insert(0, str(SRC))
    import stablechaos.cli as cli

    env_info = environment(env)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"{tag}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        calls = workload_calls(args.workload, args.seed)
        cfg_paths = []
        for k, call in enumerate(calls):
            cfg_paths.append(work / f"config{k}.ini")
            cfg_paths[-1].write_text(call.config)
        run = traced_run if args.trace else plain_run
        metrics, detail = run(cli, calls, cfg_paths, work, args.seconds, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    iterations = detail.pop("iterations")
    if args.trace:
        spans_path = OUT / f"{tag}-spans.json"
        with open(spans_path, "w") as fh:
            json.dump(detail.pop("spans"), fh)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    attempted, failed, problems, nonfinite = _tally(iterations)
    hashes = _hashes(iterations)
    if not hashes:
        problems.append("outputs differ between iterations with the same seed")
    env_info["loadavg_after"] = os.getloadavg()
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "iterations": len(iterations),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "nonfinite": nonfinite[:20],
        "problems": problems[:20], "output_sha256": hashes,
        "environment": env_info, "metrics": metrics,
    })
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    for line in problems[:20] + nonfinite[:20]:
        print(f"check: {line}", file=sys.stderr)
    print(json.dumps({k: detail[k] for k in ("attempted", "failed", "failed_frac",
                                              "output_sha256")} | {"environment": env_info}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
