"""Layer tracing for the benchmark, done entirely from outside the library.

The library binds names at import time (``from .models import drift``), so a
function is wrapped where it is *called*: ``particle_system.flow`` and
``limit_system.flow`` are two patches of one function, which is what lets the
trace tell finite-system flows from limit-system flows.

Every wrapped call is a span with a name, start, end and parent.  Calls made
tens of thousands of times per replicate (``flow``, ``drift``,
``sorted_tanh_mean``) are not stored one by one: they are folded into their
parent span as (count, seconds) per name, so a trace file stays small.  Their
time still counts as child time, so self times are exact.

Pool workers (``--threads`` > 1) run their chunk through ``traced_chunk``,
which writes the worker's spans and counters to a file that the parent
merges, so layer numbers on a parallel workload cover the workers too.
"""

from __future__ import annotations

import glob
import json
import os
import time
from collections import defaultdict

from stablechaos import (
    cli,
    coupling,
    distributions,
    harness,
    limit_system,
    models,
    particle_system,
)

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

# Side of the coupling that a folded call is attributed to: the nearest
# enclosing simulator span.
_SIDES = {"particle_system.simulate_finite": "finite", "limit_system.simulate_limit": "limit"}

# The pool pickles the chunk function by name, so the worker side cannot be a
# closure over the tracer; it finds the installed tracer here instead.
_active = None


class Tracer:
    """Spans, folded call totals and counters for one process."""

    def __init__(self):
        self._originals = []
        # span record: [id, parent, name, start, end, child_seconds, folded, pid]
        self.spans = []
        self.stack = []
        self.folded = defaultdict(lambda: [0, 0.0])   # (name, side) -> [calls, seconds]
        self.counters = defaultdict(float)
        # in a pool worker: the parent's span that was open at fork time
        self.forked_from = -1

    def reset(self) -> None:
        """Forget everything recorded; in place, because the wrappers hold these objects."""
        self.spans.clear()
        self.stack.clear()
        self.folded.clear()
        self.counters.clear()

    # -- recording ---------------------------------------------------------

    def _side(self) -> str:
        for rec in reversed(self.stack):
            side = _SIDES.get(rec[2])
            if side:
                return side
        return "other"

    def span(self, fn, name, after=None):
        """Wrap ``fn`` so each call is a stored span; ``after`` sees the result."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = [len(spans), parent[0] if parent else -1, name, time.perf_counter(), 0.0, 0.0, {},
                   os.getpid()]
            spans.append(rec)
            stack.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[5] += rec[4] - rec[3]
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return wrapper

    def fold(self, fn, name):
        """Wrap a hot ``fn``: count and time it, attributed to its simulator side."""
        stack, folded = self.stack, self.folded

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            # a placeholder frame, so nested folded calls see this as parent
            rec = [-1, -1, name, time.perf_counter(), 0.0, 0.0, None, 0]
            stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - rec[3]
                stack.pop()
                tot = folded[(name, self._side())]
                tot[0] += 1
                tot[1] += dt
                if parent is not None:
                    parent[5] += dt
                    if parent[6] is not None:
                        agg = parent[6].setdefault(name, [0, 0.0])
                        agg[0] += 1
                        agg[1] += dt

        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, module, attr, wrapper) -> None:
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> "Tracer":
        global _active
        p, s, f = self._patch, self.span, self.fold
        ps, ls, cp, hs, md = particle_system, limit_system, coupling, harness, models

        p(cli, "run_experiment", s(hs.run_experiment, "harness.run_experiment"))
        p(hs, "run_coupled_sweep", s(hs.run_coupled_sweep, "harness.run_coupled_sweep"))
        p(hs, "selfsim_experiment", s(hs.selfsim_experiment, "harness.selfsim_experiment"))
        p(hs, "clt_rate_experiment", s(hs.clt_rate_experiment, "harness.clt_rate_experiment"))
        p(hs, "coupled_error_experiment",
          s(hs.coupled_error_experiment, "coupling.coupled_error_experiment"))
        p(hs, "_coupled_chunk", traced_chunk)
        p(hs, "ProcessPoolExecutor", _counting_pool(hs.ProcessPoolExecutor, self))

        p(cp, "particle_streams", s(cp.particle_streams, "rngtools.particle_streams", _count_streams))
        p(cp, "stream", s(cp.stream, "rngtools.stream", _count_one_stream))
        p(hs, "stream", s(hs.stream, "rngtools.stream", _count_one_stream))
        p(cp, "proposal_events", s(cp.proposal_events, "particle_system.proposal_events", _count_events))
        p(cp, "simulate_finite", s(cp.simulate_finite, "particle_system.simulate_finite", _count_accepted))
        p(cp, "build_coupled_driver", s(cp.build_coupled_driver, "coupling.build_coupled_driver", _count_t_K))
        p(cp, "normalized_window_variables",
          s(cp.normalized_window_variables, "coupling.normalized_window_variables", _count_windows))
        p(cp, "simulate_limit", s(cp.simulate_limit, "limit_system.simulate_limit"))

        flow = ps.flow
        p(ps, "flow", f(flow, "particle_system.flow"))
        p(ls, "flow", f(flow, "limit_system.flow"))
        drift = md.drift
        p(ps, "drift", f(drift, "models.drift"))
        p(ls, "drift", f(drift, "models.drift"))
        p(md, "sorted_tanh_mean", f(md.sorted_tanh_mean, "models.sorted_tanh_mean"))

        for mod in (hs, ps):
            p(mod, "sample_heavy", s(mod.sample_heavy, "distributions.sample_heavy", _count_draws))
        for mod in (hs, ps, cp):
            p(mod, "sample_stable", s(mod.sample_stable, "distributions.sample_stable", _count_draws))
        for name in ("wp_empirical", "wdq_upper", "ks_two_sample"):
            p(hs, name, s(getattr(hs, name), f"metrics.{name}"))
        p(cp, "d_q", s(cp.d_q, "metrics.d_q"))
        _active = self
        return self

    def uninstall(self) -> None:
        global _active
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()
        _active = None

    # -- worker results ------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.state() | {"forked_from": self.forked_from}, fh)

    def state(self) -> dict:
        return {
            "spans": [_span_dict(r) for r in self.spans],
            "folded": [[n, side, c, t] for (n, side), (c, t) in self.folded.items()],
            "counters": dict(self.counters),
        }

    def merge_worker_files(self, directory: str) -> None:
        """Fold every worker dump in ``directory`` into this tracer, then delete it."""
        for path in sorted(glob.glob(os.path.join(directory, "worker-*.json"))):
            with open(path) as fh:
                part = json.load(fh)
            os.remove(path)
            base = len(self.spans)
            for sp in part["spans"]:
                parent = sp["parent"] + base if sp["parent"] >= 0 else part["forked_from"]
                self.spans.append([sp["id"] + base, parent, sp["name"], sp["start"], sp["end"],
                                   sp["child_s"], sp["folded"], sp["pid"]])
            for name, side, calls, secs in part["folded"]:
                tot = self.folded[(name, side)]
                tot[0] += calls
                tot[1] += secs
            for key, val in part["counters"].items():
                self.counters[key] += val


def _span_dict(rec) -> dict:
    return {
        "id": rec[0], "parent": rec[1], "name": rec[2], "start": rec[3], "end": rec[4],
        "child_s": rec[5], "folded": rec[6] or {}, "pid": rec[7],
    }


def traced_chunk(args):
    """Pool-worker replacement for ``harness._coupled_chunk`` that ships its trace back.

    The forked worker inherits the parent's installed tracer, including the
    parent's open spans; those are dropped so the worker records only its own
    chunk, and its root spans are later re-parented under the span that was
    open at fork time.
    """
    tracer = _active
    if tracer is None:
        raise RuntimeError("traced_chunk needs a pool that forks from a traced parent")
    if tracer.stack:   # first chunk in a forked worker
        tracer.forked_from = tracer.stack[-1][0]
    tracer.reset()
    kwargs, first, count = args
    try:
        return harness.coupled_error_experiment(first_replicate=first, replications=count, **kwargs)
    finally:
        directory = os.environ.get(TRACE_DIR_ENV)
        if directory:
            name = f"worker-{os.getpid()}-{time.monotonic_ns()}.json"
            tracer.dump(os.path.join(directory, name))


def _counting_pool(base, tracer):
    class CountingPool(base):
        """The harness's process pool, counted and timed from creation to shutdown."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._t0 = time.perf_counter()
            tracer.counters["harness.pools"] += 1

        def shutdown(self, *args, **kwargs):
            try:
                return super().shutdown(*args, **kwargs)
            finally:
                if self._t0 is not None:
                    tracer.counters["harness.pool_wall_s"] += time.perf_counter() - self._t0
                    self._t0 = None

    return CountingPool


# -- counters read from call results ------------------------------------------

def _count_streams(tracer, args, kwargs, out) -> None:
    tracer.counters["rngtools.streams"] += len(out)


def _count_one_stream(tracer, args, kwargs, out) -> None:
    tracer.counters["rngtools.streams"] += 1


def _count_events(tracer, args, kwargs, out) -> None:
    tracer.counters["particle_system.events"] += out.times.size


def _count_accepted(tracer, args, kwargs, out) -> None:
    tracer.counters["particle_system.accepted"] += int(out[1].accepted.sum())


def _count_t_K(tracer, args, kwargs, out) -> None:
    tracer.counters["coupling.replicates"] += 1
    if out.t_K < out.horizon:
        tracer.counters["stable_process.t_K_hits"] += 1


def _count_windows(tracer, args, kwargs, out) -> None:
    counts = args[0] if args else kwargs["counts"]
    tracer.counters["coupling.windows"] += len(counts)
    tracer.counters["coupling.fresh_windows"] += int((counts == 0).sum())


def _count_draws(tracer, args, kwargs, out) -> None:
    name = "distributions.sample_heavy_draws" if isinstance(
        args[0], distributions.HeavyTailSpec) else "distributions.sample_stable_draws"
    tracer.counters[name] += getattr(out, "size", 1)


# -- reduction to per-layer metrics ---------------------------------------------

def layer_metrics(tracer: Tracer, iterations: int, worker_cpu_s: float) -> dict:
    """Per-iteration layer metrics from everything the tracer recorded."""
    incl = defaultdict(float)
    self_s = defaultdict(float)
    for rec in tracer.spans:
        dur = rec[4] - rec[3]
        incl[rec[2]] += dur
        self_s[rec[2]] += dur - rec[5]
    calls = defaultdict(int)
    secs = defaultdict(float)
    for (name, side), (c, t) in tracer.folded.items():
        for key in (name, f"{name}.{side}"):
            calls[key] += c
            secs[key] += t
    ctr = tracer.counters
    events = ctr["particle_system.events"]
    raw = {
        "particle_system.simulate_finite_s": self_s["particle_system.simulate_finite"],
        "particle_system.flow_calls": calls["particle_system.flow"],
        "particle_system.flow_s": secs["particle_system.flow"],
        "particle_system.proposal_events_s": incl["particle_system.proposal_events"],
        "particle_system.events": events,
        "particle_system.accepted": ctr["particle_system.accepted"],
        "models.drift_calls": calls["models.drift"],
        "models.drift_calls.finite": calls["models.drift.finite"],
        "models.drift_calls.limit": calls["models.drift.limit"],
        "models.drift_s": secs["models.drift"],
        "models.drift_s.finite": secs["models.drift.finite"],
        "models.drift_s.limit": secs["models.drift.limit"],
        "models.sorted_tanh_mean_calls": calls["models.sorted_tanh_mean"],
        "models.sorted_tanh_mean_calls.finite": calls["models.sorted_tanh_mean.finite"],
        "models.sorted_tanh_mean_calls.limit": calls["models.sorted_tanh_mean.limit"],
        "limit_system.simulate_limit_s": self_s["limit_system.simulate_limit"],
        "limit_system.flow_calls": calls["limit_system.flow"],
        "limit_system.flow_s": secs["limit_system.flow"],
        "limit_system.drift_calls": calls["models.drift.limit"],
        "rngtools.particle_streams_s": incl["rngtools.particle_streams"],
        "rngtools.streams": ctr["rngtools.streams"],
        "coupling.coupled_error_experiment_s": self_s["coupling.coupled_error_experiment"],
        "coupling.build_coupled_driver_s": incl["coupling.build_coupled_driver"],
        "coupling.replicates": ctr["coupling.replicates"],
        "coupling.windows": ctr["coupling.windows"],
        "coupling.fresh_windows": ctr["coupling.fresh_windows"],
        "stable_process.t_K_hits": ctr["stable_process.t_K_hits"],
        "distributions.sample_heavy_s": incl["distributions.sample_heavy"],
        "distributions.sample_heavy_draws": ctr["distributions.sample_heavy_draws"],
        "distributions.sample_stable_s": incl["distributions.sample_stable"],
        "distributions.sample_stable_draws": ctr["distributions.sample_stable_draws"],
        "metrics.wp_empirical_s": incl["metrics.wp_empirical"],
        "metrics.wdq_upper_s": incl["metrics.wdq_upper"],
        "metrics.ks_two_sample_s": incl["metrics.ks_two_sample"],
        "metrics.d_q_s": incl["metrics.d_q"],
        "harness.run_coupled_sweep_s": incl["harness.run_coupled_sweep"],
        "harness.self_s": self_s["harness.run_experiment"],
        "harness.pools": ctr["harness.pools"],
        "harness.pool_wall_s": ctr["harness.pool_wall_s"],
        "harness.worker_cpu_s": worker_cpu_s,
    }
    out = {k: v / iterations for k, v in raw.items()}
    out["particle_system.accept_ratio"] = (
        ctr["particle_system.accepted"] / events if events else 0.0
    )
    return out
