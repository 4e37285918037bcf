"""In-process probe of the host's current speed.

The benchmark's host drifts in speed by 20-50 % within seconds to minutes, and
the library's run time follows it.  While a ``SpeedProbe`` is active, a
``SIGALRM`` every ``EVERY_S`` seconds runs a fixed pure-Python loop in the
measured process itself and records how long the loop took.  The loop uses no
library code, so its time tracks the speed of the CPU the measured code is
running on at that moment, and not the library's own speed.

Processes forked while a probe is active (the library's pool workers) probe
themselves too and append their samples to files in ``child_dir``.  While the
workers run, the parent mostly waits, and its probe then measures how soon it
gets a CPU back rather than how fast the CPU is; so where worker samples fall
in a window, only they are used.

``factor(t0, t1)`` turns a time measured over ``[t0, t1]`` into reference
seconds: the time it would have taken on a host that runs the loop in
``REF_S`` seconds.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from pathlib import Path

LOOPS = 3000      # about 0.2 ms of interpreter work
EVERY_S = 0.02    # about 1 % of a probed process's time
REF_S = 2.0e-4    # loop time that defines one reference second


def _loop() -> int:
    x = 0
    for i in range(LOOPS):
        x += i
    return x


class SpeedProbe:
    """Context manager; records ``(start, duration)`` of each probe loop.

    ``perf_counter`` is the system-wide monotonic clock on Linux, so the
    start times of parent and worker samples are comparable.
    """

    def __init__(self, child_dir: Path):
        self.samples: list[tuple[float, float]] = []
        self.child_dir = Path(child_dir)
        self._child_samples: list[tuple[float, float]] | None = None
        self._sink = None
        self._active = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _loop()
        d = time.perf_counter() - t0
        if self._sink is None:
            self.samples.append((t0, d))
        else:
            self._sink.write(f"{t0!r} {d!r}\n")

    def _after_fork_in_child(self) -> None:
        # Interval timers are not inherited across fork; the handler is.
        if not self._active:
            return
        self._sink = open(self.child_dir / f"probe-{os.getpid()}.txt", "a", buffering=1)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def __enter__(self) -> "SpeedProbe":
        self.child_dir.mkdir(parents=True, exist_ok=True)
        os.register_at_fork(after_in_child=self._after_fork_in_child)
        self._active = True
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._active = False

    def child_samples(self) -> list[tuple[float, float]]:
        """Every worker's samples; read once, after the probe has ended."""
        if self._child_samples is None:
            self._child_samples = []
            for path in sorted(self.child_dir.glob("probe-*.txt")):
                for line in path.read_text().splitlines():
                    t, d = line.split()
                    self._child_samples.append((float(t), float(d)))
        return self._child_samples

    def factor(self, t0: float, t1: float) -> float:
        """``REF_S`` over the mean probe time in ``[t0, t1]`` (``perf_counter`` times)."""
        window = [d for t, d in self.child_samples() if t0 <= t <= t1]
        if not window:
            window = [d for t, d in self.samples if t0 <= t <= t1]
        if not window:
            raise RuntimeError(f"no speed probe fell in a {t1 - t0:.3f} s window")
        return REF_S / statistics.fmean(window)
