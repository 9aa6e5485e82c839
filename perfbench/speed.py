"""Machine-speed reference for the benchmark's times.

Shared machines change speed by tens of percent for seconds to minutes
at a time (other tenants, frequency scaling), which moves every wall
time of a run together.  While a run measures, an interval timer takes
a sample every SAMPLE_EVERY_S: it times a fixed pure-Python reference
loop, which is part of the benchmark and not of the program.  An
operation's time in reference seconds is its wall time, less the time
spent in samples, scaled by REF_NOMINAL_S / (the mean loop time of the
samples taken during it or next to it): the time it would take on a
machine that runs the loop in REF_NOMINAL_S.  Raw wall times are
reported alongside.

The loop is timed in wall time, because much of the machine's slowness
is time other tenants take its cores, which the loop's CPU time would
not show.  The program must not slow the loop down itself, though:

- a sample is dropped when another thread of this process used the
  CPU while the loop ran (a library thread holding the GIL or the other
  core); `dropped` counts them;
- while a child process runs (the `cli` commands, the fresh-process
  set-ups) this process takes no samples; the child runs a probe of its
  own on its main thread and hands its samples back (`suspended`,
  `adopt`).  perf_counter is the system's monotonic clock, so the
  child's sample times and ours agree.

As a check, `idle_sample` times the loop between operations, when
nothing of the program is in flight; `median_scale(idle=True)` of those
samples should match the scale applied to the operations.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

# the reference loop's typical time on the machine the benchmark was
# defined on (2-core x86_64, Python 3.11)
REF_NOMINAL_S = 0.00105
SAMPLE_EVERY_S = 0.1
WINDOW_S = 0.15  # samples this close to an operation describe its speed


def reference_loop() -> float | None:
    """Wall time of a fixed integer and dict workload, in s; None when
    other threads of this process used more than a tenth of that in CPU
    time meanwhile."""
    c0, u0, t0 = time.process_time(), time.thread_time(), time.perf_counter()
    acc, table = 0, {}
    for i in range(7000):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
    t1 = time.perf_counter()
    others = (time.process_time() - c0) - (time.thread_time() - u0)
    return None if others > 0.1 * (t1 - t0) else t1 - t0


class SpeedProbe:
    """Reference samples (time, loop seconds, idle); `paused_s` is the
    total time the timer's samples took, to be left out of wall times."""

    def __init__(self):
        self.samples: list[tuple[float, float, bool]] = []
        self.paused_s = 0.0
        self.dropped = 0
        self._last_idle = float("-inf")

    def _take(self, t, idle):
        loop_s = reference_loop()
        if loop_s is None:
            self.dropped += 1
        else:
            self.samples.append((t, loop_s, idle))

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self._take(t0, False)
        self.paused_s += time.perf_counter() - t0

    def idle_sample(self) -> None:
        """Sample between operations, outside any timed region (so not
        counted in paused_s), unless the last idle sample is less than
        SAMPLE_EVERY_S old."""
        t = time.perf_counter()
        if t - self._last_idle <= SAMPLE_EVERY_S:
            return
        self._last_idle = t
        # a timer sample nested in this one would count in its time
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._take(t, True)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    @contextlib.contextmanager
    def suspended(self):
        """No timer samples here while a child process runs."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def report(self) -> dict:
        """A child's samples, for the parent's `adopt`."""
        return {"samples": self.samples, "paused_s": self.paused_s, "dropped": self.dropped}

    def adopt(self, report: dict) -> float:
        """Take a child's samples; returns the time they took in it."""
        self.samples.extend((t, s, False) for t, s, _ in report["samples"])
        self.dropped += report["dropped"]
        return report["paused_s"]

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """REF_NOMINAL_S over the mean loop time of the samples within
        WINDOW_S of [t0, t1] (or of the nearest sample)."""
        near = [s for t, s, _ in self.samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if not near:
            mid = 0.5 * (t0 + t1)
            near = [min(self.samples, key=lambda ts: abs(ts[0] - mid))[1]]
        return REF_NOMINAL_S / (sum(near) / len(near))

    def median_scale(self, idle: bool = False) -> float:
        return statistics.median(REF_NOMINAL_S / s for _, s, i in self.samples
                                 if i or not idle)
