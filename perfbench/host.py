"""Host-speed calibration and normalization.

Wall time on a shared VM drifts, and fast: on the reference host the
same 10 ms of interpreter work alternates between two speeds about 1.6x
apart, switching every few hundred milliseconds, and the two vCPUs
drift independently (a sibling hyperthread busy or not).  A run-wide
correction cannot follow that, so every end-to-end timing is reported
in *reference-host units* through a speed timeline:

* the benchmark times a fixed pure-Python loop (``calibration_loop``)
  often — between operations, while the program under test is idle —
  and records each sample at its mid-point in time;
* an interval ``[t0, t1]`` of wall time is converted by integrating
  ``CALIB_REF_S / c(t)`` over it, where ``c(t)`` interpolates the loop
  time linearly between neighbouring samples (held flat outside them).

For an interval short enough to sit inside one sample gap this is
``t_wall * CALIB_REF_S / calib`` with the calibration measured at that
moment.  The loop is benchmark code, so no change to the program can
speed up or slow down the reference.  Samples are timed on the calling
thread's CPU clock, so a build worker calibrating between two units is
not charged for the other worker's turn at the interpreter lock.

``CALIB_REF_S`` is frozen with the benchmark.  Refresh it only together
with a new baseline: ``python3 perfbench/pin.py calib`` prints the
median in-run loop time over one run of each workload.
"""

from __future__ import annotations

import bisect
import resource
import statistics
import time

#: Median in-run ``calibration_loop()`` time on the reference host
#: (2-vCPU x86-64 VM, CPython 3.11), in seconds.
CALIB_REF_S = 0.0063

#: Loop iterations of a standard sample (about 6 ms on the reference
#: host).  A sample of ``n`` iterations is scaled by ``CALIB_ITERS / n``
#: (per-iteration time does not depend on the sample length).
CALIB_ITERS = 15_000
#: A short sample (about 1 ms), for gaps between short operations.
SHORT_ITERS = 3_000


def calibration_loop(n: int = CALIB_ITERS) -> int:
    """Interpreter-bound reference work: integer arithmetic, list
    stores, dict stores and a call per iteration — the same kinds of
    operations the toolchain and the simulated machine spend their
    time on.  (Variants with larger working sets tracked the workloads
    worse on the reference host.)"""
    table: dict[int, int] = {}
    ring = [0] * 64
    acc = 0
    mix = _mix
    for i in range(n):
        acc = mix(acc, i)
        ring[i & 63] = acc
        table[acc & 1023] = i
    return acc + len(table) + ring[7]


def _mix(acc: int, i: int) -> int:
    return (acc * 1103515245 + i) & 0xFFFFFFFF


class Normalizer:
    """A speed timeline built from calibration samples.

    ``checkpoint`` may be called from any thread; the conversions
    (``ref`` and friends) are meant for after the samples are in.
    """

    def __init__(self) -> None:
        # (mid-point on the perf_counter clock, standard loop time in
        # seconds, share of a standard sample actually run)
        self._samples: list[tuple[float, float, float]] = []
        self._sorted: list[tuple[float, float, float]] | None = None

    def checkpoint(self, iters: int = CALIB_ITERS) -> None:
        """Time one calibration sample (call only between operations)."""
        share = iters / CALIB_ITERS
        t0 = time.perf_counter()
        c0 = time.thread_time()
        calibration_loop(iters)
        c1 = time.thread_time()
        t1 = time.perf_counter()
        self._samples.append(((t0 + t1) / 2, (c1 - c0) / share, share))
        self._sorted = None

    def _timeline(self):
        if self._sorted is None:
            if not self._samples:
                raise RuntimeError("no calibration checkpoint taken")
            self._sorted = sorted(self._samples)
            self._times = [s[0] for s in self._sorted]
            self._values = [s[1] for s in self._sorted]
        return self._times, self._values

    @property
    def calib_run(self) -> float:
        """Median standard-loop time over this run (raw host speed)."""
        return statistics.median(s[1] for s in self._samples)

    def latest_factor(self) -> float:
        """``CALIB_REF_S / c`` from the most recent sample: how much
        faster than the reference host this host runs right now."""
        return CALIB_REF_S / self._samples[-1][1]

    def _c_at(self, t: float) -> float:
        times, values = self._timeline()
        i = bisect.bisect_right(times, t)
        if i == 0:
            return values[0]
        if i == len(times):
            return values[-1]
        t_a, t_b = times[i - 1], times[i]
        w = (t - t_a) / (t_b - t_a) if t_b > t_a else 0.0
        return values[i - 1] + w * (values[i] - values[i - 1])

    def factor_at(self, t: float) -> float:
        """Reference-host seconds per wall second around time ``t``."""
        return CALIB_REF_S / self._c_at(t)

    def ref(self, t0: float, t1: float) -> float:
        """Reference-host seconds equivalent to wall interval [t0, t1]."""
        if t1 <= t0:
            return 0.0
        times, _ = self._timeline()
        lo = bisect.bisect_right(times, t0)
        hi = bisect.bisect_left(times, t1)
        cuts = [t0, *times[lo:hi], t1]
        return sum(
            (b - a) * CALIB_REF_S / self._c_at((a + b) / 2)
            for a, b in zip(cuts, cuts[1:])
        )

    def ref_work(self, t0: float, t1: float) -> float:
        """Like :meth:`ref`, minus the calibration samples taken inside
        the interval (by any thread): the program's share only."""
        times, _ = self._timeline()
        inside = self._sorted[bisect.bisect_right(times, t0):
                              bisect.bisect_left(times, t1)]
        return self.ref(t0, t1) - CALIB_REF_S * sum(s[2] for s in inside)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
