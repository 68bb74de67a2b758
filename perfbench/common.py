"""What the workloads share: set-up timing, percentiles, open-loop
generators, host steal monitoring, peak memory and the machine
fingerprint."""

from __future__ import annotations

import bisect
import gc
import os
import platform
import resource
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Context",
    "repeat_setup",
    "freeze_inputs",
    "percentile",
    "latency_summary",
    "tail_percentile",
    "OpenLoop",
    "peak_rss_mb",
    "fingerprint",
    "host_ticks",
    "steal_share",
    "HostMonitor",
    "GEN_LAG_LIMIT_MS",
]

#: Complete set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass
class Context:
    """What every workload gets from the command line."""

    seed: int
    seconds: float
    tracer: object | None
    workdir: object
    setups: int = SETUP_REPEATS


def repeat_setup(setup, repeats: int):
    """Run *setup* *repeats* times; keep the last result and the times."""
    times = []
    result = None
    for _ in range(repeats):
        result = None  # let the previous set-up go before building the next
        started = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - started)
    return result, times


def freeze_inputs() -> None:
    """Move everything built so far out of the garbage collector's way.

    Called right before a measurement starts.  Otherwise a full
    collection walks the whole library and the generated inputs in the
    middle of the measurement: a 60-80 ms pause that lands on a
    different request in every run.
    """
    gc.collect()
    gc.freeze()


#: An open-loop generator whose own lag (time it was free and due but
#: had not yet issued) exceeds this at p99 fell behind by itself; the
#: run is then invalid, whatever the program did.
GEN_LAG_LIMIT_MS = 25.0


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile *p* of *values* (NaN when empty)."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def tail_percentile(n: int) -> float:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def latency_summary(seconds, measured: int | None = None) -> dict:
    """Median and tail of *seconds* in ms, with the sample counts.

    The tail percentile is chosen from *measured*, the samples the run
    took before any were set aside as noisy (default: all of them), so
    a run's figure is always the same percentile.  It is taken per
    block of consecutive samples, as many blocks (at most 8) as leave
    ten samples beyond the percentile in each, and the median over
    blocks is reported: one stall of the host then moves one block, not
    the run's figure.
    """
    n = len(seconds)
    tail_p = tail_percentile(n if measured is None else measured)
    blocks = max(1, min(8, int(n * (100.0 - tail_p) / 100.0 / 10)))
    size = n // blocks
    tails = [percentile(seconds[b * size : (b + 1) * size], tail_p) for b in range(blocks)]
    return {
        "n": n,
        "p50_ms": percentile(seconds, 50) * 1e3,
        "tail_p": tail_p,
        "tail_ms": float(np.median(tails)) * 1e3 if n else float("nan"),
        "tail_blocks": blocks,
    }


class OpenLoop:
    """Issue ``action(i)`` at fixed due times from one thread.

    Due times are on the ``time.monotonic`` clock, the clock the
    program stamps chunk freshness with.  Each call is timed from its
    due time, so a stall in the program is
    charged to every request it delays.  Two lags are kept apart:
    *lateness* (issue - due) includes waiting for the previous call to
    return; *generator lag* (issue - max(due, previous return)) is the
    time the generator was free and due but had not issued, which is
    the generator's own fault.
    """

    def __init__(self, name: str, due: list[float], action: Callable[[int], None]):
        self.due = due
        self.action = action
        self.issued: list[float] = []
        self.done: list[float] = []
        self.error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)

    def _run(self) -> None:
        try:
            for i, due in enumerate(self.due):
                wait = due - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                self.issued.append(time.monotonic())
                self.action(i)
                self.done.append(time.monotonic())
        except BaseException as exc:  # re-raised by join() on the caller's thread
            self.error = exc

    def start(self) -> None:
        self._thread.start()

    def join(self, timeout: float) -> None:
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError(f"{self._thread.name} still running after {timeout} s")
        if self.error is not None:
            raise self.error

    def latencies(self) -> list[float]:
        """Seconds from each request's due time to its return."""
        return [done - due for due, done in zip(self.due, self.done)]

    def health(self) -> dict:
        lateness = [issued - due for due, issued in zip(self.due, self.issued)]
        lag = [
            issued - max(due, self.done[i - 1] if i else due)
            for i, (due, issued) in enumerate(zip(self.due, self.issued))
        ]
        lag_p99 = percentile(lag, 99) * 1e3
        return {
            "requests": len(self.issued),
            "scheduled": len(self.due),
            "lateness_p99_ms": percentile(lateness, 99) * 1e3,
            "lateness_max_ms": max(lateness, default=0.0) * 1e3,
            "generator_lag_p99_ms": lag_p99,
            "generator_lag_max_ms": max(lag, default=0.0) * 1e3,
            "valid": len(self.issued) == len(self.due) and lag_p99 <= GEN_LAG_LIMIT_MS,
        }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


def host_ticks() -> tuple[int, int] | None:
    """(stolen, total) CPU ticks of the host so far, where Linux reports them."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(before, after) -> float | None:
    """Share of CPU time the hypervisor took between two ``host_ticks``."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


#: An interval in which the hypervisor took at most this share of the
#: CPU is always quiet.
STEAL_LIMIT = 0.02


class HostMonitor:
    """Samples the host's steal share every *interval* seconds.

    On a shared host the hypervisor takes a share of the CPU, often in
    bursts of seconds, and every latency measured then shows the
    neighbours, not the program: runs at 3% mean steal measured stream
    freshness 50-80% higher.  An interval is *quiet* when it and the
    one before stole at most ``STEAL_LIMIT`` or at most the run's median
    interval, so the quietest half of the run always counts.
    :meth:`quiet` keeps the samples taken in quiet intervals, unless
    that leaves fewer than a quarter of them.  Where the host does not
    report steal time every sample is kept.
    """

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.ends: list[float] = []
        self.steal: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-monitor", daemon=True)
        self._limit = STEAL_LIMIT

    def _run(self) -> None:
        before = host_ticks()
        while not self._stop.wait(self.interval):
            after = host_ticks()
            share = steal_share(before, after)
            self.ends.append(time.monotonic())
            self.steal.append(0.0 if share is None else share)
            before = after

    def __enter__(self) -> HostMonitor:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(5.0)
        if self.steal:
            self._limit = max(STEAL_LIMIT, float(np.median(self.steal)))

    def _noisy(self, i: int) -> bool:
        return self.steal[min(i, len(self.steal) - 1)] > self._limit

    def is_quiet(self, t: float) -> bool:
        """No steal burst in the interval holding *t* or the one before."""
        if not self.ends:
            return True
        i = bisect.bisect_left(self.ends, t)
        return not (self._noisy(i) or (i > 0 and self._noisy(i - 1)))

    def quiet(self, times, values) -> list:
        """*values* whose *times* fell in quiet intervals (see above)."""
        kept = [v for t, v in zip(times, values) if self.is_quiet(t)]
        return kept if 4 * len(kept) >= len(values) else list(values)

    def quiet_summary(self, times, values) -> dict:
        """:func:`latency_summary` of the quiet *values*."""
        kept = self.quiet(times, values)
        summary = latency_summary(kept, measured=len(values))
        summary["measured"] = len(values)
        return summary

    def quiet_rate(self, times, start: float, end: float) -> float:
        """Events per second in the quiet part of ``[start, end]``."""
        bounds = [start, *[t for t in self.ends if start < t < end], end]
        quiet_s = sum(hi - lo for lo, hi in zip(bounds, bounds[1:]) if self.is_quiet(hi))
        if 4 * quiet_s < end - start:
            return len(times) / (end - start)
        return sum(self.is_quiet(t) for t in times if start < t <= end) / quiet_s

    def summary(self) -> dict:
        return {
            "steal_mean": float(np.mean(self.steal)) if self.steal else None,
            "quiet_limit": self._limit,
            "noisy_intervals": sum(share > self._limit for share in self.steal),
            "intervals": len(self.steal),
        }


def fingerprint() -> dict:
    """The machine facts results are keyed on; never compare across them."""
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "implementation": sys.implementation.name,
    }
