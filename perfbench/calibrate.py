"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the speed of the CPU a run gets drifts over
seconds to minutes (by up to 1.7x on a 2-core Xeon VM), far more than the
package's speed relative to that CPU does. So every timed block is paired
with a fixed calibration kernel run right next to it, and timings are
reported scaled to a machine on which the kernel takes ``KERNEL_REF_MS``:

    reported = measured * KERNEL_REF_MS / kernel_ms

The kernel calls nothing in ``loedetect``, so a change to the package cannot
move it. On an unloaded machine it runs in about ``KERNEL_REF_MS`` and
reported values are close to raw ones.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

KERNEL_REF_MS = 1.0


class _Record:
    __slots__ = ("key", "value", "text")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.text = None


_M = np.arange(12.0).reshape(3, 4)
_P = np.eye(4)

perf = time.perf_counter


def kernel() -> float:
    """About 1 ms of the work the package's hot paths are made of.

    Small objects, float formatting and parsing, sorting and dicts, then
    small numpy arrays built, multiplied, symmetrised and clipped. A kernel
    this varied slows with a loaded machine about as much as the package
    does; a tight single-operation loop slows much more.
    """
    records = [_Record((i * 7919) % 211, i * 0.37) for i in range(120)]
    for r in records:
        r.text = repr(r.value)
    records.sort(key=lambda r: r.key)
    total = sum(float(x) for x in ",".join(r.text for r in records).split(","))
    buckets: dict[int, list[float]] = {}
    for r in records:
        buckets.setdefault(r.key % 17, []).append(math.sqrt(r.value + 1.0))
    x = np.ones(4)
    for i in range(40):
        w = np.array([1.0, 2.0, 3.0, float(i)])
        y = (_M * np.square(w)[None, :]) @ x
        p = _P + 0.1 * np.eye(4)
        p = 0.5 * (p + p.T)
        x = np.clip(x + 0.01 * y[:1], 0.0, 1.5)
        total += float(y[0]) + float(np.isnan(p).any())
    return total + len(buckets)


def slowdown(repeats: int = 3) -> float:
    """How much slower than the reference machine this one runs right now.

    The median of ``repeats`` kernel calls, over ``KERNEL_REF_MS``.
    """
    times = []
    for _ in range(repeats):
        t0 = perf()
        kernel()
        times.append(perf() - t0)
    return statistics.median(times) * 1e3 / KERNEL_REF_MS


class Sampler:
    """Runs the kernel every ``interval`` seconds of wall time while active.

    For operations whose loop lives inside the package (a CLI job, a
    simulated flight), the caller cannot put the kernel between steps, so an
    interval timer interrupts the operation instead. The Python-level signal
    handler runs in the calling thread between bytecodes; its own time is
    recorded so that it can be taken out of the operation's wall time.
    """

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.ticks: list[tuple[float, float]] = []  # (start, duration) of each kernel run

    def _handler(self, signum, frame) -> None:
        t0 = perf()
        kernel()
        self.ticks.append((t0, perf() - t0))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def within(self, start: float, end: float) -> tuple[float, list[float]]:
        """Kernel seconds spent inside [start, end] and the slowdowns seen there."""
        inside = [(t, d) for t, d in self.ticks if start <= t < end]
        return sum(d for _, d in inside), [d * 1e3 / KERNEL_REF_MS for _, d in inside]
