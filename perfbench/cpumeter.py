"""CPU time corrected for contention from other tenants of the host.

On a shared host the same work takes more CPU time while another tenant
loads the sibling hyperthread or the shared caches.  On a 2-vCPU Intel Xeon
VM that load comes and goes within a fraction of a second and slows code by
up to about 1.9x, and how often it comes drifts over minutes, so raw CPU
seconds of identical passes of a few seconds spread by 10-20%, and runs made
minutes apart by more.

The meter samples the host's speed while the measured code runs.  Every
``TICK_S`` CPU seconds a SIGPROF handler times one of three small
calibration kernels (pure-Python arithmetic, numpy on a 4096-element array,
numpy calls on a 64-element array), in rotation.  A kernel's CPU time over
its time on an uncontended core (``KERNEL_NS``) is the slowdown it saw; the
mean of the three kernels' latest slowdowns is the factor by which the CPU
time since the previous tick is divided.  The kernels' own CPU time is left
out of every measurement.

While the meter runs, Linux keeps the process CPU clock only to the
scheduler tick (about 4 ms); step-level process CPU time is still accurate
to that, but span timing (``tracer.py``) must not run under the meter.
"""

from __future__ import annotations

import resource
import signal
import time

TICK_S = 0.01


def _kernels() -> tuple:
    """The three calibration kernels.  numpy is imported here, not when the
    module is, so that the thread caps set before it take effect."""
    import numpy as np
    wide = np.linspace(0.0, 1.0, 4096)
    narrow = np.linspace(0.0, 1.0, 64)

    def python_kernel() -> int:
        s = 0
        for i in range(1500):
            s += i * i
        return s

    def wide_kernel() -> float:
        y = np.sin(wide * 1.1) + wide * wide
        y = np.sin(y * 1.1) + y * y
        return float(y.sum())

    def narrow_kernel() -> float:
        s = 0.0
        for i in range(40):
            s += float((np.exp(narrow * i) * narrow)[3])
        return s

    return python_kernel, wide_kernel, narrow_kernel


# Thread CPU nanoseconds of each kernel on an uncontended core: about the
# 5th percentile of some 7,000 samples each, taken while the workloads ran
# on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4; the wide kernel's from
# a version twice as long, halved).  Only their ratios to the samples matter
# for comparisons on one host; they set the scale of the corrected seconds.
KERNEL_NS = (85_000.0, 86_000.0, 81_000.0)


def _process_cpu() -> float:
    """CPU seconds of this process (all threads) and its waited children."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


class CpuMeter:
    """Measures spans of code in corrected CPU seconds.

    ``start()`` installs the SIGPROF handler and timer, ``stop()`` removes
    them; in between, ``measure(fn)`` runs ``fn`` and returns its result
    with its raw and corrected CPU seconds."""

    def __init__(self) -> None:
        self._kernels = _kernels()
        self._slowdown = [1.0] * len(KERNEL_NS)
        self._ticks = 0
        self._cal_ns = 0            # calibration CPU, warm-up included
        self._mark = 0              # main-thread CPU at the end of the last tick
        self._plain_ns = 0          # main-thread CPU since the span began ...
        self._scaled_ns = 0.0       # ... and the same, divided by the slowdown
        self._old_handler = None

    def _factor(self) -> float:
        return sum(self._slowdown) / len(self._slowdown)

    def _tick(self, signum, frame) -> None:
        t0 = time.thread_time_ns()
        k = self._ticks % len(KERNEL_NS)
        self._kernels[k]()
        t1 = time.thread_time_ns()
        self._ticks += 1
        self._slowdown[k] = (t1 - t0) / KERNEL_NS[k]
        self._plain_ns += t0 - self._mark
        self._scaled_ns += (t0 - self._mark) / self._factor()
        self._cal_ns += t1 - t0
        self._mark = t1

    @property
    def calibration_s(self) -> float:
        """CPU seconds the calibration kernels have taken so far."""
        return self._cal_ns / 1e9

    def start(self) -> None:
        t0 = time.thread_time_ns()
        for k in self._kernels:   # warm each kernel's code paths once
            k()
        self._cal_ns += time.thread_time_ns() - t0
        self._old_handler = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._old_handler or signal.SIG_DFL)

    def measure(self, fn):
        """(fn's result, the exception it raised or None, raw CPU seconds,
        corrected CPU seconds).

        Raw is the CPU time of every thread and waited child, less the
        calibration kernels' time.  Corrected scales raw by the ratio of the
        main thread's corrected to its plain CPU time over the span."""
        c0, cal0 = _process_cpu(), self._cal_ns
        self._plain_ns, self._scaled_ns = 0, 0.0
        self._mark = time.thread_time_ns()
        try:
            value, exc = fn(), None
        except Exception as e:  # noqa: BLE001 - the caller counts it
            value, exc = None, e
        t_end = time.thread_time_ns()
        plain = self._plain_ns + (t_end - self._mark)
        scaled = self._scaled_ns + (t_end - self._mark) / self._factor()
        raw = max(0.0, _process_cpu() - c0 - (self._cal_ns - cal0) / 1e9)
        corrected = raw * (scaled / plain) if plain > 0 else raw
        return value, exc, raw, corrected
