"""Core-speed sampling: op times that do not move with the host's load.

On a shared host a vCPU's speed changes from one second to the next: a fixed
piece of work takes up to 1.7 times as long in a slow phase as in a fast one,
each vCPU on its own, with phases of about a second. A whole run of the
benchmark averages over too few phases to be steady, so the end-to-end op
times are measured in reference-core seconds instead of raw wall seconds.

While an op runs, a SIGALRM timer interrupts it every ``INTERVAL_S`` and runs
a fixed reference kernel in the same thread (so on the same vCPU, at the same
moment). Each stretch of the op between two samples counts as its wall time
times ``REFERENCE_KERNEL_S / kernel time``, the mean of the speed factors at
its two ends. The kernel's own time is left out. An op whose speed never
changes therefore reads ``wall * REFERENCE_KERNEL_S / kernel time``: on a core
where the kernel takes exactly ``REFERENCE_KERNEL_S``, the op's wall time.
The raw wall time is kept next to it for the record.

A change to the program leaves the kernel alone, so a program that does half
the work reads half the time. The kernel mixes interpreter work with small
numpy calls, as the program does; a slowdown that hits the two unequally is
what remains as noise.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.025
# The kernel's time on an uncontended core of the machine this benchmark was
# written on (a 2-vCPU VM, Python 3, numpy with one BLAS thread); in a slow
# phase it takes about 0.9 ms. Only the ratio of two runs matters.
REFERENCE_KERNEL_S = 0.53e-3
KERNEL_STEPS = 100


@dataclass(frozen=True)
class Timed:
    wall_s: float  # wall time of the op, the kernel's samples left out
    reference_s: float  # the same in reference-core seconds


class SpeedSampler:
    """Times calls in reference-core seconds. The timer runs only inside
    ``time``, and the previous SIGALRM handler is put back after each call."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((200, 30))
        self._samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self._busy = False

    def kernel(self) -> float:
        """Run the reference kernel once; returns its seconds."""
        a = self._a
        start = time.perf_counter()
        for i in range(KERNEL_STEPS):
            float(np.abs(a @ a[i % 200]).sum())
        return time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a late tick while a sample runs
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self._samples.append((start, self.kernel()))
        finally:
            self._busy = False

    def time(self, fn, *args) -> tuple[object, Timed]:
        """Call fn(*args); returns its result and its times. A sample right
        before and right after the call gives the speed at both ends."""
        before = self.kernel()
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        inside = [sample for sample in self._samples if sample[0] < end]
        return result, _reference_time(start, end, before, inside, self.kernel())


def _reference_time(start: float, end: float, before: float, inside, after: float) -> Timed:
    wall = reference = 0.0
    edge, speed = start, REFERENCE_KERNEL_S / before
    for sample_start, kernel_s in inside + [(end, after)]:
        stretch = max(0.0, sample_start - edge)
        next_speed = REFERENCE_KERNEL_S / kernel_s
        wall += stretch
        reference += stretch * (speed + next_speed) / 2
        edge, speed = sample_start + kernel_s, next_speed
    return Timed(wall, reference)
