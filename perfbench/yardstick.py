"""A host-speed yardstick that runs inside the timed window.

The benchmark host is a few cores of a shared machine whose speed
drifts by up to 2x over tens of seconds, also for pure CPU work, so
the raw seconds of two runs of the same code differ by more than any
useful bound. The yardstick measures that speed where the program
runs: a one-shot interval timer interrupts the timed window every
`INTERVAL_S`, and the signal handler times two fixed pure-Python
reference loops in the program's own thread. The loops are stdlib only
and share no code with the program, so no program change moves them.

The two loops bracket the program: in a slow phase the compute loop
(small integers, nothing beyond the first-level cache) slows less than
the program does, and the memory loop (a dependent walk over a buffer
eight times the second-level cache) as much or more. Scaled by the
geometric mean of the two, repeated passes of one analysis varied by
1-4 % (coefficient of variation) where their raw seconds varied by
9-19 %.

`normalize` takes the handler's time out of the window and divides the
rest by that slowdown, each loop's mean time over its reference time:
the result is the window's seconds on a host where the loops take
their reference times. The mean, not the median: ticks are evenly
spaced in the program's time, so a mean loop time follows the host's
mean slowdown over the window, short stalls included. Two runs of the
same code then agree to a few percent across the host's speed phases,
and a program twice as fast still reads half the seconds.
"""

from __future__ import annotations

import math
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

INTERVAL_S = 0.04
COMPUTE_ITERATIONS = 30_000
MEMORY_STEPS = 15_000
BUFFER = bytes(range(256)) * (1 << 16)  # 16 MiB, resident from import
BUFFER_MIB = len(BUFFER) / (1 << 20)
MASK = len(BUFFER) - 1
# Near each loop's time on a lightly loaded 2-vCPU host, Python 3.11;
# fixed, so that normalized seconds are comparable between runs.
COMPUTE_REFERENCE_S = 0.0018
MEMORY_REFERENCE_S = 0.0024
MIN_SAMPLES = 3


def compute_loop() -> int:
    s = 0
    for i in range(COMPUTE_ITERATIONS):
        s += i * i % 7
    return s


def memory_loop() -> int:
    idx = 1
    for _ in range(MEMORY_STEPS):
        idx = (idx * 1103515245 + 12345 + BUFFER[idx]) & MASK
    return idx


def time_loops() -> tuple[float, float]:
    """One sample: the compute loop's and the memory loop's seconds."""
    t0 = perf_counter()
    compute_loop()
    t1 = perf_counter()
    memory_loop()
    return t1 - t0, perf_counter() - t1


def at_reference_speed(seconds: float,
                       samples: list[tuple[float, float]]) -> float:
    """`seconds` taken while the loops took `samples`, rescaled."""
    compute = statistics.fmean(s[0] for s in samples) / COMPUTE_REFERENCE_S
    memory = statistics.fmean(s[1] for s in samples) / MEMORY_REFERENCE_S
    return seconds / math.sqrt(compute * memory)


class Yardstick:
    """Loop times taken inside one timed window."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    @contextmanager
    def running(self):
        """Sample the loops every `INTERVAL_S` for the duration."""
        def tick(_signum, _frame):
            self.samples.append(time_loops())
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def program_s(self, wall: float) -> float:
        """The window's seconds less the handler's."""
        return wall - sum(a + b for a, b in self.samples)

    def normalize(self, wall: float) -> float:
        """The program's seconds at the loops' reference times."""
        program = self.program_s(wall)
        samples = self.samples
        if len(samples) < MIN_SAMPLES:  # a window shorter than a few ticks
            samples = samples + [time_loops() for _ in range(MIN_SAMPLES)]
        return at_reference_speed(program, samples)
