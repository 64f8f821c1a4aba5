"""The machine's current speed, measured by a fixed reference kernel.

On a shared machine the same op can run up to 1.5 times slower for stretches
of seconds to minutes, in step with any other pure-Python work.  The
benchmark therefore times `kernel()`, a fixed piece of pure-Python work that
shares no code with mldhat, right after every op, and rescales the op's
latency to a machine on which the kernel takes REFERENCE_S:

    normalised = latency * REFERENCE_S / (median kernel time around the op)

A change to mldhat moves the op's latency and not the kernel's, so it shows
in full; a slow stretch of the machine moves both and cancels.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# About the kernel's time on a 2-vCPU Intel Xeon at 2.0 GHz with Python
# 3.11.7 at its usual speed, so that normalised times read roughly as seconds
# on that machine.
REFERENCE_S = 0.0004
NEIGHBOURS = 2  # kernel samples on each side of an op that set its speed


def kernel():
    """Lattice-point work of the kind mldhat does: tuples, small ints, a set."""
    acc = 0
    points = set()
    for x in range(-6, 7):
        for y in range(-6, 7):
            for z in range(-3, 4):
                d = 3 * x - 2 * y + z
                if d > 0:
                    points.add((x, y, z))
                acc += d * d
    return acc, len(points)


def time_kernel():
    started = perf_counter()
    kernel()
    return perf_counter() - started


def kernel_median(samples=5):
    return statistics.median(time_kernel() for _ in range(samples))


def normalise(latencies, kernels):
    """Each latency rescaled by the median kernel time of the ops around it."""
    out = []
    for j, seconds in enumerate(latencies):
        local = statistics.median(kernels[max(0, j - NEIGHBOURS):j + NEIGHBOURS + 1])
        out.append(seconds * REFERENCE_S / local)
    return out
