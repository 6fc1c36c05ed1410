"""Host-speed calibration: a fixed pure-Python kernel timed beside the analyses.

The benchmark runs on a shared virtual machine whose speed for the same
pure-Python code jumps between states up to 1.7x apart, staying in one for
tens of milliseconds to minutes, with the process on the CPU the whole time
(its CPU time equals its wall time).  Neither longer runs nor the fastest
passes average that out.  The worker therefore times this short kernel
right before each analysis and once after the last, and ``run.py`` scales
each analysis's time by ``REFERENCE_S`` over the mean of the kernel times on
either side of it: a timing metric reads "milliseconds at the host speed at
which the kernel takes ``REFERENCE_S``".  A change to the program moves the
analyses' times and not the kernel's, so it shows in full.

The kernel does what the program does most: it builds small tuples, looks
them up in dicts and sets, does integer arithmetic and sorts.  It imports
nothing from the program, and the cyclic collector is paused while it runs,
so garbage the program leaves behind does not slow it.
"""

import gc
import time

#: Kernel time at the reference host speed.  Only a unit: it is about the
#: kernel's median time on the machine the reference figures come from, so
#: scaled times stay close to wall times there.
REFERENCE_S = 0.0015


def _kernel():
    counts = {}
    acc = 0
    for i in range(2000):
        t = (i % 7, i % 11, i % 13)
        counts[t] = counts.get(t, 0) + i
        acc += (t[0] * t[1] - t[2]) // 3
    seen = set()
    out = []
    for a in range(8):
        for b in range(8):
            for c in range(6):
                if (a * 3 + b * 2 - c) % 5 == 0:
                    seen.add((a, b, c))
                    out.append(tuple(sorted((a, b, c))))
    return acc + len(sorted(counts)) + len(seen) + len(sorted(set(out)))


def sample():
    """Seconds one kernel call takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
