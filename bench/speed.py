"""A machine-speed kernel, so that timings follow the program, not the host.

On a shared host the same pure-Python work runs up to 2.3 times as fast in
some minutes as in others, and the phases often last longer than a run.  A run
therefore times a fixed kernel that never touches phl, between operations,
and scales each timing by ``REFERENCE_S / kernel time``: the result is the
time the operation would take at the speed at which one kernel takes
``REFERENCE_S``.  A change to phl moves the scaled time by the same share
as the raw time; a change in the host's speed moves both the kernel and the
operation, and mostly cancels out.

Host slow-downs do not hit every kind of work alike, and which kind they
hit most changes from phase to phase.  So the kernel mixes, in about equal
shares of its time, three kinds of work phl's time goes to: lookups in a
table larger than a core's L2 cache, in random order; short-lived small
dicts, sets and tuples of string labels; and plain interpreter arithmetic.
On the workloads' own operations, timed against each part over seven
minutes, the mix followed the host better than any one part.  The collector
is off while the kernel runs, so the size of phl's heap does not reach its
time.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

#: Kernel time that defines the reference speed: about what one kernel
#: takes on the 2-vCPU Xeon VM the reference figures come from, in its
#: faster minutes.
REFERENCE_S = 0.014

#: A run takes a kernel sample at least this often while operations run.
EVERY_S = 0.25

#: An operation is scaled by the median of this many samples, those
#: nearest in time to its midpoint.  No sample runs inside an operation, so
#: a long one is scaled by samples on both sides of it, a short one by about
#: a second of samples around it.
NEAREST = 9

TABLE_SIZE = 25_000
LOOKUPS = 12_500
SMALL_ROUNDS = 400
ARITHMETIC_ROUNDS = 100_000


def _kernel(table, order):
    total = 0
    for key in order:
        total += table[key][1]
    for i in range(SMALL_ROUNDS):
        cells = {f"v{j}": (j, f"e{i}") for j in range(12)}
        total += len(tuple(sorted(set(cells))))
    for i in range(ARITHMETIC_ROUNDS):
        total += i * i % 7
    return total


class SpeedKernel:
    """Kernel samples of one run; ``factor_over`` turns them into a scale."""

    def __init__(self):
        self.table = {key: (key, i) for i, key in enumerate(f"cell{i}" for i in range(TABLE_SIZE))}
        self.order = list(self.table)
        random.Random(0).shuffle(self.order)
        del self.order[LOOKUPS:]
        self.last = perf_counter()
        self.samples = []  # (end time, kernel seconds)

    def sample(self):
        """Time one kernel, with the collector off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = perf_counter()
            _kernel(self.table, self.order)
            took = perf_counter() - started
        finally:
            if enabled:
                gc.enable()
        self.last = perf_counter()
        self.samples.append((self.last, took))
        return took

    def due(self):
        return perf_counter() - self.last >= EVERY_S

    def factor_over(self, start, end):
        """Scale from raw seconds to seconds at the reference speed for
        work done between ``start`` and ``end``."""
        mid = (start + end) / 2
        near = sorted(self.samples, key=lambda sample: abs(sample[0] - mid))[:NEAREST]
        return REFERENCE_S / statistics.median(took for _, took in near)
