"""Machine-speed calibration for the end-to-end times.

Small shared machines change speed by up to 2x over seconds to minutes:
on the 2-core box this benchmark was built on, the median time of one
fixed set of sweep-small ops moved between 2.6 and 4.9 ms from one 5 s
window to the next, and a fixed numpy kernel moved with it (their ratio
varied about four times less than either).  So right after every op
(outside its timing) the benchmark times a fixed kernel that does not
touch maxentutil, and scales the op's time by REFERENCE_MS over the
median of the last WINDOW kernel samples.  A change to maxentutil moves
scaled times exactly as much as raw ones; a machine that slows down slows
an op and the kernel next to it alike, and leaves the scaled time where
it was.  Raw times are kept in every run's result file.

That holds for ops that run in the benchmark's own process.  A cli op runs
in a child for half a second or more, most of it interpreter start and
imports, and the speed the kernel sees in this process does not follow
the child's: over 10 seeds, per-op kernel scaling widened the spread of
cli's op_ms_p90 from 0.17 unscaled to 0.29, and scaling by the run's
median kernel time still left op_ms_p50 spreading by 0.21.  So after
every cli op the benchmark times a fresh interpreter that runs
REFERENCE_IMPORT (ChildCalibration), the same kind of work as the op, and
scales the op by REFERENCE_CHILD_MS over the median of the last WINDOW
of those.

Set-up is mostly interpreter and import work, which the kernel does not
track well: over 10 seeds the kernel-scaled set-up time spread by up to
0.39 (quartile distance over median).  So each set-up, timed in a fresh
interpreter, is followed by a fresh interpreter that times
REFERENCE_IMPORT, imports of numpy and scipy that do not touch
maxentutil, and the median set-up time is scaled by REFERENCE_IMPORT_S
over the median reference time.  The reference follows slow changes of
machine speed; from one import to the next, both times also jitter by
about 15% independently, which only more set-ups would average out.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median kernel time on the reference machine (2 cores, Python 3.11,
#: numpy 2.4 on one OpenBLAS thread), so scaled times read as milliseconds
#: there.
REFERENCE_MS = 0.3
#: Kernel samples in the rolling median that scales each op.
WINDOW = 3
#: Code run in a fresh interpreter that prints the reference import time,
#: and that time on the reference machine, in seconds.
REFERENCE_IMPORT = ("import time; t = time.perf_counter(); import numpy, scipy.special; "
                    "print(time.perf_counter() - t)")
REFERENCE_IMPORT_S = 0.35
#: Wall time of a fresh interpreter running REFERENCE_IMPORT, seen from the
#: parent, in milliseconds, at about the machine speed REFERENCE_MS stands for.
REFERENCE_CHILD_MS = 400.0


class Calibration:
    reference_ms = REFERENCE_MS

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((4, 128))
        self._x = rng.standard_normal(4)
        self._eye = np.eye(4)
        self.samples: list[float] = []

    def _kernel(self):
        # The solver's kind of work: small exp, dot and solve calls from Python.
        a, x, total = self._a, self._x, 0.0
        for _ in range(15):
            e = x @ a
            top = e.max()
            total += float(np.log(np.exp(e - top).sum())) + top
            total += float(np.linalg.solve(a @ a.T + self._eye, x)[0])
        return total

    def sample(self, n=1):
        for _ in range(n):
            self._kernel()  # warms the caches the op may have evicted
            t0 = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - t0)

    def kernel_ms(self):
        return 1e3 * statistics.median(self.samples)

    def scale(self, window=WINDOW):
        """Factor that turns a wall time taken just before the latest
        `window` samples into a reference time."""
        return self.reference_ms / (1e3 * statistics.median(self.samples[-window:]))


class ChildCalibration(Calibration):
    """Calibration for ops that run in a child: the kernel is a fresh
    interpreter running REFERENCE_IMPORT, started by `run_child(argv)`."""

    reference_ms = REFERENCE_CHILD_MS

    def __init__(self, run_child):
        self.run_child = run_child
        self.samples: list[float] = []

    def sample(self, n=1):
        for _ in range(n):
            t0 = time.perf_counter()
            self.run_child(["-c", REFERENCE_IMPORT])
            self.samples.append(time.perf_counter() - t0)
