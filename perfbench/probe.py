"""Host-speed probe: measure work in units of a fixed reference slice.

On a shared 2-core virtual machine the speed at which Python runs can change
by up to 2x from one second to the next, so raw wall times spread by 20-40%
between runs. SpeedProbe samples that speed while the measured work runs;
dividing by it leaves a figure that spreads by a few percent, and that still
moves in proportion to the work's own cost.

The reference slice runs with the cyclic garbage collector off. It shares
the measured work's heap, so a collection falling inside a slice would cost
more when the work keeps more objects alive, slow the slice and divide part
of that cost back out. With the collector off, a collection the slice's
allocations make due runs at the work's next allocation and is charged to
the work.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
from time import perf_counter

import numpy as np

# A fixed slice (about 5 ms) of the work slidscan's hot paths are made of:
# JSON decode, dict updates and float arithmetic, then about a tenth of the
# time in small-array numpy calls like the classifiers' split search. When the
# host slows down, numpy calls slow down less than interpreted code, and so
# does the sweep's body, which trains classifiers. Without that tenth, the
# slice slowed down more than that body: `window-sweep` read 0.9% lower for
# every 10% the host ran slower. With it, the slope has no steady sign: it
# ranged from -0.7% to +1.6% per 10% over three workloads and twenty runs.
_REFERENCE_ROW = json.dumps({"timestamp": 1_600_000_000, "category": "Buy",
                             "sender": "0x" + "ab" * 20, "y_paired": "1234.5678",
                             "y_base": "2.25", "price_base": 1.0})
_rng = np.random.default_rng(0)
_REFERENCE_COLUMN = _rng.random(300)
_REFERENCE_LABELS = _rng.random(300) < 0.1
PROBE_PERIOD_S = 0.1
# The reference speed, one slice per 5 ms: a round figure inside the
# 3.2-5.7 ms a slice took on the 2-core virtual machine the bounds were set on.
REFERENCE_SLICE_S = 0.005


def reference_slice() -> float:
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        totals = {}
        for i in range(1000):
            row = json.loads(_REFERENCE_ROW)
            key = i & 255
            totals[key] = totals.get(key, 0.0) + float(row["y_base"]) * row["price_base"]
        for _ in range(30):
            np.cumsum(_REFERENCE_LABELS[np.argsort(_REFERENCE_COLUMN)])
        return perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """Time a reference slice at entry, at exit and every PROBE_PERIOD_S of
    wall time in between (SIGALRM), to see how fast the host runs Python.

    Work's cost in reference slices is its time net of the probe times the
    mean of 1/slice time: slices are evenly spaced in wall time, so this
    weights each stretch of the work by the speed seen during it.
    """

    def __enter__(self):
        self.slices = [reference_slice()]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def _tick(self, signum, frame):
        start = perf_counter()
        self.slices.append(reference_slice())
        self.spent += perf_counter() - start

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.slices.append(reference_slice())

    def now(self) -> float:
        """A clock that stops while the probe runs."""
        return perf_counter() - self.spent

    def ref_units(self, seconds: float) -> float:
        """`seconds` of `now()` time in reference slices at the speeds seen."""
        return seconds * statistics.fmean(1 / s for s in self.slices)

    def reference_seconds(self, seconds: float) -> float:
        """`seconds` of `now()` time as seconds at the reference speed."""
        return self.ref_units(seconds) * REFERENCE_SLICE_S
