"""Layer tracing for the benchmark, installed from outside the program.

`Tracer.install()` replaces public slidscan functions at module boundaries
with timing wrappers and `Tracer.restore()` puts the originals back, so the
untraced and traced iterations of one run execute the same program code.

Every wrapped call adds to its layer's call count, inclusive time and self
time (inclusive minus the time of wrapped calls made inside it). Per-order
layers stop there; per-pool and per-stage layers also record a span
(id, parent id, iteration, name, start, end), kept in memory and written out
by the caller when the run ends.

A wrapper costs about a microsecond and a half per call, most of it outside
the interval it times, where it would land in the caller's self time: with
two wrapped calls per order the streaming loop would look far heavier than
it is. `calibrate` measures the wrapper's cost inside and outside its timed
interval; each call's time is then reduced by the inside part, and each
caller's self time by the outside part per wrapped call.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (defining module, attribute, layer name, record a span). `install` patches
# every attribute of every loaded slidscan module that holds the function,
# the defining module's included; methods are patched on their class. No
# layer is ever called from inside itself, so inclusive times never double
# count.
TRACE_POINTS = (
    ("slidscan.pipeline", "stream_detect", "pipeline.stream_detect", True),
    ("slidscan.pipeline", "write_verdicts_csv", "pipeline.write_verdicts_csv", True),
    ("slidscan.dataio", "ingest", "dataio.ingest", True),
    ("slidscan.dataio", "order_from_row", "dataio.order_from_row", False),
    ("slidscan.metrics", "ProfitTracker.add", "metrics.tracker_add", False),
    ("slidscan.ledger", "advance_state", "ledger.advance_state", False),
    ("slidscan.metrics", "profit_report", "metrics.profit_report", True),
    ("slidscan.validators", "classify_pool", "validators.classify_pool", True),
    ("slidscan.features", "extract_with_report", "features.extract", True),
    ("slidscan.features", "write_features_csv", "features.write_features_csv", True),
    ("slidscan.earlywarn", "sweep", "earlywarn.sweep", True),
    ("slidscan.earlywarn", "prepare_windows", "earlywarn.prepare_windows", True),
    ("slidscan.earlywarn", "train", "earlywarn.train", True),
    ("slidscan.models", "fit_forest", "models.fit_forest", True),
    ("slidscan.models", "fit_logistic", "models.fit_logistic", True),
    ("slidscan.models", "ForestModel.scores", "models.scores", True),
    ("slidscan.models", "LogisticModel.scores", "models.scores", True),
    ("slidscan.analysis", "enrich", "analysis.enrich", True),
    ("slidscan.analysis", "analyze", "analysis.analyze", True),
    ("slidscan.analysis", "write_report_csv", "analysis.write_report_csv", True),
)

# Counters read from a traced call's return value.
RESULT_COUNTERS = {
    "pipeline.stream_detect": ("pipeline.orders_read",
                               lambda result: result[0].orders_read),
}

LAYERS = sorted({name for _, _, name, _ in TRACE_POINTS})
MODULES = sorted({name.split(".")[0] for name in LAYERS})


class Tracer:
    def __init__(self):
        self._patches = []
        self._stack = []   # open calls: [child seconds, enclosing span id, child calls]
        self.inside_s = 0.0    # wrapper cost inside its own timed interval
        self.outside_s = 0.0   # wrapper cost charged to the caller
        self._span_ids = itertools.count(1)
        self.iteration = 0
        self.spans = []
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = Counter()

    def reset(self) -> None:
        """Clear the per-iteration aggregates; spans accumulate."""
        self.calls.clear()
        self.inclusive.clear()
        self.self_time.clear()
        self.counters.clear()

    def install(self) -> None:
        for module, _, _, _ in TRACE_POINTS:
            importlib.import_module(module)
        program = [module for key, module in list(sys.modules.items())
                   if key == "slidscan" or key.startswith("slidscan.")]
        for module, path, name, span in TRACE_POINTS:
            owner = sys.modules[module]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, span)
            holders = [(owner, attr)] if classes else [
                (loaded, key) for loaded in program
                for key, value in vars(loaded).items() if value is original]
            for holder, key in holders:
                setattr(holder, key, wrapper)
                self._patches.append((holder, key, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name: str, span: bool):
        stack, calls = self._stack, self.calls
        inclusive, self_time = self.inclusive, self.self_time
        spans, span_ids = self.spans, self._span_ids
        counter, count = RESULT_COUNTERS.get(name, (None, None))

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, next(span_ids) if span else parent, 0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                if count is not None:
                    self.counters[counter] += count(result)
                return result
            finally:
                end = perf_counter()
                elapsed = end - start - self.inside_s
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][2] += 1
                calls[name] += 1
                inclusive[name] += elapsed
                self_time[name] += elapsed - frame[0] - frame[2] * self.outside_s
                if span:
                    spans.append((frame[1], parent, self.iteration, name,
                                  start, end))
        return traced

    def calibrate(self, calls: int = 20_000, repeats: int = 5) -> float:
        """Measure the wrapper's cost per call; return it in seconds.

        Calls carry eight arguments, as the per-order layers do; argument
        passing is part of the wrapper's cost.
        """
        def noop(a, b, c, d, e, f, g, h):
            pass

        def loop(fn):
            for _ in range(calls):
                fn(1, 2, 3, 4, 5, 6, 7, 8)

        self.inside_s = self.outside_s = 0.0
        inside, outside = [], []
        for _ in range(repeats):
            start = perf_counter()
            loop(noop)
            bare = perf_counter() - start
            child = self._wrap(noop, "calibration.child", False)
            self._wrap(lambda: loop(child), "calibration.parent", False)()
            total = self.inclusive["calibration.parent"] - bare
            inside.append(self.inclusive["calibration.child"] - bare)
            outside.append(total - inside[-1])
            self.reset()
        self.inside_s = max(0.0, statistics.median(inside)) / calls
        self.outside_s = max(0.0, statistics.median(outside)) / calls
        return self.inside_s + self.outside_s

    def snapshot(self) -> dict:
        """Per-layer calls, inclusive and self seconds since the last reset."""
        return {name: {"calls": self.calls[name],
                       "s": self.inclusive[name],
                       "self_s": self.self_time[name]}
                for name in LAYERS} | {"counters": dict(self.counters)}
