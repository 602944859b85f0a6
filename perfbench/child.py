"""Timed body of one benchmark run, in a process of its own.

run.py starts this after generating the corpus, so the peak RSS reported
here covers the body alone. It runs the workload's `slidscan` command lines
in process through `slidscan.cli.main`, once untimed to warm up and then
repeatedly for the requested seconds, and writes a JSON result file.

Untraced samples run under a SpeedProbe (probe.py) and are reported twice:
as wall seconds net of the probe, and in reference slices at the host speed
the probe saw.

With --trace 1 untraced and traced iterations alternate. The tracer is
calibrated right before each traced iteration, the per-layer figures come
from the traced iteration with the median wall time, and the spans of every
traced iteration go to a JSONL file.

Usage: python3 perfbench/child.py --workload NAME --corpus DIR --out DIR
       --seed N --seconds S --trace 0|1 --result FILE
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


class BodyFailed(Exception):
    pass


def run_body(main, commands) -> None:
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise BodyFailed(f"slidscan {argv[0]} exited with {code}")


def output_bytes(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def main() -> int:
    parser = argparse.ArgumentParser()
    for flag in ("--workload", "--corpus", "--out", "--result", "--src"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    sys.path.insert(0, str(HERE))
    from slidscan.cli import main as cli_main
    import workloads
    from layertrace import Tracer
    from probe import SpeedProbe

    workload = workloads.WORKLOADS[args.workload]
    corpus = workloads.Corpus(Path(args.corpus), {}, {})
    out = Path(args.out)
    commands = workload.commands(corpus, out, args.seed)
    result = {"untraced_s": [], "untraced_ref": [], "traced_s": [],
              "identical": True, "error": None}
    tracer = Tracer() if args.trace else None
    layers_by_iteration = []
    try:
        run_body(cli_main, commands)                 # warm-up, not timed
        reference = output_bytes(out)
        deadline = perf_counter() + args.seconds
        iteration = 0
        while perf_counter() < deadline or not result["untraced_s"] \
                or (tracer and not result["traced_s"]):
            traced = bool(tracer) and iteration % 2 == 1
            if traced:
                tracer.iteration = iteration
                call_overhead_s = tracer.calibrate()
                tracer.install()
            try:
                if traced:
                    start = perf_counter()
                    run_body(cli_main, commands)
                    elapsed = perf_counter() - start
                else:
                    with SpeedProbe() as probe:
                        start = probe.now()
                        run_body(cli_main, commands)
                        elapsed = probe.now() - start
            finally:
                if traced:
                    tracer.restore()
            if traced:
                result["traced_s"].append(elapsed)
                layers_by_iteration.append((tracer.snapshot(), call_overhead_s))
            else:
                result["untraced_s"].append(elapsed)
                result["untraced_ref"].append(probe.ref_units(elapsed))
            if output_bytes(out) != reference:
                result["identical"] = False
            iteration += 1
    except Exception:   # reported to run.py, which fails every pool
        result["error"] = traceback.format_exc()

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if layers_by_iteration:
        traced = result["traced_s"]
        median_index = traced.index(statistics.median_low(traced))
        result["layers"], result["call_overhead_s"] = layers_by_iteration[median_index]
        result["layers_wall_s"] = traced[median_index]
        with open(Path(args.result).with_suffix(".spans.jsonl"), "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(dict(zip(
                    ("id", "parent", "iteration", "name", "start", "end"), span))) + "\n")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
