"""Check the benchmark on a held-out seed against the default seed.

Usage, from the repository root:

    python3 perfbench/heldout.py

For every workload of BENCHMARK.json it runs perfbench/run.py for the
benchmark's run_seconds with the default seed and with the held-out seed,
untraced and traced, and checks that both seeds report the same metric
names, that no operation fails, and that the module shares of the traced
runs come in the same order. Two modules count as out of
order only when each seed puts a different one ahead by more than
TIE_POINTS percentage points; closer shares are ties that run-to-run noise
can swap. Exits 1 if any check fails.

Seed 1 is the seed used while writing changes; seed 7919 is kept for
confirming them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
HELDOUT_SEED = 7919
TIE_POINTS = 3.0


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit "
                           f"{proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def inversions(a: dict, b: dict) -> list:
    """Module pairs ranked the other way round, beyond a tie, by the two runs."""
    found = []
    for x, y in combinations(sorted(a), 2):
        da, db = 100 * (a[x] - a[y]), 100 * (b[x] - b[y])
        if (da > TIE_POINTS and db < -TIE_POINTS) or (da < -TIE_POINTS and db > TIE_POINTS):
            found.append(f"{x} vs {y}: {da:+.1f} / {db:+.1f} points")
    return found


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        shares = {}
        for trace in (0, 1):
            results = {seed: run(workload, seed, spec["run_seconds"], trace)
                       for seed in (DEFAULT_SEED, HELDOUT_SEED)}
            default, heldout = results[DEFAULT_SEED], results[HELDOUT_SEED]
            if set(default["metrics"]) != set(heldout["metrics"]):
                problems.append(f"{workload} trace {trace}: metric names differ")
            for seed, result in results.items():
                if result["failed"] or not result["correct"]:
                    problems.append(f"{workload} seed {seed} trace {trace}: "
                                    f"{result['failed']} of {result['attempted']} failed")
                if trace:
                    shares[seed] = {k[len("share."):]: v["value"]
                                    for k, v in result["metrics"].items()
                                    if k.startswith("share.")}
        swapped = inversions(shares[DEFAULT_SEED], shares[HELDOUT_SEED])
        problems += [f"{workload}: layer order differs: {s}" for s in swapped]
        order = sorted(shares[HELDOUT_SEED], key=shares[HELDOUT_SEED].get, reverse=True)
        print(f"{workload}: held-out layer order " + ", ".join(
            f"{m} {100 * shares[HELDOUT_SEED][m]:.1f}%" for m in order
            if shares[HELDOUT_SEED][m] >= 0.01), flush=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("held-out check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
