"""slidscan benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload detect-stream --seed 1 --seconds 15 --trace 0

The run generates the workload's corpus from the seed through
`synth.build_corpus` and the `dataio` writers, three times, timed under the
speed probe of probe.py (the median is `setup_s`). It times the workload's
`slidscan` commands in a fresh child process (perfbench/child.py), checks
every output against the generator's truth and `synth.oracle_report`, and
prints a readable report followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
ones. Work files go to .perfbench-work/ under the current
directory; the full record of each run is kept in .perfbench-work/results/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 3
RUN_LIMIT_S = 170          # the whole run must end within 180 s


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_program():
    """Import slidscan from ./src, never from anywhere else."""
    if not (SRC / "slidscan" / "__init__.py").is_file():
        raise ImportError(f"no slidscan package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import slidscan

    if SRC.resolve() not in Path(slidscan.__file__).resolve().parents:
        raise ImportError(f"slidscan imported from {slidscan.__file__}, not {SRC}")


def setup(workload, seed: int, root: Path, keep_reference: bool):
    """Generate and write the corpus once; return (timings, Corpus).

    Mirrors `slidscan generate`: orders stream to JSONL pool by pool, then
    pools, profiles and labels. Only generation and writing are timed; the
    oracle reports used by the checks are computed between timed steps.
    `setup_s` is the timed part in seconds at the probe's reference speed,
    `raw_s` the same in wall seconds.
    """
    from slidscan import dataio, synth
    from slidscan.synth import oracle_report
    from probe import SpeedProbe
    from workloads import Corpus

    if root.exists():
        shutil.rmtree(root)
    corpus = Corpus(root, {}, {})
    gen_s = write_s = 0.0
    root.mkdir(parents=True)
    pools, profiles, labels = [], {}, []
    with SpeedProbe() as probe:
        scenarios = synth.build_corpus(workload.counts, seed, workload.overrides,
                                       sort_by_address=True)
        while True:
            t0 = probe.now()
            scenario = next(scenarios, None)
            t1 = probe.now()
            gen_s += t1 - t0
            if scenario is None:
                break
            dataio.write_orders_jsonl(scenario.orders, corpus.orders_file, append=True)
            write_s += probe.now() - t1
            pools.append(scenario.pool)
            profiles[scenario.pool.paired_address] = scenario.profile
            labels.append((scenario.pool.pool_address, scenario.true_label))
            corpus.orders += len(scenario.orders)
            if keep_reference:
                address = scenario.pool.pool_address
                corpus.truth[address] = scenario.true_label
                corpus.oracle[address] = oracle_report(scenario.orders, scenario.pool)
        t0 = probe.now()
        dataio.write_pools_jsonl(pools, corpus.pools)
        dataio.write_profiles_jsonl(dict(sorted(profiles.items())), corpus.profiles)
        with open(corpus.labels, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["pool_address", "true_label"])
            writer.writerows(sorted(labels))
        write_s += probe.now() - t0
    return {"setup_s": probe.reference_seconds(gen_s + write_s), "raw_s": gen_s + write_s,
            "gen_s": gen_s, "write_s": write_s}, corpus


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def provenance(seed: int, corpus, orders_sha256: str) -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"seed": seed, "orders_jsonl_sha256": orders_sha256, "orders": corpus.orders,
            "pools": len(corpus.truth), "git_sha": sha,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count()}


def layer_metrics(layers: dict, wall: float, overhead: float, orders: int,
                  setups: list, quality: dict) -> dict:
    """Per-layer metrics of one traced iteration.

    `wall` is that iteration's wall time less the tracer's estimated cost,
    the denominator of the module shares.
    """
    from layertrace import MODULES

    def get(name, key):
        return layers[name][key]

    def per(value, count):
        return value / count if count else 0.0

    median = statistics.median
    metrics = {
        "pipeline.stream_detect.s": get("pipeline.stream_detect", "s"),
        "pipeline.decode.self_s": get("pipeline.stream_detect", "self_s"),
        "pipeline.orders_read": layers["counters"].get("pipeline.orders_read", 0),
        "metrics.tracker_add.calls": get("metrics.tracker_add", "calls"),
        "metrics.tracker_add.self_s": get("metrics.tracker_add", "self_s"),
        "metrics.profit_report.s": get("metrics.profit_report", "s"),
        "ledger.advance_state.calls": get("ledger.advance_state", "calls"),
        "ledger.advance_state.s": get("ledger.advance_state", "s"),
        "ledger.advance_state.us_per_call": 1e6 * per(get("ledger.advance_state", "s"),
                                                      get("ledger.advance_state", "calls")),
        "ledger.replay_ratio": per(get("ledger.advance_state", "calls"), orders),
        "dataio.ingest.s": get("dataio.ingest", "s"),
        "dataio.ingest.us_per_order": 1e6 * per(get("dataio.ingest", "s"),
                                                get("dataio.order_from_row", "calls")),
        "dataio.order_from_row.calls": get("dataio.order_from_row", "calls"),
        "synth.generate.s": median(s["gen_s"] for s in setups),
        "dataio.write.s": median(s["write_s"] for s in setups),
        "features.extract.calls": get("features.extract", "calls"),
        "features.extract.s": get("features.extract", "s"),
        "features.extract.self_s": get("features.extract", "self_s"),
        "validators.classify_pool.calls": get("validators.classify_pool", "calls"),
        "validators.classify_pool.s": get("validators.classify_pool", "s"),
        "earlywarn.prepare_windows.s": get("earlywarn.prepare_windows", "s"),
        "earlywarn.train.calls": get("earlywarn.train", "calls"),
        "earlywarn.train.s": get("earlywarn.train", "s"),
        "models.fit_forest.s": get("models.fit_forest", "s"),
        "models.fit_logistic.s": get("models.fit_logistic", "s"),
        "models.scores.s": get("models.scores", "s"),
        "analysis.enrich.s": get("analysis.enrich", "s"),
        "analysis.analyze.s": get("analysis.analyze", "s"),
        "trace.overhead_s": overhead,
        "rf_f1_d57": quality.get("rf_f1_d57", 0.0),
        "window_speedup": quality.get("window_speedup", 0.0),
    }
    # Self time per module as a share of the iteration's estimated untraced
    # wall time; "other" is the rest: code outside every traced layer plus
    # the error of the overhead correction, so it can dip below zero.
    shares = {module: 0.0 for module in MODULES}
    for name, row in layers.items():
        if name != "counters":
            shares[name.split(".")[0]] += row["self_s"]
    for module, seconds in shares.items():
        metrics[f"share.{module}"] = seconds / wall
    metrics["share.other"] = 1.0 - sum(shares.values()) / wall
    return metrics


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    started = perf_counter()

    try:
        import_program()
    except ImportError as exc:
        return fail(f"cannot import the program: {exc}")
    try:
        spec = load_spec()
    except (OSError, ValueError, KeyError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(workloads.WORKLOADS)}")

    run_dir = WORK / f"{workload.name}-{os.getpid()}"
    corpus_dir, out_dir = run_dir / "corpus", run_dir / "out"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        setups, hashes = [], []
        for repeat in range(SETUP_REPEATS):
            timing, corpus = setup(workload, args.seed, corpus_dir,
                                   keep_reference=repeat == SETUP_REPEATS - 1)
            setups.append(timing)
            hashes.append(sha256(corpus.orders_file))
        out_dir.mkdir(parents=True)
        budget = RUN_LIMIT_S - (perf_counter() - started)
        child = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--workload", workload.name,
             "--corpus", str(corpus_dir), "--out", str(out_dir), "--src", str(SRC),
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--result", str(stem) + ".child.json"],
            timeout=budget)
        if child.returncode != 0:
            return fail(f"timed body exited with {child.returncode}")
        body = json.loads(Path(str(stem) + ".child.json").read_text())
        if not body["untraced_s"]:
            return fail(f"timed body failed before any timing:\n{body['error']}")

        attempted = len(corpus.truth)
        notes = []
        quality = {}
        if body["error"] or not body["identical"] or len(set(hashes)) != 1:
            failed = attempted
            notes.append(body["error"] or "outputs or corpus differ between repeats")
        else:
            checked = workload.check(corpus, out_dir, args.seed)
            failed, notes, quality = checked.failed, checked.notes, checked.quality
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    wall = statistics.median(body["untraced_s"])
    wall_ref = statistics.median(body["untraced_ref"])
    end_to_end = {
        "wall_ref": wall_ref,
        "orders_per_ref": corpus.orders / wall_ref,
        "peak_rss_mb": body["peak_rss_mb"],
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    raw = {"wall_s": wall, "orders_per_s": corpus.orders / wall,
           "error_rate": failed / attempted}
    record = {"workload": workload.name, "provenance": provenance(args.seed, corpus, hashes[0]),
              "wall_samples_s": body["untraced_s"], "setups": setups,
              "wall_ref_samples": body["untraced_ref"], "check_notes": notes,
              "quality": quality, "end_to_end": end_to_end, "raw": raw}

    print(f"workload {workload.name}  seed {args.seed}  {corpus.orders} orders  "
          f"{len(corpus.truth)} pools")
    samples = len(body["untraced_s"])
    print(f"  wall_s         {wall:.4f} s   median of {samples} samples "
          f"(no tail percentile: fewer than 10 samples beyond any)")
    print(f"  orders_per_s   {raw['orders_per_s']:.1f} orders/s")
    print(f"  wall_ref       {wall_ref:.4f} ref   median of {samples} samples, "
          f"in reference slices at the host speed seen during each")
    print(f"  orders_per_ref {end_to_end['orders_per_ref']:.1f} orders/ref")
    print(f"  peak_rss_mb    {end_to_end['peak_rss_mb']:.1f} MiB (timed-body process)")
    print(f"  setup_s        {end_to_end['setup_s']:.4f} s   median of {SETUP_REPEATS} set-ups, "
          f"at the reference speed ({statistics.median(s['raw_s'] for s in setups):.4f} "
          f"wall seconds)")
    print(f"  error_rate     {failed / attempted:.4f} ratio ({failed} of {attempted} pools)")
    for name, value in quality.items():
        print(f"  {name:<14} {value:.4f} ratio")
    for note in notes:
        print(f"  check: {note}")

    if args.trace:
        overhead = statistics.median(body["traced_s"]) - wall
        calls = sum(row["calls"] for name, row in body["layers"].items()
                    if name != "counters")
        traced_wall = body["layers_wall_s"] - calls * body["call_overhead_s"]
        metrics = raw | layer_metrics(body["layers"], traced_wall, overhead,
                                      corpus.orders, setups, quality)
        unseen = [name for name in workload.traced_layers
                  if body["layers"][name]["calls"] == 0]
        if unseen or metrics["ledger.replay_ratio"] < 1:
            return fail(f"the tracer missed calls: no calls to {unseen}, replay ratio "
                        f"{metrics['ledger.replay_ratio']:.3f} (every order is replayed "
                        f"at least once); perfbench/layertrace.py no longer matches the "
                        f"program")
        record["layers"] = body["layers"]
        record["traced_samples_s"] = body["traced_s"]
        record["call_overhead_s"] = body["call_overhead_s"]
        print(f"  layer shares: self time per module over {traced_wall:.4f} s, the "
              f"median traced iteration less {1e9 * body['call_overhead_s']:.0f} ns "
              f"per traced call (trace overhead {overhead:.4f} s):")
        shares = sorted(((v, k) for k, v in metrics.items() if k.startswith("share.")),
                        reverse=True)
        for value, name in shares:
            print(f"    {name[6:]:<11} {100 * value:6.2f} %")
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end
        wanted = spec["end_to_end"]
    record["metrics"] = metrics
    print("provenance " + json.dumps(record["provenance"]))
    Path(str(stem) + ".json").write_text(json.dumps(record, indent=1))

    missing = set(wanted) - set(metrics)
    if missing:
        return fail(f"metrics missing from this run: {sorted(missing)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
