"""Command-line interface.

Subcommands cover the full pipeline: generate a synthetic corpus, run the
streaming detector, export feature matrices, train a classifier, run the
shrinking-window sweep, and produce population reports. Failures exit with
one machine-parsable stderr line: `error code=<n> kind=<type> msg=...`:

  2  SchemaError (a malformed row or header, with file and line) or a
     ledger violation; an order row that breaks the ledger's rules gives the
     same line, with file and line, in every command
  3  EmptyDataset (no pools) or SingleClassInput (training labels hold one
     class only, or a sweep's verdicts have fewer than 2 pools in a class)
  4  ConfigError, InfeasibleConfig, UsageError (bad arguments, checked
     while they are parsed) or a missing input file
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from . import analysis, dataio, earlywarn, features, pipeline, synth
from .config import ConfigError, load_heuristic_config, parse_kv_file
from .dataio import EmptyDataset, SchemaError
from .earlywarn import ClassifierKind, DEFAULT_D_LIST, SingleClassInput
from .ledger import LedgerError
from .models import ScaleOverflow
from .synth import InfeasibleConfig, ScenarioKind
from .validators import DEFAULT_CONFIG, HeuristicConfig, Label


class UsageError(Exception):
    """Bad command line; mapped to the configuration-error exit code."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _window_days(text: str) -> int:
    """A window length from the command line: a whole number of days >= 1."""
    try:
        days = int(text)
    except ValueError:
        days = 0
    if days < 1:
        raise argparse.ArgumentTypeError(
            f"window must be a whole number of days >= 1, got {text!r}")
    return days


def _d_list(text: str) -> List[int]:
    d_list = [_window_days(part) for part in text.split(",") if part.strip()]
    if not d_list:
        raise argparse.ArgumentTypeError("must name at least one window")
    return d_list


def _labels_filter(text: str) -> Set[str]:
    labels = {part.strip() for part in text.split(",")}
    unknown = sorted(labels - {label.value for label in Label})
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown label {unknown[0]!r}; expected some of "
            + ",".join(label.value for label in Label))
    return labels


def _heuristic_config(args) -> HeuristicConfig:
    if getattr(args, "config", None):
        return load_heuristic_config(args.config)
    return DEFAULT_CONFIG


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    options = parse_kv_file(args.config)
    counts, seed, overrides, chooser = synth.corpus_spec_from_options(options)
    if not counts:
        raise ConfigError(f"{args.config}: no scenario counts configured")
    scenarios = synth.build_corpus(counts, seed, overrides, chooser, sort_by_address=True)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    orders_path = out / "orders.jsonl"

    pools = []
    profiles: Dict[str, object] = {}
    labels: List[tuple] = []
    total_orders = 0
    orders_path.write_text("")    # orders are appended pool by pool
    for scenario in scenarios:
        pools.append(scenario.pool)
        profiles[scenario.pool.paired_address] = scenario.profile
        labels.append((scenario.pool.pool_address, scenario.true_label))
        dataio.write_orders_jsonl(scenario.orders, orders_path,
                                  anonymize=args.anonymize, append=True)
        total_orders += len(scenario.orders)

    dataio.write_pools_jsonl(pools, out / "pools.jsonl", anonymize=args.anonymize)
    profiles = dict(sorted(profiles.items()))
    dataio.write_profiles_jsonl(profiles, out / "profiles.jsonl",
                                anonymize=args.anonymize)
    with open(out / "labels.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["pool_address", "true_label"])
        for address, label in sorted(labels):
            writer.writerow([
                dataio.anonymize_address(address) if args.anonymize else address,
                label,
            ])
    print(f"generated {len(pools)} pools, {total_orders} orders -> {out}")
    return 0


def cmd_detect(args) -> int:
    cfg = _heuristic_config(args)
    summary, _ = pipeline.stream_detect(
        args.pools, args.orders, profiles_file=args.profiles, cfg=cfg,
        out_csv=args.out, anonymize=args.anonymize)
    if summary.pools_without_profile:
        print(f"warning: {summary.pools_without_profile} pools without a security "
              "profile; honeypot layer treated as pass", file=sys.stderr)
    counts = ", ".join(f"{k}={v}" for k, v in sorted(summary.label_counts.items()))
    print(f"detect: {summary.pools} pools, {summary.orders_read} orders "
          f"({summary.orders_skipped_unknown_pool} skipped) -> {counts}")
    return 0


def _load_labels_csv(path, addresses: List[str]) -> List[bool]:
    """SLID or not for each of `addresses`, from a `generate` labels.csv: the
    header `pool_address,true_label`, then one row per pool whose label is a
    ScenarioKind value. Anything else raises SchemaError with its line, and so
    does a file without a row for one of `addresses`, naming the first."""
    slid_kinds = {ScenarioKind.SLID, ScenarioKind.SLID_SLOW,
                  ScenarioKind.SLID_MULTI_ADDRESS}
    labels: Dict[str, bool] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        if next(reader, None) != ["pool_address", "true_label"]:
            raise SchemaError(path, 1, "labels CSV header is not pool_address,true_label")
        for row in reader:
            try:
                if len(row) != 2:
                    raise ValueError(f"{len(row)} columns, expected 2")
                address, value = row
                if address in labels:
                    raise ValueError(f"pool_address {address!r} repeats an earlier row")
                labels[address] = ScenarioKind(value) in slid_kinds
            except ValueError as exc:
                raise SchemaError(path, reader.line_num,
                                  f"bad labels row: {exc}") from exc
    for address in addresses:
        if address not in labels:
            raise SchemaError(path, reader.line_num, "labels file ends without a "
                              f"row for pool_address {address!r}")
    return [labels[address] for address in addresses]


def _orders_summary(dataset: dataio.Dataset) -> str:
    """The order count of a summary line, as `detect` prints it: every row
    read, and in brackets those skipped because their pool is unknown."""
    skipped = dataset.orders_skipped_unknown_pool
    read = skipped + sum(map(len, dataset.orders.values()))
    return f"{read} orders ({skipped} skipped)"


def cmd_features(args) -> int:
    cfg = _heuristic_config(args)
    dataset = dataio.ingest(args.pools, args.orders, profiles_file=args.profiles)
    addresses = list(dataset.pools)
    if args.labels:
        labels = _load_labels_csv(args.labels, addresses)
    else:
        analysis.enrich(dataset, cfg)
        slid = dataset.slid_labels()
        labels = [slid[address] for address in addresses]
    X = np.zeros((len(addresses), features.FEATURE_COUNT))
    for i, (address, pool) in enumerate(dataset.pools.items()):
        [(X[i], _)] = features.extract_with_report(pool, dataset.orders[address],
                                                   (args.window,))
    features.write_features_csv(addresses, args.window, labels, X, args.out,
                                anonymize=args.anonymize)
    print(f"features: {len(addresses)} pools, {_orders_summary(dataset)} at window "
          f"d={args.window} -> {args.out}")
    return 0


def cmd_train(args) -> int:
    X, y = features.read_features_csv(args.features)
    if not len(y):
        raise SingleClassInput("empty training matrix")
    kind = ClassifierKind(args.model)
    grid = earlywarn.DEFAULT_HYPER_GRID[kind] if args.grid else None
    try:
        model = earlywarn.train(X, y, kind, seed=args.seed, hyper_grid=grid)
    except ScaleOverflow as exc:
        # Line 1, the header, names the column.
        raise SchemaError(args.features, 1, f"feature column "
                          f"{features.FEATURE_NAMES[exc.column]}: {exc.reason}") from exc
    earlywarn.save_model(model, args.out)
    print(f"trained {kind.value} on {len(y)} rows "
          f"(hyperparameters {model.hyperparameters}) -> {args.out}")
    return 0


def _corpus_files(corpus_dir) -> Tuple[Path, Path, Optional[Path]]:
    """The pools, orders and (if present) profiles files of a corpus directory."""
    corpus = Path(corpus_dir)
    profiles = corpus / "profiles.jsonl"
    return (corpus / "pools.jsonl", corpus / "orders.jsonl",
            profiles if profiles.exists() else None)


def cmd_sweep(args) -> int:
    cfg = _heuristic_config(args)
    dataset = dataio.ingest(*_corpus_files(args.corpus))
    analysis.enrich(dataset, cfg)
    windows = earlywarn.prepare_windows(dataset, args.d_list, cfg)
    results = earlywarn.sweep(windows, args.d_list, seed=args.seed)
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["detector", "d", "accuracy", "precision", "recall",
                         "f1", "tp", "fp", "tn", "fn"])
        for m in results:
            writer.writerow([m.detector, m.window_days, repr(m.accuracy),
                             repr(m.precision), repr(m.recall), repr(m.f1),
                             *m.confusion])
    speedup = earlywarn.window_speedup(results)
    print(f"sweep: {len(dataset.pools)} pools, {_orders_summary(dataset)}, "
          f"{len(results)} detector/window cells -> {args.out} "
          f"(window speedup {speedup:.2f}x)")
    return 0


def cmd_report(args) -> int:
    cfg = _heuristic_config(args)
    if args.corpus:
        pools_file, orders_file, profiles_file = _corpus_files(args.corpus)
    else:
        if not (args.pools and args.orders):
            raise UsageError("report needs --corpus or both --pools and --orders")
        pools_file, orders_file, profiles_file = args.pools, args.orders, args.profiles
    dataset = dataio.ingest(pools_file, orders_file, profiles_file=profiles_file)
    if args.labels_filter:
        analysis.enrich(dataset, cfg)
    report = analysis.analyze(dataset, args.kind, labels=args.labels_filter)
    analysis.write_report_csv(report, args.out)
    extra = ""
    if args.kind == "age":
        extra = f" (alive after month: {report.alive_after_fraction(30):.3f})"
    print(f"report {args.kind}: {report.pool_count} pools, {_orders_summary(dataset)} "
          f"-> {args.out}{extra}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="slidscan",
                     description="Liquidity-pool drain forensics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a synthetic labeled corpus")
    p.add_argument("--config", required=True, help="corpus key=value config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--anonymize", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("detect", help="run the rule-based detector (streaming)")
    p.add_argument("--pools", required=True)
    p.add_argument("--orders", required=True)
    p.add_argument("--profiles")
    p.add_argument("--config", help="heuristic key=value config file")
    p.add_argument("--out", required=True, help="verdicts CSV path")
    p.add_argument("--anonymize", action="store_true")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("features", help="export the feature matrix CSV")
    p.add_argument("--pools", required=True)
    p.add_argument("--orders", required=True)
    p.add_argument("--profiles")
    p.add_argument("--labels", help="labels CSV (pool_address,true_label)")
    p.add_argument("--window", type=_window_days, required=True,
                   help="days of history")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--anonymize", action="store_true")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train a classifier on a feature CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True,
                   choices=[k.value for k in ClassifierKind])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", action="store_true",
                   help="grid-search hyperparameters by 5-fold F1")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="shrinking-window detector evaluation")
    p.add_argument("--corpus", required=True,
                   help="directory with pools/orders/profiles JSONL")
    p.add_argument("--d-list", type=_d_list,
                   default=",".join(str(d) for d in DEFAULT_D_LIST))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="age / profit / trend population reports")
    p.add_argument("--kind", required=True, choices=["age", "profit", "trend"])
    p.add_argument("--corpus")
    p.add_argument("--pools")
    p.add_argument("--orders")
    p.add_argument("--profiles")
    p.add_argument("--labels-filter", type=_labels_filter,
                   help="restrict to verdict labels, e.g. SLID")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (SchemaError, LedgerError) as exc:
        return _fail(2, exc)
    except (EmptyDataset, SingleClassInput) as exc:
        return _fail(3, exc)
    except (ConfigError, InfeasibleConfig, UsageError) as exc:
        return _fail(4, exc)
    except FileNotFoundError as exc:
        return _fail(4, exc)


def _fail(code: int, exc: Exception) -> int:
    kind = type(exc).__name__
    message = str(exc).replace("\n", " ")
    print(f'error code={code} kind={kind} msg="{message}"', file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
