"""The three benchmark workloads: corpus shape, timed CLI body, output checks.

Each workload is a seeded synthetic corpus plus the `slidscan` command lines
whose handlers form the timed body. Corpus sizes are set so that one run,
including three set-ups and the checks, stays near half a minute on a
2-core machine; see perfbench/README.md for the reasons behind each shape.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from slidscan import analysis, dataio, pipeline
from slidscan.earlywarn import DEFAULT_D_LIST, EvalMetrics, metrics_from_confusion, window_speedup
from slidscan.synth import ScenarioKind as K

SLID_KINDS = {"SLID", "SlidSlow", "SlidMultiAddress"}
# Generator kinds the rule-based detector recovers exactly on full histories.
EXACT_LABELS = {"Legitimate": "Legitimate", "RugPull": "RugPull",
                "Honeypot": "Honeypot", "SLID": "SLID"}
REL_TOL = 1e-6   # metrics-vs-oracle tolerance of acceptance criterion 4


@dataclass
class Corpus:
    """Paths of a generated corpus and what the generator knows about it."""

    root: Path
    truth: Dict[str, str]             # pool address -> generator label
    oracle: Dict[str, object]         # pool address -> synth.oracle_report
    orders: int = 0

    @property
    def pools(self) -> Path:
        return self.root / "pools.jsonl"

    @property
    def orders_file(self) -> Path:
        return self.root / "orders.jsonl"

    @property
    def profiles(self) -> Path:
        return self.root / "profiles.jsonl"

    @property
    def labels(self) -> Path:
        return self.root / "labels.csv"


@dataclass
class CheckResult:
    failed: int
    notes: List[str]
    quality: Dict[str, float]


@dataclass(frozen=True)
class Workload:
    name: str
    counts: Dict[K, int]
    overrides: Dict[K, Dict[str, object]]
    commands: Callable[[Corpus, Path, int], List[List[str]]]
    check: Callable[[Corpus, Path, int], CheckResult]
    # Layers the body must call; a traced run in which one reports no calls
    # has lost track of the program and fails.
    traced_layers: Tuple[str, ...]


# ---------------------------------------------------------------------------
# detect-stream
# ---------------------------------------------------------------------------

def _detect_commands(corpus: Corpus, out: Path, seed: int) -> List[List[str]]:
    return [["detect", "--pools", str(corpus.pools), "--orders", str(corpus.orders_file),
             "--profiles", str(corpus.profiles), "--out", str(out / "verdicts.csv")]]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-3)


def _check_verdicts(rows: Dict[str, dict], corpus: Corpus) -> List[str]:
    """Pools whose verdict row disagrees with the oracle or generator truth."""
    bad = []
    for address, reference in corpus.oracle.items():
        row = rows.get(address)
        if row is None:
            bad.append(f"{address}: no verdict row")
            continue
        expected = EXACT_LABELS.get(corpus.truth[address])
        if expected is not None and row["label"] != expected:
            bad.append(f"{address}: label {row['label']} for a {corpus.truth[address]} pool")
        pairs = ((float(row["realized_usd"]), reference.realized_profit_usd),
                 (float(row["unrealized_1m_usd"]), reference.unrealized_first_month_usd),
                 (float(row["max_impact"]), reference.max_impact))
        if not all(_close(a, b) for a, b in pairs) or \
                int(row["c"]) != reference.profit_taking_count:
            bad.append(f"{address}: profit figures differ from synth.oracle_report")
    return bad


def _read_rows(path: Path, key: str) -> Dict[str, dict]:
    with open(path, newline="") as handle:
        return {row[key]: row for row in csv.DictReader(handle)}


def _check_detect(corpus: Corpus, out: Path, seed: int) -> CheckResult:
    bad = _check_verdicts(_read_rows(out / "verdicts.csv", "pool_address"), corpus)
    return CheckResult(len(bad), bad[:5], {})


# ---------------------------------------------------------------------------
# window-sweep
# ---------------------------------------------------------------------------

def _sweep_commands(corpus: Corpus, out: Path, seed: int) -> List[List[str]]:
    return [["sweep", "--corpus", str(corpus.root), "--seed", str(seed),
             "--out", str(out / "sweep.csv")]]


def _read_sweep_csv(path: Path) -> List[EvalMetrics]:
    with open(path, newline="") as handle:
        return [metrics_from_confusion(int(r["tp"]), int(r["fp"]), int(r["tn"]),
                                       int(r["fn"]), int(r["d"]), r["detector"])
                for r in csv.DictReader(handle)]


def _check_sweep(corpus: Corpus, out: Path, seed: int) -> CheckResult:
    results = _read_sweep_csv(out / "sweep.csv")
    cells = {(m.detector, m.window_days): m for m in results}
    expected = {(detector, d) for detector in ("Heuristic", "RandomForest",
                                               "LogisticRegression")
                for d in DEFAULT_D_LIST}
    if set(cells) != expected:
        return CheckResult(len(corpus.truth), ["sweep.csv lacks detector/window cells"], {})
    # Every drain campaign ends inside the largest window, so the rules must
    # recover every held-out positive there; each miss is one failed pool.
    top = cells[("Heuristic", max(DEFAULT_D_LIST))]
    missed = top.confusion[3]
    notes = [f"heuristic recall {top.recall} at d={top.window_days}"] if missed else []
    quality = {"rf_f1_d57": cells[("RandomForest", 57)].f1,
               "window_speedup": window_speedup(results)}
    return CheckResult(missed, notes, quality)


# ---------------------------------------------------------------------------
# batch-report
# ---------------------------------------------------------------------------

def _report_commands(corpus: Corpus, out: Path, seed: int) -> List[List[str]]:
    root = str(corpus.root)
    return [
        ["features", "--pools", str(corpus.pools), "--orders", str(corpus.orders_file),
         "--profiles", str(corpus.profiles), "--labels", str(corpus.labels),
         "--window", "57", "--out", str(out / "features.csv")],
        ["report", "--kind", "age", "--corpus", root, "--out", str(out / "age.csv")],
        ["report", "--kind", "profit", "--corpus", root, "--labels-filter", "SLID",
         "--out", str(out / "profit.csv")],
        ["report", "--kind", "trend", "--corpus", root, "--out", str(out / "trend.csv")],
    ]


def _column_sum(path: Path, column: str) -> int:
    with open(path, newline="") as handle:
        return sum(int(row[column]) for row in csv.DictReader(handle))


def _check_report(corpus: Corpus, out: Path, seed: int) -> CheckResult:
    bad: List[str] = []
    # Batch verdicts (ingest -> enrich, as `report --labels-filter` computes
    # them) must equal the streaming detector's on the same corpus.
    dataset = dataio.ingest(corpus.pools, corpus.orders_file, profiles_file=corpus.profiles)
    analysis.enrich(dataset)
    pipeline.write_verdicts_csv(dataset.enriched, out / "batch_verdicts.csv")
    pipeline.stream_detect(corpus.pools, corpus.orders_file, corpus.profiles,
                           out_csv=out / "stream_verdicts.csv")
    batch = _read_rows(out / "batch_verdicts.csv", "pool_address")
    stream = _read_rows(out / "stream_verdicts.csv", "pool_address")
    bad += [f"{a}: batch and stream verdicts differ"
            for a in corpus.truth if batch.get(a) != stream.get(a)]
    bad += _check_verdicts(stream, corpus)

    features = _read_rows(out / "features.csv", "pool_address")
    for address, truth in corpus.truth.items():
        row = features.get(address)
        if row is None or row["window_days"] != "57" or \
                row["label"] != str(int(truth in SLID_KINDS)) or \
                not all(math.isfinite(float(v)) for v in list(row.values())[3:]):
            bad.append(f"{address}: bad feature row")

    slid = [a for a, row in stream.items() if row["label"] == "SLID"]
    owner_orders = sum(r.owner_order_count for r in corpus.oracle.values())
    totals = {
        "age pool_count": (_column_sum(out / "age.csv", "pool_count"), len(corpus.truth)),
        "profit event_count": (_column_sum(out / "profit.csv", "event_count"),
                               sum(int(stream[a]["c"]) for a in slid)),
        "trend activity_count": (_column_sum(out / "trend.csv", "activity_count"),
                                 corpus.orders - owner_orders),
    }
    wrong = [f"{name} {got} != {want}" for name, (got, want) in totals.items()
             if got != want]
    if wrong:
        return CheckResult(len(corpus.truth), wrong + bad[:5], {})
    return CheckResult(len(bad), bad[:5], {})


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_STREAM_LAYERS = ("metrics.tracker_add", "ledger.advance_state",
                  "validators.classify_pool")
_BATCH_LAYERS = _STREAM_LAYERS + ("dataio.ingest", "dataio.order_from_row",
                                  "analysis.enrich", "metrics.profit_report",
                                  "features.extract")
_BIG_LEGIT = {"lifetime_days": 150, "investor_arrival": 100, "investor_count": 400}

WORKLOADS = {
    w.name: w for w in (
        # Few long, high-traffic pools (the acceptance-8 shape) plus a minority
        # of scam pools: the per-order streaming path, no batch decode.
        Workload(
            name="detect-stream",
            counts={K.LEGITIMATE: 6, K.SLID: 2, K.RUGPULL: 2, K.HONEYPOT: 2},
            overrides={K.LEGITIMATE: _BIG_LEGIT},
            commands=_detect_commands,
            check=_check_detect,
            traced_layers=_STREAM_LAYERS + ("pipeline.stream_detect",
                                            "pipeline.write_verdicts_csv"),
        ),
        # The acceptance-6 mix at 300 pools, 10% SLID: per-window feature
        # replay and per-window retraining.
        Workload(
            name="window-sweep",
            counts={K.LEGITIMATE: 240, K.RUGPULL: 22, K.HONEYPOT: 8,
                    K.SLID: 15, K.SLID_SLOW: 15},
            overrides={
                K.LEGITIMATE: {"lifetime_days": 90, "investor_arrival": 1.2,
                               "investor_count": 30},
                K.RUGPULL: {"investor_arrival": 2.0, "investor_count": 20},
                K.HONEYPOT: {"lifetime_days": 70, "investor_arrival": 1.2,
                             "investor_count": 25},
                K.SLID: {"slid_drain_count": 120, "lifetime_days": 90,
                         "investor_arrival": 1.2, "investor_count": 40},
                K.SLID_SLOW: {"slid_drain_count": 24, "lifetime_days": 280,
                              "investor_arrival": 0.6, "investor_count": 30},
            },
            commands=_sweep_commands,
            check=_check_sweep,
            traced_layers=_BATCH_LAYERS + (
                "earlywarn.sweep", "earlywarn.prepare_windows", "earlywarn.train",
                "models.fit_forest", "models.fit_logistic", "models.scores"),
        ),
        # The README walkthrough mix at one third: materialised row decode,
        # once per CLI command.
        Workload(
            name="batch-report",
            counts={K.LEGITIMATE: 34, K.RUGPULL: 7, K.HONEYPOT: 3, K.SLID: 7,
                    K.SLID_SLOW: 2},
            overrides={K.SLID: {"slid_drain_count": 423},
                       K.SLID_SLOW: {"lifetime_days": 300}},
            commands=_report_commands,
            check=_check_report,
            traced_layers=_BATCH_LAYERS + ("features.write_features_csv",
                                           "analysis.analyze", "analysis.write_report_csv"),
        ),
    )
}
