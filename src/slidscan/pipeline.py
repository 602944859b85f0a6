"""Streaming detection: one pass over an order file, O(pools) memory.

Orders are consumed line by line from JSONL without materializing any pool's
full history; each pool keeps one constant-size profit tracker. File order is
execution order: each order is applied where it stands, and a row that breaks
the ledger's rules (a pool's timestamp going down, its value going below zero
or out of float range) gives the same error line, with file and line, as in
`dataio.ingest`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from .dataio import (ROW_ERRORS, SchemaError, anonymize_address, decode_order,
                     iter_jsonl, ledger_fault, read_pools, read_profiles)
from .ledger import LedgerError
from .metrics import ProfitReport, ProfitTracker
from .validators import DEFAULT_CONFIG, HeuristicConfig, Verdict, classify_pool

PathLike = Union[str, Path]


@dataclass
class DetectSummary:
    pools: int = 0
    orders_read: int = 0
    orders_skipped_unknown_pool: int = 0
    pools_without_profile: int = 0
    label_counts: Dict[str, int] = field(default_factory=dict)


def stream_detect(pools_file: PathLike, orders_file: PathLike,
                  profiles_file: Optional[PathLike] = None,
                  cfg: HeuristicConfig = DEFAULT_CONFIG,
                  out_csv: Optional[PathLike] = None,
                  anonymize: bool = False,
                  ) -> Tuple[DetectSummary, Dict[str, Tuple[ProfitReport, Verdict]]]:
    """Classify every pool in one streaming pass over the order file."""
    pools = read_pools(pools_file)
    profiles = read_profiles(profiles_file)
    trackers: Dict[str, ProfitTracker] = {
        address: ProfitTracker(pool) for address, pool in pools.items()
    }

    summary = DetectSummary(pools=len(trackers))
    get_tracker = trackers.get
    orders_read = 0
    skipped = 0
    for lineno, row in iter_jsonl(orders_file):
        orders_read += 1
        try:
            address = row["pool_address"]
            try:
                tracker = get_tracker(address)
            except TypeError:    # an unhashable address: an array or an object
                tracker = None
            if tracker is None:
                if type(address) is not str:
                    raise ValueError(f"pool_address {address!r} is not a string")
                skipped += 1
                continue
            (_, timestamp, _, category, _, sender, _, _, _, y_base, _, price_base,
             gas_fee_usd) = decode_order(row)
            tracker.add(timestamp, category, sender, y_base, price_base, gas_fee_usd)
        except ROW_ERRORS as exc:
            raise SchemaError(orders_file, lineno, f"bad order row: {exc}") from exc
        except LedgerError as exc:
            raise ledger_fault(orders_file, lineno, exc) from exc
    summary.orders_read = orders_read
    summary.orders_skipped_unknown_pool = skipped

    results: Dict[str, Tuple[ProfitReport, Verdict]] = {}
    for address, tracker in trackers.items():
        pool = pools[address]
        profile = profiles.get(pool.paired_address)
        if profile is None:
            summary.pools_without_profile += 1
        report = tracker.report()
        verdict = classify_pool(pool, profile, report, cfg)
        results[address] = (report, verdict)
        summary.label_counts[verdict.label.value] = (
            summary.label_counts.get(verdict.label.value, 0) + 1)

    if out_csv is not None:
        write_verdicts_csv(results, out_csv, anonymize=anonymize)
    return summary, results


def write_verdicts_csv(results: Dict[str, Tuple[ProfitReport, Verdict]],
                       path: PathLike, anonymize: bool = False) -> None:
    """Stable-ordered verdict export, one row per pool."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([
            "pool_address", "label", "honeypot_pass", "profit_pass",
            "owner_activity_pass", "realized_usd", "unrealized_1m_usd",
            "max_impact", "c",
        ])
        for address in sorted(results):
            report, verdict = results[address]
            writer.writerow([
                anonymize_address(address) if anonymize else address,
                verdict.label.value,
                int(verdict.honeypot_pass),
                int(verdict.profit_pass),
                int(verdict.owner_activity_pass),
                repr(report.realized_profit_usd),
                repr(report.unrealized_first_month_usd),
                repr(report.max_impact),
                report.profit_taking_count,
            ])
