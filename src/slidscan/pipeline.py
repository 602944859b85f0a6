"""Streaming detection: one pass over an order file, O(pools) memory.

The pass is `dataio.replay_orders`, the one order-file pass that every
command makes (the batch commands through `dataio.ingest`), so a row is
skipped, or gives its error line, alike in all of them. Here it holds no
pool's history: each pool keeps one constant-size profit tracker, to which
each order is added where it stands in the file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from .dataio import (anonymize_address, decode_order, read_pools, read_profiles,
                     replay_orders, write_csv)
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

    def add(tracker, order):
        (_, timestamp, _, category, _, sender, _, _, _, y_base, _, price_base,
         gas_fee_usd) = order
        tracker.add(timestamp, category, sender, y_base, price_base, gas_fee_usd)

    read, skipped = replay_orders(orders_file, trackers, decode_order, add)
    summary = DetectSummary(pools=len(trackers), orders_read=read,
                            orders_skipped_unknown_pool=skipped)

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
    write_csv(path, ("pool_address", "label", "honeypot_pass", "profit_pass",
                     "owner_activity_pass", "realized_usd", "unrealized_1m_usd",
                     "max_impact", "c"), (
        (anonymize_address(address) if anonymize else address, verdict.label.value,
         int(verdict.honeypot_pass), int(verdict.profit_pass),
         int(verdict.owner_activity_pass), repr(report.realized_profit_usd),
         repr(report.unrealized_first_month_usd), repr(report.max_impact),
         report.profit_taking_count)
        for address, (report, verdict) in sorted(results.items())))
