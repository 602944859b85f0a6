"""Pool-population reports: age/liveliness, owner profit-taking, user trend.

Three aggregations over an ingested dataset, each optionally restricted to
pools holding a given verdict label (e.g. only SLID pools once verdicts are
computed):

  age     per-pool lifetime (first to last order) bucketed in days, with a
          still-alive count per bucket;
  profit  owner sell/withdraw volume by day since pool deployment;
  trend   non-owner activity count and volume by day since deployment.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Optional, Set, Tuple, Union

from .dataio import Dataset
from .features import ALIVE_HORIZON_SECONDS
from .ledger import SECONDS_PER_DAY, Category, PoolRecord
from .metrics import profit_report
from .validators import DEFAULT_CONFIG, HeuristicConfig, Label, classify_pool


# The CSV header of each report kind; a row is its first column's value (an
# age or a day) followed by the two values `AnalysisReport.rows` maps it to.
HEADERS = {
    "age": ("age_days", "pool_count", "alive_count"),
    "profit": ("day", "event_count", "realized_usd"),
    "trend": ("day", "activity_count", "volume_usd"),
}


@dataclass
class AnalysisReport:
    kind: str
    # age in days -> (pools, of which alive), or day since deployment ->
    # (orders, their USD volume)
    rows: Dict[int, Tuple[int, Union[int, float]]] = field(default_factory=dict)
    pool_count: int = 0

    def alive_after_fraction(self, days: int = 30) -> float:
        """Fraction of analyzed pools whose activity span exceeds `days`
        (an age report)."""
        if not self.pool_count:
            return 0.0
        older = sum(count for age, (count, _) in self.rows.items() if age > days)
        return older / self.pool_count

    def realized_share_on_day(self, day: int = 0) -> float:
        """Share of total profit-taking USD that landed on one day (a profit
        report)."""
        total = sum(usd for _, usd in self.rows.values())
        if total <= 0:
            return 0.0
        return self.rows.get(day, (0, 0.0))[1] / total


def enrich(dataset: Dataset, cfg: HeuristicConfig = DEFAULT_CONFIG) -> None:
    """Compute the profit report and verdict for every pool in the dataset."""
    for address, pool in dataset.pools.items():
        report = profit_report(pool, dataset.orders.get(address, ()))
        dataset.enriched[address] = (
            report, classify_pool(pool, dataset.profile_for(pool), report, cfg))


def _selected_pools(dataset: Dataset,
                    labels: Optional[Set[str]]) -> Iterable[PoolRecord]:
    if labels is None:
        return dataset.pools.values()
    if not dataset.enriched:
        raise ValueError("label filtering requires enrich() to have run")
    wanted = {Label(value) for value in labels}
    return [pool for address, pool in dataset.pools.items()
            if dataset.enriched[address][1].label in wanted]


def analyze(dataset: Dataset, which: str,
            labels: Optional[Set[str]] = None) -> AnalysisReport:
    """Run one of the three reports over the (optionally filtered) pools."""
    which = which.lower()
    if which not in HEADERS:
        raise ValueError(f"unknown report kind {which!r}")
    report = AnalysisReport(kind=which)
    pools = list(_selected_pools(dataset, labels))
    report.pool_count = len(pools)

    if which == "age":
        spans = []
        for pool in pools:
            orders = dataset.orders.get(pool.pool_address, [])
            if not orders:
                spans.append((0, pool.created_time_pool))
                continue
            age_days = (orders[-1].timestamp - orders[0].timestamp) // SECONDS_PER_DAY
            spans.append((age_days, orders[-1].timestamp))
        observation_end = max((last for _, last in spans), default=0)
        for age_days, last_ts in spans:
            count, alive = report.rows.get(age_days, (0, 0))
            is_alive = observation_end - last_ts <= ALIVE_HORIZON_SECONDS
            report.rows[age_days] = (count + 1, alive + (1 if is_alive else 0))
        return report

    for pool in pools:
        owner = pool.owner_address
        t0 = pool.created_time_pool
        for order in dataset.orders.get(pool.pool_address, []):
            if which == "profit":
                counted = order.sender == owner and order.category in (
                    Category.SELL, Category.WITHDRAW)
            else:
                counted = order.sender != owner
            if counted:
                day = (order.timestamp - t0) // SECONDS_PER_DAY
                count, total = report.rows.get(day, (0, 0.0))
                report.rows[day] = (count + 1, total + order.y_base * order.price_base)
    return report


def write_report_csv(report: AnalysisReport, path: Union[str, Path]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(HEADERS[report.kind])
        for key in sorted(report.rows):
            writer.writerow([key, *report.rows[key]])
