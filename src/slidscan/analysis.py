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
from .validators import DEFAULT_CONFIG, HeuristicConfig, Label, judge_pool


@dataclass
class AnalysisReport:
    kind: str
    age_histogram: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    daily_profit_taking: Dict[int, Tuple[int, float]] = field(default_factory=dict)
    daily_trend: Dict[int, Tuple[int, float]] = field(default_factory=dict)
    pool_count: int = 0

    def alive_after_fraction(self, days: int = 30) -> float:
        """Fraction of analyzed pools whose activity span exceeds `days`."""
        if not self.pool_count:
            return 0.0
        older = sum(count for age, (count, _) in self.age_histogram.items()
                    if age > days)
        return older / self.pool_count

    def realized_share_on_day(self, day: int = 0) -> float:
        """Share of total profit-taking USD that landed on one day."""
        total = sum(usd for _, usd in self.daily_profit_taking.values())
        if total <= 0:
            return 0.0
        return self.daily_profit_taking.get(day, (0, 0.0))[1] / total


def enrich(dataset: Dataset, cfg: HeuristicConfig = DEFAULT_CONFIG) -> None:
    """Compute the profit report and verdict for every pool in the dataset."""
    for address, pool in dataset.pools.items():
        dataset.enriched[address] = judge_pool(
            pool, dataset.profile_for(pool), dataset.orders.get(address, ()), cfg)


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
    if which not in ("age", "profit", "trend"):
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
            count, alive = report.age_histogram.get(age_days, (0, 0))
            is_alive = observation_end - last_ts <= ALIVE_HORIZON_SECONDS
            report.age_histogram[age_days] = (count + 1, alive + (1 if is_alive else 0))
        return report

    for pool in pools:
        owner = pool.owner_address
        t0 = pool.created_time_pool
        for order in dataset.orders.get(pool.pool_address, []):
            day = (order.timestamp - t0) // SECONDS_PER_DAY
            usd = order.y_base * order.price_base
            if which == "profit":
                if order.sender == owner and order.category in (Category.SELL,
                                                                Category.WITHDRAW):
                    count, total = report.daily_profit_taking.get(day, (0, 0.0))
                    report.daily_profit_taking[day] = (count + 1, total + usd)
            else:
                if order.sender != owner:
                    count, total = report.daily_trend.get(day, (0, 0.0))
                    report.daily_trend[day] = (count + 1, total + usd)
    return report


def write_report_csv(report: AnalysisReport, path: Union[str, Path]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        if report.kind == "age":
            writer.writerow(["age_days", "pool_count", "alive_count"])
            for age in sorted(report.age_histogram):
                count, alive = report.age_histogram[age]
                writer.writerow([age, count, alive])
        elif report.kind == "profit":
            writer.writerow(["day", "event_count", "realized_usd"])
            for day in sorted(report.daily_profit_taking):
                count, usd = report.daily_profit_taking[day]
                writer.writerow([day, count, repr(usd)])
        else:
            writer.writerow(["day", "activity_count", "volume_usd"])
            for day in sorted(report.daily_trend):
                count, usd = report.daily_trend[day]
                writer.writerow([day, count, repr(usd)])
