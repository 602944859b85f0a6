"""Per-pool feature extraction over the first d days of life.

The canonical 57-feature vector (see docs/feature_schema.md for the contract)
covers four groups:

  OAF  owner activity counts (deposit / withdraw / buy / sell)
  UAF  user activity counts, distinct-user extrema across days, and their
       six pairwise ratios
  PF   owner investment, realized/unrealized returns, total PnL, five profit
       ratios, the profit-taking order count, and impact min/max/avg with
       three impact ratios
  LPF  age, liveliness, first/last/min/max daily volume and pool value, and
       their six-plus-six pairwise ratios

Ratios with zero denominators never produce non-finite values: 0/0 becomes 0
and x/0 is capped at RATIO_CAP, in both cases with the per-feature missing
flag set. Day buckets are 86,400-second windows anchored at pool deployment.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dataio import ROW_ERRORS, SchemaError, anonymize_address
from .ledger import SECONDS_PER_DAY, Category, DexOrder, PoolRecord
from .metrics import ProfitReport, ProfitTracker

RATIO_CAP = 1e9
# A pool is alive when its last order lies within this horizon of the window
# end (`is_alive`) or, in the age report, of the last order in the corpus.
ALIVE_HORIZON_SECONDS = 30 * SECONDS_PER_DAY

OAF_NAMES = ("owner_dep", "owner_with", "owner_buy", "owner_sell")

UAF_NAMES = (
    "user_dep", "user_with", "user_buy", "user_sell",
    "user_count", "user_count_first", "user_count_high",
    "user_count_last", "user_count_low",
    "r_user_first_on_high", "r_user_last_on_low", "r_user_first_on_low",
    "r_user_first_on_last", "r_user_last_on_high", "r_user_low_on_high",
)

PF_NAMES = (
    "owner_invested", "owner_realized", "owner_unrealized", "owner_total_pnl",
    "r_owner_total_on_invested", "r_owner_realized_on_invested", "r_owner_roi",
    "r_owner_unrealized_on_realized", "r_owner_unrealized_on_invested",
    "owner_taking_count",
    "impact_min", "impact_max", "impact_avg",
    "r_impact_min_on_avg", "r_impact_max_on_avg", "r_impact_min_on_max",
)

LPF_NAMES = (
    "age_days", "is_alive",
    "vol_first", "vol_last", "vol_min", "vol_max",
    "pval_first", "pval_last", "pval_min", "pval_max",
    "r_vol_first_on_last", "r_vol_first_on_min", "r_vol_first_on_max",
    "r_vol_last_on_min", "r_vol_last_on_max", "r_vol_min_on_max",
    "r_pval_first_on_last", "r_pval_first_on_min", "r_pval_first_on_max",
    "r_pval_last_on_min", "r_pval_last_on_max", "r_pval_min_on_max",
)

FEATURE_NAMES = OAF_NAMES + UAF_NAMES + PF_NAMES + LPF_NAMES
FEATURE_COUNT = len(FEATURE_NAMES)
assert FEATURE_COUNT == 57

_INDEX = {name: i for i, name in enumerate(FEATURE_NAMES)}


@dataclass
class FeatureVector:
    """One pool's features over a d-day window, in canonical order."""

    pool_address: str
    window_days: int
    values: np.ndarray             # float64, shape (57,)
    missing: np.ndarray            # bool, shape (57,)
    label: Optional[bool] = None

    def __getitem__(self, name: str) -> float:
        return float(self.values[_INDEX[name]])


def _set(values: np.ndarray, name: str, value: float) -> None:
    values[_INDEX[name]] = value


def _set_ratio(values: np.ndarray, missing: np.ndarray, name: str,
               num: float, den: float) -> None:
    i = _INDEX[name]
    if den == 0.0:
        missing[i] = True
        values[i] = 0.0 if num == 0.0 else math.copysign(RATIO_CAP, num)
    else:
        values[i] = num / den


def extract_features(pool: PoolRecord, orders: Sequence[DexOrder], d: int,
                     label: Optional[bool] = None) -> FeatureVector:
    """Feature vector from the pool's orders within d days of deployment.

    `orders` is the pool's stream in execution order, timestamps never
    decreasing; orders at or beyond the window end are ignored, so passing
    the full history or a pre-truncated prefix is equivalent.
    """
    [(vector, _)] = extract_with_report(pool, orders, (d,), label)
    return vector


def extract_with_report(pool: PoolRecord, orders: Sequence[DexOrder],
                        d_list: Sequence[int], label: Optional[bool] = None
                        ) -> List[Tuple[FeatureVector, ProfitReport]]:
    """extract_features and the windowed profit report, for every d in d_list.

    One replay of the orders in the order given (execution order, as
    `dataio.ingest` keeps it), up to the end of the largest window, serves
    every window: when the replay reaches a window's end, that window's
    vector and report are read from the running state. Returns one
    (FeatureVector, ProfitReport) pair per entry of `d_list`, in `d_list`
    order; a repeated d gets the same pair. A window with no orders is not an
    error: it yields the all-zero vector with every missing flag set.
    """
    if any(d < 1 for d in d_list):
        raise ValueError("window must be at least one day")
    start = pool.created_time_pool
    tracker = ProfitTracker(pool)
    owner = pool.owner_address

    counts = {("owner", c): 0 for c in Category}
    counts.update({("user", c): 0 for c in Category})
    all_users = set()
    day_users: Dict[int, set] = {}
    day_volume: Dict[int, float] = {}
    day_close: Dict[int, float] = {}
    pval_min = math.inf
    pval_max = -math.inf
    last_ts: Optional[int] = None

    by_d: Dict[int, Tuple[FeatureVector, ProfitReport]] = {}
    stream = iter(orders)
    order = next(stream, None)
    for d in sorted(set(d_list)):
        window_end = start + d * SECONDS_PER_DAY
        while order is not None and order.timestamp < window_end:
            tracker.add_order(order)
            day = (order.timestamp - start) // SECONDS_PER_DAY
            is_owner = order.sender == owner
            counts[("owner" if is_owner else "user", order.category)] += 1
            if not is_owner:
                all_users.add(order.sender)
                day_users.setdefault(day, set()).add(order.sender)
            else:
                day_users.setdefault(day, set())
            day_volume[day] = day_volume.get(day, 0.0) + order.y_base * order.price_base
            value = tracker.state.pool_value_usd
            day_close[day] = value
            pval_min = min(pval_min, value)
            pval_max = max(pval_max, value)
            last_ts = order.timestamp
            order = next(stream, None)
        report = tracker.report()
        vector = _window_vector(pool, d, label, report, counts,
                                len(all_users), day_users, day_volume,
                                day_close, pval_min, pval_max, last_ts)
        by_d[d] = (vector, report)
    return [by_d[d] for d in d_list]


def _window_vector(pool: PoolRecord, d: int,
                   label: Optional[bool], report: ProfitReport,
                   counts: Dict[tuple, int], user_count: int,
                   day_users: Dict[int, set], day_volume: Dict[int, float],
                   day_close: Dict[int, float], pval_min: float,
                   pval_max: float, last_ts: Optional[int]) -> FeatureVector:
    """One window's vector from the replay's running state, which it only
    reads: the replay goes on to later windows after it."""
    values = np.zeros(FEATURE_COUNT, dtype=np.float64)
    missing = np.zeros(FEATURE_COUNT, dtype=bool)
    if last_ts is None:
        missing[:] = True
        return FeatureVector(pool.pool_address, d, values, missing, label)

    _set(values, "owner_dep", counts[("owner", Category.DEPOSIT)])
    _set(values, "owner_with", counts[("owner", Category.WITHDRAW)])
    _set(values, "owner_buy", counts[("owner", Category.BUY)])
    _set(values, "owner_sell", counts[("owner", Category.SELL)])

    _set(values, "user_dep", counts[("user", Category.DEPOSIT)])
    _set(values, "user_with", counts[("user", Category.WITHDRAW)])
    _set(values, "user_buy", counts[("user", Category.BUY)])
    _set(values, "user_sell", counts[("user", Category.SELL)])
    _set(values, "user_count", user_count)

    daily_counts = {day: len(users) for day, users in day_users.items()}
    last_day = max(daily_counts)
    u_first = daily_counts.get(0, 0)
    u_last = daily_counts[last_day]
    u_high = max(daily_counts.values())
    u_low = min(daily_counts.values())
    _set(values, "user_count_first", u_first)
    _set(values, "user_count_high", u_high)
    _set(values, "user_count_last", u_last)
    _set(values, "user_count_low", u_low)
    _set_ratio(values, missing, "r_user_first_on_high", u_first, u_high)
    _set_ratio(values, missing, "r_user_last_on_low", u_last, u_low)
    _set_ratio(values, missing, "r_user_first_on_low", u_first, u_low)
    _set_ratio(values, missing, "r_user_first_on_last", u_first, u_last)
    _set_ratio(values, missing, "r_user_last_on_high", u_last, u_high)
    _set_ratio(values, missing, "r_user_low_on_high", u_low, u_high)

    invested = report.invested_usd
    realized = report.returned_usd
    unrealized = report.unrealized_current_usd
    total_pnl = report.realized_profit_usd + unrealized
    _set(values, "owner_invested", invested)
    _set(values, "owner_realized", realized)
    _set(values, "owner_unrealized", unrealized)
    _set(values, "owner_total_pnl", total_pnl)
    _set_ratio(values, missing, "r_owner_total_on_invested", total_pnl, invested)
    _set_ratio(values, missing, "r_owner_realized_on_invested", realized, invested)
    _set_ratio(values, missing, "r_owner_roi", realized - invested, invested)
    _set_ratio(values, missing, "r_owner_unrealized_on_realized", unrealized, realized)
    _set_ratio(values, missing, "r_owner_unrealized_on_invested", unrealized, invested)
    _set(values, "owner_taking_count", report.profit_taking_count)

    i_min, i_max, i_avg = report.min_impact, report.max_impact, report.mean_impact
    if report.profit_taking_count == report.undefined_impacts:
        missing[_INDEX["impact_min"]] = True
        missing[_INDEX["impact_max"]] = True
        missing[_INDEX["impact_avg"]] = True
    _set(values, "impact_min", i_min)
    _set(values, "impact_max", i_max)
    _set(values, "impact_avg", i_avg)
    _set_ratio(values, missing, "r_impact_min_on_avg", i_min, i_avg)
    _set_ratio(values, missing, "r_impact_max_on_avg", i_max, i_avg)
    _set_ratio(values, missing, "r_impact_min_on_max", i_min, i_max)

    lifetime_days = (last_ts - pool.created_time_pool) // SECONDS_PER_DAY + 1
    _set(values, "age_days", min(d, lifetime_days))
    window_end = pool.created_time_pool + d * SECONDS_PER_DAY
    alive = (window_end - last_ts) <= ALIVE_HORIZON_SECONDS
    _set(values, "is_alive", 1.0 if alive else 0.0)

    v_first = day_volume.get(0, 0.0)
    v_last = day_volume[last_day]
    v_min = min(day_volume.values())
    v_max = max(day_volume.values())
    _set(values, "vol_first", v_first)
    _set(values, "vol_last", v_last)
    _set(values, "vol_min", v_min)
    _set(values, "vol_max", v_max)

    p_first = day_close.get(0, 0.0)
    p_last = day_close[last_day]
    _set(values, "pval_first", p_first)
    _set(values, "pval_last", p_last)
    _set(values, "pval_min", pval_min)
    _set(values, "pval_max", pval_max)

    _set_ratio(values, missing, "r_vol_first_on_last", v_first, v_last)
    _set_ratio(values, missing, "r_vol_first_on_min", v_first, v_min)
    _set_ratio(values, missing, "r_vol_first_on_max", v_first, v_max)
    _set_ratio(values, missing, "r_vol_last_on_min", v_last, v_min)
    _set_ratio(values, missing, "r_vol_last_on_max", v_last, v_max)
    _set_ratio(values, missing, "r_vol_min_on_max", v_min, v_max)
    _set_ratio(values, missing, "r_pval_first_on_last", p_first, p_last)
    _set_ratio(values, missing, "r_pval_first_on_min", p_first, pval_min)
    _set_ratio(values, missing, "r_pval_first_on_max", p_first, pval_max)
    _set_ratio(values, missing, "r_pval_last_on_min", p_last, pval_min)
    _set_ratio(values, missing, "r_pval_last_on_max", p_last, pval_max)
    _set_ratio(values, missing, "r_pval_min_on_max", pval_min, pval_max)

    return FeatureVector(pool.pool_address, d, values, missing, label)


# ---------------------------------------------------------------------------
# Matrix helpers and CSV export
# ---------------------------------------------------------------------------

def feature_matrix(vectors: Sequence[FeatureVector]):
    """Stack vectors into (X, y) arrays; vectors must carry labels."""
    X = np.stack([v.values for v in vectors])
    y = np.array([1 if v.label else 0 for v in vectors], dtype=np.int64)
    return X, y


def write_features_csv(vectors: Sequence[FeatureVector],
                       path: Union[str, Path],
                       anonymize: bool = False) -> None:
    rows = sorted(vectors, key=lambda v: v.pool_address)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("pool_address", "window_days", "label") + FEATURE_NAMES)
        for vec in rows:
            address = anonymize_address(vec.pool_address) if anonymize else vec.pool_address
            writer.writerow(
                [address, vec.window_days, int(bool(vec.label))]
                + [repr(float(v)) for v in vec.values])


def read_features_csv(path: Union[str, Path]) -> List[FeatureVector]:
    """Read a write_features_csv export; a wrong header or a malformed row
    raises SchemaError with its line number."""
    vectors: List[FeatureVector] = []
    expected = ["pool_address", "window_days", "label"] + list(FEATURE_NAMES)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        if next(reader, None) != expected:
            raise SchemaError(path, 1, "unexpected feature CSV header")
        for row in reader:
            try:
                if len(row) != len(expected):
                    raise ValueError(f"{len(row)} columns, expected {len(expected)}")
                vectors.append(FeatureVector(
                    pool_address=row[0],
                    window_days=int(row[1]),
                    values=np.array([float(v) for v in row[3:]], dtype=np.float64),
                    missing=np.zeros(FEATURE_COUNT, dtype=bool),
                    label=bool(int(row[2])),
                ))
            except ROW_ERRORS as exc:
                raise SchemaError(path, reader.line_num,
                                  f"bad feature row: {exc}") from exc
    return vectors
