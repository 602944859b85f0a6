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
and x/0 is capped at RATIO_CAP. Day buckets are 86,400-second windows
anchored at pool deployment.
"""

from __future__ import annotations

import csv
import math
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


def _set(values: np.ndarray, name: str, value: float) -> None:
    values[_INDEX[name]] = value


def _ratio(num: float, den: float) -> float:
    """num / den; 0/0 is 0 and x/0 is RATIO_CAP with the sign of x."""
    if den == 0.0:
        return 0.0 if num == 0.0 else math.copysign(RATIO_CAP, num)
    return num / den


def extract_with_report(pool: PoolRecord, orders: Sequence[DexOrder],
                        d_list: Sequence[int]
                        ) -> List[Tuple[np.ndarray, ProfitReport]]:
    """The 57 feature values and the profit report of the pool's orders
    within d days of deployment, for every d in d_list.

    `orders` is the pool's stream in execution order (as `dataio.ingest`
    keeps it), timestamps never decreasing; orders at or beyond a window's
    end are outside it, so the full history and a pre-truncated prefix give
    the same window. One replay, up to the end of the largest window, serves
    every window: when the replay reaches a window's end, that window's
    values and report are read from the running state. Returns one
    (values, ProfitReport) pair per entry of `d_list`, in `d_list` order,
    where values is a float64 array of shape (57,) in FEATURE_NAMES order; a
    repeated d gets the same pair. A window with no orders is not an error:
    its values are all zero.
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

    by_d: Dict[int, Tuple[np.ndarray, ProfitReport]] = {}
    stream = iter(orders)
    order = next(stream, None)
    for d in sorted(set(d_list)):
        window_end = start + d * SECONDS_PER_DAY
        while order is not None and order.timestamp < window_end:
            tracker.add(order.timestamp, order.category, order.sender,
                        order.y_base, order.price_base, order.gas_fee_usd)
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
        values = _window_values(pool, d, report, counts, len(all_users),
                                day_users, day_volume, day_close, pval_min,
                                pval_max, last_ts)
        by_d[d] = (values, report)
    return [by_d[d] for d in d_list]


def _window_values(pool: PoolRecord, d: int, report: ProfitReport,
                   counts: Dict[tuple, int], user_count: int,
                   day_users: Dict[int, set], day_volume: Dict[int, float],
                   day_close: Dict[int, float], pval_min: float,
                   pval_max: float, last_ts: Optional[int]) -> np.ndarray:
    """One window's values from the replay's running state, which it only
    reads: the replay goes on to later windows after it."""
    values = np.zeros(FEATURE_COUNT, dtype=np.float64)
    if last_ts is None:
        return values

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
    _set(values, "r_user_first_on_high", _ratio(u_first, u_high))
    _set(values, "r_user_last_on_low", _ratio(u_last, u_low))
    _set(values, "r_user_first_on_low", _ratio(u_first, u_low))
    _set(values, "r_user_first_on_last", _ratio(u_first, u_last))
    _set(values, "r_user_last_on_high", _ratio(u_last, u_high))
    _set(values, "r_user_low_on_high", _ratio(u_low, u_high))

    invested = report.invested_usd
    realized = report.returned_usd
    unrealized = report.unrealized_current_usd
    total_pnl = report.realized_profit_usd + unrealized
    _set(values, "owner_invested", invested)
    _set(values, "owner_realized", realized)
    _set(values, "owner_unrealized", unrealized)
    _set(values, "owner_total_pnl", total_pnl)
    _set(values, "r_owner_total_on_invested", _ratio(total_pnl, invested))
    _set(values, "r_owner_realized_on_invested", _ratio(realized, invested))
    _set(values, "r_owner_roi", _ratio(realized - invested, invested))
    _set(values, "r_owner_unrealized_on_realized", _ratio(unrealized, realized))
    _set(values, "r_owner_unrealized_on_invested", _ratio(unrealized, invested))
    _set(values, "owner_taking_count", report.profit_taking_count)

    i_min, i_max, i_avg = report.min_impact, report.max_impact, report.mean_impact
    _set(values, "impact_min", i_min)
    _set(values, "impact_max", i_max)
    _set(values, "impact_avg", i_avg)
    _set(values, "r_impact_min_on_avg", _ratio(i_min, i_avg))
    _set(values, "r_impact_max_on_avg", _ratio(i_max, i_avg))
    _set(values, "r_impact_min_on_max", _ratio(i_min, i_max))

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

    _set(values, "r_vol_first_on_last", _ratio(v_first, v_last))
    _set(values, "r_vol_first_on_min", _ratio(v_first, v_min))
    _set(values, "r_vol_first_on_max", _ratio(v_first, v_max))
    _set(values, "r_vol_last_on_min", _ratio(v_last, v_min))
    _set(values, "r_vol_last_on_max", _ratio(v_last, v_max))
    _set(values, "r_vol_min_on_max", _ratio(v_min, v_max))
    _set(values, "r_pval_first_on_last", _ratio(p_first, p_last))
    _set(values, "r_pval_first_on_min", _ratio(p_first, pval_min))
    _set(values, "r_pval_first_on_max", _ratio(p_first, pval_max))
    _set(values, "r_pval_last_on_min", _ratio(p_last, pval_min))
    _set(values, "r_pval_last_on_max", _ratio(p_last, pval_max))
    _set(values, "r_pval_min_on_max", _ratio(pval_min, pval_max))

    return values


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

_CSV_HEADER = ["pool_address", "window_days", "label"] + list(FEATURE_NAMES)


def write_features_csv(addresses: Sequence[str], window_days: int,
                       labels: Sequence[bool], X: np.ndarray,
                       path: Union[str, Path], anonymize: bool = False) -> None:
    """One row per pool, by ascending address: row i of X holds the
    `window_days`-day features of addresses[i], labelled labels[i]."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_HEADER)
        for i in sorted(range(len(addresses)), key=addresses.__getitem__):
            address = anonymize_address(addresses[i]) if anonymize else addresses[i]
            writer.writerow([address, window_days, int(bool(labels[i]))]
                            + [repr(float(v)) for v in X[i]])


def read_features_csv(path: Union[str, Path]) -> Tuple[np.ndarray, np.ndarray]:
    """The (X, y) of a write_features_csv export: X float64 of shape
    (rows, 57), y 0/1 int64. A wrong header, a malformed row (column count,
    a window that is not an integer or differs from the first row's, a label
    that is not `0` or `1`) or a non-finite value raises SchemaError with its
    line number."""
    rows: List[List[float]] = []
    labels: List[int] = []
    window_days = None
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        if next(reader, None) != _CSV_HEADER:
            raise SchemaError(path, 1, "unexpected feature CSV header")
        for row in reader:
            try:
                if len(row) != len(_CSV_HEADER):
                    raise ValueError(f"{len(row)} columns, expected {len(_CSV_HEADER)}")
                values = [float(v) for v in row[3:]]
                for i, value in enumerate(values):
                    if not math.isfinite(value):
                        raise ValueError(f"non-finite {FEATURE_NAMES[i]} {row[3 + i]!r}")
                window = int(row[1])
                if window_days is None:
                    window_days = window
                elif window != window_days:
                    raise ValueError(f"window_days {row[1]!r} differs from the first "
                                     f"row's {window_days}")
                if row[2] not in ("0", "1"):
                    raise ValueError(f"label {row[2]!r} is not 0 or 1")
                labels.append(int(row[2]))
            except ROW_ERRORS as exc:
                raise SchemaError(path, reader.line_num,
                                  f"bad feature row: {exc}") from exc
            rows.append(values)
    X = np.array(rows, dtype=np.float64).reshape(len(rows), FEATURE_COUNT)
    return X, np.array(labels, dtype=np.int64)
