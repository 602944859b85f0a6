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

import math
import struct
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dataio import anonymize_address, iter_csv, write_csv
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

    The running state is O(1) per pool: the replay holds only the current
    day's users, volume and closing value, the day-0 figures, and extrema
    over the days already closed. When an order opens a new day, the
    previous day is folded into those extrema, so a window costs the same
    however many days are active in it.
    """
    if any(d < 1 for d in d_list):
        raise ValueError("window must be at least one day")
    start = pool.created_time_pool
    tracker = ProfitTracker(pool)
    state = tracker.state
    owner = pool.owner_address

    owner_counts = dict.fromkeys(Category, 0)
    user_counts = dict.fromkeys(Category, 0)
    all_users = set()
    day = None            # the current day: the last order's
    day_users = set()     # its non-owner senders
    day_volume = 0.0      # its base-leg USD, summed in order from 0.0
    day_close = 0.0       # the pool value after its last order
    first = (0, 0.0, 0.0)  # day 0's users, volume and close, once closed
    # Over the closed days: user count high and low, volume min and max.
    u_high, u_low = 0, math.inf
    v_min, v_max = math.inf, -math.inf
    pval_min = math.inf
    pval_max = -math.inf
    last_ts: Optional[int] = None

    by_d: Dict[int, Tuple[np.ndarray, ProfitReport]] = {}
    stream = iter(orders)
    order = next(stream, None)
    for d in sorted(set(d_list)):
        window_end = start + d * SECONDS_PER_DAY
        while order is not None and order.timestamp < window_end:
            timestamp, sender = order.timestamp, order.sender
            tracker.add(timestamp, order.category, sender, order.y_base,
                        order.price_base, order.gas_fee_usd)
            order_day = (timestamp - start) // SECONDS_PER_DAY
            if order_day != day:
                if day is not None:
                    users = len(day_users)
                    if day == 0:
                        first = (users, day_volume, day_close)
                    u_high = max(u_high, users)
                    u_low = min(u_low, users)
                    v_min = min(v_min, day_volume)
                    v_max = max(v_max, day_volume)
                day, day_users, day_volume = order_day, set(), 0.0
            if sender == owner:
                owner_counts[order.category] += 1
            else:
                user_counts[order.category] += 1
                all_users.add(sender)
                day_users.add(sender)
            day_volume += order.y_base * order.price_base
            day_close = value = state.pool_value_usd
            if value < pval_min:     # min() and max(), inline
                pval_min = value
            if value > pval_max:
                pval_max = value
            last_ts = timestamp
            order = next(stream, None)
        report = tracker.report()
        if last_ts is None:
            values = np.zeros(FEATURE_COUNT, dtype=np.float64)
        else:
            users = len(day_users)
            u_first, v_first, p_first = (users, day_volume, day_close) if day == 0 else first
            values = _window_values(
                pool, d, report, owner_counts, user_counts, len(all_users),
                (u_first, max(u_high, users), users, min(u_low, users)),
                (v_first, day_volume, min(v_min, day_volume), max(v_max, day_volume)),
                (p_first, day_close, pval_min, pval_max), last_ts)
        by_d[d] = (values, report)
    return [by_d[d] for d in d_list]


def _window_values(pool: PoolRecord, d: int, report: ProfitReport,
                   owner_counts: Dict[Category, int], user_counts: Dict[Category, int],
                   user_count: int, users: Tuple[int, int, int, int],
                   volumes: Tuple[float, float, float, float],
                   pvals: Tuple[float, float, float, float],
                   last_ts: int) -> np.ndarray:
    """One non-empty window's 57 values, in FEATURE_NAMES order, from the
    replay's figures at its end: the per-category counts, the distinct
    users, the daily user counts (first, high, last, low), the daily
    volumes and the pool values (first, last, min, max each), and the last
    order's timestamp."""
    u_first, u_high, u_last, u_low = users
    invested = report.invested_usd
    realized = report.returned_usd
    unrealized = report.unrealized_current_usd
    total_pnl = report.realized_profit_usd + unrealized
    i_min, i_max, i_avg = report.min_impact, report.max_impact, report.mean_impact
    start = pool.created_time_pool
    lifetime_days = (last_ts - start) // SECONDS_PER_DAY + 1
    alive = (start + d * SECONDS_PER_DAY - last_ts) <= ALIVE_HORIZON_SECONDS
    return np.array([
        # OAF_NAMES
        owner_counts[Category.DEPOSIT], owner_counts[Category.WITHDRAW],
        owner_counts[Category.BUY], owner_counts[Category.SELL],
        # UAF_NAMES
        user_counts[Category.DEPOSIT], user_counts[Category.WITHDRAW],
        user_counts[Category.BUY], user_counts[Category.SELL],
        user_count, u_first, u_high, u_last, u_low,
        _ratio(u_first, u_high), _ratio(u_last, u_low), _ratio(u_first, u_low),
        _ratio(u_first, u_last), _ratio(u_last, u_high), _ratio(u_low, u_high),
        # PF_NAMES
        invested, realized, unrealized, total_pnl,
        _ratio(total_pnl, invested), _ratio(realized, invested),
        _ratio(realized - invested, invested), _ratio(unrealized, realized),
        _ratio(unrealized, invested), report.profit_taking_count,
        i_min, i_max, i_avg,
        _ratio(i_min, i_avg), _ratio(i_max, i_avg), _ratio(i_min, i_max),
        # LPF_NAMES
        min(d, lifetime_days), 1.0 if alive else 0.0,
        *volumes, *pvals,
        *_pair_ratios(*volumes), *_pair_ratios(*pvals),
    ], dtype=np.float64)


def _pair_ratios(first: float, last: float, low: float, high: float) -> Tuple[float, ...]:
    """The six LPF ratios of one group: first on last, min and max, last on
    min and max, and min on max."""
    return (_ratio(first, last), _ratio(first, low), _ratio(first, high),
            _ratio(last, low), _ratio(last, high), _ratio(low, high))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

_CSV_HEADER = ["pool_address", "window_days", "label"] + list(FEATURE_NAMES)
# One row of feature values as the bytes of a float64 matrix row.
_ROW_BYTES = struct.Struct(f"{FEATURE_COUNT}d")


def write_features_csv(addresses: Sequence[str], window_days: int,
                       labels: Sequence[bool], X: np.ndarray,
                       path: Union[str, Path], anonymize: bool = False) -> None:
    """One row per pool, by ascending address: row i of X holds the
    `window_days`-day features of addresses[i], labelled labels[i]."""
    write_csv(path, _CSV_HEADER, (
        [anonymize_address(addresses[i]) if anonymize else addresses[i],
         window_days, int(bool(labels[i]))] + [repr(float(v)) for v in X[i]]
        for i in sorted(range(len(addresses)), key=addresses.__getitem__)))


def read_features_csv(path: Union[str, Path]) -> Tuple[np.ndarray, np.ndarray]:
    """The (X, y) of a write_features_csv export: X float64 of shape
    (rows, 57), y 0/1 int64. A wrong header, a malformed row (column count,
    a window that is not an integer or differs from the first row's, a label
    that is not `0` or `1`), a non-finite value or a byte that is not UTF-8
    raises SchemaError with its line number (`dataio.iter_csv`). Each row's
    values go straight into one buffer of float64 bytes that becomes X, so
    reading holds about the matrix's own bytes."""
    matrix = bytearray()    # every row's values, row after row
    first_window = None

    def decode(row):
        nonlocal first_window
        values = [float(v) for v in row[3:]]
        for i, value in enumerate(values):
            if not math.isfinite(value):
                raise ValueError(f"non-finite {FEATURE_NAMES[i]} {row[3 + i]!r}")
        window = int(row[1])
        if first_window is None:
            first_window = window
        if window != first_window:
            raise ValueError(f"window_days {row[1]!r} differs from the first "
                             f"row's {first_window}")
        if row[2] not in ("0", "1"):
            raise ValueError(f"label {row[2]!r} is not 0 or 1")
        matrix.extend(_ROW_BYTES.pack(*values))
        return int(row[2])

    y = np.fromiter((label for _, label in iter_csv(path, _CSV_HEADER, decode, "feature")),
                    dtype=np.int64)
    return np.frombuffer(matrix, dtype=np.float64).reshape(len(y), FEATURE_COUNT), y
