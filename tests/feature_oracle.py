"""An independent oracle for the 57 window features.

`oracle_features` recomputes each value by brute force, straight from
docs/feature_schema.md: it filters the pool's orders to the window, then
walks them once per group. It imports nothing from `slidscan.features` or
`slidscan.metrics`; the feature names, their order, the ratio cap and the
alive horizon come from the schema doc, and the owner's unrealized value
from `synth.oracle_report` (LP-unit share accounting) on the window's
orders. Only tests call it.
"""

import math
import re
from pathlib import Path

import numpy as np

from slidscan.ledger import SECONDS_PER_DAY, Category
from slidscan.synth import oracle_report

SCHEMA_DOC = Path(__file__).resolve().parents[1] / "docs" / "feature_schema.md"

# The schema's ratio conventions and alive horizon.
RATIO_CAP = 1e9
ALIVE_HORIZON_DAYS = 30


def schema_names():
    """The feature names of the schema doc's `| # | name | definition |`
    tables, in order."""
    names = []
    for line in SCHEMA_DOC.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and re.fullmatch(r"\d+(–\d+)?", cells[0]):
            names += re.findall(r"`([a-z0-9_]+)`", cells[1])
    return names


SCHEMA_NAMES = schema_names()


def ratio(num, den):
    """0 / 0 is 0, x / 0 is 1e9 with the sign of x."""
    if den == 0:
        return 0.0 if num == 0 else math.copysign(RATIO_CAP, num)
    return num / den


def plain_sum(values):
    """A left-to-right float sum from 0.0 (Python's `sum` may compensate)."""
    total = 0.0
    for value in values:
        total += value
    return total


def oracle_features(pool, orders, d):
    """The pool's 57 feature values over its first d days, a float64 array
    in the schema doc's order."""
    start = pool.created_time_pool
    window_end = start + d * SECONDS_PER_DAY
    window = [o for o in orders if o.timestamp < window_end]
    if not window:
        return np.zeros(len(SCHEMA_NAMES))
    owner = pool.owner_address
    f = {}

    def day(order):
        return (order.timestamp - start) // SECONDS_PER_DAY

    def usd(order):
        return order.y_base * order.price_base

    def count(who, category):
        return sum(1 for o in window if (o.sender == owner) == (who == "owner")
                   and o.category == category)

    # OAF and the UAF counts.
    for who in ("owner", "user"):
        for suffix, category in (("dep", Category.DEPOSIT), ("with", Category.WITHDRAW),
                                 ("buy", Category.BUY), ("sell", Category.SELL)):
            f[f"{who}_{suffix}"] = count(who, category)

    # UAF: distinct non-owner senders, overall and per active day (a day
    # with any order).
    by_day = {}
    for o in window:
        by_day.setdefault(day(o), []).append(o)
    last_day = max(by_day)
    users_on = {k: len({o.sender for o in day_orders if o.sender != owner})
                for k, day_orders in by_day.items()}
    first = users_on.get(0, 0)
    last = users_on[last_day]
    high = max(users_on.values())
    low = min(users_on.values())
    f["user_count"] = len({o.sender for o in window if o.sender != owner})
    f["user_count_first"] = first
    f["user_count_high"] = high
    f["user_count_last"] = last
    f["user_count_low"] = low
    f["r_user_first_on_high"] = ratio(first, high)
    f["r_user_last_on_low"] = ratio(last, low)
    f["r_user_first_on_low"] = ratio(first, low)
    f["r_user_first_on_last"] = ratio(first, last)
    f["r_user_last_on_high"] = ratio(last, high)
    f["r_user_low_on_high"] = ratio(low, high)

    # The pool value after each order (buys and deposits add their base-leg
    # USD, sells and withdrawals take it, never below zero), and the impact
    # of each owner sell or withdrawal against the value before it.
    value = 0.0
    values_after = []
    impacts = []
    for o in window:
        before = value
        if o.category in (Category.BUY, Category.DEPOSIT):
            value = before + usd(o)
        else:
            value = max(before - usd(o), 0.0)
            if o.sender == owner:
                impacts.append(usd(o) / before if before > 0 else math.inf)
        values_after.append(value)

    # PF.
    owner_orders = [o for o in window if o.sender == owner]
    takings = [o for o in owner_orders
               if o.category in (Category.SELL, Category.WITHDRAW)]
    invested = plain_sum(usd(o) for o in owner_orders
                         if o.category in (Category.BUY, Category.DEPOSIT))
    realized = plain_sum(usd(o) for o in takings)
    gas = plain_sum([pool.deployment_gas_usd] + [o.gas_fee_usd for o in owner_orders])
    unrealized = oracle_report(window, pool).unrealized_current_usd
    total = (realized - invested - gas) + unrealized
    f["owner_invested"] = invested
    f["owner_realized"] = realized
    f["owner_unrealized"] = unrealized
    f["owner_total_pnl"] = total
    f["r_owner_total_on_invested"] = ratio(total, invested)
    f["r_owner_realized_on_invested"] = ratio(realized, invested)
    f["r_owner_roi"] = ratio(realized - invested, invested)
    f["r_owner_unrealized_on_realized"] = ratio(unrealized, realized)
    f["r_owner_unrealized_on_invested"] = ratio(unrealized, invested)
    f["owner_taking_count"] = len(takings)
    finite = [impact for impact in impacts if math.isfinite(impact)]
    i_min = min(finite) if finite else 0.0
    i_max = max(finite) if finite else 0.0
    i_avg = plain_sum(finite) / len(finite) if finite else 0.0
    f["impact_min"] = i_min
    f["impact_max"] = i_max
    f["impact_avg"] = i_avg
    f["r_impact_min_on_avg"] = ratio(i_min, i_avg)
    f["r_impact_max_on_avg"] = ratio(i_max, i_avg)
    f["r_impact_min_on_max"] = ratio(i_min, i_max)

    # LPF.
    last_ts = window[-1].timestamp
    f["age_days"] = min(d, last_day + 1)
    f["is_alive"] = 1.0 if window_end - last_ts <= ALIVE_HORIZON_DAYS * SECONDS_PER_DAY else 0.0
    volume = {k: plain_sum(map(usd, day_orders)) for k, day_orders in by_day.items()}
    vols = {"first": volume.get(0, 0.0), "last": volume[last_day],
            "min": min(volume.values()), "max": max(volume.values())}
    day0 = [v for o, v in zip(window, values_after) if day(o) == 0]
    pvals = {"first": day0[-1] if day0 else 0.0, "last": values_after[-1],
             "min": min(values_after), "max": max(values_after)}
    for group, named in (("vol", vols), ("pval", pvals)):
        for key, amount in named.items():
            f[f"{group}_{key}"] = amount
        for num, den in (("first", "last"), ("first", "min"), ("first", "max"),
                         ("last", "min"), ("last", "max"), ("min", "max")):
            f[f"r_{group}_{num}_on_{den}"] = ratio(named[num], named[den])

    return np.array([float(f[name]) for name in SCHEMA_NAMES])
