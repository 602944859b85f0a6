"""Owner profit accounting over a replayed pool.

Three quantities drive the drain heuristics downstream:

  * realized profit  -- (sum of owner sell + withdraw value) minus (sum of
                        owner buy + deposit value) minus gas, every term taken
                        as the base-token USD leg at order time;
  * unrealized profit -- pool_value * owner_share at an evaluation time; the
                        first-month variant is snapshotted 30 days after pool
                        deployment;
  * profit taking     -- every owner sell/withdraw, sized by its impact,
                        value / pool_value_immediately_before; the report
                        keeps their count and the min, max and mean of the
                        finite impacts (an order against an empty pool has
                        no impact and is counted as undefined).

ProfitTracker is the single incremental implementation: profit_report and
the streaming detect pipeline both drive it, so batch and streaming paths
cannot diverge. Every figure comes from an order's timestamp, category,
sender, base leg, base price and gas fee; paired legs and recorded pool
balances never enter it. The independent cross-check is
`synth.oracle_report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .ledger import (
    DexOrder,
    LedgerState,
    PoolRecord,
    SwapOverflow,
    advance_state,
)

FIRST_MONTH_SECONDS = 30 * 86_400

_INF = math.inf


@dataclass
class ProfitReport:
    """Aggregate owner-profit view of one pool's history."""

    realized_profit_usd: float = 0.0
    invested_usd: float = 0.0
    returned_usd: float = 0.0
    gas_usd: float = 0.0
    unrealized_first_month_usd: float = 0.0
    unrealized_current_usd: float = 0.0
    profit_taking_count: int = 0  # owner sells and withdrawals
    max_impact: float = 0.0       # min, max and mean over the finite impacts;
    min_impact: float = 0.0       # 0.0 when there are none
    mean_impact: float = 0.0
    owner_order_count: int = 0    # any owner DEX activity, for eligibility gates
    undefined_impacts: int = 0    # profit taking against an empty pool


class ProfitTracker:
    """Incremental profit accounting for one pool.

    Feed orders in execution order (timestamps never decrease) via add(),
    the decoded values of one order row; report() covers the orders added
    so far and may be called between adds. Keeps O(1) state:
    a LedgerState plus running sums, counts and impact extrema.
    """

    __slots__ = (
        "pool", "state", "invested", "returned", "gas", "owner_orders",
        "takings", "undefined", "impact_min", "impact_max", "impact_sum",
        "month1_deadline", "month1_value", "month1_share", "month1_seen",
    )

    def __init__(self, pool: PoolRecord):
        self.pool = pool
        self.state = LedgerState()
        self.invested = 0.0
        self.returned = 0.0
        self.gas = float(pool.deployment_gas_usd)
        self.owner_orders = 0
        self.takings = 0
        self.undefined = 0
        self.impact_min = _INF
        self.impact_max = -_INF
        self.impact_sum = 0.0
        self.month1_deadline = pool.created_time_pool + FIRST_MONTH_SECONDS
        self.month1_value = 0.0
        self.month1_share = 0.0
        self.month1_seen = False

    def add(self, timestamp: int, category: str, sender: str,
            y_base: float, price_base: float, gas_fee_usd: float = 0.0) -> None:
        state = self.state
        if not self.month1_seen and timestamp > self.month1_deadline:
            self.month1_value = state.pool_value_usd
            self.month1_share = state.owner_share
            self.month1_seen = True

        is_owner = sender == self.pool.owner_address
        value_before = state.pool_value_usd
        advance_state(state, timestamp, category, is_owner, y_base, price_base)
        if not is_owner:
            return

        self.owner_orders += 1
        self.gas += gas_fee_usd
        y_usd = y_base * price_base
        if category == "Buy" or category == "Deposit":
            self.invested += y_usd
        else:
            self.returned += y_usd
            self.takings += 1
            impact = y_usd / value_before if value_before > 0 else _INF
            if impact < _INF:
                # A plain left-to-right sum from 0.0 (no compensation):
                # the exported impact_avg is this sum over the finite count.
                self.impact_sum += impact
                if impact < self.impact_min:
                    self.impact_min = impact
                if impact > self.impact_max:
                    self.impact_max = impact
            else:
                self.undefined += 1
        if not (-_INF < self.gas < _INF and self.invested < _INF
                and self.returned < _INF):
            raise SwapOverflow(f"owner sums out of float range: gas {self.gas}, "
                               f"invested {self.invested}, returned {self.returned}")

    def report(self) -> ProfitReport:
        """Report on the orders added so far; it leaves the tracker unchanged,
        so a mid-stream report does not alter a later one."""
        state = self.state
        current = state.pool_value_usd * state.owner_share
        if self.month1_seen:
            month1 = self.month1_value * self.month1_share
        else:
            # History so far ends inside the first month: the latest state
            # stands in.
            month1 = current
        finite = self.takings - self.undefined
        return ProfitReport(
            realized_profit_usd=self.returned - self.invested - self.gas,
            invested_usd=self.invested,
            returned_usd=self.returned,
            gas_usd=self.gas,
            unrealized_first_month_usd=month1,
            unrealized_current_usd=current,
            profit_taking_count=self.takings,
            max_impact=self.impact_max if finite else 0.0,
            min_impact=self.impact_min if finite else 0.0,
            mean_impact=self.impact_sum / finite if finite else 0.0,
            owner_order_count=self.owner_orders,
            undefined_impacts=self.undefined,
        )


# ---------------------------------------------------------------------------
# List-based entry point
# ---------------------------------------------------------------------------

def profit_report(pool: PoolRecord, orders: Iterable[DexOrder]) -> ProfitReport:
    """Full profit report for one pool from its complete order list, in
    execution order."""
    tracker = ProfitTracker(pool)
    for order in orders:
        tracker.add(order.timestamp, order.category, order.sender,
                    order.y_base, order.price_base, order.gas_fee_usd)
    return tracker.report()
