"""Owner profit accounting over a replayed pool.

Three quantities drive the drain heuristics downstream:

  * realized profit  -- (sum of owner sell + withdraw value) minus (sum of
                        owner buy + deposit value) minus gas, every term taken
                        as the base-token USD leg at order time;
  * unrealized profit -- pool_value * owner_share at an evaluation time; the
                        first-month variant is snapshotted 30 days after pool
                        deployment;
  * profit-taking events -- one per owner sell/withdraw, sized by
                        value / pool_value_immediately_before.

ProfitTracker is the single incremental implementation: profit_report and
the streaming detect pipeline both drive it, so batch and streaming paths
cannot diverge. Every figure comes from an order's timestamp, category,
sender, base leg, base price and gas fee; paired legs and recorded pool
balances never enter it. The independent cross-check is
`synth.oracle_report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List

from .ledger import (
    DexOrder,
    LedgerError,
    LedgerState,
    PoolRecord,
    advance_state,
)

FIRST_MONTH_SECONDS = 30 * 86_400

# Sentinel impact for a profit-taking order hitting an empty pool; excluded
# from min/max aggregates and from threshold comparisons.
IMPACT_UNDEFINED = math.inf


@dataclass(frozen=True)
class ProfitTakingEvent:
    """One owner sell or withdraw, with its size relative to the pool."""

    order_index: int
    timestamp: int
    kind: str                     # "Sell" | "Withdraw"
    value_usd: float
    pool_value_before_usd: float
    impact: float                 # value / pool_value_before; inf if before == 0


@dataclass
class ProfitReport:
    """Aggregate owner-profit view of one pool's history."""

    realized_profit_usd: float = 0.0
    invested_usd: float = 0.0
    returned_usd: float = 0.0
    gas_usd: float = 0.0
    unrealized_first_month_usd: float = 0.0
    unrealized_current_usd: float = 0.0
    profit_taking: List[ProfitTakingEvent] = field(default_factory=list)
    profit_taking_count: int = 0
    max_impact: float = 0.0
    min_impact: float = 0.0
    owner_order_count: int = 0    # any owner DEX activity, for eligibility gates
    undefined_impacts: int = 0


class ProfitTracker:
    """Incremental profit accounting for one pool.

    Feed orders in execution order (timestamps never decrease) via add()
    (the decoded values of one order row) or add_order(); report() covers
    the orders added so far and may be called between adds. Keeps O(1) state (a LedgerState
    plus running sums) and the profit-taking event list.
    """

    __slots__ = (
        "pool", "state", "invested", "returned", "gas", "events",
        "owner_orders", "month1_deadline", "month1_value", "month1_share",
        "month1_seen",
    )

    def __init__(self, pool: PoolRecord):
        self.pool = pool
        self.state = LedgerState()
        self.invested = 0.0
        self.returned = 0.0
        self.gas = float(pool.deployment_gas_usd)
        self.events: List[ProfitTakingEvent] = []
        self.owner_orders = 0
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
            impact = y_usd / value_before if value_before > 0 else IMPACT_UNDEFINED
            self.events.append(ProfitTakingEvent(
                order_index=state.order_index,
                timestamp=timestamp,
                kind=category,
                value_usd=y_usd,
                pool_value_before_usd=value_before,
                impact=impact,
            ))

    def add_order(self, order: DexOrder) -> None:
        """add() one order; a ledger violation names the pool and the order."""
        try:
            self.add(order.timestamp, order.category, order.sender,
                     order.y_base, order.price_base, order.gas_fee_usd)
        except LedgerError as exc:
            raise type(exc)(
                f"pool {self.pool.pool_address} order {order.hash}: {exc}") from exc

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
        finite = [e.impact for e in self.events if math.isfinite(e.impact)]
        return ProfitReport(
            realized_profit_usd=self.returned - self.invested - self.gas,
            invested_usd=self.invested,
            returned_usd=self.returned,
            gas_usd=self.gas,
            unrealized_first_month_usd=month1,
            unrealized_current_usd=current,
            profit_taking=list(self.events),
            profit_taking_count=len(self.events),
            max_impact=max(finite) if finite else 0.0,
            min_impact=min(finite) if finite else 0.0,
            owner_order_count=self.owner_orders,
            undefined_impacts=len(self.events) - len(finite),
        )


# ---------------------------------------------------------------------------
# List-based entry point
# ---------------------------------------------------------------------------

def profit_report(pool: PoolRecord, orders: Iterable[DexOrder]) -> ProfitReport:
    """Full profit report for one pool from its complete order list, in
    execution order."""
    tracker = ProfitTracker(pool)
    for order in orders:
        tracker.add_order(order)
    return tracker.report()
