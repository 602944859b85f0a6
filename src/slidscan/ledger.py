"""Constant-product AMM ledger: replay a pool's order stream and track its accounting.

A liquidity pool holds a base token (the one with independent USD value) and a
paired token. Swaps preserve the product of the two reserves (x * y = k);
`swap_amount_out` is that fill, on floats or on fractions.Fraction for exact
verification. The replay itself keeps only the USD accounting the fraud
analytics downstream read:

  * pool_value_usd   -- running base-token value of the pool, updated by the
                        signed base leg of every order (inflow for buys and
                        deposits, outflow for sells and withdrawals);
  * owner_share      -- the deployer's fraction of the pool, updated only on
                        deposit/withdraw orders: every provider's stake is
                        rescaled by old_value/new_value, and the acting
                        provider additionally gains/loses moved_value/new_value.

Reserves are not mirrored per order. `audit_reserves` is the separate check of
an order list's recorded post-order balances against its token legs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, List, Optional, Tuple, Union

Number = Union[float, Fraction]

SECONDS_PER_DAY = 86_400

_INF = math.inf

# Recorded post-order balances disagreeing with reconstructed ones beyond this
# relative gap count as an audit mismatch (real logs may embed fee effects).
BALANCE_REL_TOL = 1e-6


class LedgerError(Exception):
    """Base class for replay failures."""


class ZeroReserve(LedgerError):
    """Swap attempted against an empty reserve."""


class SwapOverflow(LedgerError):
    """A reserve product, the pool value or an owner sum left the
    representable floating-point range."""


class NonMonotonicTime(LedgerError):
    """Order timestamp precedes the last applied order."""


class NegativePoolValue(LedgerError):
    """Recorded flows would drive the pool's base value below zero."""


class PreconditionViolated(LedgerError):
    """A scenario breaks the assumptions of the guarantee check."""


class Dex(str, Enum):
    UNISWAP = "Uniswap"
    SUSHISWAP = "SushiSwap"
    BALANCER = "Balancer"
    CURVE = "Curve"
    PANCAKESWAP = "PancakeSwap"
    BANCORSWAP = "BancorSwap"
    SYNTHETIC = "Synthetic"


class Category(str, Enum):
    BUY = "Buy"
    SELL = "Sell"
    DEPOSIT = "Deposit"
    WITHDRAW = "Withdraw"


@dataclass(frozen=True)
class PoolRecord:
    """Static identity of one liquidity pool."""

    pool_address: str
    base_address: str
    paired_address: str
    owner_address: str
    created_time_pool: int
    created_time_token: int
    dex: str = Dex.SYNTHETIC.value
    name: str = ""
    lpt_burned: bool = False
    deployment_gas_usd: float = 0.0

    def __post_init__(self):
        if self.created_time_token > self.created_time_pool:
            raise ValueError(
                f"pool {self.pool_address}: token created after pool "
                f"({self.created_time_token} > {self.created_time_pool})"
            )
        if self.base_address == self.paired_address:
            raise ValueError(f"pool {self.pool_address}: base and paired token identical")


@dataclass(slots=True)
class DexOrder:
    """One timestamped DEX activity against a pool.

    y_* legs are unsigned token amounts; the direction comes from `category`.
    x_* are the recorded post-order pool balances, read only by
    `audit_reserves` (None when the source did not record them, e.g.
    reconstructed-only synthetic streams). The type does
    not check its values: rows read from outside are validated by the one
    order decoder, `dataio.decode_order`, which returns every field of the
    order in the field order below, so `DexOrder(*decode_order(row))` is the
    row's order. It has no ordering of its own: a
    pool's orders execute in the order they are listed (in a file, the line
    order), and their timestamps never decrease.

    The class is slotted and mutable, which makes construction several times
    cheaper than a frozen dataclass: orders compare by field and work with
    `dataclasses.replace`, but are not hashable. Nothing changes an order
    once built.
    """

    block: int
    timestamp: int
    hash: str
    category: Category
    pool_address: str
    sender: str
    x_paired: Optional[float]
    x_base: Optional[float]
    y_paired: float
    y_base: float
    price_paired: float
    price_base: float
    gas_fee_usd: float = 0.0


class LedgerState:
    """Evolving pool accounting over a replay: the figures profit reports read.

    A deposit or withdrawal that leaves the pool empty freezes the owner
    share. Reserves are not mirrored here; `audit_reserves` reconstructs them
    from an order list when recorded balances need checking.
    """

    __slots__ = ("pool_value_usd", "owner_share", "last_timestamp")

    def __init__(self):
        self.pool_value_usd: float = 0.0
        self.owner_share: float = 0.0
        self.last_timestamp: int = -(2 ** 62)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LedgerState):
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in self.__slots__)

    def __repr__(self) -> str:
        return (f"LedgerState(value={self.pool_value_usd!r}, share={self.owner_share!r}, "
                f"last_timestamp={self.last_timestamp})")


# ---------------------------------------------------------------------------
# Swap math
# ---------------------------------------------------------------------------

def swap_amount_out(reserve_in: Number, reserve_out: Number, k: Number,
                    amount_in: Number) -> Tuple[Number, Number, Number]:
    """Pure constant-product fill: returns (amount_out, reserve_in', reserve_out').

    The output reserve is recomputed from k so the product stays anchored to
    within one rounding step per swap (exact under Fraction inputs).
    """
    if reserve_in <= 0 or reserve_out <= 0:
        raise ZeroReserve(f"swap against empty reserve ({reserve_in}, {reserve_out})")
    if amount_in <= 0:
        raise ValueError("amount_in must be positive")
    new_in = reserve_in + amount_in
    new_out = k / new_in
    if isinstance(new_out, float) and not math.isfinite(new_out):
        raise SwapOverflow("reserve product not representable")
    return reserve_out - new_out, new_in, new_out


# ---------------------------------------------------------------------------
# Order replay
# ---------------------------------------------------------------------------

def advance_state(state: LedgerState, timestamp: int, category: str,
                  is_owner: bool, y_base: float, price_base: float) -> None:
    """Apply one order in place. Hot path shared by batch and streaming.

    `category` is a Category or its value string ("Buy"/"Sell"/"Deposit"/"Withdraw").
    Positional calling keeps the per-order overhead low on big streams.
    """
    if timestamp < state.last_timestamp:
        raise NonMonotonicTime(
            f"order at {timestamp} before last applied {state.last_timestamp}")
    state.last_timestamp = timestamp

    y_usd = y_base * price_base
    signed = y_usd if category == "Buy" or category == "Deposit" else -y_usd

    x_prev = state.pool_value_usd
    x_new = x_prev + signed
    if not 0.0 <= x_new < _INF:
        if x_new == _INF:
            raise SwapOverflow(f"pool value {x_prev} + {signed} out of float range")
        if x_new < -max(1e-6, 1e-9 * x_prev):
            raise NegativePoolValue(f"pool value {x_prev} + {signed} < 0")
        x_new = 0.0
    state.pool_value_usd = x_new

    # Owner-share update applies to liquidity events only; swaps move value
    # but not provider proportions. Draining the pool to zero freezes the
    # share at its prior value.
    if (category == "Deposit" or category == "Withdraw") and x_new != 0.0:
        share = state.owner_share * (x_prev / x_new)
        if is_owner:
            share += signed / x_new
        if share < 0.0:
            share = 0.0
        elif share > 1.0:
            share = 1.0
        state.owner_share = share


def audit_reserves(orders: Iterable[DexOrder]) -> Tuple[float, float, int]:
    """Check a pool's recorded post-order balances against its legs.

    Replays the orders' token legs, in execution order, from empty reserves
    and returns (reserve_paired, reserve_base, mismatches). Recorded balances
    (x_paired, x_base) are trusted when present; an order whose recorded balances differ
    from the reconstruction by more than BALANCE_REL_TOL counts one mismatch.
    Without them the reconstruction carries on, floored at zero.
    """
    reserve_paired = 0.0
    reserve_base = 0.0
    mismatches = 0
    for order in orders:
        category = order.category
        if category == "Buy":
            rec_paired = reserve_paired - order.y_paired
            rec_base = reserve_base + order.y_base
        elif category == "Sell":
            rec_paired = reserve_paired + order.y_paired
            rec_base = reserve_base - order.y_base
        elif category == "Deposit":
            rec_paired = reserve_paired + order.y_paired
            rec_base = reserve_base + order.y_base
        else:
            rec_paired = reserve_paired - order.y_paired
            rec_base = reserve_base - order.y_base

        x_paired, x_base = order.x_paired, order.x_base
        if x_paired is not None and x_base is not None:
            if rec_paired or rec_base:
                dp = abs(x_paired - rec_paired)
                db = abs(x_base - rec_base)
                if (dp > BALANCE_REL_TOL * max(abs(rec_paired), abs(x_paired), 1e-12)
                        or db > BALANCE_REL_TOL * max(abs(rec_base), abs(x_base), 1e-12)):
                    mismatches += 1
            reserve_paired = x_paired
            reserve_base = x_base
        else:
            reserve_paired = rec_paired if rec_paired > 0 else 0.0
            reserve_base = rec_base if rec_base > 0 else 0.0
    return reserve_paired, reserve_base, mismatches


# ---------------------------------------------------------------------------
# Owner financial guarantee
# ---------------------------------------------------------------------------

def verify_owner_guarantee(scenario: List[DexOrder], rel_tol: float = 1e-9,
                           exact: bool = False) -> bool:
    """Check that round-trip investor flows leave the owner's base stake intact.

    The scenario must start with the owner's deposit of (paired, base) and the
    owner must monopolise the paired supply: investors can only sell paired
    tokens they previously bought from this pool. When every investor's net
    paired position returns to zero, the base reserve must equal the initial
    deposit again.
    """
    if not scenario:
        raise PreconditionViolated("empty scenario")
    first = scenario[0]
    if first.category != Category.DEPOSIT:
        raise PreconditionViolated("scenario must start with the owner deposit")

    conv = Fraction if exact else float
    rp: Number = conv(first.y_paired)
    rb: Number = conv(first.y_base)
    y0 = rb
    if rp <= 0 or rb <= 0:
        raise PreconditionViolated("initial deposit must fund both reserves")
    k = rp * rb

    outstanding: Number = conv(0)  # paired tokens held outside the pool
    for order in scenario[1:]:
        if order.category == Category.BUY:
            out, rb, rp = swap_amount_out(rb, rp, k, conv(order.y_base))
            outstanding += out
        elif order.category == Category.SELL:
            amount = conv(order.y_paired)
            if amount > outstanding and (
                    exact or float(amount - outstanding) > 1e-9 * max(float(outstanding), 1.0)):
                raise PreconditionViolated(
                    "investors sold more paired tokens than they acquired")
            _, rp, rb = swap_amount_out(rp, rb, k, amount)
            outstanding -= amount
        else:
            raise PreconditionViolated("guarantee scenarios admit swaps only")

    net = float(outstanding)
    if abs(net) > 1e-9 * max(1.0, float(first.y_paired)):
        raise PreconditionViolated(
            f"scenario leaves a net paired position of {net}; investors must sell back all")
    return abs(float(rb) - float(y0)) <= rel_tol * float(y0)
