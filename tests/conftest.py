"""Shared builders for the test suite."""

import itertools

import pytest

from slidscan import dataio
from slidscan.dataio import Dataset
from slidscan.ledger import Category, DexOrder, PoolRecord

_hash_counter = itertools.count(1)

OWNER = "0xowner00000000000000000000000000000000001"
USER = "0xuser000000000000000000000000000000000002"
POOL = "0xpool000000000000000000000000000000000003"
T0 = 1_700_000_000


@pytest.fixture(params=["orjson", "stdlib"])
def reader(request, monkeypatch):
    """Run a test on each path of `dataio.iter_jsonl` and of the order
    writer's float text: orjson's, where installed, and the stdlib's,
    forced by hiding orjson."""
    if request.param == "stdlib":
        monkeypatch.setattr(dataio, "_orjson_loads", None)
        monkeypatch.setattr(dataio, "_orjson_dumps", None)
    elif dataio._orjson_loads is None:
        pytest.skip("orjson is not installed")
    return request.param


def make_pool(owner=OWNER, lpt_burned=False, created=T0, pool_address=POOL,
              deployment_gas_usd=0.0) -> PoolRecord:
    return PoolRecord(
        pool_address=pool_address,
        base_address="0xbase",
        paired_address="0xpaired",
        owner_address=owner,
        created_time_pool=created,
        created_time_token=created - 3600,
        lpt_burned=lpt_burned,
        deployment_gas_usd=deployment_gas_usd,
    )


def make_order(category, y_base, y_paired=0.0, sender=OWNER, ts=None,
               price_base=1.0, gas=0.0, pool_address=POOL,
               x_paired=None, x_base=None, block=None) -> DexOrder:
    n = next(_hash_counter)
    if ts is None:
        ts = T0 + n
    return DexOrder(
        block=block if block is not None else ts // 12,
        timestamp=ts,
        hash=f"0x{n:06x}",
        category=Category(category),
        pool_address=pool_address,
        sender=sender,
        x_paired=x_paired,
        x_base=x_base,
        y_paired=y_paired,
        y_base=y_base,
        price_paired=0.0,
        price_base=price_base,
        gas_fee_usd=gas,
    )


def order_to_row(order: DexOrder) -> dict:
    """The reference encoding of an order row, which the order writer's
    tests compare its lines against: `dataio.dump_row` of this dict is the
    line `dataio.write_orders_jsonl` writes for an order in its contract."""
    return {
        "block": order.block,
        "timestamp": order.timestamp,
        "hash": order.hash,
        "category": order.category,
        "pool_address": order.pool_address,
        "sender": order.sender,
        "x_paired": repr(order.x_paired) if order.x_paired is not None else None,
        "x_base": repr(order.x_base) if order.x_base is not None else None,
        "y_paired": repr(order.y_paired),
        "y_base": repr(order.y_base),
        "price_paired": order.price_paired,
        "price_base": order.price_base,
        "gas_fee_usd": order.gas_fee_usd,
    }


def make_dataset(entries) -> Dataset:
    """The Dataset `dataio.ingest` builds, from `(pool, orders)` or
    `(pool, orders, profile)` entries; each pool keeps its orders in the
    order given. Run `analysis.enrich` on it where verdict labels are
    needed."""
    pools, orders, profiles = {}, {}, {}
    for pool, pool_orders, *profile in entries:
        pools[pool.pool_address] = pool
        orders[pool.pool_address] = list(pool_orders)
        if profile:
            profiles[pool.paired_address] = profile[0]
    return Dataset(pools=pools, orders=orders, profiles=profiles)


def realized_share_on_day(report, day: int = 0) -> float:
    """Share of a profit report's total profit-taking USD that landed on one
    day since deployment."""
    total = sum(usd for _, usd in report.rows.values())
    if total <= 0:
        return 0.0
    return report.rows.get(day, (0, 0.0))[1] / total


class UnitShareOracle:
    """Direct LP-token-unit accounting: the independent owner-share model.

    Deposits mint units pro rata to pool value, withdrawals burn them; the
    owner's share is simply units_owner / units_total. Used to cross-check
    the incremental rescaling update.
    """

    def __init__(self):
        self.value = 0.0
        self.units_total = 0.0
        self.units_owner = 0.0
        self.share = 0.0

    def apply(self, category: str, usd: float, is_owner: bool) -> None:
        before = self.value
        if category in ("Buy", "Deposit"):
            self.value = before + usd
        else:
            self.value = max(before - usd, 0.0)
        if category == "Deposit":
            if before <= 0:
                self.units_total = 0.0
                self.units_owner = 0.0
                minted = usd
            elif self.units_total == 0:
                minted = usd
            else:
                minted = self.units_total * usd / before
            self.units_total += minted
            if is_owner:
                self.units_owner += minted
        elif category == "Withdraw" and before > 0 and self.units_total > 0:
            burned = min(self.units_total * usd / before, self.units_total)
            self.units_total -= burned
            if is_owner:
                self.units_owner = max(self.units_owner - burned, 0.0)
        if self.units_total > 0 and self.value > 0:
            self.share = self.units_owner / self.units_total


@pytest.fixture
def pool():
    return make_pool()
