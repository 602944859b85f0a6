"""JSONL dataset schemas, ingestion, and canonical writers.

Three row formats, one JSON object per line, field names matching the domain
types: pool records, DEX orders, and token security profiles. Token amounts
travel as decimal strings (lossless float round-trip via repr); USD prices
and fees are plain JSON numbers. Writers emit keys in a fixed order with
compact separators so generate -> ingest -> re-emit is byte-identical.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .ledger import Category, DexOrder, PoolRecord
from .metrics import ProfitReport
from .validators import SecurityProfile, Verdict

PathLike = Union[str, Path]


class SchemaError(Exception):
    """Malformed row; carries the offending file and line number."""

    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path} line {lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


class EmptyDataset(Exception):
    """No usable pools after ingestion."""


def anonymize_address(address: str) -> str:
    """Keep the first and last five characters of an identifier."""
    if len(address) <= 13:
        return address
    return f"{address[:5]}...{address[-5:]}"


# ---------------------------------------------------------------------------
# Row codecs
# ---------------------------------------------------------------------------

_CATEGORIES = {c.value: c for c in Category}
_INF = math.inf

# What a malformed row raises while decoded; readers wrap it in SchemaError.
ROW_ERRORS = (KeyError, ValueError, TypeError, OverflowError)


def pool_to_row(pool: PoolRecord) -> dict:
    return {
        "pool_address": pool.pool_address,
        "base_address": pool.base_address,
        "paired_address": pool.paired_address,
        "owner_address": pool.owner_address,
        "created_time_pool": pool.created_time_pool,
        "created_time_token": pool.created_time_token,
        "dex": pool.dex,
        "name": pool.name,
        "lpt_burned": pool.lpt_burned,
        "deployment_gas_usd": pool.deployment_gas_usd,
    }


def pool_from_row(row: dict) -> PoolRecord:
    return PoolRecord(
        pool_address=row["pool_address"],
        base_address=row["base_address"],
        paired_address=row["paired_address"],
        owner_address=row["owner_address"],
        created_time_pool=int(row["created_time_pool"]),
        created_time_token=int(row["created_time_token"]),
        dex=row.get("dex", "Synthetic"),
        name=row.get("name", ""),
        lpt_burned=bool(row["lpt_burned"]),
        deployment_gas_usd=float(row.get("deployment_gas_usd", 0.0)),
    )


def order_to_row(order: DexOrder) -> dict:
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


def decode_order(row: dict) -> Tuple[int, str, str, float, float, float]:
    """The one check of outside order values, for batch and streaming alike.

    Every column but the pool address, the recorded balances and price_paired
    is checked here (an `int` block, a `str` hash, both legs). Returns the
    `ProfitTracker.add` arguments (timestamp, category, sender, y_base,
    price_base, gas_fee_usd), or raises one of ROW_ERRORS."""
    timestamp = row["timestamp"]
    block = row["block"]
    tx_hash = row["hash"]
    category = row["category"]
    y_paired = float(row["y_paired"])
    y_base = float(row["y_base"])
    price_base = float(row["price_base"])
    gas_fee_usd = float(row.get("gas_fee_usd", 0.0))
    if (type(timestamp) is not int or type(block) is not int
            or type(tx_hash) is not str or category not in _CATEGORIES
            or not (0.0 <= y_paired < _INF and 0.0 <= y_base < _INF
                    and 0.0 < price_base < _INF and -_INF < gas_fee_usd < _INF)):
        raise ValueError(_order_fault(timestamp, block, tx_hash, category, y_paired,
                                      y_base, price_base, gas_fee_usd))
    return timestamp, category, row["sender"], y_base, price_base, gas_fee_usd


def _order_fault(timestamp, block, tx_hash, category, *amounts: float) -> str:
    if type(timestamp) is not int:
        return f"timestamp {timestamp!r} is not an integer"
    if type(block) is not int:
        return f"block {block!r} is not an integer"
    if type(tx_hash) is not str:
        return f"hash {tx_hash!r} is not a string"
    if category not in _CATEGORIES:
        return f"unknown category {category!r}"
    if not all(map(math.isfinite, amounts)):
        return "non-finite amount"
    return "negative token leg" if min(amounts[:2]) < 0 else "price_base must be positive"


def order_from_row(row: dict) -> DexOrder:
    timestamp, category, sender, y_base, price_base, gas_fee_usd = decode_order(row)
    price_paired = float(row.get("price_paired", 0.0))
    if not 0.0 <= price_paired < _INF:
        raise ValueError("price_paired must be finite and non-negative")
    return DexOrder(
        block=row["block"],
        timestamp=timestamp,
        hash=row["hash"],
        category=_CATEGORIES[category],
        pool_address=row["pool_address"],
        sender=sender,
        x_paired=None if row.get("x_paired") is None else float(row["x_paired"]),
        x_base=None if row.get("x_base") is None else float(row["x_base"]),
        y_paired=float(row["y_paired"]),
        y_base=y_base,
        price_paired=price_paired,
        price_base=price_base,
        gas_fee_usd=gas_fee_usd,
    )


def profile_to_row(token_address: str, profile: SecurityProfile) -> dict:
    row = {"token_address": token_address}
    for f in fields(SecurityProfile):
        row[f.name] = getattr(profile, f.name)
    return row


def profile_from_row(row: dict) -> Tuple[str, SecurityProfile]:
    kwargs = {f.name: row[f.name] for f in fields(SecurityProfile) if f.name in row}
    return row["token_address"], SecurityProfile(**kwargs)


def dump_row(row: dict) -> str:
    """Canonical one-line serialization used by every JSONL writer."""
    return json.dumps(row, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

def anonymize_row(row: dict, address_keys: Tuple[str, ...]) -> dict:
    for key in address_keys:
        value = row.get(key)
        if isinstance(value, str):
            row[key] = anonymize_address(value)
    return row


def write_pools_jsonl(pools: Iterable[PoolRecord], path: PathLike,
                      anonymize: bool = False) -> None:
    keys = ("pool_address", "base_address", "paired_address", "owner_address")
    with open(path, "w") as handle:
        for pool in pools:
            row = pool_to_row(pool)
            if anonymize:
                row = anonymize_row(row, keys)
            handle.write(dump_row(row) + "\n")


def write_orders_jsonl(orders: Iterable[DexOrder], path: PathLike,
                       anonymize: bool = False, append: bool = False) -> None:
    keys = ("hash", "pool_address", "sender")
    with open(path, "a" if append else "w") as handle:
        for order in orders:
            row = order_to_row(order)
            if anonymize:
                row = anonymize_row(row, keys)
            handle.write(dump_row(row) + "\n")


def write_profiles_jsonl(profiles: Dict[str, SecurityProfile], path: PathLike,
                         anonymize: bool = False) -> None:
    with open(path, "w") as handle:
        for token_address in profiles:
            row = profile_to_row(token_address, profiles[token_address])
            if anonymize:
                row = anonymize_row(row, ("token_address",))
            handle.write(dump_row(row) + "\n")


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

@dataclass
class IngestStats:
    rows_read: Counter = field(default_factory=Counter)
    rows_skipped: Counter = field(default_factory=Counter)

    def summary(self) -> str:
        read = ", ".join(f"{k}={v}" for k, v in sorted(self.rows_read.items()))
        skipped = ", ".join(f"{k}={v}" for k, v in sorted(self.rows_skipped.items()))
        return f"read [{read}] skipped [{skipped or 'none'}]"


@dataclass
class Dataset:
    pools: Dict[str, PoolRecord]
    orders: Dict[str, List[DexOrder]]
    profiles: Dict[str, SecurityProfile]
    stats: IngestStats
    enriched: Dict[str, Tuple[ProfitReport, Verdict]] = field(default_factory=dict)

    def profile_for(self, pool: PoolRecord) -> Optional[SecurityProfile]:
        return self.profiles.get(pool.paired_address)


_SCAN_JSON = json.JSONDecoder().scan_once


def iter_jsonl(path: PathLike):
    """(line number, row) for every non-blank line: the one JSONL reader.
    Invalid JSON and rows that are not objects raise SchemaError."""
    scan = _SCAN_JSON
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            # Fast path skips json.loads' per-line wrapper; loads does the rest.
            try:
                row, end = scan(line, 0)
            except (StopIteration, ValueError):
                end = -1
            if end < 0 or not line[end:].isspace():
                if line.isspace():
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SchemaError(path, lineno, f"invalid JSON: {exc}") from exc
            if type(row) is not dict:
                raise SchemaError(path, lineno, "row is not a JSON object")
            yield lineno, row


def ingest(pool_file: PathLike, orders_file: Optional[PathLike] = None,
           profiles_file: Optional[PathLike] = None) -> Dataset:
    """Load a dataset; orders referencing unknown pools are counted and
    skipped, malformed rows raise SchemaError with their line number."""
    stats = IngestStats()
    pools: Dict[str, PoolRecord] = {}
    for lineno, row in iter_jsonl(pool_file):
        stats.rows_read["pools"] += 1
        try:
            pool = pool_from_row(row)
        except ROW_ERRORS as exc:
            raise SchemaError(pool_file, lineno, f"bad pool row: {exc}") from exc
        pools[pool.pool_address] = pool
    if not pools:
        raise EmptyDataset(f"no usable pools in {pool_file}")

    orders: Dict[str, List[DexOrder]] = {address: [] for address in pools}
    if orders_file is not None:
        for lineno, row in iter_jsonl(orders_file):
            stats.rows_read["orders"] += 1
            try:
                pool_orders = orders.get(row["pool_address"])
                if pool_orders is None:
                    stats.rows_skipped["order_unknown_pool"] += 1
                    continue
                pool_orders.append(order_from_row(row))
            except ROW_ERRORS as exc:
                raise SchemaError(orders_file, lineno, f"bad order row: {exc}") from exc
        for address in orders:
            orders[address].sort(key=DexOrder.sort_key)

    profiles: Dict[str, SecurityProfile] = {}
    if profiles_file is not None:
        for lineno, row in iter_jsonl(profiles_file):
            stats.rows_read["profiles"] += 1
            try:
                token, profile = profile_from_row(row)
            except ROW_ERRORS as exc:
                raise SchemaError(profiles_file, lineno, f"bad profile row: {exc}") from exc
            profiles[token] = profile

    return Dataset(pools=pools, orders=orders, profiles=profiles, stats=stats)


def write_dataset(dataset: Dataset, out_dir: PathLike,
                  anonymize: bool = False) -> Dict[str, Path]:
    """Re-emit a dataset into pools/orders/profiles JSONL files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "pools": out / "pools.jsonl",
        "orders": out / "orders.jsonl",
        "profiles": out / "profiles.jsonl",
    }
    write_pools_jsonl(dataset.pools.values(), paths["pools"], anonymize)
    with open(paths["orders"], "w") as handle:
        for address in dataset.pools:
            for order in dataset.orders.get(address, []):
                row = order_to_row(order)
                if anonymize:
                    row = anonymize_row(row, ("hash", "pool_address", "sender"))
                handle.write(dump_row(row) + "\n")
    write_profiles_jsonl(dataset.profiles, paths["profiles"], anonymize)
    return paths
