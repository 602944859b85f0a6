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
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union, get_type_hints

from .ledger import Category, DexOrder, LedgerError, PoolRecord
from .metrics import ProfitReport, ProfitTracker
from .validators import Label, SecurityProfile, Verdict

try:  # the optional "fast" extra; every line reads the same without it
    from orjson import loads as _orjson_loads
except ImportError:
    _orjson_loads = None

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


_FLOAT_MAX = sys.float_info.max

# The JSON value each field type of a pool or profile row takes: a test, and
# what an error line calls it. A number is compared exactly, so an integer
# beyond the float range fails the test instead of overflowing float().
_JSON_TYPES = {
    bool: (lambda value: type(value) is bool, "a boolean"),
    int: (lambda value: type(value) is int, "an integer"),
    str: (lambda value: type(value) is str, "a string"),
    float: (lambda value: (type(value) is float or type(value) is int)
            and -_FLOAT_MAX <= value <= _FLOAT_MAX, "a finite number"),
}


def _record_fields(cls) -> tuple:
    """(name, field type, test, what) of every field of `cls`, in declaration
    order; a field type without a JSON rule raises KeyError."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], *_JSON_TYPES[hints[f.name]])
                 for f in fields(cls))


_RECORD_FIELDS = {cls: _record_fields(cls) for cls in (PoolRecord, SecurityProfile)}

# Pool fields a row may leave out; every other pool field is required, and
# every profile field takes its benign default.
_POOL_OPTIONAL = frozenset({"dex", "name", "deployment_gas_usd"})
_PROFILE_OPTIONAL = frozenset(f.name for f in fields(SecurityProfile))


def decode_record(cls, row: dict, optional: frozenset):
    """The one check of a pool or profile row: each field of `cls` must hold
    the JSON type its declared type takes (a boolean, an integer that is not
    a boolean, a string, or a finite number that is not a boolean, read as a
    float). A field in `optional` may be missing and then takes its default.
    Raises one of ROW_ERRORS."""
    values = {}
    for name, kind, accepts, what in _RECORD_FIELDS[cls]:
        if name not in row and name in optional:
            continue
        value = row[name]
        if not accepts(value):
            raise ValueError(f"{name} {value!r} is not {what}")
        values[name] = float(value) if kind is float else value
    return cls(**values)


def record_to_row(record, **key) -> dict:
    """A pool or profile row: any key column first (a profile's
    `token_address`), then the record's fields in declaration order."""
    for name, *_ in _RECORD_FIELDS[type(record)]:
        key[name] = getattr(record, name)
    return key


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


def decode_order(row: dict) -> Tuple[int, int, str, Category, str, str,
                                     Optional[float], Optional[float],
                                     float, float, float, float, float]:
    """The one check of outside order values, for batch and streaming alike.

    Every column but the pool address is checked here: an `int` block, a
    `str` hash and sender, both legs, a finite non-negative price_paired,
    and recorded balances that are null or parse as floats. Returns every
    field of the row's `DexOrder`, in `DexOrder` field order, each parsed
    once: the category is the shared `Category` member, amounts are floats,
    and a missing price_paired or gas_fee_usd is 0.0. Raises one of
    ROW_ERRORS."""
    timestamp = row["timestamp"]
    block = row["block"]
    tx_hash = row["hash"]
    sender = row["sender"]
    category = row["category"]
    y_paired = float(row["y_paired"])
    y_base = float(row["y_base"])
    price_base = float(row["price_base"])
    gas_fee_usd = float(row.get("gas_fee_usd", 0.0))
    if (type(timestamp) is not int or type(block) is not int
            or type(tx_hash) is not str or type(sender) is not str
            or category not in _CATEGORIES
            or not (0.0 <= y_paired < _INF and 0.0 <= y_base < _INF
                    and 0.0 < price_base < _INF and -_INF < gas_fee_usd < _INF)):
        raise ValueError(_order_fault(timestamp, block, tx_hash, sender, category,
                                      y_paired, y_base, price_base, gas_fee_usd))
    price_paired = float(row.get("price_paired", 0.0))
    if not 0.0 <= price_paired < _INF:
        raise ValueError("price_paired must be finite and non-negative")
    x_paired = row.get("x_paired")
    if x_paired is not None:
        x_paired = float(x_paired)
    x_base = row.get("x_base")
    if x_base is not None:
        x_base = float(x_base)
    return (block, timestamp, tx_hash, _CATEGORIES[category], row["pool_address"],
            sender, x_paired, x_base, y_paired, y_base, price_paired,
            price_base, gas_fee_usd)


def _order_fault(timestamp, block, tx_hash, sender, category, *amounts: float) -> str:
    if type(timestamp) is not int:
        return f"timestamp {timestamp!r} is not an integer"
    if type(block) is not int:
        return f"block {block!r} is not an integer"
    if type(tx_hash) is not str:
        return f"hash {tx_hash!r} is not a string"
    if type(sender) is not str:
        return f"sender {sender!r} is not a string"
    if category not in _CATEGORIES:
        return f"unknown category {category!r}"
    if not all(map(math.isfinite, amounts)):
        return "non-finite amount"
    return "negative token leg" if min(amounts[:2]) < 0 else "price_base must be positive"


def order_from_row(row: dict) -> DexOrder:
    """The DexOrder of an order row that `decode_order` accepts."""
    return DexOrder(*decode_order(row))


def dump_row(row: dict) -> str:
    """Canonical one-line serialization used by every JSONL writer."""
    return json.dumps(row, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

def _write_rows(rows: Iterable[dict], path: PathLike, address_keys: Tuple[str, ...],
                anonymize: bool, append: bool = False) -> None:
    """The one JSONL writer loop; with `anonymize`, each of `address_keys`
    is shortened by `anonymize_address`."""
    if not anonymize:
        address_keys = ()
    with open(path, "a" if append else "w") as handle:
        for row in rows:
            for key in address_keys:
                row[key] = anonymize_address(row[key])
            handle.write(dump_row(row) + "\n")


def write_pools_jsonl(pools: Iterable[PoolRecord], path: PathLike,
                      anonymize: bool = False) -> None:
    _write_rows(map(record_to_row, pools), path,
                ("pool_address", "base_address", "paired_address", "owner_address"),
                anonymize)


def write_orders_jsonl(orders: Iterable[DexOrder], path: PathLike,
                       anonymize: bool = False, append: bool = False) -> None:
    _write_rows(map(order_to_row, orders), path, ("hash", "pool_address", "sender"),
                anonymize, append)


def write_profiles_jsonl(profiles: Dict[str, SecurityProfile], path: PathLike,
                         anonymize: bool = False) -> None:
    _write_rows((record_to_row(profile, token_address=token)
                 for token, profile in profiles.items()),
                path, ("token_address",), anonymize)


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    """The one corpus object: pools, each pool's orders in execution order,
    profiles keyed by paired token, and (after `analysis.enrich`) every
    pool's full-history profit report and verdict."""

    pools: Dict[str, PoolRecord]
    orders: Dict[str, List[DexOrder]]
    profiles: Dict[str, SecurityProfile]
    orders_skipped_unknown_pool: int = 0
    enriched: Dict[str, Tuple[ProfitReport, Verdict]] = field(default_factory=dict)

    def profile_for(self, pool: PoolRecord) -> Optional[SecurityProfile]:
        return self.profiles.get(pool.paired_address)

    def slid_labels(self) -> Dict[str, bool]:
        """Pool address -> whether its full-history verdict is SLID."""
        if not self.enriched:
            raise ValueError("verdict labels require analysis.enrich to have run")
        return {address: verdict.label == Label.SLID
                for address, (_, verdict) in self.enriched.items()}


_SCAN_JSON = json.JSONDecoder().scan_once

# orjson reads an integer literal outside the 64-bit range as a float, where
# the stdlib reads an int; any float this large may be one.
_ORJSON_EXACT_FLOAT = 9.2e18


def iter_jsonl(path: PathLike):
    """(line number, row) for every non-blank line: the one JSONL reader.
    Invalid JSON and rows that are not objects raise SchemaError.

    With orjson installed, a line is first read by `orjson.loads`. Its row is
    kept only when it is an object of scalars whose floats lie within
    +-9.2e18: there orjson and the stdlib give equal rows of the same types.
    Every other line (an orjson error, a nested value, a float that may be an
    overflowed integer, a non-object) goes to the stdlib reader below, so the
    rows and errors are the same with and without orjson."""
    scan = _SCAN_JSON
    fast_loads = _orjson_loads
    bound = _ORJSON_EXACT_FLOAT
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if fast_loads is not None:
                try:
                    row = fast_loads(line)
                except ValueError:
                    row = None
                if type(row) is dict:
                    for value in row.values():
                        kind = type(value)
                        if kind is float:
                            if not -bound <= value <= bound:
                                break
                        elif kind is dict or kind is list:
                            break
                    else:
                        yield lineno, row
                        continue
            # Stdlib fast path skips json.loads' per-line wrapper; loads does the rest.
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


def ledger_fault(path: PathLike, lineno: int, exc: LedgerError) -> SchemaError:
    """The error line of an order row that breaks the ledger's rules."""
    return SchemaError(path, lineno, f"{type(exc).__name__}: {exc}")


def _read_keyed(path: PathLike, cls, key: str, optional: frozenset,
                what: str) -> dict:
    """Records by their key column, in file order: the one pool and profile
    reader. The key must be a string and may appear on one row only."""
    records = {}
    for lineno, row in iter_jsonl(path):
        try:
            address = row[key]
            if type(address) is not str:
                raise ValueError(f"{key} {address!r} is not a string")
            if address in records:
                raise ValueError(f"{key} {address!r} repeats an earlier row")
            records[address] = decode_record(cls, row, optional)
        except ROW_ERRORS as exc:
            raise SchemaError(path, lineno, f"bad {what} row: {exc}") from exc
    return records


def read_pools(path: PathLike) -> Dict[str, PoolRecord]:
    """Pool records by address, in file order."""
    pools = _read_keyed(path, PoolRecord, "pool_address", _POOL_OPTIONAL, "pool")
    if not pools:
        raise EmptyDataset(f"no usable pools in {path}")
    return pools


def read_profiles(path: Optional[PathLike]) -> Dict[str, SecurityProfile]:
    """Security profiles by token address. Without a file every pool's
    profile is unknown."""
    if path is None:
        return {}
    return _read_keyed(path, SecurityProfile, "token_address", _PROFILE_OPTIONAL,
                       "profile")


def ingest(pool_file: PathLike, orders_file: PathLike,
           profiles_file: Optional[PathLike] = None) -> Dataset:
    """Load a dataset; orders referencing unknown pools are counted and
    skipped, malformed rows raise SchemaError with their line number.

    Pools, then profiles, then orders are read, as `pipeline.stream_detect`
    reads them. Each pool keeps its orders in file order, which is their
    execution order; nothing re-sorts them. Every order is added to its
    pool's `ProfitTracker` as it is read, so an order that breaks the
    ledger's rules (a timestamp before its pool's previous one, a pool value
    or an owner sum driven below zero or out of float range) raises, at the
    first such line in the file, the SchemaError line `pipeline.stream_detect`
    raises for it."""
    pools = read_pools(pool_file)
    profiles = read_profiles(profiles_file)
    orders: Dict[str, List[DexOrder]] = {address: [] for address in pools}
    books = {address: (orders[address], ProfitTracker(pool))
             for address, pool in pools.items()}
    skipped = 0
    for lineno, row in iter_jsonl(orders_file):
        try:
            book = books.get(row["pool_address"])
            if book is None:
                skipped += 1
                continue
            order = order_from_row(row)
        except ROW_ERRORS as exc:
            raise SchemaError(orders_file, lineno, f"bad order row: {exc}") from exc
        pool_orders, tracker = book
        try:
            tracker.add(order.timestamp, order.category, order.sender,
                        order.y_base, order.price_base, order.gas_fee_usd)
        except LedgerError as exc:
            raise ledger_fault(orders_file, lineno, exc) from exc
        pool_orders.append(order)
    return Dataset(pools=pools, orders=orders, profiles=profiles,
                   orders_skipped_unknown_pool=skipped)
