"""JSONL dataset schemas, ingestion, and canonical writers.

Three row formats, one JSON object per line, field names matching the domain
types: pool records, DEX orders, and token security profiles. Token amounts
travel as decimal strings (lossless float round-trip via repr); with orjson
installed, its number reader reads each such string, and any string it does
not read as a float goes to float(), so an amount is float()'s value, or
error, either way. USD prices and fees are plain JSON numbers. Writers emit
keys in a fixed order with compact separators so generate -> ingest ->
re-emit is byte-identical: pool and profile rows through `dump_row`, order
rows through `write_orders_jsonl`, one format string per order. The order
writer's contract is an order whose fields hold their declared types (an int
block and timestamp, str strings, float legs, prices and fee, None or float
balances) with a finite price and fee: every order `generate` makes and
every row `decode_order` accepts. An order outside it raises (ValueError,
or TypeError for a string field) before its line is written. With orjson
installed, one `orjson.dumps` per order writes its seven floats, with
`repr`'s bytes: orjson and `repr` both write the shortest digits that read
back to the same double, and `repr` writes each value whose orjson text
differs in notation (`_float_texts`).

Every row is read by `iter_jsonl` and checked by one decoder for its format;
every record decodes to the same value, or the same error line, with or
without orjson installed. Every command reads an order file in one pass,
`replay_orders`. Every CSV file is read by `iter_csv` and written by
`write_csv`. Every input file is read as UTF-8 (`open_text`), and the first
line that holds a byte that is not UTF-8 is the error line. No reader holds
a line longer than `LINE_LIMIT` characters, nor a CSV row longer than that
over all its lines: such a line or row is the error line. The CSV readers
and `config.parse_kv_file` read their lines through `read_lines`;
`iter_jsonl` reads its own, under the same bound.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union, get_type_hints

from .ledger import Category, DexOrder, LedgerError, PoolRecord
from .metrics import ProfitReport, ProfitTracker
from .validators import Label, SecurityProfile, Verdict

try:  # the optional "fast" extra; every line reads and writes the same without it
    from orjson import dumps as _orjson_dumps, loads as _orjson_loads
except ImportError:
    _orjson_dumps = _orjson_loads = None

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
    return address[:5] + "..." + address[-5:]    # a non-str raises TypeError


# ---------------------------------------------------------------------------
# Row codecs
# ---------------------------------------------------------------------------

_CATEGORIES = {c.value: c for c in Category}
_INF = math.inf

# What a malformed row raises while decoded; `iter_jsonl` wraps it in SchemaError.
ROW_ERRORS = (KeyError, ValueError, TypeError, OverflowError)


# The longest line or amount string orjson reads: its parser recurses on the C
# stack without limit. Valid text this long nests at most 512 levels, within
# the stdlib reader's limit of 1,000, so both readers read it alike.
_ORJSON_MAX_TEXT = 1024

_FLOAT_MAX = sys.float_info.max
# The smallest integer that float() rounds to infinity. An integer literal
# smaller than this in size reads as a finite float, and orjson reads an
# integer literal past 64 bits as that same float.
_INT_FLOAT_LIMIT = 2 ** 1024 - 2 ** 970

# The JSON value each field type of a pool or profile row takes: a test, and
# what an error line calls it. An integer is compared exactly, so one that
# rounds to infinity fails the test instead of overflowing float().
_JSON_TYPES = {
    bool: (lambda value: type(value) is bool, "a boolean"),
    int: (lambda value: type(value) is int, "an integer"),
    str: (lambda value: type(value) is str, "a string"),
    float: (lambda value: (type(value) is float and -_FLOAT_MAX <= value <= _FLOAT_MAX)
            or (type(value) is int and -_INT_FLOAT_LIMIT < value < _INT_FLOAT_LIMIT),
            "a finite number"),
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


def _number(value, name: str) -> float:
    """float(value) for an order's number column, which a JSON boolean does
    not fill: float() would read it as 1.0 or 0.0."""
    if type(value) is bool:
        raise ValueError(f"{name} {value!r} is not a number")
    return float(value)


def _amount(value, name: str) -> float:
    """A token amount: `_number(value, name)`, read faster. A string that
    orjson reads as a float is that float: JSON number syntax, whitespace
    included, is float() syntax, and both readers round correctly. Any other
    string (orjson reads "-0" as an integer, rejects "inf", "1_0" or "1e400",
    and never sees one longer than `_ORJSON_MAX_TEXT`), and every string
    without orjson, go to float(); any other value goes to `_number`."""
    if type(value) is not str:
        return _number(value, name)
    loads = _orjson_loads
    if loads is not None and len(value) <= _ORJSON_MAX_TEXT:
        try:
            number = loads(value)
        except ValueError:
            pass
        else:
            if type(number) is float:
                return number
    return float(value)


def decode_order(row: dict) -> Tuple[int, int, str, Category, str, str,
                                     Optional[float], Optional[float],
                                     float, float, float, float, float]:
    """The one check of outside order values, for batch and streaming alike.

    Every column but the pool address is checked here (`replay_orders`
    checks that one): an `int` block and timestamp, a `str` hash and sender, both
    legs, a finite non-negative price_paired, and recorded balances that are
    null, or finite and non-negative (checked once both have parsed, so a
    balance that does not parse is the error named). A JSON boolean is no
    number in any amount, price or fee column. Returns every field of the
    row's `DexOrder`, in `DexOrder` field order, each parsed once: the
    category is the shared `Category` member, amounts are floats, and a
    missing price_paired or gas_fee_usd is 0.0. With orjson installed, its number reader also reads
    each amount string, and any string it does not read as a float goes to
    float() (`_amount`). Raises one of ROW_ERRORS and changes nothing:
    `iter_jsonl` decodes a row it rejects again from the stdlib's reading of
    the line, so an order decodes to the same value, or the same error line,
    with or without orjson."""
    timestamp = row["timestamp"]
    block = row["block"]
    tx_hash = row["hash"]
    sender = row["sender"]
    category = row["category"]
    y_paired = _amount(row["y_paired"], "y_paired")
    y_base = _amount(row["y_base"], "y_base")
    price_base = row["price_base"]
    if type(price_base) is not float:
        price_base = _number(price_base, "price_base")
    gas_fee_usd = row.get("gas_fee_usd", 0.0)
    if type(gas_fee_usd) is not float:
        gas_fee_usd = _number(gas_fee_usd, "gas_fee_usd")
    if (type(timestamp) is not int or type(block) is not int
            or type(tx_hash) is not str or type(sender) is not str
            or category not in _CATEGORIES
            or not (0.0 <= y_paired < _INF and 0.0 <= y_base < _INF
                    and 0.0 < price_base < _INF and -_INF < gas_fee_usd < _INF)):
        raise ValueError(_order_fault(timestamp, block, tx_hash, sender, category,
                                      y_paired, y_base, price_base, gas_fee_usd))
    price_paired = row.get("price_paired", 0.0)
    if type(price_paired) is not float:
        price_paired = _number(price_paired, "price_paired")
    if not 0.0 <= price_paired < _INF:
        raise ValueError("price_paired must be finite and non-negative")
    x_paired = row.get("x_paired")
    if x_paired is not None:
        x_paired = _amount(x_paired, "x_paired")
    x_base = row.get("x_base")
    if x_base is not None:
        x_base = _amount(x_base, "x_base")
    if x_paired is not None and not 0.0 <= x_paired < _INF:
        raise ValueError("x_paired must be null, or finite and non-negative")
    if x_base is not None and not 0.0 <= x_base < _INF:
        raise ValueError("x_base must be null, or finite and non-negative")
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
    """Canonical one-line serialization of a pool or profile row."""
    return json.dumps(row, separators=(",", ":"))


# The string encoder of `json.dumps`: any string, escapes included, is quoted
# as `dump_row` quotes it.
_quote = json.encoder.encode_basestring_ascii


def _float_texts(values: tuple):
    """`repr(value)` of each float in `values`, as `json.dumps` writes a
    finite float; a None among them gets a text the caller does not use.

    With orjson installed the texts come from one `orjson.dumps` of the
    tuple. orjson and `repr` both write the shortest digits that read back
    to the same double, so the two texts differ only in notation, which
    orjson's text shows: an exponent (`e`) outside 1e-4 <= |v| < 1e16, a
    `0.0000` fraction for 1e-5 <= |v| < 1e-4, and `null` (`n`) for nan,
    infinities and None. Only such a value is written by `repr`."""
    dumps = _orjson_dumps
    if dumps is None:
        return map(repr, values)
    text = dumps(values).decode()
    texts = text[1:-1].split(",")
    if "e" in text or "n" in text or "0.0000" in text:
        texts = [repr(value) if "e" in item or "n" in item
                 or item.startswith(("0.0000", "-0.0000")) else item
                 for item, value in zip(texts, values)]
    return texts


def _order_line(order: DexOrder, anonymize: bool) -> str:
    """One order's JSONL line, with its newline, from one f-string: the
    bytes `json.dumps` with compact separators writes for the order's row,
    its amounts and balances as `repr` strings. Strings are quoted by
    `json.dumps`' own encoder and the seven floats are written by
    `_float_texts`. An order outside the writer's contract (module
    docstring) raises: TypeError for a string field that holds no string,
    which the encoder (or `anonymize_address`) rejects, else ValueError."""
    tx_hash, pool_address, sender = order.hash, order.pool_address, order.sender
    block, timestamp = order.block, order.timestamp
    values = (order.x_paired, order.x_base, order.y_paired, order.y_base,
              order.price_paired, order.price_base, order.gas_fee_usd)
    x_paired, x_base, y_paired, y_base, price_paired, price_base, gas = values
    if not (type(block) is int and type(timestamp) is int
            and type(y_paired) is float and type(y_base) is float
            and type(price_paired) is float and type(price_base) is float
            and type(gas) is float
            and (x_paired is None or type(x_paired) is float)
            and (x_base is None or type(x_base) is float)
            # x - x is 0.0 for a finite x and nan for nan or an infinity; a
            # plain sum of the three could overflow on finite values.
            and (price_paired - price_paired) + (price_base - price_base)
            + (gas - gas) == 0.0):
        raise ValueError(f"order {tx_hash!r} is outside the order writer's contract")
    if anonymize:
        tx_hash = anonymize_address(tx_hash)
        pool_address = anonymize_address(pool_address)
        sender = anonymize_address(sender)
    (x_paired, x_base, y_paired, y_base, price_paired, price_base,
     gas) = _float_texts(values)
    x_paired = "null" if values[0] is None else f'"{x_paired}"'
    x_base = "null" if values[1] is None else f'"{x_base}"'
    return (f'{{"block":{block},"timestamp":{timestamp},'
            f'"hash":{_quote(tx_hash)},"category":{_quote(order.category)},'
            f'"pool_address":{_quote(pool_address)},"sender":{_quote(sender)},'
            f'"x_paired":{x_paired},"x_base":{x_base},'
            f'"y_paired":"{y_paired}","y_base":"{y_base}",'
            f'"price_paired":{price_paired},"price_base":{price_base},'
            f'"gas_fee_usd":{gas}}}\n')


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

def _write_rows(rows: Iterable[dict], path: PathLike, address_keys: Tuple[str, ...],
                anonymize: bool) -> None:
    """The pool and profile writer; with `anonymize`, each of `address_keys`
    is shortened by `anonymize_address`."""
    if not anonymize:
        address_keys = ()
    with open(path, "w") as handle:
        for row in rows:
            for key in address_keys:
                row[key] = anonymize_address(row[key])
            handle.write(dump_row(row) + "\n")


def write_csv(path: PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The one CSV writer: `header`, then `rows`, in the csv module's
    default dialect, as UTF-8."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_pools_jsonl(pools: Iterable[PoolRecord], path: PathLike,
                      anonymize: bool = False) -> None:
    _write_rows(map(record_to_row, pools), path,
                ("pool_address", "base_address", "paired_address", "owner_address"),
                anonymize)


def write_orders_jsonl(orders: Iterable[DexOrder], path: PathLike,
                       anonymize: bool = False, append: bool = False) -> None:
    """One `_order_line` per order; with `anonymize`, the hash, pool address
    and sender are shortened by `anonymize_address`. An order outside the
    writer's contract (module docstring) raises, and no line is written
    for it or for any order after it."""
    with open(path, "a" if append else "w") as handle:
        handle.writelines(_order_line(order, anonymize) for order in orders)


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
    profiles keyed by paired token, the order-file rows read and skipped,
    and (after `analysis.enrich`) every pool's full-history profit report
    and verdict. As `ingest` builds it, each pool address and each sender is
    held once: an order's `pool_address` is its `pools` key, and equal
    senders are one string."""

    pools: Dict[str, PoolRecord]
    orders: Dict[str, List[DexOrder]]
    profiles: Dict[str, SecurityProfile]
    orders_read: int = 0
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


def open_text(path: PathLike, newline: Optional[str] = None):
    """An input file opened for reading lines, as `open` opens it: UTF-8,
    but each byte that is not UTF-8 reads as a lone surrogate. So a reader
    names the first line that holds one (`utf8_fault`), where a strict
    decode fails on a whole buffered chunk, with no line number. A CSV
    reader passes `newline=""`, as the csv module asks."""
    return open(path, encoding="utf-8", errors="surrogateescape", newline=newline)


def utf8_fault(line: str) -> Optional[str]:
    """None for a line `open_text` read from UTF-8 text; else what the first
    byte that is not UTF-8 is, and where."""
    if line.isascii():
        return None
    try:
        line.encode()
    except UnicodeEncodeError as exc:
        byte = line[exc.start].encode(errors="surrogateescape")[0]
        return f"byte 0x{byte:02x} at column {exc.start + 1} is not UTF-8"
    return None


# The longest line, its newline included, that a reader takes from an input
# file, in characters: a longer one is its file's error line. A reader reads
# at most LINE_LIMIT + 1 characters of a line, so no line is held whole.
LINE_LIMIT = 2 ** 20
_LONG_LINE = f"line longer than {LINE_LIMIT} characters"
_LONG_ROW = f"row longer than {LINE_LIMIT} characters"


def read_lines(path: PathLike, newline: Optional[str] = None):
    """(line number, line) for every line of an input file that `open_text`
    opens with `newline`: the one line reader of the CSV and config files.
    A line longer than LINE_LIMIT characters, or one that holds a byte that
    is not UTF-8, raises SchemaError naming it."""
    with open_text(path, newline) as handle:
        lines = iter(partial(handle.readline, LINE_LIMIT + 1), "")
        for lineno, line in enumerate(lines, start=1):
            if len(line) > LINE_LIMIT:
                raise SchemaError(path, lineno, _LONG_LINE)
            fault = utf8_fault(line)
            if fault is not None:
                raise SchemaError(path, lineno, fault)
            yield lineno, line


_SCAN_JSON = json.JSONDecoder().scan_once


def iter_jsonl(path: PathLike, decode, what: str):
    """(line number, decode(row)) for every non-blank line: the one JSONL
    reader. `decode` checks a row (a dict) and raises one of ROW_ERRORS for
    a bad one, which becomes the SchemaError `bad <what> row: <error>`;
    invalid JSON, rows that are not objects, bytes that are not UTF-8 and
    lines longer than LINE_LIMIT characters raise SchemaError too.

    With orjson installed, a line of at most `_ORJSON_MAX_TEXT` characters
    is first read by `orjson.loads` and its object goes straight to
    `decode`. A longer line, one that orjson rejects, whose row is no object,
    or whose row `decode` rejects is read by the stdlib reader below (a line
    nested past its recursion limit is invalid JSON) and decoded again, so
    an error line always shows the stdlib's values. orjson's object differs
    from the stdlib's only where it reads an integer literal past 64 bits as
    a float; `decode` rejects that float in an integer field and reads it as
    the stdlib integer's `float()` in a number field. So every record
    decodes to the same value, or the same error line, with or without
    orjson. `decode` must change nothing: it may run twice on one line.
    Lines are read under `read_lines`' bound, with its error line."""
    scan = _SCAN_JSON
    fast_loads = _orjson_loads
    # The bound is read inline, not through `read_lines`: on the walkthrough
    # corpus (Python 3.11, a shared 2-core host) `read_lines`' generator cost
    # 0.19 us a line more than iterating the file, and this bounded readline
    # 0.05 us, against 4.3 us an order for all of `stream_detect`. A line
    # that orjson reads is short, so only the stdlib path checks the length.
    with open_text(path) as handle:
        lines = iter(partial(handle.readline, LINE_LIMIT + 1), "")
        for lineno, line in enumerate(lines, start=1):
            if fast_loads is not None and len(line) <= _ORJSON_MAX_TEXT:
                try:
                    row = fast_loads(line)
                except ValueError:
                    row = None
                if type(row) is dict:
                    try:
                        value = decode(row)
                    except ROW_ERRORS:
                        pass
                    else:
                        yield lineno, value
                        continue
            if len(line) > LINE_LIMIT:
                raise SchemaError(path, lineno, _LONG_LINE)
            # orjson rejects a line that holds a byte that is not UTF-8.
            fault = utf8_fault(line)
            if fault is not None:
                raise SchemaError(path, lineno, fault)
            # Stdlib fast path skips json.loads' per-line wrapper; loads does the rest.
            try:
                row, end = scan(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            if end < 0 or not line[end:].isspace():
                if line.isspace():
                    continue
                try:
                    row = json.loads(line)
                except (json.JSONDecodeError, RecursionError) as exc:
                    raise SchemaError(path, lineno, f"invalid JSON: {exc}") from exc
            if type(row) is not dict:
                raise SchemaError(path, lineno, "row is not a JSON object")
            try:
                value = decode(row)
            except ROW_ERRORS as exc:
                raise SchemaError(path, lineno, f"bad {what} row: {exc}") from exc
            yield lineno, value


def iter_csv(path: PathLike, header: Sequence[str], decode, what: str):
    """(line number, decode(row)) for every row after the header: the one
    CSV reader. Line 1 must be `header`. A row without one field per column,
    one that `decode` rejects with one of ROW_ERRORS, and a csv.Error (such
    as a field past 131,072 characters) are `bad <what> row: <error>`. The
    lines come from `read_lines`. Each fault, a byte that is not UTF-8 and a
    line longer than LINE_LIMIT included, is a SchemaError naming its line
    (a row's last). A quoted field may hold newlines, so one row may span
    lines: a row longer than LINE_LIMIT characters, its newlines included,
    is `row longer than <LINE_LIMIT> characters` on the line that crosses
    the bound, and no row is held whole."""
    row_chars = 0    # the characters of the row being read, so far

    def lines():
        nonlocal row_chars
        for lineno, line in read_lines(path, newline=""):
            row_chars += len(line)
            if row_chars > LINE_LIMIT:
                raise SchemaError(path, lineno, _LONG_ROW)
            yield line

    reader = csv.reader(lines())
    try:
        if next(reader, None) != list(header):
            raise SchemaError(path, 1, f"unexpected {what} CSV header")
        row_chars = 0
        for row in reader:
            row_chars = 0
            if len(row) != len(header):
                raise ValueError(f"{len(row)} columns, expected {len(header)}")
            yield reader.line_num, decode(row)
    except (csv.Error, *ROW_ERRORS) as exc:
        raise SchemaError(path, reader.line_num, f"bad {what} row: {exc}") from exc


def _read_keyed(path: PathLike, cls, key: str, optional: frozenset,
                what: str) -> dict:
    """Records by their key column, in file order: the one pool and profile
    reader. The key must be a string and may appear on one row only."""
    records = {}

    def decode(row):
        address = row[key]
        if type(address) is not str:
            raise ValueError(f"{key} {address!r} is not a string")
        if address in records:
            raise ValueError(f"{key} {address!r} repeats an earlier row")
        return address, decode_record(cls, row, optional)

    for _, (address, record) in iter_jsonl(path, decode, what):
        records[address] = record
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


def replay_orders(path: PathLike, books: Dict[str, object], decode,
                  apply) -> Tuple[int, int]:
    """The one pass over an order file, made by `pipeline.stream_detect` and
    by every batch command through `ingest`: (rows read, rows skipped).

    Each row, in file order (execution order), is decoded by `decode` inside
    `iter_jsonl`'s decode, so `decode` must change nothing; then
    `apply(book, value)` gets its pool's entry in `books` and that value. A
    row whose pool_address `books` does not hold is skipped and counted, or
    is a bad order row if the address is no string. A LedgerError from
    `apply` (a timestamp before its pool's previous one, a pool value or an
    owner sum driven below zero or out of float range) becomes the
    SchemaError `<path> line <n>: <violation>: ...`: one error line for one
    order file, the first bad row's, in every command."""

    def decode_row(row):
        address = row["pool_address"]
        if type(address) is not str:
            raise ValueError(f"pool_address {address!r} is not a string")
        book = books.get(address)
        return None if book is None else (book, decode(row))

    read = skipped = 0
    for lineno, decoded in iter_jsonl(path, decode_row, "order"):
        read += 1
        if decoded is None:
            skipped += 1
            continue
        try:
            apply(*decoded)
        except LedgerError as exc:
            raise SchemaError(path, lineno, f"{type(exc).__name__}: {exc}") from exc
    return read, skipped


def ingest(pool_file: PathLike, orders_file: PathLike,
           profiles_file: Optional[PathLike] = None) -> Dataset:
    """Load a dataset: pools, then profiles, then the one order-file pass
    (`replay_orders`) that `pipeline.stream_detect` makes. Each pool keeps
    its orders in file order, their execution order; each order is added to
    its pool's `ProfitTracker` as it is read, so a row that breaks the
    ledger's rules gives `replay_orders`' error line. As it is stored, an
    order's pool address becomes its pool's key string, and its sender the
    first equal string seen (a pool's owner address first), so the dataset
    holds each address once."""
    pools = read_pools(pool_file)
    profiles = read_profiles(profiles_file)
    orders: Dict[str, List[DexOrder]] = {address: [] for address in pools}
    books = {address: (address, orders[address], ProfitTracker(pool))
             for address, pool in pools.items()}
    senders = {pool.owner_address: pool.owner_address for pool in pools.values()}

    def add(book, order):
        address, pool_orders, tracker = book
        order.pool_address = address
        sender = order.sender = senders.setdefault(order.sender, order.sender)
        tracker.add(order.timestamp, order.category, sender,
                    order.y_base, order.price_base, order.gas_fee_usd)
        pool_orders.append(order)

    read, skipped = replay_orders(orders_file, books, order_from_row, add)
    return Dataset(pools=pools, orders=orders, profiles=profiles,
                   orders_read=read, orders_skipped_unknown_pool=skipped)
