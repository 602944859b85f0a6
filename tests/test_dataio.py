"""JSONL ingestion, round-trip fidelity, and skip/error accounting."""

import json
import math
import struct
import sys
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from slidscan import dataio
from slidscan.dataio import (
    EmptyDataset,
    SchemaError,
    anonymize_address,
    decode_order,
    dump_row,
    ingest,
    iter_jsonl,
    order_from_row,
    read_pools,
    read_profiles,
    record_to_row,
    write_orders_jsonl,
    write_pools_jsonl,
    write_profiles_jsonl,
)
from slidscan.ledger import Category, DexOrder, PoolRecord
from slidscan.metrics import ProfitReport, ProfitTracker
from slidscan.pipeline import stream_detect
from slidscan.synth import ScenarioConfig, ScenarioKind, build_corpus, generate
from slidscan.validators import Label, SecurityProfile, Verdict

from conftest import T0, USER, make_order, make_pool, order_to_row


def corpus_scenarios():
    """The scenarios `corpus_dir` writes: 7 pools, 1,026 orders."""
    counts = {ScenarioKind.LEGITIMATE: 3, ScenarioKind.SLID: 2,
              ScenarioKind.RUGPULL: 2}
    overrides = {
        ScenarioKind.LEGITIMATE: {"lifetime_days": 30, "investor_arrival": 1.5},
        ScenarioKind.SLID: {"slid_drain_count": 40, "lifetime_days": 50},
    }
    return list(build_corpus(counts, seed=17, overrides=overrides,
                             sort_by_address=True))


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    scenarios = corpus_scenarios()
    pools = [s.pool for s in scenarios]
    profiles = dict(sorted((s.pool.paired_address, s.profile) for s in scenarios))
    write_pools_jsonl(pools, out / "pools.jsonl")
    write_orders_jsonl((o for s in scenarios for o in s.orders), out / "orders.jsonl")
    write_profiles_jsonl(profiles, out / "profiles.jsonl")
    return out


def assert_reemit_identical(corpus_dir, tmp_path):
    """generate -> ingest -> re-emit writes the generated bytes."""
    dataset = ingest(corpus_dir / "pools.jsonl", corpus_dir / "orders.jsonl",
                     corpus_dir / "profiles.jsonl")
    write_pools_jsonl(dataset.pools.values(), tmp_path / "pools.jsonl")
    write_orders_jsonl((order for address in dataset.pools
                        for order in dataset.orders[address]),
                       tmp_path / "orders.jsonl")
    write_profiles_jsonl(dataset.profiles, tmp_path / "profiles.jsonl")
    for name in ("pools", "orders", "profiles"):
        original = (corpus_dir / f"{name}.jsonl").read_bytes()
        emitted = (tmp_path / f"{name}.jsonl").read_bytes()
        assert original == emitted, f"{name} round trip not byte-identical"


class TestRoundTrip:
    def test_order_row_codec_preserves_values(self):
        order = make_order("Buy", 55.25, 123.5, x_paired=1234567.25,
                           x_base=19234.5)
        row = json.loads(json.dumps(order_to_row(order)))
        assert order_from_row(row) == order

    def test_generate_ingest_reemit_byte_identical(self, corpus_dir, tmp_path):
        assert_reemit_identical(corpus_dir, tmp_path)

    @pytest.mark.parametrize("category", list(Category))
    def test_order_from_row_reads_each_column_once(self, category):
        """The row is parsed once: no column is read twice, and the category
        is the shared Category member, not the row's string."""
        class CountingRow(dict):
            def __init__(self, row):
                super().__init__(row)
                self.reads = Counter()

            def __getitem__(self, key):
                self.reads[key] += 1
                return super().__getitem__(key)

            def get(self, key, default=None):
                self.reads[key] += 1
                return super().get(key, default)

        order = make_order(category.value, 55.25, 123.5, x_paired=1234567.25,
                           x_base=19234.5)
        row = CountingRow(json.loads(dump_row(order_to_row(order))))
        assert len(row) == 13
        decoded = order_from_row(row)
        assert decoded == order
        assert decoded.category is category
        assert set(row.reads) <= set(row)
        assert max(row.reads.values()) == 1, row.reads

    def test_ingest_is_idempotent(self, corpus_dir):
        a = ingest(corpus_dir / "pools.jsonl", corpus_dir / "orders.jsonl")
        b = ingest(corpus_dir / "pools.jsonl", corpus_dir / "orders.jsonl")
        assert list(a.pools) == list(b.pools)
        for address in a.pools:
            assert a.orders[address] == b.orders[address]


class TestSharedStrings:
    """`ingest` holds each pool address and each sender once."""

    def ingest(self, corpus_dir):
        return ingest(corpus_dir / "pools.jsonl", corpus_dir / "orders.jsonl",
                      corpus_dir / "profiles.jsonl")

    def test_pool_address_is_the_pools_key(self, reader, corpus_dir):
        dataset = self.ingest(corpus_dir)
        for address, pool in dataset.pools.items():
            assert pool.pool_address is address
            assert dataset.orders[address]
            assert all(order.pool_address is address for order in dataset.orders[address])

    def test_equal_senders_are_one_string(self, reader, corpus_dir):
        dataset = self.ingest(corpus_dir)
        senders = {}
        for address, pool in dataset.pools.items():
            for order in dataset.orders[address]:
                assert senders.setdefault(order.sender, order.sender) is order.sender
                if order.sender == pool.owner_address:
                    assert order.sender is pool.owner_address
        assert 1 < len(senders) < sum(map(len, dataset.orders.values()))

    def test_orders_equal_the_generated_ones(self, reader, corpus_dir):
        dataset = self.ingest(corpus_dir)
        for scenario in corpus_scenarios():
            assert dataset.orders[scenario.pool.pool_address] == scenario.orders

    def test_bytes_held_per_order(self, reader, corpus_dir):
        """Each order holds its own hash, numbers and record, and no address:
        about 524 bytes per order on this corpus, where a copy of the pool
        address and of the sender in every order took about 682."""
        self.ingest(corpus_dir)    # any first-call caches fill outside the count
        tracemalloc.start()
        try:
            dataset = self.ingest(corpus_dir)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        orders = sum(map(len, dataset.orders.values()))
        assert orders == 1026
        assert held / orders < 600


class TestSlottedRecords:
    """The per-pool records are slotted and still compare, copy and encode
    by field."""

    @pytest.mark.parametrize("record,change", [
        (make_pool(), {"name": "other"}),
        (SecurityProfile(buy_tax=0.25, anti_whale=True), {"buy_tax": 0.5}),
        (ProfitReport(realized_profit_usd=1.5, profit_taking_count=3),
         {"profit_taking_count": 4}),
        (Verdict(Label.SLID, True, False, True), {"label": Label.LEGITIMATE}),
    ], ids=lambda value: type(value).__name__)
    def test_slotted_and_compared_by_field(self, record, change):
        assert not hasattr(record, "__dict__")
        assert replace(record) == record
        changed = replace(record, **change)
        assert type(changed) is type(record)
        assert changed != record
        assert replace(changed, **{name: getattr(record, name) for name in change}) == record

    def test_record_rows_are_unchanged(self):
        assert record_to_row(make_pool(lpt_burned=True, deployment_gas_usd=2.5)) == {
            "pool_address": "0xpool000000000000000000000000000000000003",
            "base_address": "0xbase", "paired_address": "0xpaired",
            "owner_address": "0xowner00000000000000000000000000000000001",
            "created_time_pool": T0, "created_time_token": T0 - 3600,
            "dex": "Synthetic", "name": "", "lpt_burned": True,
            "deployment_gas_usd": 2.5}
        assert record_to_row(SecurityProfile(sell_tax=0.5, buyable=False),
                             token_address="0xt") == {
            "token_address": "0xt", "buy_tax": 0.0, "sell_tax": 0.5,
            "tax_modifiable": False, "buyable": False, "can_sell_all": True,
            "balance_change_by_owner": False, "trading_cooldown": False,
            "trading_pausable": False, "anti_whale": False,
            "slippage_modifiable": False, "personal_slippage_modifiable": False,
            "transfer_pausable": False}


class TestIngestContracts:
    @pytest.mark.parametrize("column", ["y_paired", "y_base", "x_paired", "x_base",
                                        "price_paired", "price_base", "gas_fee_usd"])
    def test_boolean_in_a_number_column_is_schema_error(self, reader, column):
        """A JSON boolean in an order's amount, price or fee column is no
        number, as `float(True)` would make it, in `ingest` and
        `stream_detect` alike."""
        out = decode_corpus(corpus_lines("orders.jsonl", 1, {column: "true"}))
        error = ("SchemaError: <root>/orders.jsonl line 2: "
                 f"bad order row: {column} True is not a number")
        assert out[2:] == [error, error]

    def test_string_prices_and_number_amounts_are_accepted(self, reader):
        """A price or fee spelled as a string and an amount spelled as a JSON
        number read as their floats."""
        edits = {"price_paired": '"2.5"', "price_base": '"1.25"',
                 "gas_fee_usd": '"0.5"', "y_paired": "10", "y_base": "9",
                 "x_paired": "7"}
        floats = {"price_paired": "2.5", "price_base": "1.25", "gas_fee_usd": "0.5",
                  "y_paired": '"10.0"', "y_base": '"9.0"', "x_paired": '"7.0"'}
        out = decode_corpus(corpus_lines("orders.jsonl", 1, edits))
        assert "Error" not in out[2] + out[3]
        assert out == decode_corpus(corpus_lines("orders.jsonl", 1, floats))

    def test_zero_row_orders_file(self, tmp_path):
        pool = make_pool()
        write_pools_jsonl([pool], tmp_path / "pools.jsonl")
        (tmp_path / "orders.jsonl").write_text("")
        dataset = ingest(tmp_path / "pools.jsonl", tmp_path / "orders.jsonl")
        assert dataset.orders[pool.pool_address] == []

    def test_unknown_pool_orders_skipped_and_counted(self, tmp_path):
        pool = make_pool()
        write_pools_jsonl([pool], tmp_path / "pools.jsonl")
        orders = [make_order("Deposit", 10.0, 1.0),
                  make_order("Buy", 5.0, 1.0, pool_address="0x" + "9" * 40),
                  make_order("Buy", 5.0, 1.0, pool_address="0x" + "8" * 40)]
        write_orders_jsonl(orders, tmp_path / "orders.jsonl")
        dataset = ingest(tmp_path / "pools.jsonl", tmp_path / "orders.jsonl")
        assert dataset.orders_skipped_unknown_pool == 2
        assert len(dataset.orders[pool.pool_address]) == 1

    def test_orders_kept_in_file_order(self, tmp_path):
        pool = make_pool()
        write_pools_jsonl([pool], tmp_path / "pools.jsonl")
        first = make_order("Deposit", 10.0, 1.0, ts=1_900_000_000)
        early_hash = make_order("Sell", 2.0, 0.5, ts=1_900_000_500)
        late_hash = make_order("Buy", 5.0, 1.0, ts=1_900_000_500)
        assert early_hash.hash < late_hash.hash
        orders = [first, late_hash, early_hash]    # same block, hashes descending
        write_orders_jsonl(orders, tmp_path / "orders.jsonl")
        dataset = ingest(tmp_path / "pools.jsonl", tmp_path / "orders.jsonl")
        assert dataset.orders[pool.pool_address] == orders

    def test_decreasing_timestamp_rejected(self, tmp_path):
        pool = make_pool()
        write_pools_jsonl([pool], tmp_path / "pools.jsonl")
        early = make_order("Deposit", 10.0, 1.0, ts=1_900_000_000)
        late = make_order("Buy", 5.0, 1.0, ts=1_900_000_500)
        write_orders_jsonl([late, early], tmp_path / "orders.jsonl")
        with pytest.raises(SchemaError) as err:
            ingest(tmp_path / "pools.jsonl", tmp_path / "orders.jsonl")
        assert err.value.lineno == 2
        assert str(err.value).endswith("line 2: NonMonotonicTime: order at "
                                       "1900000000 before last applied 1900000500")

    def test_schema_error_carries_line_number(self, tmp_path):
        write_pools_jsonl([make_pool()], tmp_path / "pools.jsonl")
        (tmp_path / "orders.jsonl").write_text('{"block": 1}\n')
        with pytest.raises(SchemaError) as err:
            ingest(tmp_path / "pools.jsonl", tmp_path / "orders.jsonl")
        assert err.value.lineno == 1

    def test_invalid_json_is_schema_error(self, tmp_path):
        (tmp_path / "pools.jsonl").write_text("{not json\n")
        with pytest.raises(SchemaError):
            read_pools(tmp_path / "pools.jsonl")

    def test_empty_pool_file_raises_empty_dataset(self, tmp_path):
        (tmp_path / "pools.jsonl").write_text("")
        with pytest.raises(EmptyDataset):
            read_pools(tmp_path / "pools.jsonl")

    @pytest.mark.parametrize("read,record,name", [
        pytest.param(read_pools, make_pool(), f.name, id=f"pool-{f.name}")
        for f in fields(PoolRecord)] + [
        pytest.param(read_profiles, SecurityProfile(), f.name, id=f"profile-{f.name}")
        for f in fields(SecurityProfile)])
    def test_field_of_wrong_json_type_is_schema_error(self, tmp_path, read, record,
                                                      name):
        """Every pool and profile field rejects a value of another JSON
        type: a string field an integer, any other field its value spelled
        as a JSON string."""
        right = getattr(record, name)
        wrong = 7 if isinstance(right, str) else json.dumps(right)
        key = {} if read is read_pools else {"token_address": "0xtoken"}
        row = {**record_to_row(record, **key), name: wrong}
        (tmp_path / "rows.jsonl").write_text(dump_row(row) + "\n")
        with pytest.raises(SchemaError) as err:
            read(tmp_path / "rows.jsonl")
        assert err.value.lineno == 1
        assert f" row: {name} {wrong!r} is not " in str(err.value)


# Strings that need escaping (quotes, backslashes, control and non-ASCII
# characters, a line separator), short and long enough to be anonymized.
_text = st.one_of(
    st.text(),
    st.text(alphabet='"\\\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600ab', max_size=30),
    st.binary(min_size=20, max_size=20).map(lambda raw: "0x" + raw.hex()),
)
# Every float, nan and both infinities included.
_float = st.floats()
_finite = st.floats(allow_nan=False, allow_infinity=False)
# Any order in the writer's contract: every field of its declared type, with
# a finite price and fee.
_order = st.builds(
    DexOrder,
    block=st.integers(min_value=-2**70, max_value=2**70),
    timestamp=st.integers(min_value=0, max_value=2**40),
    hash=_text,
    category=st.sampled_from(list(Category)),
    pool_address=_text,
    sender=_text,
    x_paired=st.none() | _float,
    x_base=st.none() | _float,
    y_paired=_float,
    y_base=_float,
    price_paired=_finite,
    price_base=_finite,
    gas_fee_usd=_finite,
)


def reference_line(order, anonymize):
    """dump_row(order_to_row(order)), its addresses shortened with
    `anonymize`: the line the writer must write for an order in its
    contract."""
    row = order_to_row(order)
    if anonymize:
        for key in ("hash", "pool_address", "sender"):
            row[key] = anonymize_address(row[key])
    return dump_row(row) + "\n"


# Values outside the writer's contract, per field.
_OUT_OF_CONTRACT = {
    "block": [True, 1.0, None, "1"],
    "timestamp": [False, 1.0, None],
    "hash": [7, None, b"0x", b"0x" + b"ab" * 20, ["0x"] * 20],
    "category": [None, 1],
    "pool_address": [7, None],
    "sender": [7, None, ("0x",) * 20],
    "x_paired": [1, "1.5", True],
    "x_base": [0, "0.0"],
    "y_paired": [None, 1, "1.5"],
    "y_base": [True, 2],
    "price_paired": [True, 1, None, math.nan, math.inf, -math.inf],
    "price_base": [False, 1, None, math.nan, math.inf, -math.inf],
    "gas_fee_usd": [True, 0, None, math.nan, math.inf, -math.inf],
}


class TestOrderWriter:
    @given(st.lists(_order, max_size=4), st.lists(_order, max_size=4), st.booleans())
    @example([make_order("Buy", 1.0, price_base=1e308, gas=1.7976931348623157e308)],
             [], False)
    @settings(max_examples=300, deadline=None)
    def test_each_line_is_the_reference_encoding(self, first, second, anonymize):
        """write_orders_jsonl writes each order in its contract as
        dump_row(order_to_row(order)) does, with and without anonymize, and
        when it appends; finite prices and fees whose sum overflows are in
        the contract too."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "orders.jsonl"
            write_orders_jsonl(first, path, anonymize=anonymize)
            write_orders_jsonl(second, path, anonymize=anonymize, append=True)
            written = path.read_bytes().decode("ascii")
        assert written == "".join(reference_line(order, anonymize)
                                  for order in first + second)

    @pytest.mark.parametrize("field,value", [
        pytest.param(field, value, id=f"{field}-{value!r}")
        for field, values in _OUT_OF_CONTRACT.items() for value in values])
    @pytest.mark.parametrize("anonymize", [False, True], ids=["plain", "anonymize"])
    def test_out_of_contract_order_raises(self, tmp_path, field, value, anonymize):
        """An order outside the writer's contract raises, TypeError for a
        string field that holds no string and ValueError otherwise, and no
        line is written for it or after it."""
        good = make_order("Buy", 55.25, 123.5, x_paired=1234567.25, x_base=19234.5)
        path = tmp_path / "orders.jsonl"
        raises = (pytest.raises(TypeError)
                  if field in ("hash", "category", "pool_address", "sender")
                  else pytest.raises(ValueError, match="outside the order writer's contract"))
        with raises:
            write_orders_jsonl([good, replace(good, **{field: value}), good], path,
                               anonymize=anonymize)
        assert path.read_text() == reference_line(good, anonymize)

    @pytest.mark.parametrize("field", ["x_paired", "x_base", "y_paired", "y_base",
                                       "price_paired", "price_base", "gas_fee_usd"])
    def test_float_edge_values(self, reader, field):
        """Each float field at the ends of the range where orjson and repr
        write a float alike, at both signs of zero and at the float range's
        ends, and each amount and balance at nan and the infinities, is
        written as the reference encoding writes it, with the recorded
        balances null and set, with and without anonymize, and with and
        without orjson."""
        values = [9.999999999999999e-05, 1e-4, 2.5e-07, 9999999999999998.0, 1e16,
                  -0.0, 5e-324, 1.7976931348623157e308]
        if field not in ("price_paired", "price_base", "gas_fee_usd"):
            values += [math.nan, math.inf, -math.inf]
        for balances in (None, 1234567.25):
            base = make_order("Buy", 55.25, 123.5, x_paired=balances, x_base=balances)
            for value in values:
                order = replace(base, **{field: value})
                for anonymize in (False, True):
                    line = dataio._order_line(order, anonymize)
                    assert line == reference_line(order, anonymize), \
                        (balances, value, anonymize)

    @given(st.lists(st.floats(), min_size=1, max_size=7))
    @example([1e-5, 123.5])
    @example([-9.999999999999999e-05])
    @settings(max_examples=2000, deadline=None)
    def test_float_text_is_repr(self, values):
        """The fact the writer rests on: each float's text is its repr,
        whichever writer gives it, beside floats of any other notation."""
        assert list(dataio._float_texts(tuple(values))) == list(map(repr, values))

    @pytest.mark.skipif(dataio._orjson_dumps is None, reason="orjson is not installed")
    def test_generated_orders_take_orjson(self, monkeypatch):
        """With orjson installed, each generated order's floats are written by
        one orjson.dumps."""
        dumps = dataio._orjson_dumps
        calls = []
        monkeypatch.setattr(dataio, "_orjson_dumps",
                            lambda values: calls.append(values) or dumps(values))
        orders = generate(ScenarioConfig(kind=ScenarioKind.SLID, seed=4,
                                         slid_drain_count=30, lifetime_days=40)).orders
        with tempfile.TemporaryDirectory() as tmp:
            write_orders_jsonl(orders, Path(tmp) / "orders.jsonl")
        assert len(calls) == len(orders)

    def test_generated_orders_are_in_the_contract(self):
        """Every generated order is in the writer's contract, so writing it,
        anonymized too, raises nothing."""
        orders = generate(ScenarioConfig(kind=ScenarioKind.SLID, seed=4,
                                         slid_drain_count=30, lifetime_days=40)).orders
        with tempfile.TemporaryDirectory() as tmp:
            write_orders_jsonl(orders, Path(tmp) / "orders.jsonl", anonymize=True)


class TestAnonymize:
    def test_truncation_keeps_ends(self):
        address = "0x4e84abcdef0123456789abcdef0123456a17c8"
        assert anonymize_address(address) == "0x4e8...a17c8"

    def test_short_ids_untouched(self):
        assert anonymize_address("0xshort") == "0xshort"

    def test_anonymized_export(self, tmp_path):
        scenario = generate(ScenarioConfig(kind=ScenarioKind.LEGITIMATE, seed=1,
                                           lifetime_days=5))
        write_pools_jsonl([scenario.pool], tmp_path / "pools.jsonl", anonymize=True)
        row = json.loads((tmp_path / "pools.jsonl").read_text())
        assert "..." in row["pool_address"]
        assert len(row["pool_address"]) == 13


class TestStreamBatchState:
    def test_stream_and_batch_trackers_agree(self):
        """A tracker fed decoded rows (detect) ends in the same state and
        report as one fed materialised orders (batch commands)."""
        counts = {kind: 2 for kind in ScenarioKind}
        overrides = {
            ScenarioKind.SLID: {"slid_drain_count": 60, "lifetime_days": 90},
            ScenarioKind.SLID_SLOW: {"slid_drain_count": 12, "lifetime_days": 280},
        }
        for scenario in build_corpus(counts, seed=7, overrides=overrides):
            batch = ProfitTracker(scenario.pool)
            stream = ProfitTracker(scenario.pool)
            for order in scenario.orders:
                row = json.loads(dump_row(order_to_row(order)))
                order = order_from_row(row)
                batch.add(order.timestamp, order.category, order.sender,
                          order.y_base, order.price_base, order.gas_fee_usd)
                (_, timestamp, _, category, _, sender, _, _, _, y_base, _, price_base,
                 gas_fee_usd) = decode_order(row)
                stream.add(timestamp, category, sender, y_base, price_base, gas_fee_usd)
            assert batch.state == stream.state, scenario.pool.pool_address
            assert batch.report() == stream.report(), scenario.pool.pool_address


# ---------------------------------------------------------------------------
# The JSONL reader, with orjson and with the stdlib alone
# ---------------------------------------------------------------------------

def typed(value):
    """A value with the type of every part spelled out, so that 1 and 1.0,
    0.0 and -0.0, or a reordered dict compare unequal."""
    if isinstance(value, dict):
        return ("dict", [(key, typed(item)) for key, item in value.items()])
    if isinstance(value, list):
        return ("list", [typed(item) for item in value])
    return (type(value).__name__, repr(value))


def read_lines(lines, decode=lambda row: row):
    """Every (line number, typed decode(row)) `iter_jsonl` yields for these
    lines, ending with the name and text of the exception it raises, if any."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "rows.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        out = []
        try:
            for lineno, value in iter_jsonl(path, decode, "test"):
                out.append((lineno, typed(value)))
        except Exception as exc:  # compared as data: both paths must agree
            out.append((type(exc).__name__, str(exc).replace(str(path), "<path>")))
        return out


def orjson_row(row):
    """The row orjson reads where it reads the line the stdlib reads as
    `row`: each integer outside [-2**63, 2**64) is its float."""
    if isinstance(row, dict):
        return {key: orjson_row(item) for key, item in row.items()}
    if isinstance(row, list):
        return [orjson_row(item) for item in row]
    if type(row) is int and not -2 ** 63 <= row < 2 ** 64:
        return float(row)
    return row


class TestJsonlReader:
    def test_rows_and_types(self, reader):
        """An identity decoder gets each reader's own row: orjson's holds an
        integer literal outside [-2**63, 2**64) as its float."""
        wide = float if reader == "orjson" else int
        big = 123456789012345678901234567890
        lines = ['{"a":1,"b":2.5,"c":"x","d":null,"e":true}', "", "   ",
                 '{"a":1}\x0c', ' {"a":-0,"b":-0.0}', f'{{"n":{big},"m":-{big}}}',
                 '{"n":18446744073709551615,"m":-9223372036854775809}',
                 '{"x":NaN,"y":-Infinity,"z":1e400}', '{"s":"\\ud800"}',
                 '{"a":1,"b":2,"a":3}', '{"d":{"e":[1,2.5]},"f":[]}', '{"f":9.3e18}']
        assert read_lines(lines) == [
            (1, typed({"a": 1, "b": 2.5, "c": "x", "d": None, "e": True})),
            (4, typed({"a": 1})),
            (5, typed({"a": 0, "b": -0.0})),
            (6, typed({"n": wide(big), "m": wide(-big)})),
            (7, typed({"n": 2 ** 64 - 1, "m": wide(-2 ** 63 - 1)})),
            (8, typed({"x": float("nan"), "y": float("-inf"), "z": float("inf")})),
            (9, typed({"s": "\ud800"})),
            (10, typed({"a": 3, "b": 2})),
            (11, typed({"d": {"e": [1, 2.5]}, "f": []})),
            (12, typed({"f": 9.3e18})),
        ]

    @pytest.mark.parametrize("line,message", [
        ("{not json", "invalid JSON: Expecting property name enclosed in double quotes"),
        ('{"a":1} x', "invalid JSON: Extra data"),
        ("[1, 2]", "row is not a JSON object"),
        ("12345678901234567890123", "row is not a JSON object"),
        ("NaN", "row is not a JSON object"),
    ])
    def test_bad_line_is_schema_error(self, reader, line, message):
        out = read_lines(['{"a":1}', line])
        assert out[0] == (1, typed({"a": 1}))
        assert out[1][0] == "SchemaError"
        assert out[1][1].startswith(f"<path> line 2: {message}")

    def test_rejected_row_is_decoded_from_the_stdlib_row(self, reader):
        """A row its decoder rejects is read again by the stdlib and decoded
        again: the stdlib's integer past 64 bits is accepted, and an error
        line shows the stdlib's value."""
        def whole(row):
            if type(row["n"]) is not int:
                raise ValueError(f"n {row['n']!r} is not an integer")
            return row["n"]

        lines = ['{"n":18446744073709551616}', '{"n":[-9223372036854775809]}']
        assert read_lines(lines, whole) == [
            (1, typed(2 ** 64)),
            ("SchemaError",
             "<path> line 2: bad test row: n [-9223372036854775809] is not an integer"),
        ]

    def test_generate_ingest_reemit_byte_identical(self, reader, corpus_dir, tmp_path):
        assert_reemit_identical(corpus_dir, tmp_path)


class TestLineReader:
    def test_lines_and_their_endings(self, tmp_path):
        """`read_lines` numbers every line. By default a carriage return,
        with or without a line feed, ends a line read as ending in a line
        feed; with `newline=""` each line keeps its own ending, which counts
        towards LINE_LIMIT."""
        path = tmp_path / "lines.txt"
        limit = dataio.LINE_LIMIT
        path.write_bytes(b"a\r\nbb\rc\x0cc\n" + b"d" * (limit - 2) + b"\r\ne")
        assert list(dataio.read_lines(path)) == [
            (1, "a\n"), (2, "bb\n"), (3, "c\x0cc\n"), (4, "d" * (limit - 2) + "\n"),
            (5, "e")]
        assert list(dataio.read_lines(path, newline="")) == [
            (1, "a\r\n"), (2, "bb\r"), (3, "c\x0cc\n"), (4, "d" * (limit - 2) + "\r\n"),
            (5, "e")]


_NUMERIC_COLUMNS = ["block", "timestamp", "price_paired", "price_base", "gas_fee_usd"]
_EDGE_LITERALS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "-0", "-0.0",
                  "1e-400", '"\\ud800"', '"\\udc00"', '"\\ud83d\\ude00"', "true",
                  "null", '"abc"', "[1,2]", '{"k":1}', "[]", "{}",
                  "9223372036854775807", "-9223372036854775808",
                  "18446744073709551615", "18446744073709551616"]
# The integers next to the float range's end: around the largest float, and
# around the first integer float() rounds to infinity; the two between round
# down to the largest float.
_FLOAT_END = [2 ** 1024 - 2 ** 971 + d for d in (-1, 0, 1)] + [
    2 ** 1024 - 2 ** 970 + d for d in (-1, 0, 1)]
# Integers at and next to the halfway point between two floats past 64 bits.
_halfway = st.integers(64, 1023).flatmap(
    lambda k: st.sampled_from([2 ** k + 2 ** (k - 53) + d for d in (-1, 0, 1)]))
_wide_integer = st.one_of(
    st.integers(10 ** 18, 10 ** 40 - 1), st.integers(2 ** 63, 2 ** 1100), _halfway,
    st.sampled_from(_FLOAT_END)).flatmap(lambda n: st.sampled_from([n, -n]))
_literal = st.one_of(
    st.sampled_from(_EDGE_LITERALS),
    _wide_integer.map(str),
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(r"-?(0|[1-9][0-9]{0,24})(\.[0-9]{1,24})?([eE][-+]?[0-9]{1,3})?",
                  fullmatch=True),
)
# A literal as JSON string text, as an order's token amounts travel.
_quoted = _literal.map(json.dumps)
_value = st.one_of(_literal, _quoted, _literal.map(lambda v: f"[{v}]"),
                   _literal.map(lambda v: f'{{"k":{v}}}'))
_AMOUNT_COLUMNS = ["x_paired", "x_base", "y_paired", "y_base"]
_object = st.lists(st.tuples(st.sampled_from(_NUMERIC_COLUMNS + _AMOUNT_COLUMNS + ["hash"]),
                             _value), max_size=6).map(
    lambda items: "{" + ",".join(f'"{key}":{value}' for key, value in items) + "}")
_padding = st.sampled_from(["", "", " ", "\t"])
_line = st.one_of(
    st.tuples(_padding, _object, _padding).map("".join),
    st.tuples(_padding, st.one_of(_object, _literal),
              st.sampled_from(["\x0c", " \x0c", "\x0b", "x"])).map("".join),
    st.sampled_from(["", " ", "\x0c", "{", "}", "[", "{]"]),
)


@st.composite
def _any_case(draw, word):
    return "".join(c.upper() if draw(st.booleans()) else c for c in word)


_FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               2.225073858507201e-308, sys.float_info.max, -sys.float_info.max]
_decimal = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(_FLOAT_EDGES).map(repr),
    st.from_regex(r"-?(0|[1-9][0-9]{0,39})(\.[0-9]{1,40})?([eE][-+]?[0-9]{1,3})?",
                  fullmatch=True),
    _wide_integer.map(str),
    st.sampled_from(["-0", "0"]),
)
# Text an order's amount column may hold: decimals orjson reads, padded with
# JSON whitespace or with whitespace only float() skips; spellings only
# float() reads; JSON that is no number; and lone surrogates.
_amount_text = st.one_of(
    st.tuples(st.sampled_from(["", " ", "\t\n", "\r", "\u00a0", "\u2003", "\x0c"]),
              _decimal,
              st.sampled_from(["", " ", "\n", "\r\t", "\u00a0", "\u2003", "\x0b"]),
              ).map("".join),
    st.tuples(st.sampled_from(["", "+", "-"]),
              st.sampled_from(["inf", "nan", "infinity"]).flatmap(_any_case)).map("".join),
    st.sampled_from(["1_0", "1_000.5", "+1", "+0.5e3", ".5", "-.5", "5.", "5.e3",
                     "\uff11", "\uff12.\uff15", "\u0661\u0662"]),
    st.sampled_from(["true", "false", "null", '"1.5"', "[1.5]", '{"a":1}', "abc",
                     "", " ", "1.5 x", "0x10", "1e", "--1", "01", "1.5.5"]),
    st.tuples(_decimal, st.sampled_from(["\ud800", "\udc00", "\udfff"])).map("".join),
    st.sampled_from(["\ud800", "\udc00"]),
)

# A valid corpus: one pool, its profile, and orders of every category, the
# last for a pool the pools file does not hold.
_POOL = make_pool()
_ROWS = {
    "pools.jsonl": [record_to_row(_POOL)],
    "profiles.jsonl": [record_to_row(SecurityProfile(),
                                     token_address=_POOL.paired_address)],
    "orders.jsonl": [order_to_row(order) for order in (
        make_order("Deposit", 100.0, 100.0, ts=T0, x_paired=0.0, x_base=0.0),
        make_order("Buy", 10.0, 9.0, sender=USER, ts=T0 + 60),
        make_order("Sell", 5.0, 4.5, ts=T0 + 120, gas=2.5),
        make_order("Withdraw", 1.0, 1.0, ts=T0 + 180),
        make_order("Buy", 1.0, 1.0, sender=USER, pool_address="0xother"))],
}


def corpus_lines(name=None, index=None, edits=()):
    """The valid corpus, {file name: its lines}, with `edits` (field name ->
    JSON literal) made in row `index` of file `name`."""
    edits = dict(edits)

    def line(row, edits):
        return "{" + ",".join(f'"{key}":{edits[key] if key in edits else json.dumps(value)}'
                              for key, value in row.items()) + "}"

    return {file: [line(row, edits if (file, i) == (name, index) else {})
                   for i, row in enumerate(rows)]
            for file, rows in _ROWS.items()}


@st.composite
def _edited_corpus(draw):
    """The valid corpus with 1-3 fields of one row set to edge literals; a
    token amount column mostly gets one as string text."""
    name = draw(st.sampled_from(sorted(_ROWS)))
    index = draw(st.integers(0, len(_ROWS[name]) - 1))
    keys = draw(st.lists(st.sampled_from(list(_ROWS[name][index])),
                         min_size=1, max_size=3, unique=True))
    return corpus_lines(name, index, {
        key: draw(st.one_of(_quoted, _value) if key in _AMOUNT_COLUMNS else _value)
        for key in keys})


def decode_corpus(files):
    """What each reader makes of a corpus: the repr of its result, which
    spells out every type, or its error line."""
    with tempfile.TemporaryDirectory() as root:
        for name, lines in files.items():
            Path(root, name).write_text("".join(line + "\n" for line in lines))
        paths = [Path(root, name) for name in ("pools.jsonl", "orders.jsonl",
                                               "profiles.jsonl")]
        out = []
        for read in (lambda: read_pools(paths[0]), lambda: read_profiles(paths[2]),
                     lambda: ingest(*paths), lambda: stream_detect(*paths)):
            try:
                out.append(repr(read()))
            except (SchemaError, EmptyDataset) as exc:
                out.append(f"{type(exc).__name__}: {exc}".replace(root, "<root>"))
        return out


@pytest.mark.skipif(dataio._orjson_loads is None, reason="orjson is not installed")
class TestReaderPathsAgree:
    @given(_edited_corpus())
    @settings(max_examples=400, deadline=None)
    def test_records_decode_alike(self, files):
        """Pool, profile and order rows with edge values in 1-3 fields give
        the same typed records, or the same error line, from `read_pools`,
        `read_profiles`, `ingest` and `stream_detect`, whether orjson reads
        them or the stdlib does."""
        fast = decode_corpus(files)
        with mock.patch.object(dataio, "_orjson_loads", None):
            assert decode_corpus(files) == fast

    @pytest.mark.parametrize("n", _FLOAT_END, ids=["max-1", "max", "max+1", "limit-1",
                                                   "limit", "limit+1"])
    def test_number_field_at_the_float_range_end(self, n):
        """An integer that rounds to the largest float reads as that float on
        both paths, as orjson reads it; one that float() rounds to infinity
        is the same error line on both."""
        files = corpus_lines("pools.jsonl", 0, {"deployment_gas_usd": str(n)})
        fast = decode_corpus(files)
        with mock.patch.object(dataio, "_orjson_loads", None):
            assert decode_corpus(files) == fast
        assert ("is not a finite number" in fast[0]) == (n >= 2 ** 1024 - 2 ** 970)

    @pytest.mark.parametrize("value", ['"nan"', '"inf"', '"-5"', "-5", "1e400"])
    @pytest.mark.parametrize("column", ["x_paired", "x_base"])
    def test_bad_recorded_balance_is_one_error_line(self, column, value):
        """A recorded balance that is not null, or finite and non-negative,
        is the same error line, naming the field, on both paths."""
        files = corpus_lines("orders.jsonl", 1, {column: value})
        fast = decode_corpus(files)
        with mock.patch.object(dataio, "_orjson_loads", None):
            assert decode_corpus(files) == fast
        error = ("SchemaError: <root>/orders.jsonl line 2: "
                 f"bad order row: {column} must be null, or finite and non-negative")
        assert fast[2:] == [error, error]

    @pytest.mark.parametrize("depth", [300, 1500])
    def test_nested_unused_key_reads_alike(self, depth):
        """A pool row with an unused key holding nested arrays reads the same
        on both paths: 300 levels fit in a line orjson reads and both accept;
        1,500 levels, which orjson reads and the stdlib's recursion limit
        rejects, make a line too long for orjson, so it is one error line."""
        files = corpus_lines()
        line = files["pools.jsonl"][0]
        files["pools.jsonl"][0] = line[:-1] + ',"unused":' + "[" * depth + "]" * depth + "}"
        assert (len(files["pools.jsonl"][0]) <= dataio._ORJSON_MAX_TEXT) == (depth == 300)
        fast = decode_corpus(files)
        with mock.patch.object(dataio, "_orjson_loads", None):
            assert decode_corpus(files) == fast
        if depth == 300:
            assert fast == decode_corpus(corpus_lines())
        else:
            assert fast[0] == ("SchemaError: <root>/pools.jsonl line 1: invalid JSON: "
                               "maximum recursion depth exceeded while decoding a JSON "
                               "array from a unicode string")

    @given(_line)
    @settings(max_examples=400, deadline=None)
    def test_orjson_rows_differ_only_in_wide_integers(self, line):
        """Through an identity decoder a line gives the stdlib's row, or the
        same error, on both paths, except that an object orjson reads (from
        a line of at most `_ORJSON_MAX_TEXT` characters) holds each integer
        outside [-2**63, 2**64) as its float."""
        fast = read_lines([line])
        try:
            widen = (len(line) <= dataio._ORJSON_MAX_TEXT
                     and type(dataio._orjson_loads(line)) is dict)
        except ValueError:    # the stdlib reads the line on both paths
            widen = False
        with mock.patch.object(dataio, "_orjson_loads", None):
            slow = read_lines([line], orjson_row) if widen else read_lines([line])
        assert slow == fast

    @given(_amount_text)
    @example("-0")
    @example("19000")
    @example("1e400")
    @example("\ud800")
    @settings(max_examples=1000, deadline=None)
    def test_amount_reads_as_float_does(self, text):
        """The fact the amount reader rests on: `_amount` gives `float()`'s
        value bit for bit, sign of zero included, or raises its exception,
        for decimal text orjson reads and for text only `float()` takes."""
        try:
            expected = float(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                dataio._amount(text, "y_base")
            assert type(err.value) is type(exc) and str(err.value) == str(exc)
            return
        value = dataio._amount(text, "y_base")
        assert type(value) is float
        assert struct.pack("<d", value) == struct.pack("<d", expected)

    @given(_wide_integer)
    @settings(max_examples=500, deadline=None)
    def test_orjson_reads_a_wide_integer_as_its_float(self, n):
        """The fact the reader rests on: orjson reads an integer literal
        outside [-2**63, 2**64) as exactly `float(n)`, and rejects one that
        `float()` cannot take."""
        try:
            value = dataio._orjson_loads(str(n))
        except ValueError:
            with pytest.raises(OverflowError):
                float(n)
            return
        if -2 ** 63 <= n < 2 ** 64:
            assert type(value) is int and value == n
        else:
            assert type(value) is float and value == float(n)
