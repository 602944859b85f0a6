"""JSONL ingestion, round-trip fidelity, and skip/error accounting."""

import json

import pytest

from slidscan.dataio import (
    EmptyDataset,
    SchemaError,
    anonymize_address,
    decode_order,
    dump_row,
    ingest,
    order_from_row,
    order_to_row,
    write_orders_jsonl,
    write_pools_jsonl,
    write_profiles_jsonl,
)
from slidscan.metrics import ProfitTracker
from slidscan.synth import ScenarioConfig, ScenarioKind, build_corpus, generate

from conftest import make_order, make_pool


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    counts = {ScenarioKind.LEGITIMATE: 3, ScenarioKind.SLID: 2,
              ScenarioKind.RUGPULL: 2}
    overrides = {
        ScenarioKind.LEGITIMATE: {"lifetime_days": 30, "investor_arrival": 1.5},
        ScenarioKind.SLID: {"slid_drain_count": 40, "lifetime_days": 50},
    }
    scenarios = list(build_corpus(counts, seed=17, overrides=overrides,
                                  sort_by_address=True))
    pools = [s.pool for s in scenarios]
    profiles = dict(sorted((s.pool.paired_address, s.profile) for s in scenarios))
    write_pools_jsonl(pools, out / "pools.jsonl")
    write_orders_jsonl((o for s in scenarios for o in s.orders), out / "orders.jsonl")
    write_profiles_jsonl(profiles, out / "profiles.jsonl")
    return out


class TestRoundTrip:
    def test_order_row_codec_preserves_values(self):
        order = make_order("Buy", 55.25, 123.5, x_paired=1234567.25,
                           x_base=19234.5)
        row = json.loads(json.dumps(order_to_row(order)))
        assert order_from_row(row) == order

    def test_generate_ingest_reemit_byte_identical(self, corpus_dir, tmp_path):
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

    def test_ingest_is_idempotent(self, corpus_dir):
        a = ingest(corpus_dir / "pools.jsonl", corpus_dir / "orders.jsonl")
        b = ingest(corpus_dir / "pools.jsonl", corpus_dir / "orders.jsonl")
        assert list(a.pools) == list(b.pools)
        for address in a.pools:
            assert a.orders[address] == b.orders[address]


class TestIngestContracts:
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
        assert dataset.stats.rows_skipped["order_unknown_pool"] == 2
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
            ingest(tmp_path / "pools.jsonl")

    def test_empty_pool_file_raises_empty_dataset(self, tmp_path):
        (tmp_path / "pools.jsonl").write_text("")
        with pytest.raises(EmptyDataset):
            ingest(tmp_path / "pools.jsonl")


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
                batch.add_order(order_from_row(row))
                stream.add(*decode_order(row))
            assert batch.state == stream.state, scenario.pool.pool_address
            assert batch.report() == stream.report(), scenario.pool.pool_address
