"""CLI subcommands end to end: generate, detect, features, train, sweep, report."""

import csv
import json
import shutil

import pytest

from slidscan import analysis, dataio, pipeline
from slidscan.cli import main
from slidscan.features import FEATURE_NAMES
from slidscan.validators import SecurityProfile

from conftest import T0, USER, make_order, make_pool

CORPUS_CFG = """
seed = 11
legitimate.count = 6
legitimate.lifetime_days = 40
legitimate.investor_arrival = 1.5
rugpull.count = 3
honeypot.count = 2
slid.count = 4
slid.slid_drain_count = 40
slid.lifetime_days = 60
slidmultiaddress.count = 1
slidmultiaddress.slid_drain_count = 30
slidmultiaddress.lifetime_days = 60
"""


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "corpus.cfg"
    cfg.write_text(CORPUS_CFG)
    out = root / "corpus"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def rewrite_rows(path, mutate):
    """Let `mutate` edit the parsed rows of a JSONL file in place and write
    them back; returns what `mutate` returns."""
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    result = mutate(rows)
    path.write_text("".join(dataio.dump_row(row) + "\n" for row in rows))
    return result


def mutated_corpus(corpus, out, mutate, name="orders.jsonl"):
    """Copy the corpus into `out`, letting `mutate` edit the parsed rows of
    its file `name` in place; returns the 1-based line it reports as bad."""
    shutil.copytree(corpus, out)
    return rewrite_rows(out / name, mutate)


def run_on(command, corpus, tmp_path):
    """One subcommand over `corpus` with every input file, writing to tmp."""
    inputs = ["--pools", str(corpus / "pools.jsonl"),
              "--orders", str(corpus / "orders.jsonl"),
              "--profiles", str(corpus / "profiles.jsonl")]
    out = ["--out", str(tmp_path / "out.csv")]
    if command == "detect":
        return main(["detect"] + inputs + out)
    if command == "features":
        return main(["features"] + inputs + ["--window", "60"] + out)
    if command == "sweep":
        return main(["sweep", "--corpus", str(corpus)] + out)
    if command == "slid-profit":
        return main(["report", "--kind", "profit", "--labels-filter", "SLID"]
                    + inputs + out)
    return main(["report", "--kind", command] + inputs + out)


def write_same_block_corpus(root):
    """One SLID pool in eight orders. The last two share a timestamp and a
    block: a user buy, then an owner sell whose hash sorts before the buy's.
    In file order the sell takes 672/1400 = 0.48 of the pool; sorted by hash
    it would take 672/700 = 0.96, a rug pull."""
    root.mkdir()
    t = T0 + 5 * 3600
    sell = make_order("Sell", 672.0, ts=t)
    buy = make_order("Buy", 700.0, sender=USER, ts=t)
    orders = [make_order("Deposit", 100.0, 100.0, ts=T0),
              make_order("Buy", 1000.0, sender=USER, ts=T0 + 60)]
    orders += [make_order("Sell", 100.0, ts=T0 + h * 3600) for h in range(1, 5)]
    pool = make_pool()
    dataio.write_pools_jsonl([pool], root / "pools.jsonl")
    dataio.write_orders_jsonl(orders + [buy, sell], root / "orders.jsonl")
    dataio.write_profiles_jsonl({pool.paired_address: SecurityProfile()},
                                root / "profiles.jsonl")
    return root


class TestGenerate:
    def test_artifacts_exist(self, corpus):
        for name in ("pools.jsonl", "orders.jsonl", "profiles.jsonl", "labels.csv"):
            assert (corpus / name).exists()

    def test_pools_sorted_by_address(self, corpus):
        addresses = [json.loads(line)["pool_address"]
                     for line in (corpus / "pools.jsonl").read_text().splitlines()]
        assert addresses == sorted(addresses)
        assert len(addresses) == 16

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense\n")
        code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 4
        assert "error code=4" in capsys.readouterr().err


class TestDetect:
    def test_verdicts_match_generator_truth(self, corpus, tmp_path):
        out = tmp_path / "verdicts.csv"
        code = main(["detect", "--pools", str(corpus / "pools.jsonl"),
                     "--orders", str(corpus / "orders.jsonl"),
                     "--profiles", str(corpus / "profiles.jsonl"),
                     "--out", str(out)])
        assert code == 0
        verdicts = {row["pool_address"]: row["label"] for row in read_csv(out)}
        truth = {row["pool_address"]: row["true_label"]
                 for row in read_csv(corpus / "labels.csv")}
        assert set(verdicts) == set(truth)
        for address, true_label in truth.items():
            if true_label == "SlidMultiAddress":
                # documented limitation: drains from linked addresses are
                # invisible to owner-attributed accounting
                assert verdicts[address] != "SLID"
            else:
                assert verdicts[address] == true_label, address

    def test_verdicts_sorted_and_schema(self, corpus, tmp_path):
        out = tmp_path / "verdicts.csv"
        main(["detect", "--pools", str(corpus / "pools.jsonl"),
              "--orders", str(corpus / "orders.jsonl"),
              "--profiles", str(corpus / "profiles.jsonl"), "--out", str(out)])
        rows = read_csv(out)
        addresses = [row["pool_address"] for row in rows]
        assert addresses == sorted(addresses)
        assert list(rows[0].keys()) == [
            "pool_address", "label", "honeypot_pass", "profit_pass",
            "owner_activity_pass", "realized_usd", "unrealized_1m_usd",
            "max_impact", "c"]

    def test_missing_profiles_degrades_with_warning(self, corpus, tmp_path, capsys):
        out = tmp_path / "verdicts.csv"
        code = main(["detect", "--pools", str(corpus / "pools.jsonl"),
                     "--orders", str(corpus / "orders.jsonl"),
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "without a security profile" in captured.err
        # honeypot pools are no longer separable without profiles
        labels = {row["label"] for row in read_csv(out)}
        assert "Honeypot" not in labels

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        code = main(["detect", "--pools", str(tmp_path / "nope.jsonl"),
                     "--orders", str(tmp_path / "nope2.jsonl"),
                     "--out", str(tmp_path / "v.csv")])
        assert code == 4

    def test_schema_error_exit_code(self, corpus, tmp_path, capsys):
        bad = tmp_path / "orders.jsonl"
        bad.write_text('{"pool_address": broken\n')
        code = main(["detect", "--pools", str(corpus / "pools.jsonl"),
                     "--orders", str(bad), "--out", str(tmp_path / "v.csv")])
        assert code == 2
        assert "error code=2" in capsys.readouterr().err

    def test_empty_dataset_exit_code(self, tmp_path, capsys):
        pools = tmp_path / "pools.jsonl"
        pools.write_text("")
        code = main(["detect", "--pools", str(pools),
                     "--orders", str(pools), "--out", str(tmp_path / "v.csv")])
        assert code == 3


def swap_first_increasing_pair(rows):
    for i in range(len(rows) - 1):
        a, b = rows[i], rows[i + 1]
        if a["pool_address"] == b["pool_address"] and a["timestamp"] < b["timestamp"]:
            rows[i], rows[i + 1] = b, a
            return i + 2
    raise AssertionError("no increasing pair in the corpus")


def oversize_first_sell(rows):
    for i, row in enumerate(rows):
        if row["category"] == "Sell":
            row["y_base"] = repr(float(row["y_base"]) * 1e12)
            return i + 1
    raise AssertionError("no sell in the corpus")


def _user_buys(rows):
    """Indices of the first pool's non-owner buys; a generated pool's first
    order is its owner's deposit."""
    pool, owner = rows[0]["pool_address"], rows[0]["sender"]
    return [i for i, row in enumerate(rows)
            if row["pool_address"] == pool and row["category"] == "Buy"
            and row["sender"] != owner]


def overflow_buy_value(rows):
    """One user buy whose y_base x price_base is past the float range."""
    i = _user_buys(rows)[0]
    rows[i]["y_base"] = repr(1e200)
    rows[i]["price_base"] = 1e200
    return i + 1


def overflow_pool_value(rows):
    """Two user buys of 1e308 each: the second takes pool value past the
    float range."""
    first, second = _user_buys(rows)[:2]
    rows[first]["y_base"] = rows[second]["y_base"] = repr(1e308)
    return second + 1


def overflow_owner_gas(rows):
    """Two owner orders with 1e308 gas each: the owner's gas sum overflows."""
    pool, owner = rows[0]["pool_address"], rows[0]["sender"]
    first, second = [i for i, row in enumerate(rows)
                     if row["pool_address"] == pool and row["sender"] == owner][:2]
    rows[first]["gas_fee_usd"] = rows[second]["gas_fee_usd"] = 1e308
    return second + 1


def oversize_first_sell_then_swap_last_pair(rows):
    """Two faults: the first faulty line is the one every command names."""
    lineno = oversize_first_sell(rows)
    for i in range(len(rows) - 2, lineno, -1):
        a, b = rows[i], rows[i + 1]
        if a["pool_address"] == b["pool_address"] and a["timestamp"] < b["timestamp"]:
            rows[i], rows[i + 1] = b, a
            return lineno
    raise AssertionError("no increasing pair after the first sell")


LEDGER_FAULTS = [
    (swap_first_increasing_pair, "NonMonotonicTime", "out-of-order"),
    (oversize_first_sell, "NegativePoolValue", "negative-value"),
    (oversize_first_sell_then_swap_last_pair, "NegativePoolValue", "two-faults"),
    (overflow_buy_value, "SwapOverflow", "buy-value-overflow"),
    (overflow_pool_value, "SwapOverflow", "pool-value-overflow"),
]


class TestBadOrderRows:
    @pytest.mark.parametrize("command,mutate,violation", [
        pytest.param(command, mutate, violation, id=f"{command}-{fault}")
        for mutate, violation, fault in LEDGER_FAULTS
        for command in ("detect", "features", "age", "trend", "profit", "sweep")])
    def test_ledger_violation_exit_code(self, corpus, tmp_path, capsys,
                                        command, mutate, violation):
        """Every command prints the line detect prints for a row that breaks
        the ledger's rules, naming the file and line, and writes nothing."""
        bad = tmp_path / "bad"
        lineno = mutated_corpus(corpus, bad, mutate)
        orders = bad / "orders.jsonl"
        assert run_on("detect", bad, tmp_path) == 2
        expected = capsys.readouterr().err
        assert expected.startswith(f'error code=2 kind=SchemaError msg="{orders} '
                                   f'line {lineno}: {violation}: ')
        assert expected.count("\n") == 1
        if mutate is swap_first_increasing_pair:
            rows = [json.loads(line) for line in orders.read_text().splitlines()]
            late, early = rows[lineno - 2]["timestamp"], rows[lineno - 1]["timestamp"]
            assert expected.endswith(f'NonMonotonicTime: order at {early} before '
                                     f'last applied {late}"\n')
        code = run_on(command, bad, tmp_path)
        assert code == 2
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["detect", "features", "sweep", "slid-profit"])
    def test_owner_gas_overflow_exit_code(self, corpus, tmp_path, capsys, command):
        """An owner gas sum past the float range is an error, not a -inf
        realized profit in the export, and every command names its line."""
        bad = tmp_path / "bad"
        lineno = mutated_corpus(corpus, bad, overflow_owner_gas)
        code = run_on(command, bad, tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith(f'error code=2 kind=SchemaError msg="{bad / "orders.jsonl"} '
                              f'line {lineno}: SwapOverflow: owner sums out of float range')
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("mutate,message", [
        pytest.param(lambda row: {**row, "y_base": "nan"},
                     "bad order row: non-finite amount", id="nan"),
        pytest.param(lambda row: {**row, "y_base": "inf"},
                     "bad order row: non-finite amount", id="inf"),
        pytest.param(lambda row: {**row, "category": "Bogus"},
                     "bad order row: unknown category 'Bogus'", id="unknown-category"),
        pytest.param(lambda row: {**row, "y_base": "-1.0"},
                     "bad order row: negative token leg", id="negative-y-base"),
        pytest.param(lambda row: {**row, "y_paired": "-1.0"},
                     "bad order row: negative token leg", id="negative-y-paired"),
        pytest.param(lambda row: {**row, "price_base": 0},
                     "bad order row: price_base must be positive", id="zero-price-base"),
        pytest.param(lambda row: {**row, "price_base": 10 ** 400},
                     "bad order row: int too large to convert to float",
                     id="huge-price-base"),
        pytest.param(lambda row: {**row, "timestamp": row["timestamp"] + 0.5},
                     "bad order row: timestamp {row[timestamp]!r} is not an integer",
                     id="fractional-timestamp"),
        pytest.param(lambda row: [1, 2], "row is not a JSON object", id="array-row"),
        pytest.param(lambda row: 5, "row is not a JSON object", id="bare-number"),
        pytest.param(lambda row: {k: v for k, v in row.items() if k != "pool_address"},
                     "bad order row: 'pool_address'", id="no-pool-address"),
        pytest.param(lambda row: {**row, "pool_address": 5},
                     "bad order row: pool_address 5 is not a string",
                     id="integer-pool_address"),
        pytest.param(lambda row: {**row, "pool_address": [1]},
                     "bad order row: pool_address [1] is not a string",
                     id="array-pool_address"),
        pytest.param(lambda row: {k: v for k, v in row.items() if k != "hash"},
                     "bad order row: 'hash'", id="no-hash"),
        pytest.param(lambda row: {**row, "hash": 5},
                     "bad order row: hash 5 is not a string", id="integer-hash"),
        pytest.param(lambda row: {**row, "sender": 5},
                     "bad order row: sender 5 is not a string", id="non-string-sender"),
        pytest.param(lambda row: {k: v for k, v in row.items() if k != "block"},
                     "bad order row: 'block'", id="no-block"),
        pytest.param(lambda row: {**row, "block": row["block"] + 0.5},
                     "bad order row: block {row[block]!r} is not an integer",
                     id="fractional-block"),
        pytest.param(lambda row: {**row, "x_base": "abc"},
                     "bad order row: could not convert string to float: 'abc'",
                     id="unparsable-x-base"),
        pytest.param(lambda row: {**row, "price_paired": -1.0},
                     "bad order row: price_paired must be finite and non-negative",
                     id="negative-price-paired"),
    ])
    @pytest.mark.parametrize("command", ["detect", "features", "trend"])
    def test_non_finite_amount_is_schema_error(self, corpus, tmp_path, capsys,
                                               command, mutate, message):
        """Every command prints the same error line for a bad mid-file row."""
        def poison_middle_row(rows):
            i = len(rows) // 2
            rows[i] = mutate(rows[i])
            return i + 1

        bad = tmp_path / "bad"
        lineno = mutated_corpus(corpus, bad, poison_middle_row)
        orders = bad / "orders.jsonl"
        row = json.loads(orders.read_text().splitlines()[lineno - 1])
        code = run_on(command, bad, tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert "error code=2 kind=SchemaError" in err
        assert f"orders.jsonl line {lineno}:" in err
        assert ("non-finite" in err) == ("non-finite" in message)
        assert err == (f'error code=2 kind=SchemaError msg="{orders} '
                       f'line {lineno}: {message.format(row=row)}"\n')


class TestBadPoolAndProfileRows:
    @pytest.mark.parametrize("name,field,value,message", [
        pytest.param("pools.jsonl", "lpt_burned", "false",
                     "bad pool row: lpt_burned 'false' is not a boolean",
                     id="string-lpt_burned"),
        pytest.param("profiles.jsonl", "buyable", "true",
                     "bad profile row: buyable 'true' is not a boolean",
                     id="string-buyable"),
        pytest.param("profiles.jsonl", "transfer_pausable", 0,
                     "bad profile row: transfer_pausable 0 is not a boolean",
                     id="int-transfer_pausable"),
        pytest.param("profiles.jsonl", "buy_tax", True,
                     "bad profile row: buy_tax True is not a finite number",
                     id="boolean-buy_tax"),
        pytest.param("profiles.jsonl", "sell_tax", "0.9",
                     "bad profile row: sell_tax '0.9' is not a finite number",
                     id="string-sell_tax"),
        pytest.param("pools.jsonl", "deployment_gas_usd", "12",
                     "bad pool row: deployment_gas_usd '12' is not a finite number",
                     id="string-deployment_gas_usd"),
        pytest.param("pools.jsonl", "deployment_gas_usd", True,
                     "bad pool row: deployment_gas_usd True is not a finite number",
                     id="boolean-deployment_gas_usd"),
        pytest.param("pools.jsonl", "deployment_gas_usd", "1e400",
                     "bad pool row: deployment_gas_usd inf is not a finite number",
                     id="overflowing-deployment_gas_usd"),
        pytest.param("pools.jsonl", "owner_address", None,
                     "bad pool row: owner_address None is not a string",
                     id="null-owner_address"),
        pytest.param("pools.jsonl", "dex", 7, "bad pool row: dex 7 is not a string",
                     id="integer-dex"),
    ])
    @pytest.mark.parametrize("command", ["detect", "features", "trend"])
    def test_flag_must_be_json_boolean(self, corpus, tmp_path, capsys, command,
                                       name, field, value, message):
        """A flag that is not a JSON boolean, or any other field that is not
        of its JSON type, is a bad row, not a value that silently changes
        verdicts. The value "1e400" is written as that bare JSON number,
        which reads as infinity."""
        def set_flag(rows):
            rows[2][field] = value
            return 3

        bad = tmp_path / "bad"
        lineno = mutated_corpus(corpus, bad, set_flag, name)
        if value == "1e400":
            path = bad / name
            path.write_text(path.read_text().replace('"1e400"', "1e400"))
        assert run_on(command, bad, tmp_path) == 2
        assert capsys.readouterr().err == (
            f'error code=2 kind=SchemaError msg="{bad / name} line {lineno}: {message}"\n')
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["detect", "features", "trend"])
    def test_profile_row_named_before_order_row(self, corpus, tmp_path, capsys,
                                                command):
        """Every command reads pools, then profiles, then orders: with a bad
        profile row and a bad order row, each names the profile's line."""
        def bad_tax(rows):
            rows[3]["sell_tax"] = 7.0
            return 4

        def bad_category(rows):
            rows[999]["category"] = "Bogus"

        bad = tmp_path / "bad"
        lineno = mutated_corpus(corpus, bad, bad_tax, "profiles.jsonl")
        rewrite_rows(bad / "orders.jsonl", bad_category)
        assert run_on(command, bad, tmp_path) == 2
        assert capsys.readouterr().err == (
            f'error code=2 kind=SchemaError msg="{bad / "profiles.jsonl"} '
            f'line {lineno}: bad profile row: taxes must be fractions in [0, 1]"\n')

    @pytest.mark.parametrize("value,message", [
        pytest.param([1], "bad profile row: token_address [1] is not a string",
                     id="array-token_address"),
        pytest.param(None, "bad profile row: token_address {token!r} repeats an "
                     "earlier row", id="repeated-token_address"),
        pytest.param(5, "bad profile row: token_address 5 is not a string",
                     id="integer-token_address"),
    ])
    @pytest.mark.parametrize("command", ["detect", "features", "trend"])
    def test_profile_token_address(self, corpus, tmp_path, capsys, command,
                                   value, message):
        """A token address that cannot key a profile is a bad profile row,
        not a traceback, and a repeated one does not replace the earlier
        row's profile."""
        def set_token(rows):
            rows[2]["token_address"] = (rows[0]["token_address"] if value is None
                                        else value)
            return 3, rows[0]["token_address"]

        bad = tmp_path / "bad"
        lineno, token = mutated_corpus(corpus, bad, set_token, "profiles.jsonl")
        assert run_on(command, bad, tmp_path) == 2
        assert capsys.readouterr().err == (
            f'error code=2 kind=SchemaError msg="{bad / "profiles.jsonl"} line '
            f'{lineno}: {message.format(token=token)}"\n')
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("field,value,message", [
        pytest.param("created_time_pool", "1600000000",
                     "bad pool row: created_time_pool '1600000000' is not an integer",
                     id="string-created_time_pool"),
        pytest.param("created_time_token", 1600000000.9,
                     "bad pool row: created_time_token 1600000000.9 is not an integer",
                     id="float-created_time_token"),
        pytest.param("pool_address", None, "bad pool row: pool_address {address!r} "
                     "repeats an earlier row", id="repeated-pool_address"),
    ])
    @pytest.mark.parametrize("command", ["detect", "features", "trend"])
    def test_pool_row_times_and_address(self, corpus, tmp_path, capsys, command,
                                        field, value, message):
        """Creation times are JSON integers, not strings or floats cast to
        int, and a repeated pool address does not replace the earlier row."""
        def set_field(rows):
            rows[2][field] = rows[0][field] if value is None else value
            return 3, rows[0]["pool_address"]

        bad = tmp_path / "bad"
        lineno, address = mutated_corpus(corpus, bad, set_field, "pools.jsonl")
        assert run_on(command, bad, tmp_path) == 2
        assert capsys.readouterr().err == (
            f'error code=2 kind=SchemaError msg="{bad / "pools.jsonl"} line {lineno}: '
            f'{message.format(address=address)}"\n')
        assert not (tmp_path / "out.csv").exists()


class TestUnknownPoolOrders:
    @pytest.mark.parametrize("command", ["detect", "features", "sweep", "trend",
                                         "slid-profit"])
    def test_skipped_orders_on_summary_line(self, corpus, tmp_path, capsys, command):
        """Every command counts the order rows whose pool is not in the pools
        file, and says how many it skipped, as detect does."""
        cut = tmp_path / "cut"
        shutil.copytree(corpus, cut)
        lines = (cut / "pools.jsonl").read_text().splitlines(keepends=True)
        (cut / "pools.jsonl").write_text("".join(lines[:12]))
        kept = {json.loads(line)["pool_address"] for line in lines[:12]}
        orders = [json.loads(line)["pool_address"]
                  for line in (cut / "orders.jsonl").read_text().splitlines()]
        skipped = sum(address not in kept for address in orders)
        assert 0 < skipped < len(orders)
        assert run_on(command, cut, tmp_path) == 0
        assert f"{len(orders)} orders ({skipped} skipped)" in capsys.readouterr().out


class TestStreamBatchAgreement:
    @staticmethod
    def assert_agree(corpus, tmp_path):
        """Batch ingest -> enrich and streaming detect write the same bytes."""
        files = (corpus / "pools.jsonl", corpus / "orders.jsonl",
                 corpus / "profiles.jsonl")
        dataset = dataio.ingest(*files)
        analysis.enrich(dataset)
        pipeline.write_verdicts_csv(dataset.enriched, tmp_path / "batch.csv")
        pipeline.stream_detect(*files, out_csv=tmp_path / "stream.csv")
        assert ((tmp_path / "batch.csv").read_bytes()
                == (tmp_path / "stream.csv").read_bytes())

    def test_batch_verdicts_equal_stream_verdicts(self, corpus, tmp_path):
        self.assert_agree(corpus, tmp_path)

    def test_same_block_orders_keep_file_order(self, tmp_path):
        self.assert_agree(write_same_block_corpus(tmp_path / "c"), tmp_path)
        [row] = read_csv(tmp_path / "stream.csv")
        assert (row["label"], row["max_impact"]) == ("SLID", repr(672.0 / 1400.0))


class TestFeaturesTrain:
    def test_features_train_predict_cycle(self, corpus, tmp_path):
        features_csv = tmp_path / "features.csv"
        code = main(["features", "--pools", str(corpus / "pools.jsonl"),
                     "--orders", str(corpus / "orders.jsonl"),
                     "--profiles", str(corpus / "profiles.jsonl"),
                     "--labels", str(corpus / "labels.csv"),
                     "--window", "60", "--out", str(features_csv)])
        assert code == 0
        rows = read_csv(features_csv)
        assert len(rows) == 16
        assert sum(int(r["label"]) for r in rows) == 5  # slid + multi-address

        model_path = tmp_path / "model.json"
        code = main(["train", "--features", str(features_csv),
                     "--model", "RandomForest", "--seed", "3",
                     "--out", str(model_path)])
        assert code == 0
        payload = json.loads(model_path.read_text())
        assert payload["kind"] == "RandomForest"
        assert len(payload["feature_names"]) == 57


class TestSweep:
    def test_sweep_runs_and_is_reproducible(self, corpus, tmp_path):
        out_a = tmp_path / "sweep_a.csv"
        out_b = tmp_path / "sweep_b.csv"
        args = ["sweep", "--corpus", str(corpus), "--d-list", "60,30",
                "--seed", "5"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        rows = read_csv(out_a)
        assert {row["detector"] for row in rows} == {
            "Heuristic", "RandomForest", "LogisticRegression"}
        assert {row["d"] for row in rows} == {"60", "30"}


class TestWindowArguments:
    @pytest.mark.parametrize("command,option,value", [
        ("sweep", "--d-list", "0,57"),
        ("sweep", "--d-list", "abc"),
        ("sweep", "--d-list", "60,-3"),
        ("sweep", "--d-list", ","),
        ("features", "--window", "0"),
        ("features", "--window", "1.5"),
    ])
    def test_bad_window_is_usage_error(self, corpus, tmp_path, capsys,
                                       command, option, value):
        """Rejected with the arguments, before any file is read or written."""
        out = tmp_path / "out.csv"
        if command == "sweep":
            inputs = ["--corpus", str(corpus)]
        else:
            inputs = ["--pools", str(corpus / "pools.jsonl"),
                      "--orders", str(corpus / "orders.jsonl")]
        code = main([command] + inputs + [option, value, "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error code=4 kind=UsageError ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestReport:
    def test_age_report(self, corpus, tmp_path):
        out = tmp_path / "age.csv"
        code = main(["report", "--kind", "age", "--corpus", str(corpus),
                     "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert sum(int(r["pool_count"]) for r in rows) == 16

    def test_profit_report_with_label_filter(self, corpus, tmp_path):
        out = tmp_path / "profit.csv"
        code = main(["report", "--kind", "profit", "--corpus", str(corpus),
                     "--labels-filter", "RugPull", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        total = sum(float(r["realized_usd"]) for r in rows)
        day0 = next((float(r["realized_usd"]) for r in rows if r["day"] == "0"), 0.0)
        assert day0 / total >= 0.99

    def test_usage_error_exit_code(self, tmp_path, capsys):
        code = main(["report", "--kind", "age", "--out", str(tmp_path / "r.csv")])
        assert code == 4


class TestAnonymize:
    def test_detect_anonymized_output(self, corpus, tmp_path):
        out = tmp_path / "verdicts.csv"
        main(["detect", "--pools", str(corpus / "pools.jsonl"),
              "--orders", str(corpus / "orders.jsonl"),
              "--profiles", str(corpus / "profiles.jsonl"),
              "--out", str(out), "--anonymize"])
        rows = read_csv(out)
        assert all("..." in row["pool_address"] for row in rows)


def _features_csv_with_bad_header(corpus, tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("pool_address,window_days,label,bogus\n0xa,57,1,0.5\n")
    return (["train", "--features", str(path), "--model", "RandomForest"],
            f"{path} line 1:")


def _features_csv_with_bad_row(corpus, tmp_path):
    path = tmp_path / "features.csv"
    header = ["pool_address", "window_days", "label", *FEATURE_NAMES]
    path.write_text(",".join(header) + "\n0xa,57,1,abc\n")
    return (["train", "--features", str(path), "--model", "RandomForest"],
            f"{path} line 2:")


def _features_csv_with_value(tmp_path, value):
    """Two labelled rows; line 3 carries `value` in its last feature column."""
    path = tmp_path / "features.csv"
    header = ["pool_address", "window_days", "label", *FEATURE_NAMES]
    ones = ["1.0"] * len(FEATURE_NAMES)
    path.write_text("".join(",".join(row) + "\n" for row in (
        header, ["0xa", "57", "0", *ones], ["0xb", "57", "1", *ones[:-1], value])))
    return path


def _features_csv_with_line_3(window, label):
    """Two labelled rows at window 57; line 3 has `window` and `label`."""
    def build(corpus, tmp_path):
        path = tmp_path / "features.csv"
        header = ["pool_address", "window_days", "label", *FEATURE_NAMES]
        ones = ["1.0"] * len(FEATURE_NAMES)
        path.write_text("".join(",".join(row) + "\n" for row in (
            header, ["0xa", "57", "0", *ones], ["0xb", window, label, *ones])))
        return (["train", "--features", str(path), "--model", "RandomForest"],
                f"{path} line 3:")
    build.__name__ = f"_features_csv_with_window_{window}_label_{label}"
    return build


def _features_csv_with_nan_for_logistic(corpus, tmp_path):
    path = _features_csv_with_value(tmp_path, "nan")
    return (["train", "--features", str(path), "--model", "LogisticRegression"],
            f"{path} line 3:")


def _features_csv_with_overflow_for_logistic(corpus, tmp_path):
    """Six finite rows whose first column alternates +-1e308: its standard
    deviation overflows, and line 1, the header, names the column."""
    path = tmp_path / "features.csv"
    header = ["pool_address", "window_days", "label", *FEATURE_NAMES]
    ones = ["1.0"] * (len(FEATURE_NAMES) - 1)
    path.write_text("".join(",".join(row) + "\n" for row in [header] + [
        [f"0x{i}", "57", str(i % 2), "-1e308" if i % 2 else "1e308", *ones]
        for i in range(6)]))
    return (["train", "--features", str(path), "--model", "LogisticRegression"],
            f"{path} line 1: feature column {FEATURE_NAMES[0]}:")


def _features_csv_with_inf_for_forest(corpus, tmp_path):
    path = _features_csv_with_value(tmp_path, "inf")
    return (["train", "--features", str(path), "--model", "RandomForest"],
            f"{path} line 3:")


def _labels_csv_without_pool_column(corpus, tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("address,true_label\n0xa,SLID\n")
    return ["features", "--pools", str(corpus / "pools.jsonl"),
            "--orders", str(corpus / "orders.jsonl"), "--labels", str(path),
            "--window", "57"], f"{path} line 1:"


def _edited_labels_csv(corpus, tmp_path, edit):
    """features over the corpus with its labels.csv lines passed through
    `edit`, which returns the 1-based line it spoils."""
    path = tmp_path / "labels.csv"
    lines = (corpus / "labels.csv").read_text().splitlines()
    lineno = edit(lines)
    path.write_text("".join(line + "\n" for line in lines))
    return ["features", "--pools", str(corpus / "pools.jsonl"),
            "--orders", str(corpus / "orders.jsonl"), "--labels", str(path),
            "--window", "57"], f"{path} line {lineno}:"


def _labels_csv_with_other_label_column(corpus, tmp_path):
    def rename_column(lines):
        lines[0] = "pool_address,kind"
        return 1
    return _edited_labels_csv(corpus, tmp_path, rename_column)


def _verdicts_csv_as_labels(corpus, tmp_path):
    verdicts = tmp_path / "verdicts.csv"
    assert run_on("detect", corpus, tmp_path) == 0
    (tmp_path / "out.csv").rename(verdicts)
    return (["features", "--pools", str(corpus / "pools.jsonl"),
             "--orders", str(corpus / "orders.jsonl"), "--labels", str(verdicts),
             "--window", "57"], f"{verdicts} line 1:")


def _labels_csv_row_with(value):
    def build(corpus, tmp_path):
        def spoil_third_line(lines):
            lines[2] = lines[2].split(",")[0] + "," + value
            return 3
        return _edited_labels_csv(corpus, tmp_path, spoil_third_line)
    build.__name__ = f"_labels_csv_with_label_{value or 'empty'}"
    return build


def _labels_csv_without_pool(drop_line):
    """features with a labels.csv whose line `drop_line` (1-based) is cut,
    or, with 0, whose rows all name other pools."""
    def build(corpus, tmp_path):
        missing = []

        def drop(lines):
            if drop_line:
                missing.append(lines.pop(drop_line - 1).split(",")[0])
            else:
                first_pool = (corpus / "pools.jsonl").read_text().splitlines()[0]
                missing.append(json.loads(first_pool)["pool_address"])
                lines[1:] = [f"0x{i:040x},SLID" for i in range(3)]
            return len(lines)
        argv, location = _edited_labels_csv(corpus, tmp_path, drop)
        return argv, (f"{location} labels file ends without a row for "
                      f"pool_address {missing[0]!r}")
    build.__name__ = (f"_labels_csv_without_line_{drop_line}" if drop_line
                      else "_labels_csv_for_other_pools")
    return build


def _labels_csv_with_repeated_pool(corpus, tmp_path):
    def repeat_first_row(lines):
        lines.append(lines[1])
        return len(lines)
    return _edited_labels_csv(corpus, tmp_path, repeat_first_row)


def _single_class_features_csv(corpus, tmp_path):
    path = tmp_path / "features.csv"
    header = ["pool_address", "window_days", "label", *FEATURE_NAMES]
    zeros = ["0.0"] * len(FEATURE_NAMES)
    path.write_text("".join(",".join(row) + "\n" for row in (
        header, ["0xa", "57", "0", *zeros], ["0xb", "57", "0", *zeros])))
    return ["train", "--features", str(path), "--model", "LogisticRegression"], None


def _header_only_features_csv(corpus, tmp_path):
    path = tmp_path / "features.csv"
    header = ["pool_address", "window_days", "label", *FEATURE_NAMES]
    path.write_text(",".join(header) + "\n")
    return (["train", "--features", str(path), "--model", "RandomForest"],
            "empty training matrix")


def _corpus_without_slid_verdict(corpus, tmp_path):
    cfg = tmp_path / "legit.cfg"
    cfg.write_text("seed = 5\nlegitimate.count = 4\nlegitimate.lifetime_days = 20\n")
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    return ["sweep", "--corpus", str(tmp_path / "c"), "--d-list", "10"], None


def _corpus_with_one_slid_verdict(corpus, tmp_path):
    cfg = tmp_path / "one.cfg"
    cfg.write_text("seed = 5\nlegitimate.count = 6\nlegitimate.lifetime_days = 20\n"
                   "slid.count = 1\nslid.slid_drain_count = 40\n"
                   "slid.lifetime_days = 60\n")
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    return (["sweep", "--corpus", str(tmp_path / "c"), "--d-list", "60,30"],
            "a held-out split needs at least 2 pools in each verdict class, "
            "got 1 SLID and 6 other")


def _unknown_label_filter(corpus, tmp_path):
    return ["report", "--kind", "profit", "--corpus", str(corpus),
            "--labels-filter", "Bogus"], None


def _sweep_with_grid(corpus, tmp_path):
    return ["sweep", "--corpus", str(corpus), "--grid"], None


def _corpus_config(tmp_path, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    return ["generate", "--config", str(cfg)]


def _corpus_config_with_bad_float(corpus, tmp_path):
    return (_corpus_config(tmp_path, "slid.count = 1\nslid.slid_impact_range = abc\n"),
            "slid.slid_impact_range: 'abc'")


def _corpus_config_with_bad_count(corpus, tmp_path):
    return (_corpus_config(tmp_path, "legitimate.count = two\n"),
            "legitimate.count: 'two'")


def _corpus_config_with_bad_seed(corpus, tmp_path):
    return (_corpus_config(tmp_path, "seed = x\nlegitimate.count = 2\n"),
            "seed: 'x'")


def _corpus_config_with_negative_count(corpus, tmp_path):
    return (_corpus_config(tmp_path, "legitimate.count = -3\n"),
            "legitimate.count: '-3'")


def _corpus_config_with_negative_arrival(corpus, tmp_path):
    return (_corpus_config(tmp_path, "legitimate.count = 2\n"
                                     "legitimate.investor_arrival = -1\n"),
            "investor_arrival")


def _corpus_config_with_nan_arrival(corpus, tmp_path):
    return (_corpus_config(tmp_path, "legitimate.count = 2\n"
                                     "legitimate.investor_arrival = nan\n"),
            "investor_arrival")


def _corpus_config_with_one_value_range(corpus, tmp_path):
    return (_corpus_config(tmp_path, "slid.count = 1\nslid.slid_impact_range = 0.5\n"),
            "slid.slid_impact_range: '0.5'")


class TestUnusableInputs:
    @pytest.mark.parametrize("build,code,kind", [
        (_features_csv_with_bad_header, 2, "SchemaError"),
        (_features_csv_with_bad_row, 2, "SchemaError"),
        (_features_csv_with_nan_for_logistic, 2, "SchemaError"),
        (_features_csv_with_overflow_for_logistic, 2, "SchemaError"),
        (_features_csv_with_inf_for_forest, 2, "SchemaError"),
        (_features_csv_with_line_3("57", "2"), 2, "SchemaError"),
        (_features_csv_with_line_3("57", "01"), 2, "SchemaError"),
        (_features_csv_with_line_3("3", "1"), 2, "SchemaError"),
        (_labels_csv_without_pool_column, 2, "SchemaError"),
        (_labels_csv_with_other_label_column, 2, "SchemaError"),
        (_verdicts_csv_as_labels, 2, "SchemaError"),
        (_labels_csv_row_with("slid"), 2, "SchemaError"),
        (_labels_csv_row_with("1"), 2, "SchemaError"),
        (_labels_csv_row_with(""), 2, "SchemaError"),
        (_labels_csv_with_repeated_pool, 2, "SchemaError"),
        (_labels_csv_without_pool(0), 2, "SchemaError"),
        (_labels_csv_without_pool(5), 2, "SchemaError"),
        (_single_class_features_csv, 3, "SingleClassInput"),
        (_header_only_features_csv, 3, "SingleClassInput"),
        (_corpus_without_slid_verdict, 3, "SingleClassInput"),
        (_corpus_with_one_slid_verdict, 3, "SingleClassInput"),
        (_unknown_label_filter, 4, "UsageError"),
        (_sweep_with_grid, 4, "UsageError"),
        (_corpus_config_with_bad_float, 4, "ConfigError"),
        (_corpus_config_with_bad_count, 4, "ConfigError"),
        (_corpus_config_with_bad_seed, 4, "ConfigError"),
        (_corpus_config_with_negative_count, 4, "ConfigError"),
        (_corpus_config_with_one_value_range, 4, "ConfigError"),
        (_corpus_config_with_negative_arrival, 4, "InfeasibleConfig"),
        (_corpus_config_with_nan_arrival, 4, "InfeasibleConfig"),
    ], ids=lambda value: getattr(value, "__name__", None))
    def test_documented_error_line(self, corpus, tmp_path, capsys, build, code, kind):
        """A command that cannot use its input ends with the documented
        one-line error, never a traceback; a bad file is named."""
        capsys.readouterr()
        argv, location = build(corpus, tmp_path)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error code={code} kind={kind} msg=")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        if location is not None:
            assert location in err
        assert not out.exists()

