"""CLI subcommands end to end: generate, detect, features, train, sweep, report."""

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from slidscan import analysis, cli, dataio, pipeline, synth
from slidscan.dataio import LINE_LIMIT, SchemaError
from slidscan.features import FEATURE_NAMES
from slidscan.validators import SecurityProfile

from conftest import T0, USER, make_order, make_pool

# The documented error line; its message is a JSON string.
ERROR_LINE = re.compile(r'^error code=(\d+) kind=(\w+) msg=(".*")$')


def error_message(err: str, code: int, kind=None) -> str:
    """The message of a failed run's stderr `err`, which must be exactly one
    error line of at most 8 KiB, in the documented grammar, with exit code
    `code` (and `kind`, if given); its message must decode as JSON."""
    assert err.endswith("\n") and err.count("\n") == 1, err[-2000:]
    line = err[:-1]
    assert len(line.encode()) <= 8192, len(line)
    match = ERROR_LINE.match(line)
    assert match, line[:2000]
    assert int(match[1]) == code, line[:2000]
    assert kind is None or match[2] == kind, line[:2000]
    message = json.loads(match[3])
    assert type(message) is str
    return message


def main(argv) -> int:
    """`slidscan.cli.main(argv)`, its stderr passed on to the test's capture.
    A failed run must print one error line (`error_message`)."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    sys.stderr.write(err.getvalue())
    if code:
        error_message(err.getvalue(), code)
    return code


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


PINNED_CFG = """
seed = 19
legitimate.count = 3
legitimate.lifetime_days = 20
legitimate.survive_month_fraction = 0.5
legitimate.short_lifetime_days = 6
rugpull.count = 2
rugpull.rug_drain_day = 3
rugpull.rug_impact = 0.999
honeypot.count = 2
honeypot.lifetime_days = 30
slid.count = 3
slid.slid_drain_count = 40
slid.lifetime_days = 40
slid.slid_impact_range = 0.5,0.94
slid.survive_month_fraction = 0.7
slid.short_lifetime_days = 12
slidslow.count = 1
slidslow.slow_start_day = 20
slidslow.lifetime_days = 45
slidslow.slid_drain_count = 30
slidslow.early_sell_count = 4
slidmultiaddress.count = 1
slidmultiaddress.slid_drain_count = 30
slidmultiaddress.lifetime_days = 40
"""

PINNED_SHA256 = {
    "orders.jsonl": "af01d3d51fe5f2b7c068f610006b16eb3035eb52200a386c1541016baa9c8c87",
    "pools.jsonl": "39a23d3b14d07a06f71525219192eb96b0a849fb7e9cbf6b13b6094d600e6781",
    "profiles.jsonl": "d6df9608035ca6d03aecd3a5f25246838d65a3a10a3a2b483f5c25f0b19458ca",
    "labels.csv": "d5d3115dd0dd17db17f33b081992993502132310e9fc1602d89b1c2d43cea96c",
}

# A SlidSlow drain lands on the same second as a drawn item of its day, so
# these bytes pin the agenda's tie order too (PINNED_CFG has no tie).
TIED_CFG = """
seed = 16
slid.count = 2
slid.lifetime_days = 40
slidslow.count = 1
slidslow.slow_start_day = 20
slidslow.lifetime_days = 45
slidslow.slid_drain_count = 200
slidslow.early_sell_count = 4
"""

TIED_SHA256 = {
    "orders.jsonl": "53f2a1aeddcf4bf3c4e49f4a12ec16933910b62e4949a74805d77ba2bbc7adfa",
    "pools.jsonl": "1f987ba92a87226ff1e37724877dfca99a92a5caebb51760b52f3b112c0fc92b",
    "profiles.jsonl": "b7fb5af4d3817ce16c3249a1cd6d7ba6db6f37c93d84de98976d3b21e12387c2",
    "labels.csv": "f7e8625e6a27582e56a4f68f342f8420e7b4ef8a67e4f2a3fd619d7250de03cc",
}


# sha256 of every command's output on the PINNED_CFG corpus: a refactor
# keeps each byte.
PINNED_OUTPUT_SHA256 = {
    "verdicts.csv": "951c2ca668a0a0c11b22d970ba2f35bcdf096837e4f3e0a39f4b71018b90dd95",
    "features.csv": "a99694cb3d24a15328b02ff6e9a1f270c18b89e5bcecf7988dd42d65074904bd",
    "features_labels.csv": "fc03992269383618a0c003d83c3234c462d3270cfc31063e2fb27d15862f0e5a",
    "sweep.csv": "11cd013570d75c60902c3cab87e99faa3d9bfe56473d713da4d13403cb718a49",
    "age.csv": "b98b143781910993acee84e4d030041e4eb475e187132b4487198ea343cfcb79",
    "trend.csv": "f100791ea7d4f35b7d76296876b5f4179e1c10fec257d48e81655a57aaadcb67",
    "profit_slid.csv": "16ffb7407a1a613a5f46b09ef050c2902e7f6a851eac56562f8636f144dc15df",
    "forest.json": "752e4d910adc5ac9c1958f9c2a3bc9acc0603c74d3819cb8a182cd27b7e8628c",
    "forest_grid.json": "047879017101207646bbe6951a10dedfbe3d2c779ae8b4b476c5579dffc6ba05",
    "logistic.json": "00a7c079b7d2b9ef0603f4e4516900b1a5a1cff979240ff037a533d5e612d510",
    "logistic_grid.json": "1d839d33151af1f995ab147998c1393f9d4b76224730a1207b87f5acb418fdce",
}


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


def corpus_inputs(corpus):
    """The options that name every input file of `corpus`."""
    return ["--pools", str(corpus / "pools.jsonl"),
            "--orders", str(corpus / "orders.jsonl"),
            "--profiles", str(corpus / "profiles.jsonl")]


def run_on(command, corpus, tmp_path):
    """One subcommand over `corpus` with every input file, writing to tmp."""
    inputs = corpus_inputs(corpus)
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

    def test_corpus_bytes_are_pinned(self, tmp_path):
        """A small corpus of every kind, with the survival split, a drain
        impact range near the rug split, an early rug, slow early sells and
        linked drain senders, and a corpus whose agenda has a same-second
        tie, keep the exact bytes they were recorded with. The digests hold
        for numpy's current Generator streams, which numpy does not promise
        across major versions."""
        for name, text, pinned in (("pinned", PINNED_CFG, PINNED_SHA256),
                                   ("tied", TIED_CFG, TIED_SHA256)):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text)
            out = tmp_path / name
            assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
            digests = {file: hashlib.sha256((out / file).read_bytes()).hexdigest()
                       for file in pinned}
            assert digests == pinned, name

    @pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "over-corpus"])
    def test_failed_run_leaves_no_file(self, corpus, tmp_path, capsys, monkeypatch,
                                       existing):
        """A scenario that raises on the second pool ends generate with exit 4
        and leaves no file: a directory it made is gone, and a corpus already
        in the directory keeps its bytes."""
        real_generate = synth.generate
        plans = []

        def generate(plan):
            plans.append(plan)
            if len(plans) == 2:
                raise synth.InfeasibleConfig("drain campaign extracted nothing")
            return real_generate(plan)

        monkeypatch.setattr(synth, "generate", generate)
        out = tmp_path / "out"
        if existing:
            shutil.copytree(corpus, out)
        before = {path.name: path.read_bytes() for path in out.glob("*")}
        cfg = tmp_path / "corpus.cfg"
        cfg.write_text(CORPUS_CFG)
        capsys.readouterr()
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 4
        assert capsys.readouterr().err == ("error code=4 kind=InfeasibleConfig "
                                           'msg="drain campaign extracted nothing"\n')
        assert len(plans) == 2
        assert out.exists() == existing
        if existing:
            assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_sigterm_leaves_no_file(self, tmp_path):
        """generate stopped by SIGTERM while it writes exits 143 and leaves
        neither its partial files nor the directory it made."""
        cfg = tmp_path / "big.cfg"
        cfg.write_text("legitimate.count = 40\nlegitimate.investor_arrival = 100\n"
                       "legitimate.lifetime_days = 150\n")
        out = tmp_path / "out"
        env = dict(os.environ)
        src = str(Path(synth.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        child = subprocess.Popen(
            [sys.executable, "-m", "slidscan.cli", "generate", "--config", str(cfg),
             "--out", str(out)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 60
            while not (out / ".orders.jsonl.partial").exists():
                assert child.poll() is None, child.stderr.read()
                assert time.monotonic() < deadline, "no partial orders file"
                time.sleep(0.01)
            child.send_signal(signal.SIGTERM)
            _, stderr = child.communicate(timeout=60)
        finally:
            child.kill()
            child.wait()
        assert child.returncode == 143, stderr
        assert stderr == b""
        assert not out.exists()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense\n")
        code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 4
        assert "error code=4" in capsys.readouterr().err


class TestPinnedOutputs:
    @pytest.fixture(scope="class")
    def pinned_corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("pinned")
        (root / "pinned.cfg").write_text(PINNED_CFG)
        assert main(["generate", "--config", str(root / "pinned.cfg"),
                     "--out", str(root / "corpus")]) == 0
        return root / "corpus"

    def test_every_command_output_is_pinned(self, pinned_corpus, tmp_path, reader):
        """detect, features with and without --labels, sweep, the three
        reports and train, each model with and without --grid on the
        --labels features, write the bytes they were recorded with, on both
        reader paths."""
        c = pinned_corpus
        inputs = ["--pools", str(c / "pools.jsonl"), "--orders", str(c / "orders.jsonl"),
                  "--profiles", str(c / "profiles.jsonl")]
        features = ["features", *inputs, "--window", "57"]
        train = ["train", "--features", str(tmp_path / "features_labels.csv"), "--model"]
        commands = {
            "verdicts.csv": ["detect", *inputs],
            "features.csv": features,
            "features_labels.csv": features + ["--labels", str(c / "labels.csv")],
            "sweep.csv": ["sweep", "--corpus", str(c)],
            "age.csv": ["report", "--kind", "age", "--corpus", str(c)],
            "trend.csv": ["report", "--kind", "trend", "--corpus", str(c)],
            "profit_slid.csv": ["report", "--kind", "profit", "--corpus", str(c),
                                "--labels-filter", "SLID"],
            "forest.json": train + ["RandomForest"],
            "forest_grid.json": train + ["RandomForest", "--grid"],
            "logistic.json": train + ["LogisticRegression"],
            "logistic_grid.json": train + ["LogisticRegression", "--grid"],
        }
        digests = {}
        for name, argv in commands.items():
            assert main(argv + ["--out", str(tmp_path / name)]) == 0, name
            digests[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digests == PINNED_OUTPUT_SHA256


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

    @pytest.mark.parametrize("gap", [1, 10 ** 400], ids=["one-second", "huge"])
    def test_order_before_deployment(self, corpus, tmp_path, capsys, gap):
        """An order timestamped before its pool's deployment is a ledger
        violation: detect, features, sweep and report print the same line,
        naming the order's timestamp and the deployment time, and write
        nothing (a huge gap once overflowed features, and a small one gave
        report rows for negative days)."""
        bad = tmp_path / "bad"
        shutil.copytree(corpus, bad)
        orders = [json.loads(line) for line in (bad / "orders.jsonl").open()]
        first = orders[0]
        created = first["timestamp"] + gap

        def deploy_later(rows):
            [row] = [row for row in rows if row["pool_address"] == first["pool_address"]]
            row["created_time_pool"] = created

        rewrite_rows(bad / "pools.jsonl", deploy_later)
        expected = (f'error code=2 kind=SchemaError msg="{bad / "orders.jsonl"} line 1: '
                    f'NonMonotonicTime: order at {first["timestamp"]} before its '
                    f'pool\'s deployment at {created}"\n')
        for command in ("detect", "features", "sweep", "trend"):
            assert run_on(command, bad, tmp_path) == 2, command
            assert capsys.readouterr().err == expected, command
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
        *[pytest.param(lambda row, column=column, value=value: {**row, column: value},
                       f"bad order row: {column} must be null, or finite and non-negative",
                       id=f"{value}-{column}")
          for column in ("x_paired", "x_base") for value in ("nan", "inf", "-5")],
        pytest.param(lambda row: {**row, "x_base": "nan", "x_paired": "-5"},
                     "bad order row: x_paired must be null, or finite and non-negative",
                     id="both-balances"),
        pytest.param(lambda row: {**row, "x_base": "abc", "x_paired": "-5"},
                     "bad order row: could not convert string to float: 'abc'",
                     id="unparsable-before-negative-balance"),
        *[pytest.param(lambda row, column=column: {**row, column: True},
                       f"bad order row: {column} True is not a number",
                       id=f"bool-{column}")
          for column in ("y_paired", "y_base", "x_paired", "x_base", "price_paired",
                         "price_base", "gas_fee_usd")],
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


def set_middle_row(**fields):
    """A `mutated_corpus` edit: set `fields` in the middle order row."""
    def mutate(rows):
        i = len(rows) // 2
        rows[i].update(fields)
        return i + 1
    return mutate


class TestWideIntegers:
    """An integer literal past 64 bits, which orjson reads as a float, reads
    as the standard library's integer with and without orjson."""

    @pytest.mark.parametrize("command", ["detect", "features", "trend"])
    def test_wide_block_is_accepted(self, corpus, tmp_path, reader, command):
        assert run_on(command, corpus, tmp_path) == 0
        expected = (tmp_path / "out.csv").read_bytes()
        bad = tmp_path / "bad"
        mutated_corpus(corpus, bad, set_middle_row(block=2 ** 64))
        assert "18446744073709551616" in (bad / "orders.jsonl").read_text()
        assert run_on(command, bad, tmp_path) == 0
        assert (tmp_path / "out.csv").read_bytes() == expected

    @pytest.mark.parametrize("sender", [[10 ** 19], [2 ** 64]], ids=["u64", "past-u64"])
    @pytest.mark.parametrize("command", ["detect", "features", "trend"])
    def test_wide_sender_error_line(self, corpus, tmp_path, capsys, reader,
                                    command, sender):
        bad = tmp_path / "bad"
        lineno = mutated_corpus(corpus, bad, set_middle_row(sender=sender))
        assert run_on(command, bad, tmp_path) == 2
        assert capsys.readouterr().err == (
            f'error code=2 kind=SchemaError msg="{bad / "orders.jsonl"} line {lineno}: '
            f'bad order row: sender {sender} is not a string"\n')


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

    def test_repeated_window_counts_once(self, corpus, tmp_path, capsys):
        """--d-list 57,57,30 writes the 6 cells of --d-list 57,30: a
        repeated window is trained and written once."""
        outs = []
        for d_list in ("57,57,30", "57,30"):
            outs.append(tmp_path / f"{d_list}.csv")
            assert main(["sweep", "--corpus", str(corpus), "--d-list", d_list,
                         "--out", str(outs[-1])]) == 0
            assert " 6 detector/window cells " in capsys.readouterr().out
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert len(read_csv(outs[0])) == 6


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


def _corpus_config_with_negative_seed(corpus, tmp_path):
    return (_corpus_config(tmp_path, "seed = -1\nlegitimate.count = 2\n"),
            "seed: '-1'")


def _corpus_config_with_nan_survival(corpus, tmp_path):
    return (_corpus_config(tmp_path, "slid.count = 2\nslid.survive_month_fraction = nan\n"),
            "slid.survive_month_fraction: 'nan'")


def _corpus_config_with_zero_short_lifetime(corpus, tmp_path):
    return (_corpus_config(tmp_path, "slid.count = 2\nslid.survive_month_fraction = 0\n"
                                     "slid.short_lifetime_days = 0\n"),
            "slid.short_lifetime_days: '0'")


def _corpus_config_with_unused_zero_short_lifetime(corpus, tmp_path):
    return (_corpus_config(tmp_path, "slid.count = 2\nslid.short_lifetime_days = 0\n"),
            "slid.short_lifetime_days: '0'")


def _corpus_config_with_rug_impact_above_one(corpus, tmp_path):
    return (_corpus_config(tmp_path, "rugpull.count = 1\nrugpull.rug_impact = 5\n"),
            "rug_impact must be in [0.95, 1.0], got 5.0")


def _corpus_config_with_endless_lifetime(corpus, tmp_path):
    return (_corpus_config(tmp_path, "legitimate.count = 1\n"
                                     "legitimate.lifetime_days = 100000000\n"),
            "lifetime_days must be in [1, 3650], got 100000000")


def _corpus_config_out_of_bounds(name, text, message):
    """A generate config with one option outside its [low, high] bound."""
    def build(corpus, tmp_path):
        return _corpus_config(tmp_path, text), message
    build.__name__ = f"_corpus_config_with_{name}"
    return build


def _negative_seed(command, *options):
    """`train` on a two-row features CSV, or `sweep`, with --seed -1."""
    def build(corpus, tmp_path):
        if command == "sweep":
            argv = ["sweep", "--corpus", str(corpus)]
        else:
            argv = ["train", "--features", str(_features_csv_with_value(tmp_path, "2.0"))]
        return argv + [*options, "--seed", "-1"], "seed must be a whole number >= 0"
    build.__name__ = "_".join(["_negative_seed", command, *options]).replace("-", "")
    return build


def _heuristic_config_file(tmp_path):
    cfg = tmp_path / "heuristic.cfg"
    cfg.write_text("t_count = 1000\n")
    return str(cfg)


def _features_with_labels_and_config(corpus, tmp_path):
    return (["features", "--pools", str(corpus / "pools.jsonl"),
             "--orders", str(corpus / "orders.jsonl"), "--labels", str(corpus / "labels.csv"),
             "--window", "57", "--config", _heuristic_config_file(tmp_path)],
            "--config")


def _trend_report_with_config(corpus, tmp_path):
    return (["report", "--kind", "trend", "--corpus", str(corpus),
             "--config", _heuristic_config_file(tmp_path)],
            "--config")


def _report_with_corpus_and_pools(corpus, tmp_path):
    return (["report", "--kind", "age", "--corpus", str(corpus),
             "--pools", str(corpus / "pools.jsonl")],
            "--corpus")


def _corpus_config_with_one_value_range(corpus, tmp_path):
    return (_corpus_config(tmp_path, "slid.count = 1\nslid.slid_impact_range = 0.5\n"),
            "slid.slid_impact_range: '0.5'")


def with_byte_ff(path, lineno):
    """Put one 0xff byte in the middle of line `lineno` of `path`; returns
    the location the error line must name."""
    lines = path.read_bytes().splitlines(keepends=True)
    line = lines[lineno - 1]
    lines[lineno - 1] = line[:len(line) // 2] + b"\xff" + line[len(line) // 2:]
    path.write_bytes(b"".join(lines))
    return f"{path} line {lineno}: byte 0xff at column {len(line) // 2 + 1} is not UTF-8"


def _labels_csv_with_byte_ff(corpus, tmp_path):
    path = tmp_path / "labels.csv"
    shutil.copy(corpus / "labels.csv", path)
    return ["features", "--pools", str(corpus / "pools.jsonl"),
            "--orders", str(corpus / "orders.jsonl"), "--labels", str(path),
            "--window", "57"], with_byte_ff(path, 4)


def _features_csv_with_byte_ff(corpus, tmp_path):
    path = _features_csv_with_value(tmp_path, "2.0")
    return (["train", "--features", str(path), "--model", "RandomForest"],
            with_byte_ff(path, 3))


def _corpus_config_with_byte_ff(corpus, tmp_path):
    argv = _corpus_config(tmp_path, "seed = 3\nlegitimate.count = 2\n"
                                    "# a comment\nlegitimate.lifetime_days = 20\n")
    return argv, with_byte_ff(tmp_path / "bad.cfg", 4)


def _heuristic_config_with_byte_ff(corpus, tmp_path):
    return (["report", "--kind", "profit", "--corpus", str(corpus), "--labels-filter",
             "SLID", "--config", _heuristic_config_file(tmp_path)],
            with_byte_ff(tmp_path / "heuristic.cfg", 1))


def assert_error_line(argv, location, code, kind, out, capsys):
    """The command ends with the documented one-line error, never a
    traceback, names `location` if given, and writes no `out`."""
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == code
    message = error_message(capsys.readouterr().err, code, kind)
    if location is not None:
        assert location in message
    assert not out.exists()


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
        (_corpus_config_with_negative_seed, 4, "ConfigError"),
        (_corpus_config_with_nan_survival, 4, "ConfigError"),
        (_corpus_config_with_zero_short_lifetime, 4, "ConfigError"),
        (_corpus_config_with_unused_zero_short_lifetime, 4, "ConfigError"),
        (_corpus_config_with_rug_impact_above_one, 4, "InfeasibleConfig"),
        (_corpus_config_with_endless_lifetime, 4, "InfeasibleConfig"),
        (_features_with_labels_and_config, 4, "UsageError"),
        (_trend_report_with_config, 4, "UsageError"),
        (_report_with_corpus_and_pools, 4, "UsageError"),
        (_corpus_config_with_negative_arrival, 4, "InfeasibleConfig"),
        (_corpus_config_with_nan_arrival, 4, "InfeasibleConfig"),
        (_corpus_config_out_of_bounds(
            "runaway_arrival", "legitimate.count = 1\nlegitimate.lifetime_days = 3650\n"
            "legitimate.investor_arrival = 100000\n",
            "investor_arrival must be in [0.0, 1000.0], got 100000.0"), 4, "InfeasibleConfig"),
        (_corpus_config_out_of_bounds(
            "negative_investor_count", "legitimate.count = 1\nlegitimate.investor_count = -1\n",
            "investor_count must be in [1, 100000], got -1"), 4, "InfeasibleConfig"),
        (_corpus_config_out_of_bounds(
            "huge_investor_count",
            "legitimate.count = 1\nlegitimate.investor_count = 1000000000\n",
            "investor_count must be in [1, 100000], got 1000000000"), 4, "InfeasibleConfig"),
        (_corpus_config_out_of_bounds(
            "negative_rug_drain_day", "rugpull.count = 1\nrugpull.rug_drain_day = -3\n",
            "rug_drain_day must be in [0, 3650], got -3"), 4, "InfeasibleConfig"),
        (_corpus_config_out_of_bounds(
            "negative_slow_start_day", "slidslow.count = 1\nslidslow.slow_start_day = -5\n",
            "slow_start_day must be in [0, 3650], got -5"), 4, "InfeasibleConfig"),
        (_corpus_config_out_of_bounds(
            "negative_early_sell_count", "slidslow.count = 1\nslidslow.lifetime_days = 300\n"
            "slidslow.early_sell_count = -2\n",
            "early_sell_count must be in [0, 100000], got -2"), 4, "InfeasibleConfig"),
        (_corpus_config_out_of_bounds(
            "huge_slid_drain_count", "slid.count = 1\nslid.slid_drain_count = 100000000\n",
            "slid_drain_count must be in [1, 100000], got 100000000"), 4, "InfeasibleConfig"),
        (_corpus_config_out_of_bounds(
            "endless_arrivals", "legitimate.count = 1\nlegitimate.lifetime_days = 3650\n"
            "legitimate.investor_arrival = 1000\n",
            "investor_arrival * (lifetime_days + 1) must be in [0, 200000], got 3651000.0"),
         4, "InfeasibleConfig"),
        (_negative_seed("train", "--model", "RandomForest"), 4, "UsageError"),
        (_negative_seed("train", "--model", "LogisticRegression"), 4, "UsageError"),
        (_negative_seed("train", "--model", "LogisticRegression", "--grid"), 4, "UsageError"),
        (_negative_seed("sweep"), 4, "UsageError"),
        (_labels_csv_with_byte_ff, 2, "SchemaError"),
        (_features_csv_with_byte_ff, 2, "SchemaError"),
        (_corpus_config_with_byte_ff, 4, "ConfigError"),
        (_heuristic_config_with_byte_ff, 4, "ConfigError"),
    ], ids=lambda value: getattr(value, "__name__", None))
    def test_documented_error_line(self, corpus, tmp_path, capsys, build, code, kind):
        """A command that cannot use its input ends with the documented
        one-line error, never a traceback; a bad file is named."""
        argv, location = build(corpus, tmp_path)
        assert_error_line(argv, location, code, kind, tmp_path / "out", capsys)

    @pytest.mark.parametrize("name,bad_row", [
        ("orders.jsonl", None), ("pools.jsonl", None), ("profiles.jsonl", None),
        ("orders.jsonl", 2), ("orders.jsonl", 6)])
    def test_byte_that_is_not_utf8_in_jsonl(self, corpus, tmp_path, capsys, reader,
                                             name, bad_row):
        """A 0xff byte on line 4 of a JSONL input is that line's error line
        on both reader paths. The first bad line wins: an unknown category
        on line 2 is named, and one on line 6 is not."""
        shutil.copytree(corpus, tmp_path / "c")
        path = tmp_path / "c" / name
        if bad_row is not None:
            rewrite_rows(path, lambda rows: rows[bad_row - 1].update(category="Bogus"))
        location = with_byte_ff(path, 4)
        if bad_row == 2:
            location = f"{path} line 2: bad order row: unknown category 'Bogus'"
        argv = ["detect", "--pools", str(tmp_path / "c" / "pools.jsonl"),
                "--orders", str(tmp_path / "c" / "orders.jsonl"),
                "--profiles", str(tmp_path / "c" / "profiles.jsonl")]
        assert_error_line(argv, location, 2, "SchemaError", tmp_path / "out", capsys)



def _labels_input(corpus, tmp_path):
    """features --labels, its labels file a copy of the corpus's."""
    path = tmp_path / "labels.csv"
    shutil.copy(corpus / "labels.csv", path)
    return path, "labels", ["features", "--pools", str(corpus / "pools.jsonl"),
                            "--orders", str(corpus / "orders.jsonl"),
                            "--labels", str(path), "--window", "57"]


def _features_input(corpus, tmp_path):
    """train --features on a two-row features file."""
    path = _features_csv_with_value(tmp_path, "2.0")
    return path, "feature", ["train", "--features", str(path), "--model", "RandomForest"]


def _edit_line(path, lineno, edit):
    """Replace line `lineno` of `path` by `edit` of its text."""
    lines = path.read_text().splitlines()
    lines[lineno - 1] = edit(lines[lineno - 1])
    path.write_text("".join(line + "\n" for line in lines))


class TestCsvInputs:
    """Both CSV inputs are read by one reader, `dataio.iter_csv`, so each
    fault gives the same kind of line in `features --labels` and `train`."""

    @pytest.mark.parametrize("fault", ["oversize-field", "short-row", "wrong-header",
                                       "byte-ff"])
    @pytest.mark.parametrize("build", [_labels_input, _features_input],
                             ids=["labels", "features"])
    def test_documented_error_line(self, corpus, tmp_path, capsys, build, fault):
        """A field past the csv module's 131,072-character limit, a row
        without one field per column, a wrong header and a byte that is not
        UTF-8 each end with `<file> line <n>: ...`, exit 2, no output."""
        path, what, argv = build(corpus, tmp_path)
        if fault == "oversize-field":
            _edit_line(path, 2, lambda line: "0x" + "a" * 131_072 + line[line.index(","):])
            location = f"{path} line 2: bad {what} row: field larger than field limit (131072)"
        elif fault == "short-row":
            _edit_line(path, 3, lambda line: line.split(",")[0])
            location = f"{path} line 3: bad {what} row: 1 columns, expected "
        elif fault == "wrong-header":
            _edit_line(path, 1, lambda line: line.replace("pool_address", "address"))
            location = f"{path} line 1: unexpected {what} CSV header"
        else:
            location = with_byte_ff(path, 2)
        assert_error_line(argv, location, 2, "SchemaError", tmp_path / "out", capsys)


def _deep_json(shape, depth=100_000):
    """A JSON object or array nested `depth` levels deep."""
    if shape == "object":
        return '{"":' * depth + "0" + "}" * depth
    return "[" * depth + "]" * depth


class TestDeepNesting:
    """A deeply nested JSONL line is invalid JSON on both reader paths. Each
    case runs the CLI in its own child process: orjson's parser once
    overflowed the C stack on such a line (SIGSEGV), which would otherwise
    end the test run."""

    @pytest.mark.parametrize("shape", ["object", "array"])
    @pytest.mark.parametrize("name", ["orders.jsonl", "pools.jsonl", "profiles.jsonl"])
    def test_deep_line_is_invalid_json(self, corpus, tmp_path, reader, name, shape):
        shutil.copytree(corpus, tmp_path / "c")
        path = tmp_path / "c" / name
        _edit_line(path, 2, lambda line: _deep_json(shape))
        self.assert_child_error_line(
            ["detect", *corpus_inputs(tmp_path / "c")], reader,
            f"{path} line 2: invalid JSON: maximum recursion depth exceeded "
            f"while decoding a JSON {shape}", tmp_path / "out")

    def test_deep_amount_string_is_no_number(self, corpus, tmp_path, reader):
        """An amount string holding a deep object is no number, as float()
        says, on both reader paths. The message, longer than the error
        line holds, keeps its head and its tail."""
        shutil.copytree(corpus, tmp_path / "c")
        path = tmp_path / "c" / "orders.jsonl"
        rewrite_rows(path, lambda rows: rows[1].update(y_base=_deep_json("object")))
        message = self.assert_child_error_line(
            ["detect", *corpus_inputs(tmp_path / "c")], reader,
            f"{path} line 2: bad order row: could not convert string to float: ",
            tmp_path / "out")
        assert len(message) <= cli.MESSAGE_LIMIT
        assert " characters cut]... " in message
        assert message.endswith("}" * 400 + "'")

    @staticmethod
    def assert_child_error_line(argv, reader, location, out, code=2,
                                kind="SchemaError", margin=None):
        """The CLI run with `argv` and `--out out` in a child process, on the
        `reader` path, ends with one error line of `code` and `kind` whose
        message starts with `location`, and writes no `out`. With `margin`,
        the child's address space is capped at its size after import plus
        `margin` bytes (RLIMIT_AS). Returns the message."""
        hide = ("d._orjson_loads = d._orjson_dumps = None; "
                if reader == "stdlib" else "")
        cap = ("import resource; "
               "size = int(open('/proc/self/statm').read().split()[0]); "
               f"limit = size * resource.getpagesize() + {margin}; "
               "resource.setrlimit(resource.RLIMIT_AS, "
               "(limit, resource.getrlimit(resource.RLIMIT_AS)[1])); "
               if margin is not None else "")
        env = dict(os.environ)
        src = str(Path(synth.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, "-c", f"import sys, slidscan.dataio as d; {hide}"
             f"from slidscan.cli import main; {cap}sys.exit(main(sys.argv[1:]))",
             *argv, "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=120)
        assert child.returncode == code, child.stderr[-2000:]
        message = error_message(child.stderr, code, kind)
        assert message.startswith(location)
        assert not out.exists()
        return message


def _too_long(path, lineno):
    return f"{path} line {lineno}: line longer than {LINE_LIMIT} characters"


def _too_long_row(path, lineno):
    return f"{path} line {lineno}: row longer than {LINE_LIMIT} characters"


def _multiline_row(size, fields):
    """A CSV row of `size` characters, its newlines included: `fields`
    quoted fields of letters, each split by a newline."""
    letters, more = divmod(size - 4 * fields, fields)
    parts = []
    for i in range(fields):
        count = letters + (i < more)
        parts.append(f'"{"a" * (count // 2)}\n{"a" * (count - count // 2)}"')
    row = ",".join(parts) + "\n"
    assert len(row) == size
    return row


class TestLineLimit:
    """A line of LINE_LIMIT characters, its newline included, is read as
    any other; one character more is its file's error line, naming the file
    and the line: exit 2, or 4 in a --config file."""

    @pytest.mark.parametrize("extra", [0, 1], ids=["at-limit", "past-limit"])
    def test_orders_line(self, corpus, tmp_path, capsys, reader, extra):
        """An order row padded with spaces to the limit reads as itself."""
        assert run_on("detect", corpus, tmp_path) == 0
        expected = (tmp_path / "out.csv").read_bytes()
        (tmp_path / "out.csv").unlink()
        shutil.copytree(corpus, tmp_path / "c")
        path = tmp_path / "c" / "orders.jsonl"
        _edit_line(path, 3, lambda line: line + " " * (LINE_LIMIT - 1 + extra - len(line)))
        assert len(path.read_text().splitlines(keepends=True)[2]) == LINE_LIMIT + extra
        if extra:
            assert_error_line(["detect", *corpus_inputs(tmp_path / "c")],
                              _too_long(path, 3), 2, "SchemaError",
                              tmp_path / "out.csv", capsys)
        else:
            assert run_on("detect", tmp_path / "c", tmp_path) == 0
            assert (tmp_path / "out.csv").read_bytes() == expected

    @pytest.mark.parametrize("extra", [0, 1], ids=["at-limit", "past-limit"])
    def test_features_line(self, corpus, tmp_path, capsys, extra):
        """A features row whose values are padded with spaces to the limit
        trains the model of the unpadded file."""
        path, _, argv = _features_input(corpus, tmp_path)
        assert main(argv + ["--out", str(tmp_path / "plain.json")]) == 0

        def pad(line):
            fields = line.split(",")
            each, more = divmod(LINE_LIMIT - 1 + extra - len(line), len(FEATURE_NAMES))
            fields[3:] = [value + " " * (each + (i < more))
                          for i, value in enumerate(fields[3:])]
            return ",".join(fields)

        _edit_line(path, 3, pad)
        if extra:
            assert_error_line(argv, _too_long(path, 3), 2, "SchemaError",
                              tmp_path / "out", capsys)
        else:
            assert main(argv + ["--out", str(tmp_path / "out")]) == 0
            assert ((tmp_path / "out").read_bytes()
                    == (tmp_path / "plain.json").read_bytes())

    @pytest.mark.parametrize("extra", [0, 1], ids=["at-limit", "past-limit"])
    def test_labels_line(self, corpus, tmp_path, capsys, extra):
        """No labels row is that long, so a line at the limit, eleven
        fields, is read and rejected for its columns."""
        path, _, argv = _labels_input(corpus, tmp_path)
        letters, more = divmod(LINE_LIMIT - 1 + extra - 10, 11)
        _edit_line(path, 2, lambda line: ",".join(
            "a" * (letters + (i < more)) for i in range(11)))
        location = (_too_long(path, 2) if extra else
                    f"{path} line 2: bad labels row: 11 columns, expected 2")
        assert_error_line(argv, location, 2, "SchemaError", tmp_path / "out", capsys)

    @pytest.mark.parametrize("extra", [0, 1], ids=["at-limit", "past-limit"])
    def test_labels_row_over_lines(self, corpus, tmp_path, capsys, extra):
        """A row's lines count together: a labels row of eleven quoted
        fields, each holding a newline, spans twelve lines. At the limit it
        is read and rejected for its columns; one character more is the
        row's error line, on its last line, where the bound is crossed."""
        path, _, argv = _labels_input(corpus, tmp_path)
        row = _multiline_row(LINE_LIMIT + extra, 11)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + row + "".join(lines[1:]))
        last = 2 + row.count("\n") - 1
        location = (_too_long_row(path, last) if extra else
                    f"{path} line {last}: bad labels row: 11 columns, expected 2")
        assert_error_line(argv, location, 2, "SchemaError", tmp_path / "out", capsys)

    @pytest.mark.parametrize("extra", [0, 1], ids=["at-limit", "past-limit"])
    def test_config_line(self, tmp_path, capsys, extra):
        """A comment line at the limit is read and ignored."""
        comment = "# " + "x" * (LINE_LIMIT - 3 + extra)
        argv = _corpus_config(tmp_path, f"seed = 3\n{comment}\nlegitimate.count = 2\n"
                                        "legitimate.lifetime_days = 20\n")
        out = tmp_path / "out"
        if extra:
            assert_error_line(argv, _too_long(tmp_path / "bad.cfg", 2), 4,
                              "ConfigError", out, capsys)
        else:
            assert main(argv + ["--out", str(out)]) == 0
            assert (out / "orders.jsonl").exists()


@pytest.fixture
def huge_line():
    """Insert a line of 100,000,000 characters before line `lineno` of a
    file, writing it in pieces; returns the location its error line names.
    The file is removed after the test."""
    paths = []

    def insert(path, lineno):
        paths.append(path)
        lines = path.read_text().splitlines(keepends=True)
        piece = "x" * 2 ** 20
        with open(path, "w") as handle:
            handle.writelines(lines[:lineno - 1])
            for _ in range(100_000_000 // len(piece)):
                handle.write(piece)
            handle.write(piece[:100_000_000 % len(piece)] + "\n")
            handle.writelines(lines[lineno - 1:])
        return _too_long(path, lineno)

    yield insert
    for path in paths:
        path.unlink(missing_ok=True)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the child reads its size from /proc/self/statm")
class TestHugeLines:
    """A 100 MB line in an input file gives its one error line, no
    traceback and no output, in a child process whose address space is
    capped at 64 MiB above its size after import: a reader that held the
    line whole would end in MemoryError."""

    MARGIN = 64 * 2 ** 20

    def test_orders_line(self, corpus, tmp_path, reader, huge_line):
        shutil.copytree(corpus, tmp_path / "c")
        location = huge_line(tmp_path / "c" / "orders.jsonl", 2)
        TestDeepNesting.assert_child_error_line(
            ["detect", *corpus_inputs(tmp_path / "c")], reader, location,
            tmp_path / "out", margin=self.MARGIN)

    @pytest.mark.parametrize("build", [_labels_input, _features_input],
                             ids=["labels", "features"])
    def test_csv_line(self, corpus, tmp_path, huge_line, build):
        path, _, argv = build(corpus, tmp_path)
        TestDeepNesting.assert_child_error_line(
            argv, None, huge_line(path, 2), tmp_path / "out", margin=self.MARGIN)

    def test_labels_row_over_lines(self, corpus, tmp_path):
        """A labels row of 1,000 quoted 100,000-character fields, each over
        two lines (100 MB): the bound on a row, not only on a line, ends it
        on the line that crosses LINE_LIMIT."""
        path, _, argv = _labels_input(corpus, tmp_path)
        half = "x" * 50_000
        lines = path.read_text().splitlines(keepends=True)
        try:
            with open(path, "w") as handle:
                handle.write(lines[0])
                handle.write(f'"{half}\n')
                for _ in range(999):
                    handle.write(f'{half}","{half}\n')
                handle.write(f'{half}",Legitimate\n')
                handle.writelines(lines[1:])
            # The row's first line holds 50,002 characters, each next one 100,004.
            crossing = 2 + -(-(LINE_LIMIT + 1 - 50_002) // 100_004)
            TestDeepNesting.assert_child_error_line(
                argv, None, _too_long_row(path, crossing), tmp_path / "out",
                margin=self.MARGIN)
        finally:
            path.unlink()

    def test_config_line(self, tmp_path, huge_line):
        argv = _corpus_config(tmp_path, "seed = 3\nlegitimate.count = 2\n")
        TestDeepNesting.assert_child_error_line(
            argv, None, huge_line(tmp_path / "bad.cfg", 2), tmp_path / "out",
            code=4, kind="ConfigError", margin=self.MARGIN)


class TestErrorLineGrammar:
    @pytest.mark.parametrize("category", ['Bu"y x=1 msg="ok', "B\\uüy "],
                             ids=["quotes", "backslash-and-non-ascii"])
    def test_forged_field_stays_in_msg(self, corpus, tmp_path, capsys, category):
        """A field holding quotes and `msg=`, a backslash or characters that
        are not ASCII cannot forge or break the error line: its msg is an
        ASCII JSON string that decodes to the original message."""
        bad = tmp_path / "bad"
        lineno = mutated_corpus(corpus, bad, set_middle_row(category=category))
        assert run_on("detect", bad, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.isascii()
        assert error_message(err, 2, "SchemaError") == (
            f"{bad / 'orders.jsonl'} line {lineno}: bad order row: "
            f"unknown category {category!r}")

    def test_long_message_is_cut_in_the_middle(self, capsys):
        """A message past MESSAGE_LIMIT keeps its head and its tail."""
        message = "head " + "x" * 5000 + " tail"
        assert cli._fail(2, SchemaError("f.jsonl", 7, message)) == 2
        cut = error_message(capsys.readouterr().err, 2, "SchemaError")
        assert len(cut) <= cli.MESSAGE_LIMIT
        full = f"f.jsonl line 7: {message}"
        keep = cli.MESSAGE_LIMIT // 2 - 20
        assert cut == (f"{full[:keep]} ...[{len(full) - 2 * keep} characters cut]... "
                       f"{full[-keep:]}")


    def test_escaped_text_is_what_is_cut(self, corpus, tmp_path, capsys):
        """A category of 2,000 emoji, 12 characters each in JSON text, is
        cut on its escaped text, so the line stays short and parses."""
        bad = tmp_path / "bad"
        category = "\U0001F600" * 2000
        lineno = mutated_corpus(corpus, bad, set_middle_row(category=category))
        assert run_on("detect", bad, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.isascii() and len(err) < 1100
        message = error_message(err, 2, "SchemaError")
        assert len(json.dumps(message)) - 2 <= cli.MESSAGE_LIMIT
        head, tail = message.split(" characters cut]... ")
        assert head.startswith(f"{bad / 'orders.jsonl'} line {lineno}: bad order row: "
                               "unknown category '\U0001F600")
        assert tail == "\U0001F600" * (len(tail) - 1) + "'"

    def test_cut_keeps_whole_escaped_characters(self, capsys):
        """Head and tail are the most whole characters whose JSON text fits
        in MESSAGE_LIMIT // 2 - 20 characters each; the count names the rest."""
        message = 'é"\\' * 400 + "\U0001F600" * 400 + "x\n" * 400
        assert cli._fail(2, SchemaError("f.csv", 3, message)) == 2
        cut = error_message(capsys.readouterr().err, 2, "SchemaError")
        full = f"f.csv line 3: {message}"
        head, rest = cut.split(" ...[")
        count, tail = rest.split(" characters cut]... ")
        keep = cli.MESSAGE_LIMIT // 2 - 20

        def size(text):
            return len(json.dumps(text)) - 2

        assert full.startswith(head) and full.endswith(tail)
        assert size(head) <= keep < size(full[:len(head) + 1])
        assert size(tail) <= keep < size(full[len(full) - len(tail) - 1:])
        assert int(count) == len(full) - len(head) - len(tail)


class TestUnopenablePaths:
    """A path that cannot be opened as asked exits 4 with one line naming
    it, and writes nothing."""

    def test_detect_out_is_a_directory(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert main(["detect", *corpus_inputs(corpus), "--out", str(out)]) == 4
        message = error_message(capsys.readouterr().err, 4, "IsADirectoryError")
        assert repr(str(out)) in message
        assert list(out.iterdir()) == []

    def test_detect_pools_is_a_directory(self, corpus, tmp_path, capsys):
        argv = ["detect", *corpus_inputs(corpus)]
        argv[argv.index("--pools") + 1] = str(corpus)
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 4
        message = error_message(capsys.readouterr().err, 4, "IsADirectoryError")
        assert repr(str(corpus)) in message
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["detect", "features", "sweep", "report", "train"])
    def test_out_is_named_before_a_missing_input(self, corpus, tmp_path, capsys, command):
        """--out is checked before any input is read: with --out a directory
        and the orders file (for train, the features file) missing, the
        directory is the error named. With a writable --out, the missing
        input is named, a new --out is not left behind and an existing one
        keeps its bytes. Through a link to no file, the missing input is
        named and the link's target is not made."""
        missing = tmp_path / "missing"
        missing.mkdir()
        inputs = corpus_inputs(corpus)
        inputs[inputs.index("--orders") + 1] = str(missing / "orders.jsonl")
        argv = {"detect": ["detect", *inputs],
                "features": ["features", *inputs, "--window", "57"],
                "sweep": ["sweep", "--corpus", str(missing)],
                "report": ["report", "--kind", "trend", *inputs],
                "train": ["train", "--features", str(missing / "features.csv"),
                          "--model", "RandomForest"]}[command]
        out = tmp_path / "out"
        out.mkdir()
        assert main(argv + ["--out", str(out)]) == 4
        message = error_message(capsys.readouterr().err, 4, "IsADirectoryError")
        assert repr(str(out)) in message
        assert list(out.iterdir()) == []

        assert main(argv + ["--out", str(tmp_path / "new.csv")]) == 4
        message = error_message(capsys.readouterr().err, 4, "FileNotFoundError")
        assert f"{missing}{os.sep}" in message
        kept = tmp_path / "kept.csv"
        kept.write_text("kept\n")
        assert main(argv + ["--out", str(kept)]) == 4
        capsys.readouterr()
        assert kept.read_text() == "kept\n"
        link = tmp_path / "link.csv"
        link.symlink_to(tmp_path / "target.csv")
        assert main(argv + ["--out", str(link)]) == 4
        message = error_message(capsys.readouterr().err, 4, "FileNotFoundError")
        assert f"{missing}{os.sep}" in message
        assert sorted(tmp_path.iterdir()) == [kept, link, missing, out]
        assert not link.exists()

    def test_out_through_a_link_to_no_file(self, corpus, tmp_path, capsys):
        """An --out link to no file is written through, as before the check:
        the check makes and removes its target, detect then writes it."""
        link = tmp_path / "link.csv"
        target = tmp_path / "target.csv"
        link.symlink_to(target)
        assert main(["detect", *corpus_inputs(corpus), "--out", str(link)]) == 0
        capsys.readouterr()
        assert target.read_text().startswith("pool_address,")
        assert sorted(tmp_path.iterdir()) == [link, target]

    def test_generate_out_is_a_file(self, tmp_path, capsys):
        """The error of the --out path is the one named, not one from
        removing the run's temporary files."""
        cfg = tmp_path / "corpus.cfg"
        cfg.write_text("seed = 3\nlegitimate.count = 2\nlegitimate.lifetime_days = 20\n")
        out = tmp_path / "afile"
        out.write_text("kept\n")
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 4
        message = error_message(capsys.readouterr().err, 4, "FileExistsError")
        assert repr(str(out)) in message
        assert out.read_text() == "kept\n"
        assert sorted(tmp_path.iterdir()) == [out, cfg]
