"""Windowed feature extraction: canonical names, counts, ratios, monotonicity."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from slidscan.dataio import SchemaError
from slidscan.features import (
    FEATURE_COUNT,
    FEATURE_NAMES,
    LPF_NAMES,
    OAF_NAMES,
    PF_NAMES,
    RATIO_CAP,
    UAF_NAMES,
    extract_with_report,
    read_features_csv,
    write_features_csv,
)
from slidscan.ledger import SECONDS_PER_DAY
from slidscan.metrics import profit_report
from slidscan.synth import ScenarioConfig, ScenarioKind, build_corpus, generate

from conftest import T0, USER, make_order

SCHEMA_DOC = Path(__file__).resolve().parents[1] / "docs" / "feature_schema.md"

# The count features docs/feature_schema.md guarantees never decrease as d grows.
COUNT_FEATURES = list(OAF_NAMES) + [
    "user_dep", "user_with", "user_buy", "user_sell", "user_count",
    "owner_taking_count"]


def window(pool, orders, d):
    """The pool's 57 feature values over its first d days."""
    [(values, _)] = extract_with_report(pool, orders, (d,))
    return values


def named(pool, orders, d):
    """The same values by feature name."""
    return dict(zip(FEATURE_NAMES, window(pool, orders, d)))


class TestSchema:
    def test_exactly_57_features_in_fixed_order(self):
        assert FEATURE_COUNT == 57
        assert len(FEATURE_NAMES) == 57
        assert len(set(FEATURE_NAMES)) == 57
        assert len(OAF_NAMES) == 4
        assert len(UAF_NAMES) == 15
        assert len(PF_NAMES) == 16
        assert len(LPF_NAMES) == 22
        assert FEATURE_NAMES[0] == "owner_dep"
        assert FEATURE_NAMES[-1] == "r_pval_min_on_max"

    def test_schema_doc_tables_match_feature_names(self):
        """The `| # | name | definition |` rows of docs/feature_schema.md
        list FEATURE_NAMES in order, and each row's number or range is the
        1-based position of its names."""
        names = []
        for line in SCHEMA_DOC.read_text().splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if len(cells) != 3 or not re.fullmatch(r"\d+(–\d+)?", cells[0]):
                continue
            row = re.findall(r"`([a-z0-9_]+)`", cells[1])
            first, _, last = cells[0].partition("–")
            assert (int(first), int(last or first)) == \
                (len(names) + 1, len(names) + len(row)), line
            names += row
        assert names == list(FEATURE_NAMES)

    def test_vector_shape_and_names_stable(self, pool):
        orders = [make_order("Deposit", 100.0, 10.0, ts=T0)]
        values = window(pool, orders, 7)
        assert values.shape == (57,)
        assert values.dtype == np.float64
        assert values[FEATURE_NAMES.index("owner_dep")] == 1.0


class TestExtraction:
    def test_empty_history_yields_zero_vector(self, pool):
        values = window(pool, [], 30)
        assert values.shape == (57,)
        assert np.all(values == 0.0)

    def test_zero_user_window_has_zero_uaf_and_zero_ratios(self, pool):
        orders = [make_order("Deposit", 100.0, 10.0, ts=T0),
                  make_order("Buy", 5.0, 1.0, ts=T0 + 60)]
        vec = named(pool, orders, 30)
        for name in ("user_dep", "user_with", "user_buy", "user_sell",
                     "user_count", "user_count_first", "user_count_high"):
            assert vec[name] == 0.0
        assert vec["r_user_first_on_high"] == 0.0

    def test_owner_activity_counts_over_seventy_days(self, pool):
        """139 owner buys and 136 owner sells within the window, one deposit,
        no withdrawals."""
        orders = [make_order("Deposit", 19_000.0, 1000.0, ts=T0)]
        ts = T0 + 60
        for i in range(139):
            orders.append(make_order("Buy", 10.0, 1.0, ts=ts))
            ts += 20_000
        for i in range(136):
            orders.append(make_order("Sell", 8.0, 1.0, ts=ts))
            ts += 20_000
        # all inside 70 days: 275 orders * 20 ks = 63.7 d
        assert ts - T0 < 70 * SECONDS_PER_DAY
        vec = named(pool, orders, 70)
        assert vec["owner_dep"] == 1.0
        assert vec["owner_with"] == 0.0
        assert vec["owner_buy"] == 139.0
        assert vec["owner_sell"] == 136.0
        assert vec["owner_taking_count"] == 136.0

    def test_first_day_busiest_gives_unit_ratio(self, pool):
        orders = [make_order("Deposit", 100.0, 10.0, ts=T0)]
        for i in range(3):
            orders.append(make_order("Buy", 1.0, 0.1, sender=f"0xu{i}",
                                     ts=T0 + 100 + i))
        orders.append(make_order("Buy", 1.0, 0.1, sender="0xu0",
                                 ts=T0 + SECONDS_PER_DAY + 100))
        vec = named(pool, orders, 10)
        assert vec["user_count_first"] == 3.0
        assert vec["user_count_high"] == 3.0
        assert vec["r_user_first_on_high"] == 1.0

    def test_ratio_conventions(self, pool):
        orders = [make_order("Deposit", 100.0, 10.0, ts=T0),
                  make_order("Sell", 10.0, 1.0, ts=T0 + 60)]
        vec = named(pool, orders, 5)
        # owner_realized > 0 but owner never bought beyond the deposit:
        # r_owner_unrealized_on_realized is finite, r_user ratios are 0/0.
        assert vec["r_user_first_on_high"] == 0.0

    def test_capped_ratio_on_zero_denominator(self, pool):
        # vol_first > 0, vol on the last (different) day is 0 only if no
        # orders... construct x/0 via impact ratios instead: one event makes
        # min == max == avg, so min/max is 1; use user counts for x/0.
        orders = [make_order("Deposit", 100.0, 10.0, ts=T0),
                  make_order("Buy", 1.0, 0.1, sender=USER, ts=T0 + 50),
                  make_order("Buy", 1.0, 0.1, ts=T0 + SECONDS_PER_DAY + 50)]
        vec = named(pool, orders, 10)
        # last active day has only an owner order: user_count_last = 0,
        # user_count_low = 0 -> first/low is 1/0 -> capped.
        assert vec["user_count_low"] == 0.0
        assert vec["r_user_first_on_low"] == RATIO_CAP

    def test_age_and_alive(self, pool):
        orders = [make_order("Deposit", 100.0, 10.0, ts=T0),
                  make_order("Buy", 1.0, 0.1, ts=T0 + 3 * SECONDS_PER_DAY)]
        vec = named(pool, orders, 90)
        assert vec["age_days"] == 4.0          # activity spans days 0..3
        assert vec["is_alive"] == 0.0          # silent for 87 of 90 days
        vec_short = named(pool, orders, 10)
        assert vec_short["age_days"] == 4.0
        assert vec_short["is_alive"] == 1.0    # last order within the horizon


class TestWindowSemantics:
    def _scenario_orders(self, seed=5):
        scenario = generate(ScenarioConfig(kind=ScenarioKind.SLID, seed=seed))
        return scenario.pool, scenario.orders

    def test_count_features_monotone_in_window(self):
        pool, orders = self._scenario_orders()
        previous = None
        for d in (7, 30, 60, 90, 120):
            vec = named(pool, orders, d)
            current = {name: vec[name] for name in COUNT_FEATURES}
            if previous is not None:
                for name in COUNT_FEATURES:
                    assert current[name] >= previous[name], name
            previous = current

    def test_prefix_consistency(self):
        pool, orders = self._scenario_orders(seed=9)
        d = 40
        cutoff = pool.created_time_pool + d * SECONDS_PER_DAY
        prefix = [o for o in orders if o.timestamp < cutoff]
        assert np.array_equal(window(pool, orders, d), window(pool, prefix, d))

    def test_determinism(self):
        pool, orders = self._scenario_orders(seed=4)
        assert np.array_equal(window(pool, orders, 57), window(pool, orders, 57))

    def test_sorted_input_required_not_reordered(self):
        """Extraction is a pure function of the sorted stream: feeding the
        same orders already sorted by the stable key gives identical output."""
        pool, orders = self._scenario_orders(seed=8)
        resorted = sorted(orders, key=lambda o: (o.timestamp, o.block, o.hash))
        assert np.array_equal(window(pool, orders, 57), window(pool, resorted, 57))


class TestOneReplayManyWindows:
    """One extract_with_report call over many windows equals one independent
    single-window replay per window."""

    # Unsorted, 7 twice, windows inside the first month (<= 30 days), 900
    # past the end of every history.
    D_LIST = (57, 7, 900, 30, 1, 7, 31, 29, 120, 3)

    @staticmethod
    def _pools():
        counts = {kind: 2 for kind in ScenarioKind}
        overrides = {
            ScenarioKind.SLID: {"slid_drain_count": 60, "lifetime_days": 90},
            ScenarioKind.SLID_SLOW: {"slid_drain_count": 12,
                                     "lifetime_days": 280},
        }
        for scenario in build_corpus(counts, seed=23, overrides=overrides):
            yield scenario.pool, scenario.orders
            # The same history deployed five days earlier: windows of up to
            # five days hold no orders.
            early = dataclasses.replace(
                scenario.pool,
                created_time_pool=scenario.pool.created_time_pool - 5 * SECONDS_PER_DAY,
                created_time_token=scenario.pool.created_time_token - 5 * SECONDS_PER_DAY)
            yield early, scenario.orders

    def test_matches_one_replay_per_window(self):
        empty_windows = 0
        for pool, orders in self._pools():
            windows = extract_with_report(pool, orders, self.D_LIST)
            assert len(windows) == len(self.D_LIST)
            for d, (values, report) in zip(self.D_LIST, windows):
                [(alone, alone_report)] = extract_with_report(pool, orders, (d,))
                assert values.shape == (57,)
                assert np.array_equal(values, alone), d
                assert report == alone_report, d
                end = pool.created_time_pool + d * SECONDS_PER_DAY
                prefix = [o for o in orders if o.timestamp < end]
                assert report == profit_report(pool, prefix), d
                if not prefix:
                    empty_windows += 1
                    assert np.all(values == 0.0)
        assert empty_windows > 0

    def test_count_features_monotone_across_windows(self):
        for pool, orders in self._pools():
            windows = extract_with_report(pool, orders, self.D_LIST)
            by_d = [dict(zip(FEATURE_NAMES, values)) for _, (values, _) in
                    sorted(zip(self.D_LIST, windows), key=lambda pair: pair[0])]
            for shorter, longer in zip(by_d, by_d[1:]):
                for name in COUNT_FEATURES:
                    assert longer[name] >= shorter[name], name

    def test_rejects_window_below_one_day(self, pool):
        with pytest.raises(ValueError):
            extract_with_report(pool, [], (7, 0))


class TestCsvRoundTrip:
    def test_write_read_matrix(self, tmp_path):
        """Rows are written by ascending address and read back as (X, y),
        every value exact."""
        scenario = generate(ScenarioConfig(kind=ScenarioKind.SLID, seed=3))
        X = np.stack([window(scenario.pool, scenario.orders, d) for d in (57, 30)])
        low, high = "0x" + "a" * 40, "0x" + "f" * 40
        path = tmp_path / "features.csv"
        write_features_csv([high, low], 57, [False, True], X, path)
        loaded, y = read_features_csv(path)
        assert loaded.shape == (2, 57)
        assert np.array_equal(loaded, X[::-1])
        assert y.tolist() == [1, 0]
        rows = [line.split(",")[:3] for line in path.read_text().splitlines()[1:]]
        assert rows == [[low, "57", "1"], [high, "57", "0"]]

    @pytest.mark.parametrize("column,value,message", [
        (2, "2", "label '2' is not 0 or 1"),
        (2, "true", "label 'true' is not 0 or 1"),
        (1, "30", "window_days '30' differs from the first row's 57"),
    ])
    def test_label_and_window_are_checked(self, tmp_path, column, value, message):
        """A label is 0 or 1, and every row has the first row's window."""
        path = tmp_path / "features.csv"
        write_features_csv(["0xa", "0xb"], 57, [False, True],
                           np.ones((2, FEATURE_COUNT)), path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = value
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError) as err:
            read_features_csv(path)
        assert err.value.lineno == 3
        assert message in str(err.value)
