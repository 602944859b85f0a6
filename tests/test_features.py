"""Windowed feature extraction: canonical names, counts, ratios, monotonicity."""

import dataclasses

import numpy as np
import pytest

from slidscan.features import (
    FEATURE_COUNT,
    FEATURE_NAMES,
    LPF_NAMES,
    OAF_NAMES,
    PF_NAMES,
    RATIO_CAP,
    UAF_NAMES,
    extract_features,
    extract_with_report,
    feature_matrix,
    read_features_csv,
    write_features_csv,
)
from slidscan.ledger import SECONDS_PER_DAY
from slidscan.metrics import profit_report
from slidscan.synth import ScenarioConfig, ScenarioKind, build_corpus, generate

from conftest import T0, USER, make_order

# The count features docs/feature_schema.md guarantees never decrease as d grows.
COUNT_FEATURES = list(OAF_NAMES) + [
    "user_dep", "user_with", "user_buy", "user_sell", "user_count",
    "owner_taking_count"]


def is_missing(vec, name):
    return bool(vec.missing[FEATURE_NAMES.index(name)])


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

    def test_vector_shape_and_names_stable(self, pool):
        orders = [make_order("Deposit", 100.0, 10.0, ts=T0)]
        vec = extract_features(pool, orders, 7)
        assert vec.values.shape == (57,)
        assert vec.missing.shape == (57,)
        assert vec["owner_dep"] == 1.0


class TestExtraction:
    def test_empty_history_yields_zero_vector_with_missing_flags(self, pool):
        vec = extract_features(pool, [], 30)
        assert np.all(vec.values == 0.0)
        assert np.all(vec.missing)

    def test_zero_user_window_has_zero_uaf_with_missing_ratios(self, pool):
        orders = [make_order("Deposit", 100.0, 10.0, ts=T0),
                  make_order("Buy", 5.0, 1.0, ts=T0 + 60)]
        vec = extract_features(pool, orders, 30)
        for name in ("user_dep", "user_with", "user_buy", "user_sell",
                     "user_count", "user_count_first", "user_count_high"):
            assert vec[name] == 0.0
        assert is_missing(vec, "r_user_first_on_high")
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
        vec = extract_features(pool, orders, 70)
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
        vec = extract_features(pool, orders, 10)
        assert vec["user_count_first"] == 3.0
        assert vec["user_count_high"] == 3.0
        assert vec["r_user_first_on_high"] == 1.0

    def test_ratio_conventions(self, pool):
        orders = [make_order("Deposit", 100.0, 10.0, ts=T0),
                  make_order("Sell", 10.0, 1.0, ts=T0 + 60)]
        vec = extract_features(pool, orders, 5)
        # owner_realized > 0 but owner never bought beyond the deposit:
        # r_owner_unrealized_on_realized is finite, r_user ratios are 0/0.
        assert vec["r_user_first_on_high"] == 0.0
        assert is_missing(vec, "r_user_first_on_high")

    def test_capped_ratio_on_zero_denominator(self, pool):
        # vol_first > 0, vol on the last (different) day is 0 only if no
        # orders... construct x/0 via impact ratios instead: one event makes
        # min == max == avg, so min/max is 1; use user counts for x/0.
        orders = [make_order("Deposit", 100.0, 10.0, ts=T0),
                  make_order("Buy", 1.0, 0.1, sender=USER, ts=T0 + 50),
                  make_order("Buy", 1.0, 0.1, ts=T0 + SECONDS_PER_DAY + 50)]
        vec = extract_features(pool, orders, 10)
        # last active day has only an owner order: user_count_last = 0,
        # user_count_low = 0 -> first/low is 1/0 -> capped and flagged.
        assert vec["user_count_low"] == 0.0
        assert vec["r_user_first_on_low"] == RATIO_CAP
        assert is_missing(vec, "r_user_first_on_low")

    def test_age_and_alive(self, pool):
        orders = [make_order("Deposit", 100.0, 10.0, ts=T0),
                  make_order("Buy", 1.0, 0.1, ts=T0 + 3 * SECONDS_PER_DAY)]
        vec = extract_features(pool, orders, 90)
        assert vec["age_days"] == 4.0          # activity spans days 0..3
        assert vec["is_alive"] == 0.0          # silent for 87 of 90 days
        vec_short = extract_features(pool, orders, 10)
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
            vec = extract_features(pool, orders, d)
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
        full = extract_features(pool, orders, d)
        pref = extract_features(pool, prefix, d)
        assert np.array_equal(full.values, pref.values)
        assert np.array_equal(full.missing, pref.missing)

    def test_determinism(self):
        pool, orders = self._scenario_orders(seed=4)
        a = extract_features(pool, orders, 57)
        b = extract_features(pool, orders, 57)
        assert np.array_equal(a.values, b.values)

    def test_sorted_input_required_not_reordered(self):
        """Extraction is a pure function of the sorted stream: feeding the
        same orders already sorted by the stable key gives identical output."""
        pool, orders = self._scenario_orders(seed=8)
        resorted = sorted(orders, key=lambda o: (o.timestamp, o.block, o.hash))
        a = extract_features(pool, orders, 57)
        b = extract_features(pool, resorted, 57)
        assert np.array_equal(a.values, b.values)


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
            windows = extract_with_report(pool, orders, self.D_LIST, label=True)
            assert len(windows) == len(self.D_LIST)
            for d, (vector, report) in zip(self.D_LIST, windows):
                [(alone, alone_report)] = extract_with_report(
                    pool, orders, (d,), label=True)
                assert vector.window_days == d
                assert vector.label is True
                assert np.array_equal(vector.values, alone.values), d
                assert np.array_equal(vector.missing, alone.missing), d
                assert report == alone_report, d
                end = pool.created_time_pool + d * SECONDS_PER_DAY
                prefix = [o for o in orders if o.timestamp < end]
                assert report == profit_report(pool, prefix), d
                if not prefix:
                    empty_windows += 1
                    assert np.all(vector.missing)
        assert empty_windows > 0

    def test_count_features_monotone_across_windows(self):
        for pool, orders in self._pools():
            windows = extract_with_report(pool, orders, self.D_LIST)
            by_d = sorted((vector for vector, _ in windows),
                          key=lambda vector: vector.window_days)
            for shorter, longer in zip(by_d, by_d[1:]):
                for name in COUNT_FEATURES:
                    assert longer[name] >= shorter[name], name

    def test_rejects_window_below_one_day(self, pool):
        with pytest.raises(ValueError):
            extract_with_report(pool, [], (7, 0))


class TestCsvRoundTrip:
    def test_write_read_matrix(self, tmp_path, pool):
        scenario = generate(ScenarioConfig(kind=ScenarioKind.SLID, seed=3))
        vec = extract_features(scenario.pool, scenario.orders, 57, label=True)
        other = extract_features(scenario.pool, scenario.orders, 30, label=False)
        other.pool_address = "0x" + "f" * 40
        path = tmp_path / "features.csv"
        write_features_csv([vec, other], path)
        loaded = read_features_csv(path)
        assert len(loaded) == 2
        by_addr = {v.pool_address: v for v in loaded}
        reread = by_addr[vec.pool_address]
        assert np.array_equal(reread.values, vec.values)
        assert reread.label is True
        assert reread.window_days == 57

        X, y = feature_matrix(loaded)
        assert X.shape == (2, 57)
        assert set(y.tolist()) == {0, 1}
