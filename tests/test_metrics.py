"""Profit accounting: realized/unrealized profit and impact series."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from slidscan.metrics import ProfitTracker, profit_report
from slidscan.synth import ScenarioConfig, ScenarioKind, generate, oracle_report

from conftest import OWNER, T0, USER, make_order, make_pool


def add(tracker, order):
    tracker.add(order.timestamp, order.category, order.sender,
                order.y_base, order.price_base, order.gas_fee_usd)


def replayed_to(pool, orders, at):
    """A tracker fed every order with timestamp <= at."""
    tracker = ProfitTracker(pool)
    for order in orders:
        if order.timestamp > at:
            break
        add(tracker, order)
    return tracker


class TestRealizedProfit:
    def test_deposit_only_is_pure_loss(self):
        report = profit_report(make_pool(),
                               [make_order("Deposit", 100.0, 10.0, gas=1.0)])
        assert report.realized_profit_usd == -101.0

    def test_mixed_flows_match_naive_summation(self):
        # A provider's deposit gives the owner's exits pool value to draw on;
        # orders by anyone but the owner never enter realized profit.
        funding = make_order("Deposit", 1000.0, 1.0, sender=USER, gas=9.0)
        orders = [
            make_order("Sell", 60.0, 1.0),
            make_order("Sell", 70.0, 1.0),
            make_order("Withdraw", 30.0, 1.0),
            make_order("Buy", 20.0, 1.0),
            make_order("Deposit", 100.0, 1.0, gas=5.0),
        ]
        # Independent summation oracle over the same list.
        returned = sum(o.y_base * o.price_base for o in orders
                       if o.category.value in ("Sell", "Withdraw"))
        invested = sum(o.y_base * o.price_base for o in orders
                       if o.category.value in ("Buy", "Deposit"))
        gas = sum(o.gas_fee_usd for o in orders)
        assert returned - invested - gas == 35.0

        report = profit_report(make_pool(), [funding] + orders)
        assert report.realized_profit_usd == 35.0
        assert report.returned_usd == 160.0
        assert report.invested_usd == 120.0
        assert report.gas_usd == 5.0
        # identity holds exactly
        assert report.realized_profit_usd == (
            report.returned_usd - report.invested_usd - report.gas_usd)

    def test_sell_buy_volume_gap_contribution(self):
        # Owner sells worth $1.4M against buys worth $783K: the swap legs
        # alone contribute +$617K to the realized sum.
        funding = make_order("Deposit", 2_000_000.0, 1.0, sender=USER)
        sells = [make_order("Sell", 700_000.0, 1.0) for _ in range(2)]
        buys = [make_order("Buy", 261_000.0, 1.0) for _ in range(3)]
        report = profit_report(make_pool(), [funding] + sells + buys)
        assert report.returned_usd == pytest.approx(1_400_000.0)
        assert report.invested_usd == pytest.approx(783_000.0)
        assert report.realized_profit_usd == pytest.approx(617_000.0)

    def test_empty_input_yields_zero_report(self):
        report = profit_report(make_pool(), [])
        assert report.realized_profit_usd == 0.0
        assert report.profit_taking_count == 0


class TestUnrealizedProfit:
    def test_product_definition(self):
        orders = [make_order("Deposit", 100.0, 1.0),
                  make_order("Deposit", 100.0, 1.0, sender=USER)]
        report = profit_report(make_pool(), orders)
        # pool value 200 times owner share 0.5
        assert report.unrealized_current_usd == 100.0

    def test_drained_pool_is_zero(self):
        orders = [make_order("Deposit", 100.0, 1.0),
                  make_order("Withdraw", 100.0, 1.0)]
        report = profit_report(make_pool(), orders)
        assert report.unrealized_current_usd == 0.0

    def test_slid_day30_matches_independent_oracle(self):
        scenario = generate(ScenarioConfig(kind=ScenarioKind.SLID, seed=13))
        pool = scenario.pool
        at = pool.created_time_pool + 30 * 86_400
        mine = replayed_to(pool, scenario.orders, at).report().unrealized_current_usd
        reference = oracle_report(scenario.orders, pool).unrealized_first_month_usd
        assert mine == pytest.approx(reference, rel=1e-6)
        assert mine > 0

    def test_mid_stream_report_leaves_tracker_unchanged(self):
        """A report taken before day 30 stands in the latest state for the
        first-month figure without freezing it: the final report still
        equals a fresh profit_report."""
        scenario = generate(ScenarioConfig(kind=ScenarioKind.SLID, seed=13))
        pool = scenario.pool
        day7 = pool.created_time_pool + 7 * 86_400
        tracker = ProfitTracker(pool)
        early = None
        for order in scenario.orders:
            if early is None and order.timestamp >= day7:
                early = tracker.report()
                assert early.unrealized_first_month_usd == \
                    early.unrealized_current_usd
            add(tracker, order)
        final = tracker.report()
        assert early is not None
        assert final == profit_report(pool, scenario.orders)
        assert final.unrealized_first_month_usd != early.unrealized_first_month_usd


class TestImpactSeries:
    def test_basic_ratio(self):
        orders = [
            make_order("Deposit", 1000.0, 100.0),
            make_order("Sell", 50.0, 5.0),
        ]
        report = profit_report(make_pool(), orders)
        assert (report.profit_taking_count, report.undefined_impacts) == (1, 0)
        # 50 USD out of the 1000 USD the pool held just before the sell.
        assert report.min_impact == report.max_impact == report.mean_impact == 0.05

    def test_full_drain_withdraw_has_impact_one(self):
        orders = [
            make_order("Deposit", 1000.0, 100.0),
            make_order("Withdraw", 1000.0, 100.0),
        ]
        report = profit_report(make_pool(), orders)
        assert report.profit_taking_count == 1
        assert report.max_impact == pytest.approx(1.0)

    def test_rug_pull_scenario_has_near_total_impact(self):
        scenario = generate(ScenarioConfig(kind=ScenarioKind.RUGPULL, seed=2))
        report = profit_report(scenario.pool, scenario.orders)
        assert report.max_impact >= 0.95

    def test_zero_pool_before_is_undefined_and_excluded_from_aggregates(self):
        orders = [
            make_order("Sell", 1e-7, 1.0),          # dust sell, pool value still zero
            make_order("Deposit", 1000.0, 100.0),
            make_order("Sell", 100.0, 5.0),
        ]
        pool = make_pool()
        report = profit_report(pool, orders)
        assert report.profit_taking_count == 2
        assert report.undefined_impacts == 1
        assert report.max_impact == pytest.approx(0.1)
        assert report.min_impact == pytest.approx(0.1)
        assert report.mean_impact == pytest.approx(0.1)

    def test_mean_is_the_in_order_sum_over_the_count(self):
        """min, max and mean of the finite impacts, the mean a plain
        left-to-right float sum from 0.0 over the count."""
        orders = [make_order("Deposit", 1000.0, 100.0)]
        orders += [make_order("Sell", usd, 1.0) for usd in (30.0, 70.0, 9.0, 45.0)]
        report = profit_report(make_pool(), orders)
        impacts, value, total = [], 1000.0, 0.0
        for usd in (30.0, 70.0, 9.0, 45.0):
            impacts.append(usd / value)
            total += usd / value
            value -= usd
        assert report.profit_taking_count == 4
        assert report.min_impact == min(impacts)
        assert report.max_impact == max(impacts)
        assert report.mean_impact == total / 4

    def test_tracker_memory_does_not_grow_with_owner_sells(self):
        """The tracker keeps running figures, not one record per owner sell:
        20k sells leave its memory where it was (O(pools) streaming)."""
        pool = make_pool()
        tracker = ProfitTracker(pool)
        tracker.add(T0, "Deposit", OWNER, 1e9, 1.0)
        tracker.report()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(20_000):
                tracker.add(T0 + 1 + i, "Sell", OWNER, 1.0, 1.0, 0.5)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        report = tracker.report()
        assert (report.profit_taking_count, report.owner_order_count) == (20_000, 20_001)
        assert grown < 64 * 1024, f"tracker grew {grown} bytes over 20k owner sells"

    def test_user_exits_are_not_profit_taking(self):
        orders = [
            make_order("Deposit", 1000.0, 100.0),
            make_order("Sell", 50.0, 5.0, sender=USER),
            make_order("Withdraw", 30.0, 5.0, sender=USER),
        ]
        report = profit_report(make_pool(), orders)
        assert (report.profit_taking_count, report.undefined_impacts) == (0, 0)
        assert report.max_impact == report.min_impact == report.mean_impact == 0.0


class TestProperties:
    @given(st.lists(
        st.tuples(st.sampled_from(["Buy", "Deposit"]), st.floats(0.01, 1e6),
                  st.floats(0.0, 50.0)),
        min_size=0, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_sign_coherence_without_exits(self, moves):
        """No owner sell/withdraw means realized profit is exactly
        -(invested + gas), hence never positive."""
        orders = [make_order(cat, usd, 1.0, gas=gas) for cat, usd, gas in moves]
        report = profit_report(make_pool(), orders)
        assert report.realized_profit_usd <= 0.0
        assert report.realized_profit_usd == pytest.approx(
            -(report.invested_usd + report.gas_usd))

    def test_impacts_within_unit_interval_on_generated_data(self):
        for seed in range(5):
            for kind in (ScenarioKind.SLID, ScenarioKind.RUGPULL,
                         ScenarioKind.HONEYPOT):
                scenario = generate(ScenarioConfig(kind=kind, seed=seed))
                report = profit_report(scenario.pool, scenario.orders)
                assert report.undefined_impacts == 0
                assert 0.0 <= report.min_impact <= report.max_impact <= 1.0

    def test_first_month_snapshot_consistency(self):
        """Month-1 unrealized equals value*share of the state replayed to
        the 30-day mark."""
        scenario = generate(ScenarioConfig(kind=ScenarioKind.SLID, seed=21))
        pool = scenario.pool
        report = profit_report(pool, scenario.orders)
        state = replayed_to(pool, scenario.orders,
                            pool.created_time_pool + 30 * 86_400).state
        assert report.unrealized_first_month_usd == pytest.approx(
            state.pool_value_usd * state.owner_share, rel=1e-12)
