"""Profit accounting: realized/unrealized profit and impact series."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from slidscan.metrics import ProfitTracker, profit_report
from slidscan.synth import ScenarioConfig, ScenarioKind, generate, oracle_report

from conftest import OWNER, USER, make_order, make_pool


def replayed_to(pool, orders, at):
    """A tracker fed every order with timestamp <= at."""
    tracker = ProfitTracker(pool)
    for order in orders:
        if order.timestamp > at:
            break
        tracker.add_order(order)
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
            tracker.add_order(order)
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
        events = profit_report(make_pool(), orders).profit_taking
        assert len(events) == 1
        assert events[0].impact == pytest.approx(0.05)
        assert events[0].pool_value_before_usd == 1000.0

    def test_full_drain_withdraw_has_impact_one(self):
        orders = [
            make_order("Deposit", 1000.0, 100.0),
            make_order("Withdraw", 1000.0, 100.0),
        ]
        events = profit_report(make_pool(), orders).profit_taking
        assert events[0].impact == pytest.approx(1.0)

    def test_rug_pull_scenario_has_near_total_impact(self):
        scenario = generate(ScenarioConfig(kind=ScenarioKind.RUGPULL, seed=2))
        report = profit_report(scenario.pool, scenario.orders)
        assert report.max_impact >= 0.95

    def test_zero_pool_before_yields_inf_sentinel_excluded_from_aggregates(self):
        orders = [
            make_order("Sell", 1e-7, 1.0),          # dust sell, pool value still zero
            make_order("Deposit", 1000.0, 100.0),
            make_order("Sell", 100.0, 5.0),
        ]
        pool = make_pool()
        report = profit_report(pool, orders)
        assert report.undefined_impacts == 1
        assert report.max_impact == pytest.approx(0.1)
        assert report.min_impact == pytest.approx(0.1)
        infinite = [e for e in report.profit_taking if math.isinf(e.impact)]
        assert len(infinite) == 1

    def test_user_exits_are_not_profit_taking(self):
        orders = [
            make_order("Deposit", 1000.0, 100.0),
            make_order("Sell", 50.0, 5.0, sender=USER),
            make_order("Withdraw", 30.0, 5.0, sender=USER),
        ]
        assert profit_report(make_pool(), orders).profit_taking == []


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
                for event in report.profit_taking:
                    assert 0.0 <= event.impact <= 1.0

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
