"""Constant-product ledger: swap math, order replay, the reserve audit and the owner guarantee."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slidscan.ledger import (
    LedgerState,
    NegativePoolValue,
    NonMonotonicTime,
    PreconditionViolated,
    SwapOverflow,
    ZeroReserve,
    advance_state,
    audit_reserves,
    swap_amount_out,
    verify_owner_guarantee,
)

from conftest import OWNER, T0, USER, UnitShareOracle, make_order


class TestSwapQuote:
    """Constant-product fills from `swap_amount_out`."""

    def test_buy_paired_hundred_for_hundred(self):
        out, new_base, new_paired = swap_amount_out(100.0, 100.0, 10_000.0, 100.0)
        assert out == pytest.approx(50.0, rel=1e-12)
        assert new_paired == pytest.approx(50.0, rel=1e-12)
        assert new_base == pytest.approx(200.0, rel=1e-12)

    def test_sell_paired_inverts_previous_swap(self):
        out, new_paired, new_base = swap_amount_out(50.0, 200.0, 10_000.0, 50.0)
        assert out == pytest.approx(100.0, rel=1e-12)
        assert new_paired == pytest.approx(100.0, rel=1e-12)
        assert new_base == pytest.approx(100.0, rel=1e-12)

    def test_round_trip_exact_under_rational_arithmetic(self):
        start = (Fraction(977, 3), Fraction(1511, 7))
        paired, base = start
        k = paired * base
        bought, base, paired = swap_amount_out(base, paired, k, Fraction(355, 113))
        _, paired, base = swap_amount_out(paired, base, k, bought)
        assert (paired, base) == start
        assert paired * base == Fraction(977, 3) * Fraction(1511, 7)

    def test_zero_reserve_rejected(self):
        with pytest.raises(ZeroReserve):
            swap_amount_out(100.0, 0.0, 0.0, 1.0)

    def test_nonpositive_amount_rejected(self):
        with pytest.raises(ValueError):
            swap_amount_out(100.0, 100.0, 10_000.0, 0.0)

    def test_overflowing_product_rejected(self):
        with pytest.raises(SwapOverflow):
            swap_amount_out(1e308, 1e308, 1e308 * 1e308, 1e30)

    @given(st.integers(1, 10_000), st.integers(1, 10_000), st.integers(1, 10_000))
    def test_rational_product_is_exact(self, rp, rb, amt):
        k = Fraction(rp) * Fraction(rb)
        out, new_in, new_out = swap_amount_out(Fraction(rp), Fraction(rb), k, Fraction(amt))
        assert new_in * new_out == k
        assert out >= 0


class TestApplyOrder:
    """One order at a time through `advance_state`, and the reserve audit."""

    def test_deployment_deposit_gives_owner_full_share(self, pool):
        state = LedgerState()
        advance_state(state, T0, "Deposit", True, 19_000.0, 1.0)
        assert state.pool_value_usd == 19_000.0
        assert state.owner_share == 1.0

    def test_equal_user_deposit_halves_owner_share(self, pool):
        state = LedgerState()
        advance_state(state, T0, "Deposit", True, 100.0, 1.0)
        advance_state(state, T0 + 1, "Deposit", False, 100.0, 1.0)
        assert state.owner_share == pytest.approx(0.5, abs=1e-15)
        assert state.pool_value_usd == 200.0

    def test_owner_withdraw_to_zero_share_matches_unit_oracle(self, pool):
        # Expected value computed with the independent LP-unit oracle:
        # owner holds half the units of a $200 pool and withdraws $100,
        # burning exactly their units.
        oracle = UnitShareOracle()
        for cat, usd, owner in (("Deposit", 100.0, True), ("Deposit", 100.0, False),
                                ("Withdraw", 100.0, True)):
            oracle.apply(cat, usd, owner)
        assert oracle.share == 0.0

        state = LedgerState()
        advance_state(state, T0, "Deposit", True, 100.0, 1.0)
        advance_state(state, T0 + 1, "Deposit", False, 100.0, 1.0)
        advance_state(state, T0 + 2, "Withdraw", True, 100.0, 1.0)
        assert state.owner_share == pytest.approx(oracle.share, abs=1e-12)
        assert state.owner_share == pytest.approx(0.0, abs=1e-12)

    def test_swap_only_changes_value_not_share(self, pool):
        state = LedgerState()
        advance_state(state, T0, "Deposit", True, 100.0, 1.0)
        advance_state(state, T0 + 1, "Buy", True, 50.0, 1.0)
        assert state.pool_value_usd == 150.0
        assert state.owner_share == 1.0
        advance_state(state, T0 + 2, "Sell", False, 30.0, 1.0)
        assert state.pool_value_usd == 120.0
        assert state.owner_share == 1.0

    def test_non_monotonic_time_rejected(self):
        state = LedgerState()
        advance_state(state, 2_000_000_000, "Deposit", True, 100.0, 1.0)
        with pytest.raises(NonMonotonicTime):
            advance_state(state, 1_999_999_999, "Buy", True, 1.0, 1.0)

    def test_overdraining_flows_rejected(self):
        state = LedgerState()
        advance_state(state, T0, "Deposit", True, 100.0, 1.0)
        with pytest.raises(NegativePoolValue):
            advance_state(state, T0 + 1, "Withdraw", True, 150.0, 1.0)

    def test_full_drain_freezes_share(self):
        state = LedgerState()
        advance_state(state, T0, "Deposit", True, 100.0, 1.0)
        advance_state(state, T0 + 1, "Withdraw", True, 100.0, 1.0)
        assert state.pool_value_usd == 0.0
        assert state.owner_share == 1.0  # frozen at its prior value

    def test_recorded_balance_mismatch_raises_warning_counter(self):
        orders = [
            make_order("Deposit", 100.0, 100.0, x_paired=100.0, x_base=100.0),
            # Recorded balances disagree with reconstruction by >1e-6 relative.
            make_order("Buy", 10.0, 5.0, x_paired=90.0, x_base=111.0),
        ]
        reserve_paired, reserve_base, mismatches = audit_reserves(orders)
        assert mismatches == 1
        assert reserve_base == 111.0  # records are trusted


class TestReplayProperties:
    @given(st.lists(st.tuples(st.booleans(), st.floats(0.01, 50.0)),
                    min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_constant_product_conserved_over_swap_sequences(self, moves):
        rp, rb = 1000.0, 1000.0
        k = rp * rb
        for buy_paired, frac in moves:
            amount = (rb if buy_paired else rp) * frac / 100.0
            if buy_paired:
                _, rb, rp = swap_amount_out(rb, rp, k, amount)
            else:
                _, rp, rb = swap_amount_out(rp, rb, k, amount)
            assert abs(rp * rb - k) <= 1e-9 * k

    @given(st.lists(st.tuples(st.sampled_from(["Deposit", "Withdraw"]),
                              st.booleans(), st.floats(0.01, 1.0)),
                    min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_share_bounds_and_unit_oracle_equivalence(self, moves):
        """Incremental share updates match direct unit accounting and stay
        inside [0, 1]; the residual non-owner share closes the sum to 1."""
        state = LedgerState()
        oracle = UnitShareOracle()
        stakes = {True: 0.0, False: 0.0}
        advance_state(state, 1_900_000_000, "Deposit", True, 100.0, 1.0)
        oracle.apply("Deposit", 100.0, True)
        stakes[True] = 100.0
        ts = 1_900_000_001
        for category, is_owner, frac in moves:
            if category == "Withdraw":
                usd = stakes[is_owner] * frac * 0.99
                if usd <= 1e-9 or state.pool_value_usd <= 0:
                    continue
                stakes[is_owner] -= usd
            else:
                usd = 100.0 * frac
                stakes[is_owner] += usd
            advance_state(state, ts, category, is_owner, usd, 1.0)
            oracle.apply(category, usd, is_owner)
            ts += 1
            assert 0.0 <= state.owner_share <= 1.0
            assert state.owner_share == pytest.approx(oracle.share, abs=1e-9)

    def test_share_conservation_owner_plus_residual(self):
        """Tracking 'everyone else' through the same update closes to 1."""
        rng = np.random.default_rng(11)
        state = LedgerState()
        advance_state(state, 1_900_000_000, "Deposit", True, 100.0, 1.0)
        residual = 0.0
        stakes = {True: 100.0, False: 0.0}
        ts = 1_900_000_001
        for _ in range(500):
            is_owner = bool(rng.random() < 0.5)
            category = "Deposit" if rng.random() < 0.6 else "Withdraw"
            if category == "Withdraw":
                usd = stakes[is_owner] * float(rng.uniform(0.0, 0.9))
                if usd <= 1e-9:
                    continue
                stakes[is_owner] -= usd
            else:
                usd = float(rng.uniform(1.0, 150.0))
                stakes[is_owner] += usd
            prev = state.pool_value_usd
            advance_state(state, ts, category, is_owner, usd, 1.0)
            ts += 1
            new = state.pool_value_usd
            if new > 0:
                residual = residual * (prev / new)
                if not is_owner:
                    residual += (usd if category == "Deposit" else -usd) / new
            assert state.owner_share + residual == pytest.approx(1.0, abs=1e-9)

    def test_replay_is_deterministic_bit_identical(self, pool):
        orders = [make_order("Deposit", 1000.0, 100.0, ts=1_900_000_000)]
        rng = np.random.default_rng(3)
        ts = 1_900_000_001
        for _ in range(300):
            cat = ["Buy", "Sell", "Deposit", "Withdraw"][int(rng.integers(0, 4))]
            usd = float(rng.uniform(0.1, 20.0))
            orders.append(make_order(cat, usd, usd / 2,
                                     sender=USER if rng.random() < 0.5 else OWNER,
                                     ts=ts))
            ts += 1

        def replay():
            state = LedgerState()
            for order in orders:
                advance_state(state, order.timestamp, order.category,
                              order.sender == pool.owner_address, order.y_base,
                              order.price_base)
            return state

        first = replay()
        second = replay()
        assert first == second


class TestOwnerGuarantee:
    def test_no_investor_orders(self):
        scenario = [make_order("Deposit", 100.0, y_paired=100.0, ts=1_900_000_000)]
        assert verify_owner_guarantee(scenario)

    def test_single_round_trip_restores_base_reserve(self):
        # Investor buys 50 paired for 100 base (on 100/100), sells all back.
        scenario = [
            make_order("Deposit", 100.0, y_paired=100.0, ts=1_900_000_000),
            make_order("Buy", 100.0, y_paired=50.0, sender=USER, ts=1_900_000_001),
            make_order("Sell", 100.0, y_paired=50.0, sender=USER, ts=1_900_000_002),
        ]
        assert verify_owner_guarantee(scenario)
        assert verify_owner_guarantee(scenario, exact=True)

    def test_overselling_is_a_precondition_violation(self):
        scenario = [
            make_order("Deposit", 100.0, y_paired=100.0, ts=1_900_000_000),
            make_order("Sell", 1.0, y_paired=10.0, sender=USER, ts=1_900_000_001),
        ]
        with pytest.raises(PreconditionViolated):
            verify_owner_guarantee(scenario)

    def test_randomized_round_trips(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            scenario = [make_order("Deposit", 1000.0, y_paired=1000.0,
                                   ts=1_900_000_000)]
            rp, rb, k = 1000.0, 1000.0, 1_000_000.0
            holdings = []
            ts = 1_900_000_001
            for _ in range(int(rng.integers(1, 12))):
                amt = float(rng.uniform(1.0, 300.0))
                out, rb, rp = swap_amount_out(rb, rp, k, amt)
                scenario.append(make_order("Buy", amt, y_paired=out,
                                           sender=USER, ts=ts))
                holdings.append(out)
                ts += 1
            rng.shuffle(holdings)
            for held in holdings:
                got, rp, rb = swap_amount_out(rp, rb, k, held)
                scenario.append(make_order("Sell", got, y_paired=held,
                                           sender=USER, ts=ts))
                ts += 1
            assert verify_owner_guarantee(scenario)
