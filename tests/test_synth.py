"""Scenario generator: label fidelity, reproducibility, and the oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slidscan import synth
from slidscan.ledger import SECONDS_PER_DAY, Category, audit_reserves
from slidscan.metrics import profit_report
from slidscan.synth import (
    InfeasibleConfig,
    ScenarioConfig,
    ScenarioKind,
    build_corpus,
    corpus_spec_from_options,
    generate,
    oracle_report,
    plan_corpus,
    scenario_pool_address,
)
from slidscan.validators import DEFAULT_CONFIG, Label, classify_pool


def classify_scenario(scenario, cfg=DEFAULT_CONFIG, window_days=None):
    pool = scenario.pool
    orders = scenario.orders
    if window_days is not None:
        cutoff = pool.created_time_pool + window_days * SECONDS_PER_DAY
        orders = [o for o in orders if o.timestamp < cutoff]
    report = profit_report(pool, orders)
    return classify_pool(pool, scenario.profile, report, cfg), report


class TestLabelFidelity:
    @pytest.mark.parametrize("kind,expected", [
        (ScenarioKind.LEGITIMATE, Label.LEGITIMATE),
        (ScenarioKind.RUGPULL, Label.RUGPULL),
        (ScenarioKind.HONEYPOT, Label.HONEYPOT),
        (ScenarioKind.SLID, Label.SLID),
    ])
    def test_canonical_kinds_recovered(self, kind, expected):
        for seed in range(6):
            scenario = generate(ScenarioConfig(kind=kind, seed=seed))
            verdict, _ = classify_scenario(scenario)
            assert verdict.label == expected, f"{kind} seed {seed}"

    def test_slid_construction_guarantees(self):
        scenario = generate(ScenarioConfig(kind=ScenarioKind.SLID, seed=11))
        assert not scenario.pool.lpt_burned
        _, report = classify_scenario(scenario)
        assert report.realized_profit_usd > 0
        assert report.unrealized_first_month_usd > 0
        assert report.profit_taking_count == 423
        lo, hi = 0.0739, 0.4293
        assert report.undefined_impacts == 0
        assert lo * 0.99 <= report.min_impact <= report.max_impact <= hi * 1.01

    def test_rugpull_impact_at_least_threshold(self):
        for seed in range(4):
            scenario = generate(ScenarioConfig(kind=ScenarioKind.RUGPULL,
                                               seed=seed, rug_impact=0.99))
            _, report = classify_scenario(scenario)
            assert report.max_impact >= 0.95

    def test_realized_profit_multiple_near_target(self):
        multiples = []
        for seed in range(5):
            scenario = generate(ScenarioConfig(kind=ScenarioKind.SLID, seed=seed))
            _, report = classify_scenario(scenario)
            multiples.append(report.realized_profit_usd / report.invested_usd)
        mean = sum(multiples) / len(multiples)
        assert mean == pytest.approx(10.3, rel=0.25)

    def test_first_month_residual_near_target(self):
        scenario = generate(ScenarioConfig(kind=ScenarioKind.SLID, seed=2))
        _, report = classify_scenario(scenario)
        assert report.unrealized_first_month_usd == pytest.approx(
            1.56 * 19_000.0, rel=0.15)


class TestEvasionRealism:
    def test_slow_scenarios_invisible_in_short_windows(self):
        for seed in (0, 5):
            scenario = generate(ScenarioConfig(
                kind=ScenarioKind.SLID_SLOW, seed=seed, lifetime_days=300,
                slid_drain_count=20))
            for d in (30, 57):
                verdict, _ = classify_scenario(scenario, window_days=d)
                assert verdict.label != Label.SLID
            verdict, _ = classify_scenario(scenario)
            assert verdict.label == Label.SLID

    def test_multi_address_drains_not_attributed_to_owner(self):
        scenario = generate(ScenarioConfig(kind=ScenarioKind.SLID_MULTI_ADDRESS,
                                           seed=1))
        verdict, report = classify_scenario(scenario)
        assert verdict.label != Label.SLID
        assert report.profit_taking_count == 0
        # The drains are sold by the linked addresses, which never buy.
        buyers = {o.sender for o in scenario.orders if o.category == Category.BUY}
        linked = {o.sender for o in scenario.orders if o.category == Category.SELL} - buyers
        assert len(linked) == synth._MULTI_ADDRESS_COUNT
        assert scenario.pool.owner_address not in linked


class TestReproducibility:
    def test_same_seed_bit_identical_streams(self):
        a = generate(ScenarioConfig(kind=ScenarioKind.SLID, seed=99))
        b = generate(ScenarioConfig(kind=ScenarioKind.SLID, seed=99))
        assert a.pool == b.pool
        assert a.orders == b.orders
        assert a.profile == b.profile

    def test_different_seeds_differ(self):
        a = generate(ScenarioConfig(kind=ScenarioKind.SLID, seed=1))
        b = generate(ScenarioConfig(kind=ScenarioKind.SLID, seed=2))
        assert a.pool.pool_address != b.pool.pool_address

    def test_plan_matches_generation(self):
        counts = {ScenarioKind.LEGITIMATE: 3, ScenarioKind.RUGPULL: 2}
        plans = plan_corpus(counts, seed=5)
        addresses = [scenario_pool_address(p) for p in plans]
        generated = [s.pool.pool_address for s in build_corpus(counts, seed=5)]
        assert addresses == generated

    def test_sorted_corpus_is_address_ordered(self):
        counts = {ScenarioKind.LEGITIMATE: 4, ScenarioKind.SLID: 2}
        overrides = {ScenarioKind.SLID: {"slid_drain_count": 20}}
        addresses = [s.pool.pool_address
                     for s in build_corpus(counts, seed=3, overrides=overrides,
                                           sort_by_address=True)]
        assert addresses == sorted(addresses)


class TestDrawEquivalence:
    """The generator draws a scenario's addresses in one batched call, and a
    busy day's intra-day seconds in another, and computes uniform draws from
    `rng.random()`. Each rests on a numpy fact checked here on the installed
    numpy, so a release that breaks one fails these tests instead of
    changing every corpus."""

    @given(seed=st.integers(min_value=0, max_value=2**64 - 1),
           low=st.integers(min_value=-2**40, max_value=2**40),
           span=st.one_of(st.integers(min_value=1, max_value=2**32 + 2),
                          st.integers(min_value=1, max_value=2**50)),
           n=st.integers(min_value=0, max_value=40))
    @example(seed=1, low=60, span=SECONDS_PER_DAY - 180, n=5)
    @settings(max_examples=200, deadline=None)
    def test_batched_integers_equal_scalar_draws(self, seed, low, span, n):
        scalar, batched = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [int(scalar.integers(low, low + span)) for _ in range(n)]
        assert batched.integers(low, low + span, size=n).tolist() == expected
        assert batched.random() == scalar.random()

    @given(seed=st.integers(min_value=0, max_value=2**64 - 1),
           low=st.floats(min_value=-1e9, max_value=1e9),
           width=st.floats(min_value=1e-9, max_value=1e9))
    @settings(max_examples=200, deadline=None)
    def test_uniform_is_low_plus_width_times_random(self, seed, low, width):
        high = low + width
        drawn, computed = np.random.default_rng(seed), np.random.default_rng(seed)
        assert float(drawn.uniform(low, high)) == synth._uniform(computed, low, high)
        assert computed.random() == drawn.random()

    @given(seed=st.integers(min_value=0, max_value=2**64 - 1),
           n=st.integers(min_value=1, max_value=70))
    @settings(max_examples=100, deadline=None)
    def test_batched_addresses_equal_scalar_draws(self, seed, n):
        scalar, batched = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = ["0x" + scalar.bytes(20).hex() for _ in range(n)]
        assert synth._addresses(batched, n) == expected
        assert batched.random() == scalar.random()

    @given(seed=st.integers(min_value=0, max_value=2**64 - 1),
           n=st.integers(min_value=0, max_value=12))
    @settings(max_examples=50, deadline=None)
    def test_intraday_seconds_equal_scalar_draws(self, seed, n):
        scalar, helper = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [int(scalar.integers(60, SECONDS_PER_DAY - 120)) for _ in range(n)]
        assert synth._intraday_seconds(helper, n) == expected
        assert helper.random() == scalar.random()


class TestRecordedBalances:
    def test_orders_carry_model_consistent_balances(self):
        scenario = generate(ScenarioConfig(kind=ScenarioKind.SLID, seed=8))
        reserve_paired, reserve_base, mismatches = audit_reserves(scenario.orders)
        assert mismatches == 0
        last = scenario.orders[-1]
        assert reserve_paired == last.x_paired
        assert reserve_base == last.x_base

    def test_timestamps_strictly_increasing(self):
        scenario = generate(ScenarioConfig(kind=ScenarioKind.HONEYPOT, seed=3))
        stamps = [o.timestamp for o in scenario.orders]
        assert all(b > a for a, b in zip(stamps, stamps[1:]))


class TestOracleDifferential:
    def test_oracle_matches_metrics_on_mixed_scenarios(self):
        kinds = list(ScenarioKind)
        for seed in range(12):
            kind = kinds[seed % len(kinds)]
            kwargs = {"lifetime_days": 40, "investor_count": 15,
                      "slid_drain_count": 25, "investor_arrival": 2.0}
            if kind == ScenarioKind.SLID_SLOW:
                kwargs.update(lifetime_days=260, slow_start_day=200)
            scenario = generate(ScenarioConfig(kind=kind, seed=seed, **kwargs))
            mine = profit_report(scenario.pool, scenario.orders)
            reference = oracle_report(scenario.orders, scenario.pool)
            for field in ("realized_profit_usd", "invested_usd", "returned_usd",
                          "gas_usd", "unrealized_first_month_usd",
                          "unrealized_current_usd", "max_impact", "min_impact",
                          "mean_impact"):
                a, b = getattr(mine, field), getattr(reference, field)
                assert a == pytest.approx(b, rel=1e-6, abs=1e-9), (kind, seed, field)
            assert mine.profit_taking_count == reference.profit_taking_count
            assert mine.undefined_impacts == reference.undefined_impacts
            assert mine.owner_order_count == reference.owner_order_count


class TestConfigValidation:
    def test_rug_impact_below_threshold_rejected(self):
        with pytest.raises(InfeasibleConfig):
            ScenarioConfig(kind=ScenarioKind.RUGPULL, rug_impact=0.5)

    @pytest.mark.parametrize("impact", [1.0 + 1e-9, 5.0, float("nan")])
    def test_rug_impact_above_one_rejected(self, impact):
        with pytest.raises(InfeasibleConfig, match=f"rug_impact .* got {impact!r}"):
            ScenarioConfig(kind=ScenarioKind.RUGPULL, rug_impact=impact)

    @pytest.mark.parametrize("days", [0, 3651])
    def test_lifetime_bounded(self, days):
        with pytest.raises(InfeasibleConfig, match=f"lifetime_days .* got {days}"):
            ScenarioConfig(kind=ScenarioKind.LEGITIMATE, lifetime_days=days)

    def test_bounds_accepted(self):
        ScenarioConfig(kind=ScenarioKind.RUGPULL, rug_impact=1.0, lifetime_days=3650)
        ScenarioConfig(kind=ScenarioKind.LEGITIMATE, investor_arrival=1000.0,
                       lifetime_days=199)

    @pytest.mark.parametrize("field,value,bounds", [
        ("investor_count", 0, "[1, 100000]"),
        ("investor_count", 100_001, "[1, 100000]"),
        ("investor_count", 1_000_000_000, "[1, 100000]"),
        ("investor_arrival", -1.0, "[0.0, 1000.0]"),
        ("investor_arrival", 1000.5, "[0.0, 1000.0]"),
        ("investor_arrival", float("nan"), "[0.0, 1000.0]"),
        ("investor_arrival", float("inf"), "[0.0, 1000.0]"),
        ("slid_drain_count", 0, "[1, 100000]"),
        ("slid_drain_count", 100_000_000, "[1, 100000]"),
        ("rug_drain_day", -3, "[0, 3650]"),
        ("rug_drain_day", 3651, "[0, 3650]"),
        ("slow_start_day", -5, "[0, 3650]"),
        ("slow_start_day", 3651, "[0, 3650]"),
        ("early_sell_count", -2, "[0, 100000]"),
        ("early_sell_count", 100_001, "[0, 100000]"),
    ])
    def test_field_outside_its_bounds_rejected(self, field, value, bounds):
        """A numeric field outside its [low, high] bound is one
        InfeasibleConfig naming the field, the bounds and the value, before
        any cross-field check."""
        with pytest.raises(InfeasibleConfig) as err:
            ScenarioConfig(kind=ScenarioKind.SLID_SLOW, lifetime_days=300, **{field: value})
        assert str(err.value) == f"{field} must be in {bounds}, got {value!r}"

    @pytest.mark.parametrize("field,low,high", [
        ("investor_count", 1, 100_000), ("investor_arrival", 0.0, 1000.0),
        ("slid_drain_count", 1, 100_000), ("rug_drain_day", 0, 3650),
        ("slow_start_day", 0, 3650), ("early_sell_count", 0, 100_000),
    ])
    def test_field_bounds_are_inclusive(self, field, low, high):
        for value in (low, high):
            ScenarioConfig(kind=ScenarioKind.LEGITIMATE, **{field: value})

    @pytest.mark.parametrize("arrival,days", [(1000.0, 3650), (1000.0, 200), (55.0, 3650)])
    def test_expected_buys_bounded(self, arrival, days):
        """Each field inside its bounds, but investor_arrival * (lifetime_days
        + 1) investor buys expected of one pool is more than generate runs."""
        with pytest.raises(InfeasibleConfig) as err:
            ScenarioConfig(kind=ScenarioKind.LEGITIMATE, investor_arrival=arrival,
                           lifetime_days=days)
        assert str(err.value) == ("investor_arrival * (lifetime_days + 1) must be in "
                                  f"[0, 200000], got {arrival * (days + 1)!r}")

    def test_impact_range_must_stay_below_rug_territory(self):
        with pytest.raises(InfeasibleConfig):
            ScenarioConfig(kind=ScenarioKind.SLID, slid_impact_range=(0.1, 0.96))

    def test_slow_needs_room_after_start_day(self):
        with pytest.raises(InfeasibleConfig):
            ScenarioConfig(kind=ScenarioKind.SLID_SLOW, lifetime_days=100,
                           slow_start_day=200)

    def test_slow_early_sells_bounded(self):
        with pytest.raises(InfeasibleConfig):
            ScenarioConfig(kind=ScenarioKind.SLID_SLOW, lifetime_days=300,
                           early_sell_count=5)

    def test_rug_day_within_lifetime(self):
        with pytest.raises(InfeasibleConfig):
            ScenarioConfig(kind=ScenarioKind.RUGPULL, rug_drain_day=10,
                           lifetime_days=5)


class TestCorpusSpec:
    def test_options_parsed(self):
        options = {
            "seed": "9",
            "legitimate.count": "5",
            "legitimate.lifetime_days": "60",
            "slid.count": "3",
            "slid.slid_impact_range": "0.08,0.40",
            "slid.survive_month_fraction": "0.7",
            "slid.short_lifetime_days": "12",
        }
        counts, seed, overrides, survival = corpus_spec_from_options(options)
        assert seed == 9
        assert counts[ScenarioKind.LEGITIMATE] == 5
        assert overrides[ScenarioKind.LEGITIMATE]["lifetime_days"] == 60
        assert overrides[ScenarioKind.SLID]["slid_impact_range"] == (0.08, 0.40)
        assert survival == {ScenarioKind.SLID: (0.7, 12)}
        plans = plan_corpus(counts, seed, overrides, survival)
        lifetimes = {kind: [p.lifetime_days for p in plans if p.kind == kind]
                     for kind in counts}
        # round(0.7 * 3) = 2 SLID pools keep the configured lifetime.
        assert lifetimes == {ScenarioKind.LEGITIMATE: [60] * 5,
                             ScenarioKind.SLID: [120, 120, 12]}

    @pytest.mark.parametrize("key,raw", [
        ("seed", "-1"),
        ("slid.survive_month_fraction", "nan"),
        ("slid.survive_month_fraction", "inf"),
        ("slid.survive_month_fraction", "-inf"),
        ("slid.survive_month_fraction", "-0.5"),
        ("slid.survive_month_fraction", "1.5"),
        ("slid.short_lifetime_days", "0"),
        ("slid.short_lifetime_days", "3651"),
    ])
    def test_out_of_range_values_rejected(self, key, raw):
        """A negative master seed, a survival fraction that is not a finite
        number in [0, 1], or a short lifetime outside [1, 3650] days, is a
        config error naming the key and the value, raised while the options
        are parsed."""
        from slidscan.config import ConfigError
        with pytest.raises(ConfigError) as err:
            corpus_spec_from_options({"slid.count": "3", key: raw})
        assert str(err.value) == f"bad value for {key}: {raw!r}"

    @pytest.mark.parametrize("raw", ["0", "1", "0.25"])
    def test_survival_fraction_bounds_accepted(self, raw):
        """Both ends of [0, 1] are fractions; the short lifetime defaults to
        10 days."""
        _, _, _, survival = corpus_spec_from_options(
            {"slid.count": "4", "slid.survive_month_fraction": raw})
        assert survival[ScenarioKind.SLID] == (float(raw), 10)

    def test_unknown_kind_rejected(self):
        from slidscan.config import ConfigError
        with pytest.raises(ConfigError):
            corpus_spec_from_options({"ponzi.count": "1"})

    @pytest.mark.parametrize("key", [
        "initial_deposit_usd", "owner_noise_trades_per_day", "profit_multiple_target",
        "residual_multiple_target", "multi_address_count", "initial_paired_price",
        "gas_per_order_usd", "kind", "seed"])
    def test_non_option_keys_rejected(self, key):
        """The generator's fixed scales are constants, and each scenario's
        kind and seed come from the plan: none is a config key."""
        from slidscan.config import ConfigError
        with pytest.raises(ConfigError, match=key):
            corpus_spec_from_options({"slid.count": "1", f"slid.{key}": "2"})
