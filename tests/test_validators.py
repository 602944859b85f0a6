"""Three-validator heuristic, rug-pull baseline, and layered classification."""

import math

import pytest

from slidscan.config import ConfigError, load_heuristic_config
from slidscan.metrics import ProfitReport, ProfitTakingEvent
from slidscan.validators import (
    DEFAULT_CONFIG,
    EmptySeries,
    HeuristicConfig,
    Label,
    SecurityProfile,
    classify_pool,
    honeypot_validate,
    owner_activity_validate,
    profit_validate,
    rugpull_detect,
    stability_check,
)

from conftest import make_pool


def event(impact, kind="Sell", value=None, before=1000.0, index=1, ts=0):
    if value is None:
        value = impact * before if math.isfinite(impact) else 1.0
    return ProfitTakingEvent(order_index=index, timestamp=ts, kind=kind,
                             value_usd=value, pool_value_before_usd=before,
                             impact=impact)


def report(realized=100.0, unrealized_1m=50.0, events=(), owner_orders=10):
    events = list(events)
    finite = [e.impact for e in events if math.isfinite(e.impact)]
    return ProfitReport(
        realized_profit_usd=realized,
        invested_usd=max(-realized, 0.0),
        returned_usd=max(realized, 0.0),
        gas_usd=0.0,
        unrealized_first_month_usd=unrealized_1m,
        unrealized_current_usd=unrealized_1m,
        profit_taking=events,
        profit_taking_count=len(events),
        max_impact=max(finite) if finite else 0.0,
        min_impact=min(finite) if finite else 0.0,
        owner_order_count=owner_orders,
    )


class TestHoneypotValidator:
    def test_excess_buy_tax_flags(self):
        is_honeypot, ok = honeypot_validate(SecurityProfile(buy_tax=0.6), DEFAULT_CONFIG)
        assert is_honeypot and not ok

    def test_benign_profile_passes(self):
        is_honeypot, ok = honeypot_validate(SecurityProfile(), DEFAULT_CONFIG)
        assert not is_honeypot and ok

    def test_cannot_sell_all_flags(self):
        is_honeypot, _ = honeypot_validate(SecurityProfile(can_sell_all=False),
                                           DEFAULT_CONFIG)
        assert is_honeypot

    def test_soft_signals_do_not_flag(self):
        is_honeypot, ok = honeypot_validate(
            SecurityProfile(anti_whale=True, trading_cooldown=True), DEFAULT_CONFIG)
        assert not is_honeypot and ok

    def test_missing_profile_treated_as_pass(self):
        is_honeypot, ok = honeypot_validate(None, DEFAULT_CONFIG)
        assert not is_honeypot and ok

    def test_tax_bounds_validated(self):
        with pytest.raises(ValueError):
            SecurityProfile(buy_tax=1.5)


class TestProfitValidator:
    def test_negative_realized_fails(self):
        assert not profit_validate(report(realized=-101.0, unrealized_1m=500.0))

    def test_zero_unrealized_fails(self):
        assert not profit_validate(report(realized=35.0, unrealized_1m=0.0))

    def test_tiny_positive_unrealized_passes(self):
        assert profit_validate(report(realized=35.0, unrealized_1m=1e-14))


class TestOwnerActivityValidator:
    def test_burned_pool_excluded(self):
        pool = make_pool(lpt_burned=True)
        events = [event(0.3, index=i) for i in range(10)]
        assert not owner_activity_validate(pool, events, DEFAULT_CONFIG)

    def test_enough_small_events_pass(self):
        pool = make_pool()
        events = [event(0.30, index=i) for i in range(6)]
        assert owner_activity_validate(pool, events, DEFAULT_CONFIG)

    def test_single_large_impact_fails_strictly(self):
        pool = make_pool()
        events = [event(0.30, index=i) for i in range(5)] + [event(0.95, index=6)]
        assert not owner_activity_validate(pool, events, DEFAULT_CONFIG)

    def test_too_few_events_fail(self):
        pool = make_pool()
        events = [event(0.30, index=i) for i in range(4)]
        assert not owner_activity_validate(pool, events, DEFAULT_CONFIG)


class TestRugPullDetect:
    def test_near_total_drain_flags(self):
        pool = make_pool()
        assert rugpull_detect(pool, [event(0.999, kind="Withdraw")],
                              DEFAULT_CONFIG)

    def test_slid_range_drains_do_not_flag(self):
        pool = make_pool()
        events = [event(0.0739 + 0.02 * i, index=i) for i in range(18)]
        assert max(e.impact for e in events) < 0.43
        assert not rugpull_detect(pool, events, DEFAULT_CONFIG)

    def test_no_events_do_not_flag(self):
        assert not rugpull_detect(make_pool(), [], DEFAULT_CONFIG)

    def test_exactly_095_is_rug_territory(self):
        pool = make_pool()
        events = [event(0.95)]
        assert rugpull_detect(pool, events, DEFAULT_CONFIG)
        assert not owner_activity_validate(pool, events + [event(0.1, index=i)
                                                           for i in range(5)],
                                           DEFAULT_CONFIG)

    def test_infinite_sentinel_does_not_flag(self):
        assert not rugpull_detect(make_pool(), [event(math.inf)],
                                  DEFAULT_CONFIG)


class TestClassifyPool:
    def test_legitimate_pool_fails_profit_layer(self):
        pool = make_pool(lpt_burned=True)
        verdict = classify_pool(pool, SecurityProfile(),
                                report(realized=-1000.0), DEFAULT_CONFIG)
        assert verdict.label == Label.LEGITIMATE
        assert not verdict.profit_pass

    def test_rug_pull_first_day_drain(self):
        pool = make_pool()
        events = [event(0.99, kind="Withdraw")]
        verdict = classify_pool(pool, SecurityProfile(),
                                report(events=events), DEFAULT_CONFIG)
        assert verdict.label == Label.RUGPULL

    def test_canonical_slid(self):
        pool = make_pool()
        events = [event(0.07 + (0.36 * i / 422), index=i) for i in range(423)]
        verdict = classify_pool(pool, SecurityProfile(),
                                report(realized=196_000.0, unrealized_1m=29_000.0,
                                       events=events), DEFAULT_CONFIG)
        assert verdict.label == Label.SLID
        assert verdict.honeypot_pass and verdict.profit_pass and verdict.owner_activity_pass

    def test_honeypot_layer_precedes_validators(self):
        pool = make_pool()
        events = [event(0.2, index=i) for i in range(10)]
        verdict = classify_pool(pool, SecurityProfile(sell_tax=0.9),
                                report(events=events), DEFAULT_CONFIG)
        assert verdict.label == Label.HONEYPOT
        assert not verdict.honeypot_pass

    def test_missing_profile_proceeds_with_pass(self):
        pool = make_pool()
        events = [event(0.2, index=i) for i in range(6)]
        verdict = classify_pool(pool, None,
                                report(events=events), DEFAULT_CONFIG)
        assert verdict.label == Label.SLID
        assert not verdict.profile_known
        assert any("unknown" in reason for _, _, reason in verdict.layer_trace)

    def test_too_few_owner_actions_is_undetermined(self):
        pool = make_pool()
        events = [event(0.2)]
        verdict = classify_pool(pool, SecurityProfile(),
                                report(events=events, owner_orders=2), DEFAULT_CONFIG)
        assert verdict.label == Label.UNDETERMINED
        assert [name for name, ok, _ in verdict.layer_trace if not ok] == ["owner_actions"]

    def test_slid_iff_all_three_validators(self):
        pool = make_pool()
        events = [event(0.2, index=i) for i in range(6)]
        cases = [
            (SecurityProfile(), report(events=events), Label.SLID),
            (SecurityProfile(), report(unrealized_1m=0.0, events=events),
             Label.UNDETERMINED),
        ]
        for profile, rep, expected in cases:
            verdict = classify_pool(pool, profile, rep, DEFAULT_CONFIG)
            assert verdict.label == expected
            assert (verdict.label == Label.SLID) == (
                verdict.honeypot_pass and verdict.profit_pass
                and verdict.owner_activity_pass)

    def test_mutual_exclusion_rug_vs_slid(self):
        """An impact >= t_impact forces the rug layer; below it the rug layer
        can never fire, so no event list yields both labels."""
        pool = make_pool()
        for max_impact in (0.3, 0.9499, 0.95, 0.999):
            events = [event(0.1, index=i) for i in range(5)] + [event(max_impact)]
            verdict = classify_pool(pool, SecurityProfile(),
                                    report(events=events), DEFAULT_CONFIG)
            if max_impact >= 0.95:
                assert verdict.label == Label.RUGPULL
            else:
                assert verdict.label in (Label.SLID, Label.UNDETERMINED)
                assert verdict.label != Label.RUGPULL

    def test_monotonic_in_t_count(self):
        """Raising t_count never converts non-SLID into SLID."""
        pool = make_pool()
        events = [event(0.2, index=i) for i in range(7)]
        rep = report(events=events)
        labels = []
        for t_count in (1, 3, 5, 7, 8, 20):
            cfg = HeuristicConfig(t_count=t_count)
            labels.append(classify_pool(pool, SecurityProfile(), rep,
                                        cfg).label == Label.SLID)
        # once it drops out of SLID it never comes back
        assert labels == sorted(labels, reverse=True)

    def test_determinism(self):
        pool = make_pool()
        events = [event(0.2, index=i) for i in range(6)]
        rep = report(events=events)
        first = classify_pool(pool, SecurityProfile(), rep, DEFAULT_CONFIG)
        second = classify_pool(pool, SecurityProfile(), rep, DEFAULT_CONFIG)
        assert first == second


class TestStabilityCheck:
    def test_constant_series_stable(self):
        result = stability_check([2.0] * 10, [5.0] * 10, theta_p=0.1, theta_v=0.1)
        assert result.passed and result.evaluated

    def test_price_halving_unstable(self):
        result = stability_check([2.0, 1.0], [1.0, 1.0], theta_p=0.1, theta_v=None)
        assert not result.passed

    def test_disabled_thresholds_not_evaluated(self):
        result = stability_check([1.0], [1.0])
        assert result.passed and not result.evaluated
        assert result.reason == "not evaluated"

    def test_empty_series_raises(self):
        with pytest.raises(EmptySeries):
            stability_check([], [], theta_p=0.1)


class TestConfigFile:
    def test_load_and_override(self, tmp_path):
        path = tmp_path / "heuristic.cfg"
        path.write_text(
            "# thresholds\n"
            "t_count = 7\n"
            "t_impact = 0.9\n"
            "tax_threshold=0.4\n")
        cfg = load_heuristic_config(path)
        assert cfg.t_count == 7
        assert cfg.t_impact == 0.9
        assert cfg.tax_threshold == 0.4
        # unspecified keys keep their defaults
        assert cfg.min_owner_actions_layer4 == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        for text in ("nonsense = 1\n", "delta = 0.5\n", "theta_p = 0.1\n",
                     "theta_v = none\n"):
            path.write_text(text)
            with pytest.raises(ConfigError):
                load_heuristic_config(path)

    def test_invalid_threshold_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("t_impact = 1.5\n")
        with pytest.raises(ConfigError):
            load_heuristic_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("t_count 5\n")
        with pytest.raises(ConfigError):
            load_heuristic_config(path)
