"""Three-validator heuristic, rug-pull baseline, and layered classification."""

import math

import pytest

from slidscan.config import ConfigError, load_heuristic_config
from slidscan.metrics import ProfitReport, profit_report
from slidscan.validators import (
    DEFAULT_CONFIG,
    HeuristicConfig,
    Label,
    SecurityProfile,
    classify_pool,
    honeypot_validate,
    owner_activity_validate,
    profit_validate,
    rugpull_detect,
)

from conftest import make_order, make_pool


def report(realized=100.0, unrealized_1m=50.0, impacts=(), owner_orders=10):
    """A report whose owner took profit with these impacts, in order; an
    infinite impact is one against an empty pool."""
    finite = [impact for impact in impacts if math.isfinite(impact)]
    return ProfitReport(
        realized_profit_usd=realized,
        invested_usd=max(-realized, 0.0),
        returned_usd=max(realized, 0.0),
        gas_usd=0.0,
        unrealized_first_month_usd=unrealized_1m,
        unrealized_current_usd=unrealized_1m,
        profit_taking_count=len(impacts),
        max_impact=max(finite) if finite else 0.0,
        min_impact=min(finite) if finite else 0.0,
        mean_impact=sum(finite) / len(finite) if finite else 0.0,
        owner_order_count=owner_orders,
        undefined_impacts=len(impacts) - len(finite),
    )


class TestHoneypotValidator:
    def test_excess_buy_tax_flags(self):
        assert honeypot_validate(SecurityProfile(buy_tax=0.6), DEFAULT_CONFIG)

    def test_benign_profile_passes(self):
        assert not honeypot_validate(SecurityProfile(), DEFAULT_CONFIG)

    def test_cannot_sell_all_flags(self):
        assert honeypot_validate(SecurityProfile(can_sell_all=False), DEFAULT_CONFIG)

    def test_soft_signals_do_not_flag(self):
        assert not honeypot_validate(
            SecurityProfile(anti_whale=True, trading_cooldown=True), DEFAULT_CONFIG)

    def test_missing_profile_treated_as_pass(self):
        assert not honeypot_validate(None, DEFAULT_CONFIG)

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
        assert not owner_activity_validate(pool, report(impacts=[0.3] * 10),
                                           DEFAULT_CONFIG)

    def test_enough_small_events_pass(self):
        pool = make_pool()
        assert owner_activity_validate(pool, report(impacts=[0.30] * 6),
                                       DEFAULT_CONFIG)

    def test_single_large_impact_fails_strictly(self):
        pool = make_pool()
        assert not owner_activity_validate(
            pool, report(impacts=[0.30] * 5 + [0.95]), DEFAULT_CONFIG)

    def test_too_few_events_fail(self):
        pool = make_pool()
        assert not owner_activity_validate(pool, report(impacts=[0.30] * 4),
                                           DEFAULT_CONFIG)


class TestRugPullDetect:
    def test_near_total_drain_flags(self):
        pool = make_pool()
        assert rugpull_detect(pool, report(impacts=[0.999]), DEFAULT_CONFIG)

    def test_slid_range_drains_do_not_flag(self):
        pool = make_pool()
        impacts = [0.0739 + 0.02 * i for i in range(18)]
        assert max(impacts) < 0.43
        assert not rugpull_detect(pool, report(impacts=impacts), DEFAULT_CONFIG)

    def test_no_events_do_not_flag(self):
        assert not rugpull_detect(make_pool(), report(), DEFAULT_CONFIG)

    def test_exactly_095_is_rug_territory(self):
        pool = make_pool()
        assert rugpull_detect(pool, report(impacts=[0.95]), DEFAULT_CONFIG)
        assert not owner_activity_validate(
            pool, report(impacts=[0.95] + [0.1] * 5), DEFAULT_CONFIG)

    def test_undefined_impact_does_not_flag(self):
        """An owner sell against an empty pool has no impact, so it cannot
        look like a near-total drain."""
        pool = make_pool()
        rep = profit_report(pool, [make_order("Sell", 1e-7, 1.0)])
        assert (rep.profit_taking_count, rep.undefined_impacts) == (1, 1)
        assert not rugpull_detect(pool, rep, DEFAULT_CONFIG)


class TestClassifyPool:
    def test_legitimate_pool_fails_profit_layer(self):
        pool = make_pool(lpt_burned=True)
        verdict = classify_pool(pool, SecurityProfile(),
                                report(realized=-1000.0), DEFAULT_CONFIG)
        assert verdict.label == Label.LEGITIMATE
        assert not verdict.profit_pass

    def test_rug_pull_first_day_drain(self):
        pool = make_pool()
        verdict = classify_pool(pool, SecurityProfile(),
                                report(impacts=[0.99]), DEFAULT_CONFIG)
        assert verdict.label == Label.RUGPULL

    def test_canonical_slid(self):
        pool = make_pool()
        impacts = [0.07 + (0.36 * i / 422) for i in range(423)]
        verdict = classify_pool(pool, SecurityProfile(),
                                report(realized=196_000.0, unrealized_1m=29_000.0,
                                       impacts=impacts), DEFAULT_CONFIG)
        assert verdict.label == Label.SLID
        assert verdict.honeypot_pass and verdict.profit_pass and verdict.owner_activity_pass

    def test_honeypot_layer_precedes_validators(self):
        pool = make_pool()
        verdict = classify_pool(pool, SecurityProfile(sell_tax=0.9),
                                report(impacts=[0.2] * 10), DEFAULT_CONFIG)
        assert verdict.label == Label.HONEYPOT
        assert not verdict.honeypot_pass

    def test_missing_profile_proceeds_with_pass(self):
        pool = make_pool()
        verdict = classify_pool(pool, None,
                                report(impacts=[0.2] * 6), DEFAULT_CONFIG)
        assert verdict.label == Label.SLID
        assert verdict.honeypot_pass

    def test_too_few_owner_actions_is_undetermined(self):
        pool = make_pool()
        verdict = classify_pool(pool, SecurityProfile(),
                                report(impacts=[0.2] * 6, owner_orders=2), DEFAULT_CONFIG)
        assert verdict.label == Label.UNDETERMINED
        # Every validator passes, so the owner-action layer decided.
        assert verdict.honeypot_pass and verdict.profit_pass and verdict.owner_activity_pass

    def test_slid_iff_all_three_validators(self):
        pool = make_pool()
        impacts = [0.2] * 6
        cases = [
            (SecurityProfile(), report(impacts=impacts), Label.SLID),
            (SecurityProfile(), report(unrealized_1m=0.0, impacts=impacts),
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
        can never fire, so no profit-taking history yields both labels."""
        pool = make_pool()
        for max_impact in (0.3, 0.9499, 0.95, 0.999):
            verdict = classify_pool(pool, SecurityProfile(),
                                    report(impacts=[0.1] * 5 + [max_impact]),
                                    DEFAULT_CONFIG)
            if max_impact >= 0.95:
                assert verdict.label == Label.RUGPULL
            else:
                assert verdict.label in (Label.SLID, Label.UNDETERMINED)
                assert verdict.label != Label.RUGPULL

    def test_monotonic_in_t_count(self):
        """Raising t_count never converts non-SLID into SLID."""
        pool = make_pool()
        rep = report(impacts=[0.2] * 7)
        labels = []
        for t_count in (1, 3, 5, 7, 8, 20):
            cfg = HeuristicConfig(t_count=t_count)
            labels.append(classify_pool(pool, SecurityProfile(), rep,
                                        cfg).label == Label.SLID)
        # once it drops out of SLID it never comes back
        assert labels == sorted(labels, reverse=True)

    def test_determinism(self):
        pool = make_pool()
        rep = report(impacts=[0.2] * 6)
        first = classify_pool(pool, SecurityProfile(), rep, DEFAULT_CONFIG)
        second = classify_pool(pool, SecurityProfile(), rep, DEFAULT_CONFIG)
        assert first == second


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
        path.write_text("t_count = 7\n")
        assert load_heuristic_config(path) == HeuristicConfig(t_count=7)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        for text in ("nonsense = 1\n", "delta = 0.5\n", "theta_p = 0.1\n",
                     "theta_v = none\n", "first_month_seconds = 2592000\n",
                     "alive_horizon_seconds = 2592000\n",
                     "min_owner_actions_layer4 = 3\n"):
            path.write_text(text)
            with pytest.raises(ConfigError):
                load_heuristic_config(path)

    def test_invalid_threshold_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        for text in ("t_impact = 1.5\n", "tax_threshold = nan\n",
                     "tax_threshold = -1\n"):
            path.write_text(text)
            with pytest.raises(ConfigError):
                load_heuristic_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("t_count 5\n")
        with pytest.raises(ConfigError):
            load_heuristic_config(path)
