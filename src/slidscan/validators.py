"""Rule-based pool classification.

A pool earns the SLID (slow liquidity drain) label only when three
independent validators all flag it:

  * honeypot validator     -- the token must let victims trade freely, so any
                              contract-level restriction (excess tax, blocked
                              buys/sells, pausable transfers, mutable slippage,
                              owner balance control) disqualifies the pool from
                              the SLID path and labels it Honeypot instead;
  * profit validator       -- the owner ends with positive realized profit and
                              positive first-month unrealized profit;
  * owner-activity validator -- the owner kept the initial LP tokens, executed
                              at least t_count profit-taking orders, and every
                              one of them stayed below the t_impact fraction of
                              the pool.

Classification runs the cheap exclusion layers first (non-profitable pools,
honeypots, rug pulls, inactive owners), so the validators only ever decide
between SLID and Undetermined.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, List, Optional, Sequence, Tuple

from .ledger import DexOrder, PoolRecord
from .metrics import ProfitReport, ProfitTakingEvent, profit_report


class EmptySeries(Exception):
    """Stability check invoked with an empty price or volume sequence."""


class Label(str, Enum):
    LEGITIMATE = "Legitimate"
    RUGPULL = "RugPull"
    HONEYPOT = "Honeypot"
    SLID = "SLID"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class SecurityProfile:
    """Contract-level security features of the paired token."""

    buy_tax: float = 0.0
    sell_tax: float = 0.0
    tax_modifiable: bool = False
    buyable: bool = True
    can_sell_all: bool = True
    balance_change_by_owner: bool = False
    trading_cooldown: bool = False
    trading_pausable: bool = False
    anti_whale: bool = False
    slippage_modifiable: bool = False
    personal_slippage_modifiable: bool = False
    transfer_pausable: bool = False

    def __post_init__(self):
        if not 0.0 <= self.buy_tax <= 1.0 or not 0.0 <= self.sell_tax <= 1.0:
            raise ValueError("taxes must be fractions in [0, 1]")


BENIGN_PROFILE = SecurityProfile()


@dataclass
class HeuristicConfig:
    """Tunable thresholds for the rule-based detector.

    t_count / t_impact drive the owner-activity validator; tax_threshold the
    honeypot validator. The diagnostic stability check takes its volatility
    thresholds (theta_p, theta_v) as arguments instead.
    """

    t_count: int = 5
    t_impact: float = 0.95
    tax_threshold: float = 0.5
    min_owner_actions_layer4: int = 3
    first_month_seconds: int = 2_592_000
    alive_horizon_seconds: int = 30 * 86_400

    def __post_init__(self):
        if not 0.0 < self.t_impact <= 1.0:
            raise ValueError("t_impact must be in (0, 1]")
        if self.t_count < 1:
            raise ValueError("t_count must be >= 1")


DEFAULT_CONFIG = HeuristicConfig()


@dataclass
class Verdict:
    """Per-pool classification with the validator flags that produced it."""

    label: Label
    honeypot_pass: bool
    profit_pass: bool
    owner_activity_pass: bool
    layer_trace: List[Tuple[str, bool, str]] = field(default_factory=list)
    profile_known: bool = True


@dataclass
class StabilityResult:
    passed: bool
    evaluated: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.passed


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------

def honeypot_validate(profile: Optional[SecurityProfile],
                      cfg: HeuristicConfig = DEFAULT_CONFIG) -> Tuple[bool, bool]:
    """Returns (is_honeypot, validator_pass).

    anti_whale and trading_cooldown appear in legitimate tokens too, so they
    are soft signals only and never flag on their own. A missing profile
    passes with a warning recorded by the caller.
    """
    if profile is None:
        return False, True
    is_honeypot = (
        profile.buy_tax > cfg.tax_threshold
        or profile.sell_tax > cfg.tax_threshold
        or not profile.buyable
        or not profile.can_sell_all
        or profile.balance_change_by_owner
        or profile.trading_pausable
        or profile.transfer_pausable
        or profile.slippage_modifiable
        or profile.personal_slippage_modifiable
    )
    return is_honeypot, not is_honeypot


def profit_validate(report: ProfitReport) -> bool:
    """Positive realized profit and strictly positive first-month unrealized."""
    return report.realized_profit_usd > 0.0 and report.unrealized_first_month_usd > 0.0


def _max_finite_impact(events: Sequence[ProfitTakingEvent]) -> float:
    best = 0.0
    for event in events:
        if math.isfinite(event.impact) and event.impact > best:
            best = event.impact
    return best


def owner_activity_validate(pool: PoolRecord,
                            events: Sequence[ProfitTakingEvent],
                            cfg: HeuristicConfig = DEFAULT_CONFIG) -> bool:
    """Unburned LP tokens, enough profit-taking orders, all of them small."""
    if pool.lpt_burned:
        return False
    if len(events) < cfg.t_count:
        return False
    return _max_finite_impact(events) < cfg.t_impact


def rugpull_detect(pool: PoolRecord, events: Sequence[ProfitTakingEvent],
                   cfg: HeuristicConfig = DEFAULT_CONFIG) -> bool:
    """Single near-total drain: any finite impact at or above t_impact.

    Undefined (empty-pool) impact sentinels mark inconsistent data and do not
    flag a rug, mirroring their exclusion from the impact aggregates.
    """
    if pool.lpt_burned:
        return False
    return _max_finite_impact(events) >= cfg.t_impact


def stability_check(prices: Sequence[float], volumes: Sequence[float],
                    theta_p: Optional[float] = None,
                    theta_v: Optional[float] = None) -> StabilityResult:
    """Diagnostic low-volatility check on a pool's price and volume sequences.

    Passes when the relative standard deviation of each sequence stays below
    its threshold (theta_p for prices, theta_v for volumes). Never gates
    classification; with both thresholds unset it reports pass without
    evaluating.
    """
    if theta_p is None and theta_v is None:
        return StabilityResult(passed=True, evaluated=False, reason="not evaluated")
    if not prices or not volumes:
        raise EmptySeries("stability check needs non-empty price/volume series")

    def rel_std(values):
        mean = statistics.fmean(values)
        if mean == 0:
            return math.inf
        return statistics.pstdev(values) / abs(mean)

    ok = True
    if theta_p is not None:
        ok = ok and rel_std(prices) < theta_p
    if theta_v is not None:
        ok = ok and rel_std(volumes) < theta_v
    return StabilityResult(passed=ok, evaluated=True)


# ---------------------------------------------------------------------------
# Four-layer classification
# ---------------------------------------------------------------------------

def classify_pool(pool: PoolRecord, profile: Optional[SecurityProfile],
                  report: ProfitReport,
                  cfg: HeuristicConfig = DEFAULT_CONFIG) -> Verdict:
    """Run the exclusion layers then the three validators.

    Layer order: owner-profit check, honeypot, rug pull, owner-action
    eligibility. Pools surviving all four are SLID exactly when every
    validator passes. The rug-pull layer and the owner-activity validator
    read the report's profit-taking events.
    """
    events = report.profit_taking
    trace: List[Tuple[str, bool, str]] = []
    is_honeypot, honeypot_pass = honeypot_validate(profile, cfg)
    profit_pass = profit_validate(report)
    activity_pass = owner_activity_validate(pool, events, cfg)

    def verdict(label: Label) -> Verdict:
        return Verdict(
            label=label,
            honeypot_pass=honeypot_pass,
            profit_pass=profit_pass,
            owner_activity_pass=activity_pass,
            layer_trace=trace,
            profile_known=profile is not None,
        )

    if report.realized_profit_usd <= 0.0:
        trace.append(("owner_profit", False,
                      f"realized profit {report.realized_profit_usd:.2f} <= 0"))
        return verdict(Label.LEGITIMATE)
    trace.append(("owner_profit", True, "owner realized profit positive"))

    if profile is None:
        trace.append(("honeypot", True, "security profile unknown; treated as pass"))
    elif is_honeypot:
        trace.append(("honeypot", False, "token restricts victim trading"))
        return verdict(Label.HONEYPOT)
    else:
        trace.append(("honeypot", True, "no honeypot features"))

    if rugpull_detect(pool, events, cfg):
        trace.append(("rug_pull", False,
                      f"max impact {report.max_impact:.4f} >= {cfg.t_impact}"))
        return verdict(Label.RUGPULL)
    trace.append(("rug_pull", True, "no near-total drain"))

    if report.owner_order_count < cfg.min_owner_actions_layer4:
        trace.append(("owner_actions", False,
                      f"only {report.owner_order_count} owner DEX activities"))
        return verdict(Label.UNDETERMINED)
    trace.append(("owner_actions", True,
                  f"{report.owner_order_count} owner DEX activities"))

    if honeypot_pass and profit_pass and activity_pass:
        trace.append(("validators", True, "all three validators flagged"))
        return verdict(Label.SLID)
    failed = [name for name, ok in (
        ("honeypot", honeypot_pass), ("profit", profit_pass),
        ("owner_activity", activity_pass)) if not ok]
    trace.append(("validators", False, "failed: " + ", ".join(failed)))
    return verdict(Label.UNDETERMINED)


def judge_pool(pool: PoolRecord, profile: Optional[SecurityProfile],
               orders: Iterable[DexOrder],
               cfg: HeuristicConfig = DEFAULT_CONFIG) -> Tuple[ProfitReport, Verdict]:
    """Profit report and verdict of one pool from its complete sorted orders."""
    report = profit_report(pool, orders, first_month_seconds=cfg.first_month_seconds)
    return report, classify_pool(pool, profile, report, cfg)
