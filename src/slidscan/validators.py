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

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .ledger import PoolRecord
from .metrics import ProfitReport


class Label(str, Enum):
    LEGITIMATE = "Legitimate"
    RUGPULL = "RugPull"
    HONEYPOT = "Honeypot"
    SLID = "SLID"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True, slots=True)
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


# Layer 4: fewer owner DEX activities than this leave a pool Undetermined.
MIN_OWNER_ACTIONS = 3


@dataclass
class HeuristicConfig:
    """The three tunable thresholds of the rule-based detector, the keys a
    `--config` file may set.

    t_count / t_impact drive the owner-activity validator (t_impact also the
    rug-pull layer); tax_threshold the honeypot validator. Fixed windows and
    counts are module constants instead (metrics.FIRST_MONTH_SECONDS,
    MIN_OWNER_ACTIONS).
    """

    t_count: int = 5
    t_impact: float = 0.95
    tax_threshold: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.t_impact <= 1.0:
            raise ValueError("t_impact must be in (0, 1]")
        if self.t_count < 1:
            raise ValueError("t_count must be >= 1")
        if not 0.0 <= self.tax_threshold <= 1.0:
            raise ValueError("tax_threshold must be in [0, 1]")


DEFAULT_CONFIG = HeuristicConfig()


@dataclass(slots=True)
class Verdict:
    """Per-pool classification with the validator flags that produced it."""

    label: Label
    honeypot_pass: bool
    profit_pass: bool
    owner_activity_pass: bool


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------

def honeypot_validate(profile: Optional[SecurityProfile],
                      cfg: HeuristicConfig = DEFAULT_CONFIG) -> bool:
    """Whether the token's contract restrictions make the pool a honeypot;
    the honeypot validator passes exactly when this is False.

    anti_whale and trading_cooldown appear in legitimate tokens too, so they
    are soft signals only and never flag on their own. A missing profile
    passes with a warning recorded by the caller.
    """
    if profile is None:
        return False
    return (
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


def profit_validate(report: ProfitReport) -> bool:
    """Positive realized profit and strictly positive first-month unrealized."""
    return report.realized_profit_usd > 0.0 and report.unrealized_first_month_usd > 0.0


def owner_activity_validate(pool: PoolRecord, report: ProfitReport,
                            cfg: HeuristicConfig = DEFAULT_CONFIG) -> bool:
    """Unburned LP tokens, enough profit-taking orders, all of them small."""
    if pool.lpt_burned:
        return False
    if report.profit_taking_count < cfg.t_count:
        return False
    return report.max_impact < cfg.t_impact


def rugpull_detect(pool: PoolRecord, report: ProfitReport,
                   cfg: HeuristicConfig = DEFAULT_CONFIG) -> bool:
    """Single near-total drain: any finite impact at or above t_impact.

    Undefined (empty-pool) impacts mark inconsistent data and do not flag a
    rug: they are left out of the report's impact aggregates.
    """
    if pool.lpt_burned:
        return False
    return report.max_impact >= cfg.t_impact


# ---------------------------------------------------------------------------
# Four-layer classification
# ---------------------------------------------------------------------------

def classify_pool(pool: PoolRecord, profile: Optional[SecurityProfile],
                  report: ProfitReport,
                  cfg: HeuristicConfig = DEFAULT_CONFIG) -> Verdict:
    """Run the exclusion layers then the three validators.

    Layer order: owner-profit check, honeypot, rug pull, owner-action
    eligibility. Pools surviving all four (the honeypot validator has passed
    by then) are SLID exactly when the other two validators pass. The
    rug-pull layer and the owner-activity validator read the report's
    profit-taking count and largest impact.
    """
    is_honeypot = honeypot_validate(profile, cfg)
    profit_pass = profit_validate(report)
    activity_pass = owner_activity_validate(pool, report, cfg)
    if report.realized_profit_usd <= 0.0:
        label = Label.LEGITIMATE
    elif is_honeypot:
        label = Label.HONEYPOT
    elif rugpull_detect(pool, report, cfg):
        label = Label.RUGPULL
    elif report.owner_order_count < MIN_OWNER_ACTIONS:
        label = Label.UNDETERMINED
    elif profit_pass and activity_pass:
        label = Label.SLID
    else:
        label = Label.UNDETERMINED
    return Verdict(label, not is_honeypot, profit_pass, activity_pass)
