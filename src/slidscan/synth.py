"""Synthetic pool scenario generator and the independent verification oracle.

Each scenario builds a full order history through the ledger's own swap math,
so recorded post-order balances are always self-consistent. Scenario kinds:

  Legitimate   burned LP tokens, benign token, organic investor flow, the
               owner never takes profit.
  RugPull      unburned, victims pour in, one near-total withdrawal on the
               configured day.
  Honeypot     token restricts selling; victims can only buy while the owner
               drains gradually.
  SLID         unburned, inflated paired supply, hundreds of small
               profit-taking orders mixed with owner noise buys; drain sizes
               are controlled to land near a configured realized-profit
               multiple and first-month residual.
  SlidSlow     the adversarial adaptation: profit-taking starts only after
               `slow_start_day`, with at most a handful of tiny early sells.
  SlidMultiAddress  drains are sent from linked non-owner addresses, so
               owner-attributed accounting cannot see them.

Scenarios run on a day-by-day agenda: every event within a day is ordered by
its drawn second, so timestamps are strictly increasing by construction and
the same seed reproduces the identical order stream bit for bit.

oracle_report() at the bottom recomputes every profit metric by naive
summation and LP-unit share accounting. It deliberately shares no code with
the metrics module; tests compare the two paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .ledger import (
    SECONDS_PER_DAY,
    Category,
    Dex,
    DexOrder,
    PoolRecord,
    swap_amount_out,
)
from .config import ConfigError, parse_value
from .metrics import FIRST_MONTH_SECONDS, ProfitReport
from .validators import SecurityProfile

# Scenario clocks start here (2020-09-13T12:26:40Z) plus a seeded offset.
_EPOCH = 1_600_000_000

# Boundary between "small" drain impacts and rug-pull territory.
_IMPACT_SPLIT = 0.95

# Fixed scenario scales. The owner's deployment deposit sets the pool's size,
# the scale of investor buys and of the SLID profit targets.
_INITIAL_DEPOSIT_USD = 19_000.0
_INITIAL_PAIRED_PRICE = 1e-3          # base per paired token at deployment
_GAS_PER_ORDER_USD = 4.0              # per owner order
_OWNER_NOISE_TRADES_PER_DAY = 2.0     # SLID owner buys, Poisson rate
_PROFIT_MULTIPLE_TARGET = 10.3        # SLID realized profit / deposit
_RESIDUAL_MULTIPLE_TARGET = 1.56      # SLID first-month unrealized / deposit
_MULTI_ADDRESS_COUNT = 3              # linked drain senders of SlidMultiAddress


class InfeasibleConfig(Exception):
    """Scenario parameters cannot produce the promised behavior."""


class ScenarioKind(str, Enum):
    LEGITIMATE = "Legitimate"
    RUGPULL = "RugPull"
    HONEYPOT = "Honeypot"
    SLID = "SLID"
    SLID_SLOW = "SlidSlow"
    SLID_MULTI_ADDRESS = "SlidMultiAddress"


@dataclass
class ScenarioConfig:
    kind: ScenarioKind
    seed: int = 0
    investor_count: int = 60
    investor_arrival: float = 4.0          # Poisson rate per day
    lifetime_days: int = 120
    slid_drain_count: int = 423
    slid_impact_range: Tuple[float, float] = (0.0739, 0.4293)
    rug_drain_day: int = 0
    rug_impact: float = 0.99
    slow_start_day: int = 200
    early_sell_count: int = 3

    def __post_init__(self):
        self.kind = ScenarioKind(self.kind)
        lo, hi = self.slid_impact_range
        if not (0.0 < lo < hi < _IMPACT_SPLIT):
            raise InfeasibleConfig(
                f"slid_impact_range must sit strictly inside (0, {_IMPACT_SPLIT})")
        if self.rug_impact < _IMPACT_SPLIT:
            raise InfeasibleConfig(f"rug_impact must be >= {_IMPACT_SPLIT}")
        if self.lifetime_days < 1:
            raise InfeasibleConfig("lifetime_days must be >= 1")
        if not 0.0 <= self.investor_arrival < math.inf:
            raise InfeasibleConfig("investor_arrival must be a finite rate >= 0")
        if self.kind == ScenarioKind.RUGPULL and self.rug_drain_day >= self.lifetime_days:
            raise InfeasibleConfig("rug_drain_day beyond pool lifetime")
        if self.kind == ScenarioKind.SLID_SLOW:
            if self.early_sell_count >= 5:
                raise InfeasibleConfig(
                    "slow scenarios must keep early profit-taking below five orders")
            if self.lifetime_days <= self.slow_start_day:
                raise InfeasibleConfig("slow scenarios need lifetime beyond slow_start_day")
        if self.slid_drain_count < 1:
            raise InfeasibleConfig("need at least one drain order")


@dataclass
class GeneratedScenario:
    pool: PoolRecord
    profile: SecurityProfile
    orders: List[DexOrder]
    true_label: str
    metadata: Dict[str, object] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Pool simulation state
# ---------------------------------------------------------------------------

def _addresses(rng: np.random.Generator, n: int) -> List[str]:
    """n >= 1 addresses, each what `"0x" + rng.bytes(20).hex()` draws.
    Twenty bytes are five whole uint32 draws, so one batched call gives the
    bytes n calls give and leaves the generator in the same state
    (tests/test_synth.py checks this on the installed numpy)."""
    raw = rng.bytes(20 * n).hex()
    return ["0x" + raw[i:i + 40] for i in range(0, 40 * n, 40)]


class _PoolSim:
    """Evolving reserves plus flow-value bookkeeping for one scenario."""

    def __init__(self, cfg: ScenarioConfig, rng: np.random.Generator):
        self.rng = rng
        self.orders: List[DexOrder] = []
        (self.pool_address, self.base_address, self.paired_address, self.owner,
         *self.investors) = _addresses(rng, 4 + max(1, cfg.investor_count))
        self.t0 = _EPOCH + int(rng.integers(0, 730)) * SECONDS_PER_DAY
        self.last_ts = self.t0 - 1
        self.rp = 0.0            # paired reserve
        self.rb = 0.0            # base reserve
        self.k = 0.0
        self.flow_value = 0.0    # pool value by signed base flows (= replay's view)
        self.owner_share = 0.0
        self.holdings: Dict[str, float] = {}
        self.owner_invested = 0.0
        self.owner_returned = 0.0
        self.owner_gas = 0.0
        self._investor_cursor = 0

    def _emit(self, ts: int, category: Category, sender: str, y_paired: float,
              y_base: float, gas: float = 0.0) -> None:
        """Append an order; its timestamp is moved past the previous order's
        and its hash numbers the pool's orders from 1."""
        ts = max(int(ts), self.last_ts + 1)
        self.last_ts = ts
        self.orders.append(DexOrder(
            block=ts // 12,
            timestamp=ts,
            hash=f"0x{len(self.orders) + 1:064x}",
            category=category,
            pool_address=self.pool_address,
            sender=sender,
            x_paired=self.rp,
            x_base=self.rb,
            y_paired=y_paired,
            y_base=y_base,
            price_paired=self.rb / self.rp if self.rp > 0 else 0.0,
            price_base=1.0,
            gas_fee_usd=gas,
        ))

    def next_investor(self) -> str:
        address = self.investors[self._investor_cursor % len(self.investors)]
        self._investor_cursor += 1
        return address

    # -- primitive actions --------------------------------------------------

    def deposit(self, ts: int, sender: str, y_base: float, gas: float = 0.0) -> None:
        if self.rb > 0:
            y_paired = y_base * (self.rp / self.rb)
        else:
            y_paired = y_base / _INITIAL_PAIRED_PRICE
        if sender == self.owner:
            self.owner_invested += y_base
            self.owner_gas += gas
        prev = self.flow_value
        self.rp += y_paired
        self.rb += y_base
        self.k = self.rp * self.rb
        new = prev + y_base
        share = self.owner_share * (prev / new) if new > 0 else self.owner_share
        if sender == self.owner and new > 0:
            share += y_base / new
        self.owner_share = min(1.0, max(0.0, share))
        self.flow_value = new
        if sender != self.owner and sender in self.holdings:
            self.holdings[sender] = max(self.holdings[sender] - y_paired, 0.0)
        self._emit(ts, Category.DEPOSIT, sender, y_paired, y_base, gas)

    def withdraw(self, ts: int, sender: str, y_base: float, gas: float = 0.0) -> None:
        y_base = min(y_base, self.rb * 0.999999)
        y_paired = y_base * (self.rp / self.rb)
        if sender == self.owner:
            self.owner_returned += y_base
            self.owner_gas += gas
        prev = self.flow_value
        self.rp -= y_paired
        self.rb -= y_base
        self.k = self.rp * self.rb
        new = prev - y_base
        if new > 0:
            share = self.owner_share * (prev / new)
            if sender == self.owner:
                share -= y_base / new
            self.owner_share = min(1.0, max(0.0, share))
        self.flow_value = max(new, 0.0)
        self._emit(ts, Category.WITHDRAW, sender, y_paired, y_base, gas)

    def buy(self, ts: int, sender: str, y_base: float, gas: float = 0.0) -> float:
        out, self.rb, self.rp = swap_amount_out(self.rb, self.rp, self.k, y_base)
        self.flow_value += y_base
        if sender != self.owner:
            self.holdings[sender] = self.holdings.get(sender, 0.0) + out
        else:
            self.owner_invested += y_base
            self.owner_gas += gas
        self._emit(ts, Category.BUY, sender, out, y_base, gas)
        return out

    def sell(self, ts: int, sender: str, y_paired: float, gas: float = 0.0) -> float:
        out, self.rp, self.rb = swap_amount_out(self.rp, self.rb, self.k, y_paired)
        self.flow_value = max(self.flow_value - out, 0.0)
        if sender != self.owner and sender in self.holdings:
            self.holdings[sender] = max(self.holdings[sender] - y_paired, 0.0)
        elif sender == self.owner:
            self.owner_returned += out
            self.owner_gas += gas
        self._emit(ts, Category.SELL, sender, y_paired, out, gas)
        return out

    def sell_for_value(self, ts: int, sender: str, target_base_out: float,
                       gas: float = 0.0) -> float:
        """Sell exactly enough paired tokens to extract ~target_base_out."""
        target_base_out = max(min(target_base_out, self.rb * 0.999), 1e-9)
        amount_in = self.k / (self.rb - target_base_out) - self.rp
        return self.sell(ts, sender, amount_in, gas)

    def ensure_value(self, ts: int, target_value: float) -> None:
        """Investor top-up buys raising the pool's flow value to target_value."""
        gap = target_value - self.flow_value
        if gap <= 0:
            return
        pieces = 1 if gap < self.flow_value else min(3, int(gap / max(self.flow_value, 1.0)) + 1)
        for i in range(pieces):
            chunk = gap / (pieces - i)
            self.buy(ts - (pieces - i), self.next_investor(), chunk)
            gap -= chunk

    def pool_record(self, lpt_burned: bool, name: str, deployment_gas: float) -> PoolRecord:
        return PoolRecord(
            pool_address=self.pool_address,
            base_address=self.base_address,
            paired_address=self.paired_address,
            owner_address=self.owner,
            created_time_pool=self.t0,
            created_time_token=self.t0 - int(self.rng.integers(3600, 14 * SECONDS_PER_DAY)),
            dex=Dex.SYNTHETIC.value,
            name=name,
            lpt_burned=lpt_burned,
            deployment_gas_usd=deployment_gas,
        )


# ---------------------------------------------------------------------------
# Day-agenda scenario engine
# ---------------------------------------------------------------------------

_ARRIVE, _SELLBACK, _NOISE, _EARLY_SELL, _DRAIN, _RUG, _PUMP = range(7)

# One batched `rng.integers` call costs about as much as two or three scalar
# ones, so a day takes it only when it needs at least this many seconds.
_BATCH_DRAWS = 4


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """`float(rng.uniform(lo, hi))` by numpy's own formula on one
    `rng.random()` draw: the same value and generator state, at a third of
    the cost (tests/test_synth.py checks this on the installed numpy)."""
    return lo + (hi - lo) * rng.random()


def _intraday_seconds(rng: np.random.Generator, n: int) -> List[int]:
    """n intra-day seconds, each what `int(rng.integers(60, SECONDS_PER_DAY
    - 120))` draws. On a busy day one batched call gives the values n scalar
    calls give and leaves the generator in the same state
    (tests/test_synth.py checks this on the installed numpy)."""
    if n >= _BATCH_DRAWS:
        return rng.integers(60, SECONDS_PER_DAY - 120, size=n).tolist()
    return [int(rng.integers(60, SECONDS_PER_DAY - 120)) for _ in range(n)]


@dataclass
class _Campaign:
    """Mutable drain-campaign state shared across agenda days.

    target_profit is the realized profit (returned minus invested minus gas)
    the campaign steers towards; the shortfall is recomputed before every
    drain so owner noise buys and gas spent along the way are repaid too.
    """

    target_profit: float
    n_left: int
    lo: float
    hi: float
    senders: Optional[List[str]] = None
    allow_withdraw: bool = True
    returned: float = 0.0


def _drain_days(rng: np.random.Generator, count: int, start_day: int,
                end_day: int) -> Dict[int, List[int]]:
    """Map day -> sorted intra-day seconds for the drain schedule."""
    span = max(end_day - start_day + 1, 1) * SECONDS_PER_DAY
    offsets = np.sort(rng.integers(0, span, size=count))
    by_day: Dict[int, List[int]] = {}
    for offset in offsets:
        day = start_day + int(offset) // SECONDS_PER_DAY
        by_day.setdefault(day, []).append(int(offset) % SECONDS_PER_DAY)
    return by_day


def _execute_drain(sim: _PoolSim, rng: np.random.Generator, ts: int,
                   campaign: _Campaign, gas: float) -> None:
    impact = _uniform(rng, campaign.lo, campaign.hi)
    remaining = (campaign.target_profit + sim.owner_invested + sim.owner_gas
                 - campaign.returned)
    if campaign.n_left > 0:
        # Keep a minimum operating value so late drains stay well-defined
        # even after the extraction target has been met.
        desired = max(remaining / campaign.n_left, 1.0)
        sim.ensure_value(ts, desired / impact)
    value = impact * sim.flow_value
    # Withdrawals are the rare drain flavour and stay well inside the owner's
    # stake, so the owner share (and with it the unrealized metric) is not
    # diluted away by the campaign.
    use_withdraw = (
        campaign.allow_withdraw
        and campaign.senders is None
        and sim.owner_share > 0.8
        and rng.random() < 0.15
        and value < 0.2 * sim.owner_share * sim.flow_value
    )
    if campaign.senders is None:
        sender = sim.owner
    else:
        sender = campaign.senders[int(rng.integers(0, len(campaign.senders)))]
    if use_withdraw:
        sim.withdraw(ts, sender, value, gas=gas)
    else:
        value = sim.sell_for_value(ts, sender, value, gas=gas)
    campaign.returned += value
    campaign.n_left -= 1


def _run_timeline(sim: _PoolSim, rng: np.random.Generator, *,
                  lifetime_days: int,
                  arrival_rate_for_day,
                  allow_investor_sells: bool,
                  noise_rate: float, noise_end_day: int,
                  drains_by_day: Optional[Dict[int, List[int]]],
                  campaign: Optional[_Campaign],
                  early_sell_days: Optional[Dict[int, List[int]]] = None,
                  rug: Optional[Tuple[int, float]] = None,
                  pump: Optional[Tuple[int, float]] = None,
                  gas: float = 0.0) -> None:
    """Process each day's agenda in intra-day second order."""
    backlog: Dict[int, List[str]] = {}
    for day in range(lifetime_days + 1):
        day_ts = sim.t0 + day * SECONDS_PER_DAY
        agenda: List[Tuple[int, int, int, object]] = []
        seq = 0

        arrivals = int(rng.poisson(arrival_rate_for_day(day)))
        sellers = backlog.pop(day, [])
        seconds = _intraday_seconds(rng, arrivals + len(sellers))
        for sec in seconds[:arrivals]:
            agenda.append((sec, seq, _ARRIVE, None))
            seq += 1
        for sec, investor in zip(seconds[arrivals:], sellers):
            agenda.append((sec, seq, _SELLBACK, investor))
            seq += 1
        if day <= noise_end_day and noise_rate > 0:
            for sec in _intraday_seconds(rng, int(rng.poisson(noise_rate))):
                agenda.append((sec, seq, _NOISE, None))
                seq += 1
        if early_sell_days:
            for sec in early_sell_days.get(day, []):
                agenda.append((sec, seq, _EARLY_SELL, None))
                seq += 1
        if drains_by_day:
            for sec in drains_by_day.get(day, []):
                agenda.append((sec, seq, _DRAIN, None))
                seq += 1
        if rug is not None and rug[0] == day:
            agenda.append((SECONDS_PER_DAY - 600, seq, _RUG, rug[1]))
            seq += 1
        if pump is not None and pump[0] == day:
            agenda.append((SECONDS_PER_DAY - 300, seq, _PUMP, pump[1]))
            seq += 1

        agenda.sort()    # by (second, seq); no two items share a seq
        for sec, _, kind, payload in agenda:
            ts = day_ts + sec
            if kind == _ARRIVE:
                investor = sim.next_investor()
                # Buy sizes are anchored to the deployment scale so organic
                # inflow grows the pool linearly, not exponentially.
                size = _INITIAL_DEPOSIT_USD * 0.01 * float(rng.lognormal(0.0, 0.6))
                size = min(max(size, 1.0), sim.flow_value * 0.1 + 1.0)
                needed_paired = size * (sim.rp / sim.rb) if sim.rb > 0 else math.inf
                if rng.random() < 0.05 and sim.holdings.get(investor, 0.0) >= needed_paired:
                    sim.deposit(ts, investor, size)
                else:
                    sim.buy(ts, investor, size)
                    if allow_investor_sells and rng.random() < 0.30:
                        delay = 1 + int(rng.exponential(15.0))
                        if day + delay <= lifetime_days:
                            backlog.setdefault(day + delay, []).append(investor)
            elif kind == _SELLBACK:
                holding = sim.holdings.get(payload, 0.0)
                if holding > 0 and sim.rp > 0:
                    # A single dump is capped relative to the paired reserve;
                    # bigger exits would eat their own slippage anyway.
                    amount = min(holding * _uniform(rng, 0.1, 1.0),
                                 sim.rp * 0.25)
                    sim.sell(ts, payload, amount)
            elif kind == _NOISE:
                size = min(sim.flow_value * _uniform(rng, 0.001, 0.005),
                           _INITIAL_DEPOSIT_USD * 0.01)
                if size > 0.01:
                    sim.buy(ts, sim.owner, size, gas=gas)
            elif kind == _EARLY_SELL:
                sim.sell_for_value(ts, sim.owner,
                                   sim.flow_value * _uniform(rng, 0.004, 0.02),
                                   gas=gas)
            elif kind == _DRAIN:
                _execute_drain(sim, rng, ts, campaign, gas)
            elif kind == _RUG:
                wave = _uniform(rng, 1.5, 3.0) * _INITIAL_DEPOSIT_USD
                sim.ensure_value(ts - 1200, _INITIAL_DEPOSIT_USD + wave)
                for _ in range(int(rng.integers(1, 4))):
                    sim.sell_for_value(
                        ts - int(rng.integers(200, 1100)), sim.owner,
                        sim.flow_value * _uniform(rng, 0.02, 0.15), gas=gas)
                sim.withdraw(ts, sim.owner, payload * sim.flow_value, gas=gas)
            elif kind == _PUMP:
                share = max(sim.owner_share, 1e-6)
                sim.ensure_value(ts, payload / share)


def _benign_profile(rng: np.random.Generator) -> SecurityProfile:
    # Soft signals (anti-whale, cooldown) appear in legitimate tokens too.
    return SecurityProfile(
        buy_tax=_uniform(rng, 0.0, 0.05),
        sell_tax=_uniform(rng, 0.0, 0.05),
        anti_whale=bool(rng.random() < 0.2),
        trading_cooldown=bool(rng.random() < 0.1),
    )


_HONEYPOT_TRIGGERS = (
    {"sell_tax": 0.8},
    {"can_sell_all": False},
    {"transfer_pausable": True},
    {"slippage_modifiable": True},
    {"balance_change_by_owner": True},
    {"buy_tax": 0.65},
)


def generate(cfg: ScenarioConfig) -> GeneratedScenario:
    """Build one labeled scenario; same config (incl. seed) => identical output."""
    rng = np.random.default_rng(cfg.seed)
    sim = _PoolSim(cfg, rng)
    deployment_gas = _uniform(rng, 80.0, 400.0)
    name = f"TOK{int(rng.integers(100, 999))}"
    gas = _GAS_PER_ORDER_USD
    kind = cfg.kind
    metadata: Dict[str, object] = {}
    profile = _benign_profile(rng)

    # Deployment deposit funds both reserves; the owner starts with the pool.
    sim.rp = _INITIAL_DEPOSIT_USD / _INITIAL_PAIRED_PRICE
    sim.rb = _INITIAL_DEPOSIT_USD
    sim.k = sim.rp * sim.rb
    sim.flow_value = _INITIAL_DEPOSIT_USD
    sim.owner_share = 1.0
    sim._emit(sim.t0, Category.DEPOSIT, sim.owner, sim.rp, sim.rb, gas=gas)

    pool = sim.pool_record(kind == ScenarioKind.LEGITIMATE, name, deployment_gas)
    invested = _INITIAL_DEPOSIT_USD

    if kind == ScenarioKind.LEGITIMATE:
        _run_timeline(
            sim, rng, lifetime_days=cfg.lifetime_days,
            arrival_rate_for_day=lambda day: cfg.investor_arrival,
            allow_investor_sells=True,
            noise_rate=0.3, noise_end_day=min(30, cfg.lifetime_days),
            drains_by_day=None, campaign=None, gas=gas)
        return GeneratedScenario(pool, profile, sim.orders, kind.value, metadata)

    if kind == ScenarioKind.RUGPULL:
        drain_day = max(cfg.rug_drain_day, 0)
        _run_timeline(
            sim, rng, lifetime_days=min(cfg.lifetime_days, drain_day + 2),
            arrival_rate_for_day=lambda day: cfg.investor_arrival * 3 if day <= drain_day else 0.5,
            allow_investor_sells=False,
            noise_rate=1.0, noise_end_day=drain_day,
            drains_by_day=None, campaign=None,
            rug=(drain_day, cfg.rug_impact), gas=gas)
        return GeneratedScenario(pool, profile, sim.orders, kind.value, metadata)

    if kind == ScenarioKind.HONEYPOT:
        trigger = _HONEYPOT_TRIGGERS[int(rng.integers(0, len(_HONEYPOT_TRIGGERS)))]
        profile = SecurityProfile(**trigger)
        metadata["trigger"] = dict(trigger)
        campaign = _Campaign(
            target_profit=_uniform(rng, 2.0, 4.0) * invested,
            n_left=int(rng.integers(8, 30)), lo=0.05, hi=0.40)
        drains = _drain_days(rng, campaign.n_left, 1, min(45, cfg.lifetime_days))
        _run_timeline(
            sim, rng, lifetime_days=cfg.lifetime_days,
            arrival_rate_for_day=lambda day: cfg.investor_arrival,
            allow_investor_sells=False,
            noise_rate=0.5, noise_end_day=min(45, cfg.lifetime_days),
            drains_by_day=drains, campaign=campaign, gas=gas)
        return GeneratedScenario(pool, profile, sim.orders, kind.value, metadata)

    # SLID family ------------------------------------------------------------
    if kind == ScenarioKind.SLID_SLOW:
        drain_start = cfg.slow_start_day
        drain_end = min(cfg.slow_start_day + 60, cfg.lifetime_days)
    else:
        drain_start = 1
        drain_end = min(28, max(1, cfg.lifetime_days - 1))
    drains = _drain_days(rng, cfg.slid_drain_count, drain_start, drain_end)

    senders = None
    if kind == ScenarioKind.SLID_MULTI_ADDRESS:
        senders = _addresses(rng, _MULTI_ADDRESS_COUNT)
        metadata["linked_addresses"] = list(senders)

    early: Optional[Dict[int, List[int]]] = None
    if kind == ScenarioKind.SLID_SLOW:
        early = {}
        for day in sorted(int(d) for d in rng.integers(3, 50, size=cfg.early_sell_count)):
            early.setdefault(day, []).append(int(rng.integers(60, SECONDS_PER_DAY - 120)))

    campaign = _Campaign(
        target_profit=_PROFIT_MULTIPLE_TARGET * invested,
        n_left=cfg.slid_drain_count,
        lo=cfg.slid_impact_range[0], hi=cfg.slid_impact_range[1],
        senders=senders)
    pump = None
    if cfg.lifetime_days > 30 and kind != ScenarioKind.SLID_SLOW:
        pump = (29, _RESIDUAL_MULTIPLE_TARGET * invested)

    _run_timeline(
        sim, rng, lifetime_days=cfg.lifetime_days,
        arrival_rate_for_day=lambda day: cfg.investor_arrival,
        allow_investor_sells=True,
        noise_rate=_OWNER_NOISE_TRADES_PER_DAY,
        noise_end_day=min(70, cfg.lifetime_days),
        drains_by_day=drains, campaign=campaign,
        early_sell_days=early, pump=pump, gas=gas)

    if campaign.returned <= 0:
        raise InfeasibleConfig("drain campaign extracted nothing")
    metadata["drain_count"] = cfg.slid_drain_count
    metadata["returned_total_usd"] = campaign.returned
    label = (ScenarioKind.SLID_MULTI_ADDRESS.value
             if kind == ScenarioKind.SLID_MULTI_ADDRESS else ScenarioKind.SLID.value)
    if kind == ScenarioKind.SLID_SLOW:
        label = ScenarioKind.SLID_SLOW.value
    return GeneratedScenario(pool, profile, sim.orders, label, metadata)


# ---------------------------------------------------------------------------
# Corpus helper
# ---------------------------------------------------------------------------

_KIND_ORDER = (
    ScenarioKind.LEGITIMATE, ScenarioKind.RUGPULL, ScenarioKind.HONEYPOT,
    ScenarioKind.SLID, ScenarioKind.SLID_SLOW, ScenarioKind.SLID_MULTI_ADDRESS,
)


def plan_corpus(counts: Dict[ScenarioKind, int], seed: int = 0,
                overrides: Optional[Dict[ScenarioKind, Dict[str, object]]] = None,
                lifetime_chooser=None) -> List[ScenarioConfig]:
    """Deterministic per-scenario configs with seeds derived from one master.

    `overrides` maps kind -> ScenarioConfig keyword overrides;
    `lifetime_chooser(kind, index, seed)` may return a lifetime in days.
    """
    overrides = overrides or {}
    master = np.random.SeedSequence(seed)
    children = master.spawn(sum(counts.get(k, 0) for k in _KIND_ORDER))
    child_iter = iter(children)
    plans: List[ScenarioConfig] = []
    for kind in _KIND_ORDER:
        for index in range(counts.get(kind, 0)):
            scenario_seed = int(next(child_iter).generate_state(1)[0])
            kwargs = dict(overrides.get(kind, {}))
            if lifetime_chooser is not None:
                lifetime = lifetime_chooser(kind, index, scenario_seed)
                if lifetime is not None:
                    kwargs["lifetime_days"] = lifetime
            plans.append(ScenarioConfig(kind=kind, seed=scenario_seed, **kwargs))
    return plans


def scenario_pool_address(cfg: ScenarioConfig) -> str:
    """Pool address a config will produce, without running its timeline."""
    return _PoolSim(cfg, np.random.default_rng(cfg.seed)).pool_address


def build_corpus(counts: Dict[ScenarioKind, int], seed: int = 0,
                 overrides: Optional[Dict[ScenarioKind, Dict[str, object]]] = None,
                 lifetime_chooser=None,
                 sort_by_address: bool = False) -> Iterable[GeneratedScenario]:
    """Scenarios for each kind/count, generated lazily: one pool's orders in
    memory at a time. Every scenario is planned, and its config checked, on
    the call.

    With sort_by_address the stream is grouped by ascending pool address
    (stable output files) at the cost of planning the headers twice.
    """
    plans = plan_corpus(counts, seed, overrides, lifetime_chooser)
    if sort_by_address:
        plans.sort(key=scenario_pool_address)
    return (generate(plan) for plan in plans)


# ---------------------------------------------------------------------------
# Declarative corpus configuration (key=value file)
# ---------------------------------------------------------------------------

_KIND_ALIASES = {
    "legitimate": ScenarioKind.LEGITIMATE,
    "rugpull": ScenarioKind.RUGPULL,
    "honeypot": ScenarioKind.HONEYPOT,
    "slid": ScenarioKind.SLID,
    "slidslow": ScenarioKind.SLID_SLOW,
    "slidmultiaddress": ScenarioKind.SLID_MULTI_ADDRESS,
}

# ScenarioConfig field -> its default, whose type parses the option's value.
_OPTION_DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig)
                    if f.name not in ("kind", "seed")}


def corpus_spec_from_options(options: Dict[str, str]):
    """Translate `kind.key=value` options into build_corpus arguments.

    Recognised per-kind keys: `count`, any ScenarioConfig field but `kind`
    and `seed` (both set per scenario by plan_corpus), each parsed by the
    type of its default (`config.parse_value`), plus
    `survive_month_fraction` (share of pools given the full lifetime) with
    `short_lifetime_days` for the rest. A bare `seed=` sets the master seed.
    A value that does not parse, a negative count or an impact range that is
    not two numbers raises ConfigError naming the key and the value.
    Returns (counts, seed, overrides, lifetime_chooser).
    """
    seed = 0
    counts: Dict[ScenarioKind, int] = {}
    overrides: Dict[ScenarioKind, Dict[str, object]] = {}
    survival: Dict[ScenarioKind, Tuple[float, int]] = {}
    for key, raw in options.items():
        try:
            if key == "seed":
                seed = int(raw)
                continue
            if "." not in key:
                raise ConfigError(f"corpus option {key!r} must be seed or kind.key")
            kind_name, field_name = key.split(".", 1)
            kind = _KIND_ALIASES.get(kind_name.lower())
            if kind is None:
                raise ConfigError(f"unknown scenario kind {kind_name!r}")
            if field_name == "count":
                counts[kind] = int(raw)
                if counts[kind] < 0:
                    raise ValueError("negative count")
            elif field_name == "survive_month_fraction":
                fraction, short = survival.get(kind, (1.0, 10))
                survival[kind] = (float(raw), short)
            elif field_name == "short_lifetime_days":
                fraction, _ = survival.get(kind, (1.0, 10))
                survival[kind] = (fraction, int(raw))
            elif field_name in _OPTION_DEFAULTS:
                overrides.setdefault(kind, {})[field_name] = parse_value(
                    _OPTION_DEFAULTS[field_name], raw)
            else:
                raise ConfigError(f"unknown scenario option {field_name!r}")
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc

    chooser = None
    if survival:
        def chooser(kind, index, _seed):
            if kind not in survival:
                return None
            fraction, short_days = survival[kind]
            long_count = int(round(fraction * counts.get(kind, 0)))
            if index < long_count:
                return None      # keep the configured lifetime
            return short_days
    return counts, seed, overrides, chooser


# ---------------------------------------------------------------------------
# Independent oracle (no code shared with the metrics module)
# ---------------------------------------------------------------------------

def oracle_report(orders: Sequence[DexOrder], pool: PoolRecord) -> ProfitReport:
    """Recompute the full profit report by naive summation and LP-unit shares.

    Used only for verification: a separate code path from metrics.ProfitTracker.
    Owner share comes from direct liquidity-unit accounting (units held by the
    owner over total units), not the incremental rescaling rule.
    """
    owner = pool.owner_address
    month1_cutoff = pool.created_time_pool + FIRST_MONTH_SECONDS

    invested = 0.0
    returned = 0.0
    gas = pool.deployment_gas_usd
    owner_orders = 0
    impacts: List[float] = []

    value = 0.0
    units_total = 0.0
    units_owner = 0.0
    share = 0.0               # frozen at its last defined value when units vanish
    month1_value = None
    month1_share = None

    for order in orders:
        usd = order.y_base * order.price_base
        if order.timestamp > month1_cutoff and month1_value is None:
            month1_value = value
            month1_share = share

        is_owner = order.sender == owner
        if is_owner:
            owner_orders += 1
            gas += order.gas_fee_usd
            if order.category in (Category.SELL, Category.WITHDRAW):
                returned += usd
                impacts.append(usd / value if value > 0 else math.inf)
            else:
                invested += usd

        before = value
        if order.category in (Category.BUY, Category.DEPOSIT):
            value = before + usd
        else:
            value = max(before - usd, 0.0)

        if order.category == Category.DEPOSIT:
            if before <= 0:
                # Prior stakes are worthless once the pool hit zero value;
                # a reviving deposit owns the whole pool.
                units_total = 0.0
                units_owner = 0.0
                minted = usd
            elif units_total == 0:
                minted = usd
            else:
                minted = units_total * usd / before
            units_total += minted
            if is_owner:
                units_owner += minted
        elif order.category == Category.WITHDRAW and before > 0 and units_total > 0:
            burned = min(units_total * usd / before, units_total)
            units_total -= burned
            if is_owner:
                units_owner = max(units_owner - burned, 0.0)

        if units_total > 0 and value > 0:
            share = units_owner / units_total

    if month1_value is None:
        month1_value = value
        month1_share = share

    finite = [impact for impact in impacts if math.isfinite(impact)]
    return ProfitReport(
        realized_profit_usd=returned - invested - gas,
        invested_usd=invested,
        returned_usd=returned,
        gas_usd=gas,
        unrealized_first_month_usd=month1_value * month1_share,
        unrealized_current_usd=value * share,
        profit_taking_count=len(impacts),
        max_impact=max(finite) if finite else 0.0,
        min_impact=min(finite) if finite else 0.0,
        mean_impact=sum(finite) / len(finite) if finite else 0.0,
        owner_order_count=owner_orders,
        undefined_impacts=len(impacts) - len(finite),
    )
