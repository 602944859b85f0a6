"""Synthetic pool scenario generator and the independent verification oracle.

Each scenario builds a full order history through the ledger's own swap math,
so recorded post-order balances are always self-consistent, and steers by the
pool value and owner share of the ledger's own replay (`advance_state`), the
figures `detect` computes from the written orders. Scenario kinds:

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

`generate` draws a scenario's owner events (early sells, drains, a rug, a
pump) into one schedule, day -> [(second, event, payload)]. Each day the
engine adds them to the investor and noise trades it draws and runs the lot
in second order, a tie keeping the order items were added (drawn trades
first), so timestamps strictly increase and a seed gives the same bytes.

oracle_report() at the bottom recomputes every profit metric by naive
summation and LP-unit share accounting. It deliberately shares no code with
the metrics module; tests compare the two paths.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, fields
from enum import Enum
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .ledger import (
    SECONDS_PER_DAY,
    Category,
    DexOrder,
    LedgerState,
    PoolRecord,
    advance_state,
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
_MAX_LIFETIME_DAYS = 3650             # a pool's days are walked, its orders held
_MAX_ARRIVAL_PER_DAY = 1000.0         # investor buys are drawn one by one
_MAX_COUNT = 100_000                  # investors, drains or early sells drawn at once
_MAX_EXPECTED_BUYS = 200_000          # investor_arrival * (lifetime_days + 1) per pool

# [low, high] of each numeric ScenarioConfig field, both ends allowed.
_FIELD_BOUNDS = {
    "investor_count": (1, _MAX_COUNT),
    "investor_arrival": (0.0, _MAX_ARRIVAL_PER_DAY),
    "lifetime_days": (1, _MAX_LIFETIME_DAYS),
    "slid_drain_count": (1, _MAX_COUNT),
    "rug_drain_day": (0, _MAX_LIFETIME_DAYS),
    "rug_impact": (_IMPACT_SPLIT, 1.0),
    "slow_start_day": (0, _MAX_LIFETIME_DAYS),
    "early_sell_count": (0, _MAX_COUNT),
}


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
        for name, (low, high) in _FIELD_BOUNDS.items():
            value = getattr(self, name)
            if not low <= value <= high:
                raise InfeasibleConfig(f"{name} must be in [{low}, {high}], got {value!r}")
        buys = self.investor_arrival * (self.lifetime_days + 1)
        if buys > _MAX_EXPECTED_BUYS:
            raise InfeasibleConfig("investor_arrival * (lifetime_days + 1) must be in "
                                   f"[0, {_MAX_EXPECTED_BUYS}], got {buys!r}")
        lo, hi = self.slid_impact_range
        if not (0.0 < lo < hi < _IMPACT_SPLIT):
            raise InfeasibleConfig(
                f"slid_impact_range must sit strictly inside (0, {_IMPACT_SPLIT})")
        if self.kind == ScenarioKind.RUGPULL and self.rug_drain_day >= self.lifetime_days:
            raise InfeasibleConfig("rug_drain_day beyond pool lifetime")
        if self.kind == ScenarioKind.SLID_SLOW:
            if self.early_sell_count >= 5:
                raise InfeasibleConfig(
                    "slow scenarios must keep early profit-taking below five orders")
            if self.lifetime_days <= self.slow_start_day:
                raise InfeasibleConfig("slow scenarios need lifetime beyond slow_start_day")


@dataclass
class GeneratedScenario:
    pool: PoolRecord
    profile: SecurityProfile
    orders: List[DexOrder]
    true_label: str


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
    """Evolving reserves of one scenario, plus its pool value and owner share
    in a `LedgerState` that every emitted order advances through the
    ledger's own replay (`advance_state`), so the simulation steers by the
    figures `detect` will compute."""

    def __init__(self, cfg: ScenarioConfig, rng: np.random.Generator):
        self.rng = rng
        self.orders: List[DexOrder] = []
        (self.pool_address, self.base_address, self.paired_address, self.owner,
         *self.investors) = _addresses(rng, 4 + cfg.investor_count)
        self.t0 = _EPOCH + int(rng.integers(0, 730)) * SECONDS_PER_DAY
        self.last_ts = self.t0 - 1
        self.rp = 0.0            # paired reserve
        self.rb = 0.0            # base reserve
        self.k = 0.0
        self.state = LedgerState()
        self.holdings: Dict[str, float] = {}
        self.owner_invested = 0.0
        self.owner_gas = 0.0
        self._investor_cursor = 0

    def _emit(self, ts: int, category: Category, sender: str, y_paired: float,
              y_base: float, gas: float = 0.0) -> None:
        """Append an order and apply it to the replay state; its timestamp is
        moved past the previous order's and its hash numbers the pool's
        orders from 1."""
        ts = max(int(ts), self.last_ts + 1)
        self.last_ts = ts
        advance_state(self.state, ts, category, sender == self.owner, y_base, 1.0)
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

    def deposit(self, ts: int, investor: str, y_base: float) -> None:
        """An investor adds liquidity from the paired tokens they hold, at
        the pool's price (the reserves are not empty)."""
        y_paired = y_base * (self.rp / self.rb)
        self.rp += y_paired
        self.rb += y_base
        self.k = self.rp * self.rb
        self.holdings[investor] = max(self.holdings[investor] - y_paired, 0.0)
        self._emit(ts, Category.DEPOSIT, investor, y_paired, y_base)

    def withdraw(self, ts: int, y_base: float, gas: float) -> None:
        """The owner removes liquidity at the pool's price."""
        y_base = min(y_base, self.rb * 0.999999)
        y_paired = y_base * (self.rp / self.rb)
        self.owner_gas += gas
        self.rp -= y_paired
        self.rb -= y_base
        self.k = self.rp * self.rb
        self._emit(ts, Category.WITHDRAW, self.owner, y_paired, y_base, gas)

    def buy(self, ts: int, sender: str, y_base: float, gas: float = 0.0) -> float:
        out, self.rb, self.rp = swap_amount_out(self.rb, self.rp, self.k, y_base)
        if sender != self.owner:
            self.holdings[sender] = self.holdings.get(sender, 0.0) + out
        else:
            self.owner_invested += y_base
            self.owner_gas += gas
        self._emit(ts, Category.BUY, sender, out, y_base, gas)
        return out

    def sell(self, ts: int, sender: str, y_paired: float, gas: float = 0.0) -> float:
        out, self.rp, self.rb = swap_amount_out(self.rp, self.rb, self.k, y_paired)
        if sender != self.owner and sender in self.holdings:
            self.holdings[sender] = max(self.holdings[sender] - y_paired, 0.0)
        elif sender == self.owner:
            self.owner_gas += gas
        self._emit(ts, Category.SELL, sender, y_paired, out, gas)
        return out

    def sell_for_value(self, ts: int, sender: str, target_base_out: float,
                       gas: float) -> float:
        """Sell exactly enough paired tokens to extract ~target_base_out."""
        target_base_out = max(min(target_base_out, self.rb * 0.999), 1e-9)
        amount_in = self.k / (self.rb - target_base_out) - self.rp
        return self.sell(ts, sender, amount_in, gas)

    def ensure_value(self, ts: int, target_value: float) -> None:
        """Investor top-up buys raising the pool's value to target_value."""
        value = self.state.pool_value_usd
        gap = target_value - value
        if gap <= 0:
            return
        pieces = 1 if gap < value else min(3, int(gap / max(value, 1.0)) + 1)
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
    returned: float = 0.0


def _drain_days(rng: np.random.Generator, count: int, start_day: int,
                end_day: int) -> List[Tuple[int, int]]:
    """(day, intra-day second) of each drain, in time order; end_day >= start_day."""
    span = (end_day - start_day + 1) * SECONDS_PER_DAY
    offsets = np.sort(rng.integers(0, span, size=count)) + start_day * SECONDS_PER_DAY
    return [divmod(offset, SECONDS_PER_DAY) for offset in offsets.tolist()]


def _execute_drain(sim: _PoolSim, rng: np.random.Generator, ts: int,
                   campaign: _Campaign) -> None:
    impact = _uniform(rng, campaign.lo, campaign.hi)
    remaining = (campaign.target_profit + sim.owner_invested + sim.owner_gas
                 - campaign.returned)
    # Keep a minimum operating value so late drains stay well-defined even
    # after the extraction target has been met.
    desired = max(remaining / campaign.n_left, 1.0)
    sim.ensure_value(ts, desired / impact)
    state = sim.state
    value = impact * state.pool_value_usd
    # Withdrawals are the rare drain flavour and stay well inside the owner's
    # stake, so the owner share (and with it the unrealized metric) is not
    # diluted away by the campaign.
    use_withdraw = (
        campaign.senders is None
        and state.owner_share > 0.8
        and rng.random() < 0.15
        and value < 0.2 * state.owner_share * state.pool_value_usd
    )
    if campaign.senders is None:
        sender = sim.owner
    else:
        sender = campaign.senders[int(rng.integers(0, len(campaign.senders)))]
    if use_withdraw:    # the owner's own campaign only
        sim.withdraw(ts, value, gas=_GAS_PER_ORDER_USD)
    else:
        value = sim.sell_for_value(ts, sender, value, gas=_GAS_PER_ORDER_USD)
    campaign.returned += value
    campaign.n_left -= 1


_Schedule = Dict[int, List[Tuple[int, int, object]]]


def _run_timeline(sim: _PoolSim, rng: np.random.Generator, *, lifetime_days: int,
                  arrival_rate_for_day, allow_investor_sells: bool,
                  noise_rate: float, noise_end_day: int, events: _Schedule) -> None:
    """Run days 0..lifetime_days. A day's agenda is its drawn arrivals,
    sell-backs and (to noise_end_day) owner noise buys, then its `events`:
    (second, event, payload), the payload a drain's `_Campaign`, a rug's
    impact or a pump's target value. A stable sort by second runs it, so a
    tie keeps that order, and scheduled events the order they were added."""
    state = sim.state
    gas = _GAS_PER_ORDER_USD
    backlog: Dict[int, List[str]] = {}
    for day in range(lifetime_days + 1):
        day_ts = sim.t0 + day * SECONDS_PER_DAY
        arrivals = int(rng.poisson(arrival_rate_for_day(day)))
        sellers = backlog.pop(day, [])
        seconds = _intraday_seconds(rng, arrivals + len(sellers))
        agenda = [(sec, _ARRIVE, None) for sec in seconds[:arrivals]]
        agenda += [(sec, _SELLBACK, investor)
                   for sec, investor in zip(seconds[arrivals:], sellers)]
        if day <= noise_end_day and noise_rate > 0:
            agenda += [(sec, _NOISE, None) for sec in
                       _intraday_seconds(rng, int(rng.poisson(noise_rate)))]
        agenda += events.get(day, ())
        agenda.sort(key=itemgetter(0))

        for sec, kind, payload in agenda:
            ts = day_ts + sec
            if kind == _ARRIVE:
                investor = sim.next_investor()
                # Buy sizes are anchored to the deployment scale so organic
                # inflow grows the pool linearly, not exponentially.
                size = _INITIAL_DEPOSIT_USD * 0.01 * float(rng.lognormal(0.0, 0.6))
                size = min(max(size, 1.0), state.pool_value_usd * 0.1 + 1.0)
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
                size = min(state.pool_value_usd * _uniform(rng, 0.001, 0.005),
                           _INITIAL_DEPOSIT_USD * 0.01)
                if size > 0.01:
                    sim.buy(ts, sim.owner, size, gas=gas)
            elif kind == _EARLY_SELL:
                sim.sell_for_value(ts, sim.owner,
                                   state.pool_value_usd * _uniform(rng, 0.004, 0.02),
                                   gas=gas)
            elif kind == _DRAIN:
                _execute_drain(sim, rng, ts, payload)
            elif kind == _RUG:
                wave = _uniform(rng, 1.5, 3.0) * _INITIAL_DEPOSIT_USD
                sim.ensure_value(ts - 1200, _INITIAL_DEPOSIT_USD + wave)
                for _ in range(int(rng.integers(1, 4))):
                    sim.sell_for_value(
                        ts - int(rng.integers(200, 1100)), sim.owner,
                        state.pool_value_usd * _uniform(rng, 0.02, 0.15), gas=gas)
                sim.withdraw(ts, payload * state.pool_value_usd, gas=gas)
            elif kind == _PUMP:
                share = max(state.owner_share, 1e-6)
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
    kind = cfg.kind
    profile = _benign_profile(rng)

    # Deployment deposit funds both reserves; the owner starts with the pool.
    sim.rp = _INITIAL_DEPOSIT_USD / _INITIAL_PAIRED_PRICE
    sim.rb = _INITIAL_DEPOSIT_USD
    sim.k = sim.rp * sim.rb
    sim._emit(sim.t0, Category.DEPOSIT, sim.owner, sim.rp, sim.rb, gas=_GAS_PER_ORDER_USD)

    pool = sim.pool_record(kind == ScenarioKind.LEGITIMATE, name, deployment_gas)
    invested = _INITIAL_DEPOSIT_USD

    events: _Schedule = defaultdict(list)
    lifetime_days = cfg.lifetime_days
    arrival_rate_for_day = lambda day: cfg.investor_arrival
    allow_investor_sells = True
    slid_campaign = None
    if kind == ScenarioKind.LEGITIMATE:
        noise_rate, noise_end_day = 0.3, min(30, lifetime_days)
    elif kind == ScenarioKind.RUGPULL:
        drain_day = cfg.rug_drain_day
        lifetime_days = min(lifetime_days, drain_day + 2)
        arrival_rate_for_day = lambda day: cfg.investor_arrival * 3 if day <= drain_day else 0.5
        allow_investor_sells = False
        noise_rate, noise_end_day = 1.0, drain_day
        events[drain_day].append((SECONDS_PER_DAY - 600, _RUG, cfg.rug_impact))
    elif kind == ScenarioKind.HONEYPOT:
        trigger = _HONEYPOT_TRIGGERS[int(rng.integers(0, len(_HONEYPOT_TRIGGERS)))]
        profile = SecurityProfile(**trigger)
        campaign = _Campaign(
            target_profit=_uniform(rng, 2.0, 4.0) * invested,
            n_left=int(rng.integers(8, 30)), lo=0.05, hi=0.40)
        for day, second in _drain_days(rng, campaign.n_left, 1, min(45, lifetime_days)):
            events[day].append((second, _DRAIN, campaign))
        allow_investor_sells = False
        noise_rate, noise_end_day = 0.5, min(45, lifetime_days)
    else:    # the SLID family
        slow = kind == ScenarioKind.SLID_SLOW
        if slow:
            start, end = cfg.slow_start_day, min(cfg.slow_start_day + 60, lifetime_days)
        else:
            start, end = 1, min(28, max(1, lifetime_days - 1))
        drains = _drain_days(rng, cfg.slid_drain_count, start, end)
        multi = kind == ScenarioKind.SLID_MULTI_ADDRESS
        senders = _addresses(rng, _MULTI_ADDRESS_COUNT) if multi else None
        if slow:
            for day in sorted(rng.integers(3, 50, size=cfg.early_sell_count).tolist()):
                events[day].append((int(rng.integers(60, SECONDS_PER_DAY - 120)),
                                    _EARLY_SELL, None))
        slid_campaign = _Campaign(
            target_profit=_PROFIT_MULTIPLE_TARGET * invested, n_left=cfg.slid_drain_count,
            lo=cfg.slid_impact_range[0], hi=cfg.slid_impact_range[1], senders=senders)
        for day, second in drains:
            events[day].append((second, _DRAIN, slid_campaign))
        if lifetime_days > 30 and not slow:
            events[29].append((SECONDS_PER_DAY - 300, _PUMP,
                               _RESIDUAL_MULTIPLE_TARGET * invested))
        noise_rate, noise_end_day = _OWNER_NOISE_TRADES_PER_DAY, min(70, lifetime_days)

    _run_timeline(sim, rng, lifetime_days=lifetime_days,
                  arrival_rate_for_day=arrival_rate_for_day,
                  allow_investor_sells=allow_investor_sells,
                  noise_rate=noise_rate, noise_end_day=noise_end_day, events=events)
    if slid_campaign is not None and slid_campaign.returned <= 0:
        raise InfeasibleConfig("drain campaign extracted nothing")
    return GeneratedScenario(pool, profile, sim.orders, kind.value)


# ---------------------------------------------------------------------------
# Corpus helper
# ---------------------------------------------------------------------------

_KIND_ORDER = tuple(ScenarioKind)


def plan_corpus(counts: Dict[ScenarioKind, int], seed: int = 0,
                overrides: Optional[Dict[ScenarioKind, Dict[str, object]]] = None,
                survival: Optional[Dict[ScenarioKind, Tuple[float, int]]] = None,
                ) -> List[ScenarioConfig]:
    """Deterministic per-scenario configs with seeds derived from one master.

    `overrides` maps kind -> ScenarioConfig keyword overrides. `survival`
    maps kind -> (fraction, short_days): the first round(fraction * count)
    pools of the kind keep the configured lifetime, the rest live
    short_days.
    """
    overrides = overrides or {}
    survival = survival or {}
    master = np.random.SeedSequence(seed)
    children = master.spawn(sum(counts.get(k, 0) for k in _KIND_ORDER))
    child_iter = iter(children)
    plans: List[ScenarioConfig] = []
    for kind in _KIND_ORDER:
        count = counts.get(kind, 0)
        fraction, short_days = survival.get(kind, (1.0, 0))
        long_count = int(round(fraction * count))
        for index in range(count):
            scenario_seed = int(next(child_iter).generate_state(1)[0])
            kwargs = dict(overrides.get(kind, {}))
            if index >= long_count:
                kwargs["lifetime_days"] = short_days
            plans.append(ScenarioConfig(kind=kind, seed=scenario_seed, **kwargs))
    return plans


def scenario_pool_address(cfg: ScenarioConfig) -> str:
    """Pool address a config will produce: the first address `_PoolSim`
    draws from the scenario's generator."""
    return _addresses(np.random.default_rng(cfg.seed), 1)[0]


def build_corpus(counts: Dict[ScenarioKind, int], seed: int = 0,
                 overrides: Optional[Dict[ScenarioKind, Dict[str, object]]] = None,
                 survival: Optional[Dict[ScenarioKind, Tuple[float, int]]] = None,
                 sort_by_address: bool = False) -> Iterable[GeneratedScenario]:
    """Scenarios for each kind/count, generated lazily: one pool's orders in
    memory at a time. Every scenario is planned, and its config checked, on
    the call.

    With sort_by_address the stream is grouped by ascending pool address
    (stable output files).
    """
    plans = plan_corpus(counts, seed, overrides, survival)
    if sort_by_address:
        plans.sort(key=scenario_pool_address)
    return (generate(plan) for plan in plans)


# ---------------------------------------------------------------------------
# Declarative corpus configuration (key=value file)
# ---------------------------------------------------------------------------

_KIND_ALIASES = {kind.value.lower(): kind for kind in ScenarioKind}

# ScenarioConfig field -> its default, whose type parses the option's value.
_OPTION_DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig)
                    if f.name not in ("kind", "seed")}


def corpus_spec_from_options(options: Dict[str, str]):
    """Translate `kind.key=value` options into build_corpus arguments.

    Recognised per-kind keys: `count`, any ScenarioConfig field but `kind`
    and `seed` (both set per scenario by plan_corpus), each parsed by the
    type of its default (`config.parse_value`), plus
    `survive_month_fraction` (share of pools given the full lifetime) with
    `short_lifetime_days` (default 10) for the rest. A bare `seed=` sets the
    master seed. A value that does not parse, a negative seed or count, a
    `survive_month_fraction` that is not a finite number in [0, 1] or an
    impact range that is not two numbers raises ConfigError naming the key
    and the value. Returns (counts, seed, overrides, survival), the
    arguments of build_corpus.
    """
    seed = 0
    counts: Dict[ScenarioKind, int] = {}
    overrides: Dict[ScenarioKind, Dict[str, object]] = {}
    survival: Dict[ScenarioKind, Tuple[float, int]] = {}
    for key, raw in options.items():
        try:
            if key == "seed":
                seed = int(raw)
                if seed < 0:
                    raise ValueError("negative seed")
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
                fraction = float(raw)
                if not 0.0 <= fraction <= 1.0:
                    raise ValueError("fraction outside [0, 1]")
                survival[kind] = (fraction, survival.get(kind, (1.0, 10))[1])
            elif field_name == "short_lifetime_days":
                short_days = int(raw)
                low, high = _FIELD_BOUNDS["lifetime_days"]
                if not low <= short_days <= high:
                    raise ValueError("lifetime outside its bounds")
                survival[kind] = (survival.get(kind, (1.0, 10))[0], short_days)
            elif field_name in _OPTION_DEFAULTS:
                overrides.setdefault(kind, {})[field_name] = parse_value(
                    _OPTION_DEFAULTS[field_name], raw)
            else:
                raise ConfigError(f"unknown scenario option {field_name!r}")
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return counts, seed, overrides, survival


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
