"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> PASS: ...` line on success; a failed
assertion marks the criterion red. Criteria 6 and 8 build sizable corpora
and dominate the runtime (the whole module stays within its stated budgets).
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from slidscan.analysis import analyze, enrich
from slidscan.earlywarn import (
    ClassifierKind,
    prepare_windows,
    sweep,
    window_speedup,
)
from slidscan.ledger import LedgerState, advance_state, swap_amount_out
from slidscan.metrics import profit_report
from slidscan.synth import (
    ScenarioConfig,
    ScenarioKind,
    build_corpus,
    generate,
    oracle_report,
)
from slidscan.validators import DEFAULT_CONFIG, Label, classify_pool

from conftest import OWNER, USER, UnitShareOracle, make_dataset, make_order

pytestmark = pytest.mark.acceptance

D_LIST = (267, 150, 100, 60, 59, 58, 57, 56)


def _passline(n: int, message: str) -> None:
    print(f"\nACCEPTANCE {n} PASS: {message}", flush=True)


def classify_scenario(scenario, cfg=DEFAULT_CONFIG):
    report = profit_report(scenario.pool, scenario.orders)
    return classify_pool(scenario.pool, scenario.profile, report, cfg), report


# ---------------------------------------------------------------------------
# 1. AMM invariant suite
# ---------------------------------------------------------------------------

def test_acceptance_1_amm_invariant_suite():
    started = time.time()
    rng = np.random.default_rng(1001)
    n_sequences = 10_000
    lengths = rng.integers(1, 1001, size=n_sequences)
    worst = 0.0
    total_swaps = 0
    for length in lengths:
        length = int(length)
        rp, rb = float(rng.uniform(10.0, 1e6)), float(rng.uniform(10.0, 1e6))
        k = rp * rb
        fracs = rng.uniform(1e-4, 0.5, size=length)
        sides = rng.random(size=length) < 0.5
        for i in range(length):
            if sides[i]:
                _, rb, rp = swap_amount_out(rb, rp, k, rb * fracs[i])
            else:
                _, rp, rb = swap_amount_out(rp, rb, k, rp * fracs[i])
            deviation = abs(rp * rb / k - 1.0)
            if deviation > worst:
                worst = deviation
        total_swaps += length
    assert worst <= 1e-9, f"float-mode product deviation {worst}"

    # Rational mode: the product is exactly k after every swap.
    for _ in range(30):
        rp = Fraction(int(rng.integers(10, 10_000)), int(rng.integers(1, 7)))
        rb = Fraction(int(rng.integers(10, 10_000)), int(rng.integers(1, 7)))
        k = rp * rb
        for _ in range(40):
            amount = Fraction(int(rng.integers(1, 500)), int(rng.integers(1, 9)))
            if rng.random() < 0.5:
                _, rb, rp = swap_amount_out(rb, rp, k, amount)
            else:
                _, rp, rb = swap_amount_out(rp, rb, k, amount)
            assert rp * rb == k

    elapsed = time.time() - started
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s over budget"
    _passline(1, f"{n_sequences} sequences / {total_swaps} swaps, max product "
                 f"deviation {worst:.2e} (exact under rationals), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Owner financial guarantee on round-trip scenarios
# ---------------------------------------------------------------------------

def test_acceptance_2_owner_guarantee():
    from slidscan.ledger import verify_owner_guarantee

    started = time.time()
    rng = np.random.default_rng(2002)
    for scenario_index in range(1000):
        base0 = float(rng.uniform(100.0, 1e5))
        paired0 = float(rng.uniform(100.0, 1e6))
        orders = [make_order("Deposit", base0, y_paired=paired0,
                             sender=OWNER, ts=1_900_000_000)]
        rp, rb, k = paired0, base0, paired0 * base0
        holdings = []
        ts = 1_900_000_001
        for _ in range(int(rng.integers(1, 20))):
            amount = rb * float(rng.uniform(0.001, 0.4))
            out, rb, rp = swap_amount_out(rb, rp, k, amount)
            orders.append(make_order("Buy", amount, y_paired=out,
                                     sender=USER, ts=ts))
            holdings.append(out)
            ts += 1
        order_perm = rng.permutation(len(holdings))
        for j in order_perm:
            got, rp, rb = swap_amount_out(rp, rb, k, holdings[int(j)])
            orders.append(make_order("Sell", got, y_paired=holdings[int(j)],
                                     sender=USER, ts=ts))
            ts += 1
        assert verify_owner_guarantee(orders, rel_tol=1e-9), (
            f"guarantee failed on scenario {scenario_index}")
    elapsed = time.time() - started
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s over budget"
    _passline(2, f"1000 randomized round-trip scenarios restore the base "
                 f"reserve within 1e-9, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Owner-share oracle equivalence
# ---------------------------------------------------------------------------

def test_acceptance_3_owner_share_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(3003)
    worst = 0.0
    total_updates = 0
    for _ in range(1000):
        length = int(np.exp(rng.uniform(np.log(10), np.log(10_000))))
        state = LedgerState()
        oracle = UnitShareOracle()
        advance_state(state, timestamp=0, category="Deposit", is_owner=True,
                      y_base=100.0, price_base=1.0)
        oracle.apply("Deposit", 100.0, True)
        stakes = {True: 100.0, False: 0.0}
        ts = 1
        deposits = rng.uniform(1.0, 150.0, size=length)
        withdraw_fracs = rng.uniform(0.0, 0.95, size=length)
        pick_owner = rng.random(size=length) < 0.5
        pick_deposit = rng.random(size=length) < 0.6
        for i in range(length):
            is_owner = bool(pick_owner[i])
            if pick_deposit[i]:
                usd = float(deposits[i])
                stakes[is_owner] += usd
                category = "Deposit"
            else:
                usd = stakes[is_owner] * float(withdraw_fracs[i])
                if usd <= 1e-9:
                    continue
                stakes[is_owner] -= usd
                category = "Withdraw"
            advance_state(state, timestamp=ts, category=category,
                          is_owner=is_owner, y_base=usd, price_base=1.0)
            oracle.apply(category, usd, is_owner)
            ts += 1
            gap = abs(state.owner_share - oracle.share)
            if gap > worst:
                worst = gap
            total_updates += 1
    assert worst <= 1e-9, f"share gap {worst} exceeds 1e-9"
    _passline(3, f"1000 sequences / {total_updates} share updates, max "
                 f"incremental-vs-unit gap {worst:.2e}, "
                 f"{time.time() - started:.1f}s")


# ---------------------------------------------------------------------------
# 4. Profit-metric differential test
# ---------------------------------------------------------------------------

def test_acceptance_4_profit_metric_differential():
    started = time.time()
    kinds = list(ScenarioKind)
    fields = ("realized_profit_usd", "invested_usd", "returned_usd", "gas_usd",
              "unrealized_first_month_usd", "unrealized_current_usd",
              "max_impact", "min_impact", "mean_impact")
    worst = 0.0
    for seed in range(1000):
        kind = kinds[seed % len(kinds)]
        kwargs = {"lifetime_days": 20 + seed % 30, "investor_count": 12,
                  "investor_arrival": 1.5, "slid_drain_count": 12 + seed % 20}
        if kind == ScenarioKind.SLID_SLOW:
            kwargs.update(lifetime_days=230 + seed % 40, slow_start_day=200,
                          investor_arrival=0.4)
        scenario = generate(ScenarioConfig(kind=kind, seed=seed, **kwargs))
        mine = profit_report(scenario.pool, scenario.orders)
        reference = oracle_report(scenario.orders, scenario.pool)
        assert mine.profit_taking_count == reference.profit_taking_count
        for field in fields:
            a, b = getattr(mine, field), getattr(reference, field)
            scale = max(abs(a), abs(b), 1e-3)
            gap = abs(a - b) / scale
            if gap > worst:
                worst = gap
            assert gap <= 1e-6, (kind, seed, field, a, b)
    _passline(4, f"1000 mixed scenarios, max metrics-vs-oracle relative "
                 f"deviation {worst:.2e}, {time.time() - started:.1f}s")


# ---------------------------------------------------------------------------
# 5. Heuristic exactness on the canonical corpus
# ---------------------------------------------------------------------------

def test_acceptance_5_heuristic_exactness():
    started = time.time()
    counts = {ScenarioKind.LEGITIMATE: 100, ScenarioKind.SLID: 200,
              ScenarioKind.RUGPULL: 200}
    overrides = {
        ScenarioKind.LEGITIMATE: {"lifetime_days": 60, "investor_arrival": 2.0},
    }
    outcomes = {kind: [] for kind in counts}
    for scenario in build_corpus(counts, seed=5005, overrides=overrides):
        verdict, _ = classify_scenario(scenario)
        outcomes[ScenarioKind(scenario.true_label)].append(verdict.label)

    false_positives = sum(1 for label in outcomes[ScenarioKind.LEGITIMATE]
                          if label == Label.SLID)
    slid_correct = sum(1 for label in outcomes[ScenarioKind.SLID]
                       if label == Label.SLID)
    rug_correct = sum(1 for label in outcomes[ScenarioKind.RUGPULL]
                      if label == Label.RUGPULL)
    assert false_positives == 0, f"{false_positives} legitimate pools marked SLID"
    assert slid_correct == 200, f"only {slid_correct}/200 drain pools flagged SLID"
    assert rug_correct == 200, f"only {rug_correct}/200 rug pulls flagged"
    elapsed = time.time() - started
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s over budget"
    _passline(5, f"0/100 legitimate false positives, 200/200 SLID and 200/200 "
                 f"rug pulls separated, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. ML desk analogue (shrinking windows)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ml_corpus_windows():
    counts = {
        ScenarioKind.LEGITIMATE: 1600,
        ScenarioKind.RUGPULL: 150,
        ScenarioKind.HONEYPOT: 50,
        ScenarioKind.SLID: 100,
        ScenarioKind.SLID_SLOW: 100,
    }
    overrides = {
        ScenarioKind.LEGITIMATE: {"lifetime_days": 90, "investor_arrival": 1.2,
                                  "investor_count": 30},
        ScenarioKind.RUGPULL: {"investor_arrival": 2.0, "investor_count": 20},
        ScenarioKind.HONEYPOT: {"lifetime_days": 70, "investor_arrival": 1.2,
                                "investor_count": 25},
        ScenarioKind.SLID: {"slid_drain_count": 120, "lifetime_days": 90,
                            "investor_arrival": 1.2, "investor_count": 40},
        ScenarioKind.SLID_SLOW: {"slid_drain_count": 24, "lifetime_days": 280,
                                 "investor_arrival": 0.6, "investor_count": 30},
    }
    scenarios = list(build_corpus(counts, seed=6006, overrides=overrides))
    dataset = make_dataset((s.pool, s.orders, s.profile) for s in scenarios)
    enrich(dataset)
    truth = {s.pool.pool_address: s.true_label for s in scenarios}
    windows = prepare_windows(dataset, D_LIST)
    return dataset, windows, truth


def test_acceptance_6_ml_desk_analogue(ml_corpus_windows):
    started = time.time()
    dataset, windows, truth = ml_corpus_windows
    n_pools = len(dataset.pools)
    positives = sum(dataset.slid_labels().values())
    assert n_pools == 2000 and positives == 200, "corpus shape drifted"

    rf = ClassifierKind.RANDOM_FOREST.value
    heuristic = "Heuristic"
    f1_at_57 = []
    recall_gaps = []
    speedups = []
    slow_recalls = []
    rf_f1_by_d = {d: [] for d in D_LIST}
    for seed in range(5):
        results = sweep(windows, D_LIST, seed=seed)
        by_key = {(m.detector, m.window_days): m for m in results}
        f1_at_57.append(by_key[(rf, 57)].f1)
        for d in D_LIST:
            rf_f1_by_d[d].append(by_key[(rf, d)].f1)
        recall_gaps.append(by_key[(rf, 57)].recall
                           - by_key[(heuristic, 57)].recall)
        speedups.append(window_speedup(results))
        # with every drain campaign complete inside the largest window, the
        # rules recover every drain pool
        assert by_key[(heuristic, max(D_LIST))].recall == 1.0

        # §7.3-style observation: does the learned model catch the slowed
        # variant inside 57 days? Reported, not asserted.
        from slidscan.earlywarn import stratified_split, train
        labels = windows.labels
        train_idx, test_idx = stratified_split(labels.astype(np.int64), 0.2, seed)
        X = windows.X_by_d[57]
        model = train(X[train_idx], labels[train_idx],
                      ClassifierKind.RANDOM_FOREST, seed=seed)
        pred = model.scores(X[test_idx]) >= model.threshold
        slow_mask = np.array([truth[windows.pool_addresses[i]] == "SlidSlow"
                              for i in test_idx])
        if slow_mask.any():
            slow_recalls.append(float(pred[slow_mask].mean()))

    mean_f1 = float(np.mean(f1_at_57))
    mean_speedup = float(np.mean(speedups))
    assert mean_f1 >= 0.90, f"random forest F1 at d=57 only {mean_f1:.3f}"
    assert all(gap > 0 for gap in recall_gaps), (
        f"heuristic recall not strictly below forest recall: {recall_gaps}")
    assert mean_speedup >= 3.0, f"window speedup only {mean_speedup:.2f}"
    # Monotone information: mean test F1 never drops by more than the noise
    # band as the window grows.
    ordered = sorted(D_LIST)
    means = [float(np.mean(rf_f1_by_d[d])) for d in ordered]
    for smaller, larger in zip(means, means[1:]):
        assert larger >= smaller - 0.03, f"F1 degraded with more data: {means}"
    elapsed = time.time() - started
    assert elapsed < 900.0, f"runtime {elapsed:.0f}s over budget"
    _passline(6, f"forest F1@57d {mean_f1:.3f} (5 seeds), heuristic recall "
                 f"below forest at 57d in 5/5 seeds, window speedup "
                 f"{mean_speedup:.2f}x, slowed-variant recall@57d "
                 f"{np.mean(slow_recalls):.2f} (observation), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. Population reports
# ---------------------------------------------------------------------------

def test_acceptance_7_population_reports():
    started = time.time()

    def chooser(kind, index, seed):
        return 60 if index < 70 else 12

    slid_corpus = list(build_corpus(
        {ScenarioKind.SLID: 100}, seed=7007,
        overrides={ScenarioKind.SLID: {"slid_drain_count": 60,
                                       "investor_arrival": 1.5,
                                       "investor_count": 25}},
        lifetime_chooser=chooser))
    age = analyze(make_dataset((s.pool, s.orders) for s in slid_corpus), "age")
    alive_fraction = age.alive_after_fraction(30)
    assert abs(alive_fraction - 0.70) <= 0.02, f"alive fraction {alive_fraction}"

    rug_corpus = list(build_corpus(
        {ScenarioKind.RUGPULL: 100}, seed=7008,
        overrides={ScenarioKind.RUGPULL: {"investor_arrival": 2.0,
                                          "investor_count": 15}}))
    profit = analyze(make_dataset((s.pool, s.orders) for s in rug_corpus), "profit")
    day0 = profit.realized_share_on_day(0)
    assert day0 >= 0.99, f"only {day0:.4f} of rug USD on day zero"
    _passline(7, f"alive-after-month {alive_fraction:.3f} (target 0.70±0.02), "
                 f"rug day-0 realized share {day0:.4f}, "
                 f"{time.time() - started:.1f}s")


# ---------------------------------------------------------------------------
# 8. Streaming throughput and reproducibility
# ---------------------------------------------------------------------------

BIG_CORPUS_CFG = """
seed = 8008
legitimate.count = 540
legitimate.lifetime_days = 150
legitimate.investor_arrival = 100
legitimate.investor_count = 400
"""


# Runs its arguments as a child and prints the child's exit code and
# ru_maxrss (KiB), from wait4. On Linux a child started by subprocess can
# carry its parent's RSS high-water mark across exec, so a child of pytest
# reads at least pytest's peak; a child of this small process reads its own.
DETECT_LAUNCHER = """\
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_acceptance_8_throughput_and_reproducibility(tmp_path_factory):
    root = tmp_path_factory.mktemp("throughput")
    cfg = root / "big.cfg"
    cfg.write_text(BIG_CORPUS_CFG)
    corpus = root / "corpus"
    # Every child imports slidscan from this checkout, installed or not.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part)

    gen = subprocess.run(
        [sys.executable, "-m", "slidscan.cli", "generate", "--config", str(cfg),
         "--out", str(corpus)],
        capture_output=True, text=True, env=env)
    assert gen.returncode == 0, gen.stderr
    n_orders = sum(1 for _ in open(corpus / "orders.jsonl"))
    assert n_orders >= 10_000_000, f"corpus only has {n_orders} orders"

    started = time.time()
    launcher = subprocess.run(
        [sys.executable, "-c", DETECT_LAUNCHER, sys.executable, "-m", "slidscan.cli",
         "detect", "--pools", str(corpus / "pools.jsonl"),
         "--orders", str(corpus / "orders.jsonl"),
         "--profiles", str(corpus / "profiles.jsonl"),
         "--out", str(root / "verdicts.csv")],
        capture_output=True, text=True, env=env)
    elapsed = time.time() - started
    assert launcher.returncode == 0, launcher.stderr
    returncode, maxrss_kib = map(int, launcher.stdout.split())
    assert returncode == 0, launcher.stderr
    assert elapsed < 120.0, f"streaming detect took {elapsed:.0f}s"
    peak_rss_mb = maxrss_kib / 1024
    assert peak_rss_mb < 1024, f"peak child RSS {peak_rss_mb:.0f} MiB"

    verdict_lines = (root / "verdicts.csv").read_text().splitlines()
    assert len(verdict_lines) == 540 + 1

    # sweep reproducibility, byte for byte, on a compact corpus
    small_cfg = root / "small.cfg"
    small_cfg.write_text(
        "seed = 88\n"
        "legitimate.count = 30\n"
        "legitimate.lifetime_days = 70\n"
        "legitimate.investor_arrival = 1.0\n"
        "slid.count = 8\n"
        "slid.slid_drain_count = 50\n"
        "slid.lifetime_days = 70\n")
    small = root / "small"
    assert subprocess.run(
        [sys.executable, "-m", "slidscan.cli", "generate", "--config",
         str(small_cfg), "--out", str(small)],
        capture_output=True, text=True, env=env).returncode == 0
    outputs = []
    for name in ("a.csv", "b.csv"):
        run = subprocess.run(
            [sys.executable, "-m", "slidscan.cli", "sweep", "--corpus",
             str(small), "--d-list", "70,57,30", "--seed", "9",
             "--out", str(root / name)],
            capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        outputs.append((root / name).read_bytes())
    assert outputs[0] == outputs[1], "sweep output not byte-reproducible"

    file_gb = (corpus / "orders.jsonl").stat().st_size / 1e9
    _passline(8, f"{n_orders} orders ({file_gb:.1f} GB) streamed in "
                 f"{elapsed:.0f}s, peak child RSS {peak_rss_mb:.0f} MiB, "
                 f"sweep byte-reproducible")
