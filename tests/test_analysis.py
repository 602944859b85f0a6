"""Population reports: age buckets, daily profit-taking, user trend."""

import pytest

from slidscan.analysis import analyze, enrich, write_report_csv
from slidscan.ledger import SECONDS_PER_DAY
from slidscan.synth import ScenarioConfig, ScenarioKind, generate
from slidscan.validators import Label

from conftest import T0, USER, make_dataset, make_order, make_pool, realized_share_on_day


class TestAgeReport:
    def test_ninety_day_span_lands_in_bucket_90(self):
        pool = make_pool()
        orders = [make_order("Deposit", 100.0, 10.0, ts=T0),
                  make_order("Buy", 1.0, 0.1, ts=T0 + 90 * SECONDS_PER_DAY)]
        report = analyze(make_dataset([(pool, orders)]), "age")
        assert report.rows == {90: (1, 1)}
        assert report.pool_count == 1

    def test_alive_fraction(self):
        pools_orders = []
        for i in range(10):
            pool = make_pool(pool_address=f"0x{i:040x}")
            span = 45 if i < 7 else 10
            orders = [make_order("Deposit", 100.0, 10.0, ts=T0,
                                 pool_address=pool.pool_address),
                      make_order("Buy", 1.0, 0.1,
                                 ts=T0 + span * SECONDS_PER_DAY,
                                 pool_address=pool.pool_address)]
            pools_orders.append((pool, orders))
        report = analyze(make_dataset(pools_orders), "age")
        assert report.alive_after_fraction(30) == pytest.approx(0.7)

    def test_counts_sum_to_pool_count(self):
        pools_orders = []
        for i in range(7):
            pool = make_pool(pool_address=f"0x{i:040x}")
            orders = [make_order("Deposit", 10.0, 1.0, ts=T0,
                                 pool_address=pool.pool_address)]
            pools_orders.append((pool, orders))
        report = analyze(make_dataset(pools_orders), "age")
        assert sum(c for c, _ in report.rows.values()) == report.pool_count


class TestProfitReportDays:
    def test_owner_exits_only_bucketed_by_day(self):
        pool = make_pool()
        orders = [
            make_order("Deposit", 1000.0, 100.0, ts=T0),
            make_order("Sell", 50.0, 5.0, ts=T0 + 3600),                     # day 0
            make_order("Sell", 10.0, 1.0, sender=USER, ts=T0 + 7200),        # user
            make_order("Buy", 25.0, 1.0, ts=T0 + 7300),                      # owner buy
            make_order("Withdraw", 30.0, 5.0, ts=T0 + SECONDS_PER_DAY + 60), # day 1
        ]
        report = analyze(make_dataset([(pool, orders)]), "profit")
        assert report.rows[0] == (1, pytest.approx(50.0))
        assert report.rows[1] == (1, pytest.approx(30.0))
        assert realized_share_on_day(report, 0) == pytest.approx(50.0 / 80.0)

    def test_rug_pull_concentrates_on_day_zero(self):
        scenario = generate(ScenarioConfig(kind=ScenarioKind.RUGPULL, seed=6))
        report = analyze(make_dataset([(scenario.pool, scenario.orders)]), "profit")
        assert realized_share_on_day(report, 0) >= 0.99


class TestTrendReport:
    def test_non_owner_activity_only(self):
        pool = make_pool()
        orders = [
            make_order("Deposit", 1000.0, 100.0, ts=T0),
            make_order("Buy", 40.0, 4.0, sender=USER, ts=T0 + 100),
            make_order("Buy", 60.0, 6.0, sender="0xother", ts=T0 + 200),
            make_order("Sell", 500.0, 5.0, ts=T0 + 300),   # owner, excluded
        ]
        report = analyze(make_dataset([(pool, orders)]), "trend")
        assert report.rows[0] == (2, pytest.approx(100.0))


class TestLabelFilter:
    def test_filter_requires_enrichment(self):
        pool = make_pool()
        data = make_dataset([(pool, [make_order("Deposit", 10.0, 1.0, ts=T0,
                                              pool_address=pool.pool_address)])])
        with pytest.raises(ValueError):
            analyze(data, "age", labels={"SLID"})

    def test_filter_to_slid_pools(self):
        # Distinct seeds: same-seed scenarios share the seeded address stream.
        slid = generate(ScenarioConfig(kind=ScenarioKind.SLID, seed=4,
                                       slid_drain_count=40))
        legit = generate(ScenarioConfig(kind=ScenarioKind.LEGITIMATE, seed=5,
                                        lifetime_days=20))
        data = make_dataset((s.pool, s.orders, s.profile) for s in (slid, legit))
        enrich(data)
        assert data.enriched[slid.pool.pool_address][1].label == Label.SLID
        report = analyze(data, "age", labels={"SLID"})
        assert report.pool_count == 1


class TestCsv:
    def test_report_csv_written(self, tmp_path):
        pool = make_pool()
        orders = [make_order("Deposit", 100.0, 10.0, ts=T0)]
        report = analyze(make_dataset([(pool, orders)]), "age")
        out = tmp_path / "age.csv"
        write_report_csv(report, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "age_days,pool_count,alive_count"
        assert lines[1] == "0,1,1"
