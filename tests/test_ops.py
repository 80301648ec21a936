"""Tests for operational analytics, fairness, fragmentation, and reports."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.ops import (
    Cdf,
    FragmentationProbe,
    arrivals_per_hour_of_day,
    duration_cdf_by_class,
    fairness_summary,
    gpu_demand_distribution,
    gpu_hours_by_entity,
    jain_index,
    quota_adherence,
    render_series,
    render_table,
    series_to_rows,
    slowdown_stats,
    snapshot,
    sparkline,
    utilization_series,
    wait_cdf,
    write_csv,
)
from repro.sched import QuotaConfig
from repro.sim.metrics import Sample
from repro.workload import JobTier, LifecycleState, synthesize
from tests.conftest import make_job, move_job


class TestCdf:
    def test_monotone_and_bounded(self):
        cdf = Cdf.of([3, 1, 2, 2, 5])
        assert list(cdf.probabilities) == sorted(cdf.probabilities)
        assert cdf.probabilities[-1] == 1.0
        assert cdf.at(0) == 0.0
        assert cdf.at(2) == pytest.approx(0.6)
        assert cdf.at(100) == 1.0

    def test_quantile(self):
        cdf = Cdf.of(range(1, 101))
        assert cdf.quantile(0.5) == 50
        assert cdf.quantile(1.0) == 100
        with pytest.raises(ValidationError):
            cdf.quantile(0.0)

    def test_empty(self):
        cdf = Cdf.of([])
        assert np.isnan(cdf.at(1.0))
        assert cdf.points() == []

    def test_points_downsampled(self):
        cdf = Cdf.of(range(1000))
        points = cdf.points(max_points=50)
        assert len(points) == 50
        assert points[0][0] == 0.0
        assert points[-1][1] == 1.0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=100))
    def test_quantile_inverts_at(self, values):
        cdf = Cdf.of(values)
        q = cdf.quantile(0.5)
        assert cdf.at(q) >= 0.5 - 1e-9


class TestTraceAnalytics:
    def test_arrivals_per_hour_sums_to_daily_volume(self):
        trace = synthesize("tacc-campus", days=7.0, seed=0, jobs_per_day=200)
        rates = arrivals_per_hour_of_day(trace)
        assert sum(rates.values()) == pytest.approx(len(trace) / 7.0, rel=0.01)

    def test_gpu_demand_distribution_shares_sum_to_one(self):
        trace = synthesize("tacc-campus", days=2.0, seed=1, jobs_per_day=300)
        distribution = gpu_demand_distribution(trace)
        assert sum(s["job_share"] for s in distribution.values()) == pytest.approx(1.0)
        assert sum(s["gpu_hour_share"] for s in distribution.values()) == pytest.approx(1.0)

    def test_duration_cdf_classes(self):
        trace = synthesize("tacc-campus", days=2.0, seed=2, jobs_per_day=300)
        cdfs = duration_cdf_by_class(trace, boundaries=(1, 2, 8))
        assert set(cdfs) <= {"1", "2-7", "8+"}
        assert all(cdf.values.size > 0 for cdf in cdfs.values())

    def test_wait_cdf_filters_by_tier(self):
        jobs = {}
        for index, tier in enumerate([JobTier.GUARANTEED, JobTier.OPPORTUNISTIC]):
            job = make_job(f"j{index}", tier=tier, submit_time=0.0)
            move_job(job, LifecycleState.RUNNING, 100.0 * (index + 1), ("n",))
            jobs[job.job_id] = job
        assert wait_cdf(jobs).values.size == 2
        assert wait_cdf(jobs, tier="guaranteed").values.size == 1

    def test_utilization_series_binning(self):
        samples = [Sample(t * 600.0, 8, 16, 0, 1) for t in range(12)]
        series = utilization_series(samples, bin_s=3600.0)
        assert len(series) == 2
        assert all(y == pytest.approx(0.5) for _x, y in series)

    def test_slowdown_stats(self):
        job = make_job("a", duration=1000.0, submit_time=0.0)
        move_job(job, LifecycleState.RUNNING, 1000.0, ("n",))
        move_job(job, LifecycleState.FINISHED, 2000.0)
        stats = slowdown_stats({"a": job})
        assert stats["mean"] == pytest.approx(2.0)


class TestFairness:
    def test_jain_bounds(self):
        assert jain_index([1, 1, 1, 1]) == pytest.approx(1.0)
        assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25)
        assert jain_index([0, 0]) == 1.0

    def test_jain_validation(self):
        with pytest.raises(ValidationError):
            jain_index([])
        with pytest.raises(ValidationError):
            jain_index([-1, 2])

    def test_gpu_hours_by_entity(self):
        job_a = make_job("a", num_gpus=2, duration=3600.0, lab="lab-x")
        move_job(job_a, LifecycleState.RUNNING, 0.0, ("n",))
        move_job(job_a, LifecycleState.FINISHED, 3600.0)
        job_b = make_job("b", lab="lab-y", tier=JobTier.OPPORTUNISTIC)
        hours = gpu_hours_by_entity({"a": job_a, "b": job_b}, "lab_id")
        assert hours == {"lab-x": pytest.approx(2.0), "lab-y": 0.0}
        guaranteed_only = gpu_hours_by_entity(
            {"a": job_a, "b": job_b}, "lab_id", JobTier.GUARANTEED
        )
        assert "lab-y" not in guaranteed_only
        with pytest.raises(ValidationError):
            gpu_hours_by_entity({}, "team_id")

    def test_quota_adherence(self):
        quota = QuotaConfig(quotas={"lab-x": 10})
        job = make_job("a", num_gpus=10, duration=3600.0, lab="lab-x")
        move_job(job, LifecycleState.RUNNING, 0.0, ("n",))
        move_job(job, LifecycleState.FINISHED, 3600.0)
        reports = quota_adherence({"a": job}, quota, horizon_s=3600.0)
        assert len(reports) == 1
        assert reports[0].adherence == pytest.approx(1.0)
        assert reports[0].free_tier_bonus == 0.0
        with pytest.raises(ValidationError):
            quota_adherence({}, quota, horizon_s=0.0)

    def test_fairness_summary_empty(self):
        summary = fairness_summary({})
        assert summary["entities"] == 0.0


class TestFragmentation:
    def test_empty_cluster_unfragmented(self, small_cluster):
        snap = snapshot(small_cluster)
        assert snap.external_fragmentation == 0.0
        assert snap.largest_block == 8
        assert snap.startable[8] == 4

    def test_shredded_cluster_fragmented(self, small_cluster):
        for index, node in enumerate(sorted(small_cluster.nodes)):
            small_cluster.allocate(f"j{index}", {node: 7})
        snap = snapshot(small_cluster)
        assert snap.free_gpus == 4
        assert snap.largest_block == 1
        assert snap.external_fragmentation == pytest.approx(0.75)
        assert snap.startable[8] == 0
        assert snap.startable[1] == 4

    def test_full_cluster(self, small_cluster):
        for index, node in enumerate(sorted(small_cluster.nodes)):
            small_cluster.allocate(f"j{index}", {node: 8})
        snap = snapshot(small_cluster)
        assert snap.free_gpus == 0
        assert snap.external_fragmentation == 0.0

    def test_probe_summary(self, small_cluster):
        probe = FragmentationProbe()
        probe.observe(small_cluster)  # empty: frag 0
        for index, node in enumerate(sorted(small_cluster.nodes)):
            small_cluster.allocate(f"j{index}", {node: 7})
        probe.observe(small_cluster)  # shredded: frag 0.75
        summary = probe.summary()
        assert summary["observations"] == 2.0
        assert summary["max_frag"] == pytest.approx(0.75)
        assert summary["mean_frag"] == pytest.approx(0.375)


class TestReports:
    def test_render_table_alignment(self):
        text = render_table(
            [{"name": "a", "value": 1.5}, {"name": "bb", "value": 20}], title="T"
        )
        assert "== T ==" in text
        lines = text.splitlines()
        assert lines[1].startswith("name")
        assert "1.500" in text

    def test_render_table_union_of_columns(self):
        text = render_table([{"a": 1}, {"b": 2}])
        assert "a" in text and "b" in text

    def test_render_empty(self):
        assert "(empty)" in render_table([])
        assert "(no series)" in render_series({})

    def test_render_series_joins_on_x(self):
        text = render_series(
            {"s1": [(0.0, 1.0), (1.0, 2.0)], "s2": [(1.0, 5.0)]}, x_label="t"
        )
        assert "s1" in text and "s2" in text
        assert text.splitlines()[0].startswith("t")

    def test_sparkline(self):
        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"
        assert sparkline([]) == ""
        assert sparkline([2, 2]) == "▁▁"

    def test_write_csv(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv([{"a": 1, "b": 2}, {"a": 3, "c": 4}], path)
        content = path.read_text()
        assert content.splitlines()[0] == "a,b,c"
        with pytest.raises(ValidationError):
            write_csv([], tmp_path / "empty.csv")

    def test_series_to_rows(self):
        rows = series_to_rows({"y": [(0.0, 1.0), (2.0, 3.0)]}, x_label="x")
        assert rows == [{"x": 0.0, "y": 1.0}, {"x": 2.0, "y": 3.0}]
