"""Tests for the experiment harness (quick-mode figures and tables)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.errors import ExperimentError
from repro.experiments.config import (
    DEFAULT_POLICIES,
    EXPERIMENT_PERIOD_CHOICES,
    FigureData,
    SeriesPoint,
    TableData,
)
from repro.experiments.figures import (
    FIGURES,
    baseline_ablation,
    energy_vs_bcwc,
    energy_vs_levels,
    energy_vs_utilization,
    overhead_sensitivity,
    slack_accuracy,
)
from repro.experiments.runner import standard_taskset, taskset_seeds
from repro.experiments.tables import TABLES, processor_model_table, realworld_table


class TestConfigContainers:
    def test_figure_add_and_lookup(self):
        fig = FigureData("X", "t", "x", "y")
        fig.add_point("s", SeriesPoint(x=1.0, mean=0.5, ci95=0.1, count=3))
        assert fig.xs() == [1.0]
        assert fig.value_at("s", 1.0).mean == 0.5
        assert fig.value_at("s", 2.0) is None

    def test_figure_render_contains_series(self):
        fig = FigureData("X", "title", "u", "energy")
        fig.add_point("lpSTA", SeriesPoint(1.0, 0.5, 0.0, 1))
        text = fig.render()
        assert "lpSTA" in text and "title" in text

    def test_figure_rows_flatten_extras(self):
        fig = FigureData("X", "t", "x", "y")
        fig.add_point("s", SeriesPoint(1.0, 0.5, 0.1, 3,
                                       extra={"misses": 0}))
        rows = fig.to_rows()
        assert rows[0]["misses"] == 0
        assert rows[0]["experiment"] == "X"

    def test_table_missing_column_rejected(self):
        table = TableData("T", "t", columns=("a", "b"))
        with pytest.raises(ExperimentError):
            table.add_row(a=1)

    def test_table_render(self):
        table = TableData("T", "title", columns=("a", "b"))
        table.add_row(a="x", b=1.23456)
        text = table.render()
        assert "1.235" in text and "x" in text


class TestRunnerHelpers:
    def test_seeds_deterministic_and_distinct(self):
        a = taskset_seeds(7, 5)
        b = taskset_seeds(7, 5)
        assert a == b
        assert len(set(a)) == 5

    def test_standard_taskset_uses_grid(self):
        ts = standard_taskset(6, 0.8, seed=3)
        assert all(t.period in EXPERIMENT_PERIOD_CHOICES for t in ts)
        assert ts.utilization == pytest.approx(0.8)


class TestFigureDrivers:
    """Quick-mode smoke runs pinning the reproduction shapes."""

    @pytest.mark.slow
    def test_fig1_shape(self):
        fig = energy_vs_utilization(quick=True)
        assert set(fig.series) == set(DEFAULT_POLICIES)
        # none normalises to 1 everywhere.
        for point in fig.series["none"]:
            assert point.mean == pytest.approx(1.0)
        # Energy rises with utilization for the paper's policy.
        sta = [p.mean for p in fig.series["lpSTA"]]
        assert sta == sorted(sta)
        # Zero misses recorded.
        for points in fig.series.values():
            for p in points:
                assert p.extra["misses"] == 0

    @pytest.mark.slow
    def test_fig2_savings_grow_with_slack(self):
        fig = energy_vs_bcwc(quick=True)
        sta = [p.mean for p in fig.series["lpSTA"]]
        assert sta == sorted(sta)  # more demand -> more energy
        # At bc/wc = 1.0 lpSTA coincides with static.
        last_sta = fig.series["lpSTA"][-1].mean
        last_static = fig.series["static"][-1].mean
        assert last_sta == pytest.approx(last_static, rel=1e-6)

    def test_fig4_more_levels_never_hurt(self):
        fig = energy_vs_levels(quick=True)
        # x=0 encodes continuous; it must be the cheapest for lpSTA.
        by_x = {p.x: p.mean for p in fig.series["lpSTA"]}
        continuous = by_x.pop(0.0)
        assert all(continuous <= v + 1e-9 for v in by_x.values())

    @pytest.mark.slow
    def test_fig5_runs_overhead_aware(self):
        fig = overhead_sensitivity(quick=True)
        for points in fig.series.values():
            for p in points:
                assert p.extra["misses"] == 0

    def test_fig6_ratio_at_most_one(self):
        fig = slack_accuracy(quick=True)
        for family in ("implicit", "constrained"):
            for p in fig.series[family]:
                assert 0.0 <= p.mean <= 1.0 + 1e-9
        # Implicit deadlines: the heuristic is empirically exact.
        for p in fig.series["implicit"]:
            assert p.mean >= 0.999

    def test_fig7_static_baseline_wins(self):
        fig = baseline_ablation(quick=True)
        for x in fig.xs():
            static = fig.value_at("lpSTA(static)", x).mean
            greedy = fig.value_at("lpSTA(greedy)", x).mean
            assert static <= greedy + 0.02

    def test_figures_registry_complete(self):
        expected = {f"fig{i}" for i in range(1, 13)} | {"faultmatrix"}
        assert set(FIGURES) == expected

    def test_fig12_quick_shape(self):
        from repro.experiments.figures import multicore_scaling
        fig = multicore_scaling(quick=True)
        lpsta = {p.x: p.mean for p in fig.series["lpSTA"]}
        assert lpsta[4.0] < lpsta[1.0]

    def test_fig11_quick_shape(self):
        from repro.experiments.figures import dpm_sensitivity
        fig = dpm_sensitivity(quick=True)
        never = {p.x: p.mean for p in fig.series["never-sleep"]}
        plain = {p.x: p.mean for p in fig.series["sleep-on-idle"]}
        assert plain[0.5] < never[0.5]

    @pytest.mark.slow
    def test_fig10_quick_shape(self):
        from repro.experiments.figures import sporadic_sensitivity
        fig = sporadic_sensitivity(quick=True)
        lpsta = {p.x: p.mean for p in fig.series["lpSTA"]}
        assert lpsta[1.0] < lpsta[0.0]
        for points in fig.series.values():
            for p in points:
                assert p.extra["misses"] == 0

    def test_fig8_quick_shape(self):
        from repro.experiments.figures import leakage_sensitivity
        fig = leakage_sensitivity(quick=True)
        plain = {p.x: p.mean for p in fig.series["lpSTA"]}
        floored = {p.x: p.mean for p in fig.series["cs-lpSTA"]}
        for rho, value in plain.items():
            assert floored[rho] <= value + 1e-9

    def test_fig9_quick_shape(self):
        from repro.experiments.figures import optimality_gap
        fig = optimality_gap(quick=True)
        for name, points in fig.series.items():
            for p in points:
                assert p.mean >= 1.0 - 1e-6


class TestChartRendering:
    def test_chart_contains_series_markers(self):
        fig = FigureData("X", "t", "x", "y")
        fig.add_point("alpha", SeriesPoint(0.0, 0.0, 0.0, 1))
        fig.add_point("alpha", SeriesPoint(1.0, 1.0, 0.0, 1))
        fig.add_point("beta", SeriesPoint(0.5, 0.5, 0.0, 1))
        chart = fig.render_chart(width=20, height=8)
        assert "A=alpha" in chart and "B=beta" in chart
        assert "A" in chart.splitlines()[1]  # top-right point row

    def test_chart_empty_figure(self):
        assert "no data" in FigureData("X", "t", "x", "y").render_chart()

    def test_chart_single_point(self):
        fig = FigureData("X", "t", "x", "y")
        fig.add_point("only", SeriesPoint(2.0, 3.0, 0.0, 1))
        chart = fig.render_chart(width=10, height=4)
        assert "A=only" in chart

    def test_chart_overlap_marker(self):
        fig = FigureData("X", "t", "x", "y")
        fig.add_point("a", SeriesPoint(0.5, 0.5, 0.0, 1))
        fig.add_point("b", SeriesPoint(0.5, 0.5, 0.0, 1))
        chart = fig.render_chart(width=10, height=4)
        assert "*" in chart


class TestTableDrivers:
    def test_table1_lists_all_profiles(self):
        table = processor_model_table()
        names = {row["profile"] for row in table.rows}
        assert {"ideal", "generic4", "xscale", "sa1100",
                "crusoe"} <= names

    @pytest.mark.slow
    def test_table2_realworld(self):
        table = realworld_table(quick=True)
        assert {row["taskset"] for row in table.rows} == \
            {"cnc", "avionics", "ins"}
        for row in table.rows:
            # DVS must pay off on every suite.
            assert row["lpSTA"] < 1.0
            assert row["none"] == pytest.approx(1.0)

    def test_table3_latency(self):
        from repro.experiments.tables import latency_price_table
        table = latency_price_table(quick=True)
        rows = {row["policy"]: row for row in table.rows}
        assert rows["none"]["energy"] == 1.0
        assert rows["lpSTA"]["mean_resp_x"] >= 1.0

    def test_tables_registry_complete(self):
        assert set(TABLES) == {"table1", "table2", "table3"}


def test_serial_sweep_leaves_the_pool_stack_unimported():
    """A serial sweep imports neither ``multiprocessing`` nor
    ``concurrent.futures`` (nor the ``logging``, ``socket`` and other
    modules they pull in): the pool is built, and they are imported,
    only by a sweep with workers.  Checked in a fresh interpreter,
    since this one may have built a pool already."""
    script = (
        "import sys\n"
        "from repro.experiments.runner import (bcwc_model,"
        " standard_taskset, sweep)\n"
        "cells = sweep([0.5], lambda u, s: (standard_taskset(4, u, s),"
        " bcwc_model(0.5, s)), ['none', 'lpSTA'], n_tasksets=2,"
        " horizon=100.0)\n"
        "assert len(cells) == 1\n"
        "print(sorted(name for name in ('multiprocessing',"
        " 'concurrent.futures', 'concurrent.futures.process')"
        " if name in sys.modules))\n")
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
