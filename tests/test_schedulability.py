"""Tests for repro.analysis.schedulability."""

import numpy as np
import pytest

from repro.analysis import schedulability
from repro.analysis.schedulability import (
    edf_density_test,
    edf_utilization_test,
    minimum_constant_speed,
    processor_demand_test,
)
from repro.cpu.profiles import ideal_processor
from repro.errors import ConfigurationError
from repro.experiments.config import EXPERIMENT_PERIOD_CHOICES
from repro.policies.registry import ALL_POLICY_NAMES, make_policy
from repro.tasks.generators import generate_taskset
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet


class TestUtilizationTest:
    def test_feasible(self, two_task_set):
        assert edf_utilization_test(two_task_set)

    def test_saturated_still_feasible(self, saturated_task_set):
        assert edf_utilization_test(saturated_task_set)

    def test_overloaded(self):
        ts = TaskSet([PeriodicTask("A", 8.0, 10.0),
                      PeriodicTask("B", 3.0, 10.0)])
        assert not edf_utilization_test(ts)

    def test_constrained_deadlines_rejected(self):
        ts = TaskSet([PeriodicTask("A", 1.0, 10.0, deadline=5.0)])
        with pytest.raises(ConfigurationError):
            edf_utilization_test(ts)


class TestDensityTest:
    def test_sufficient_only(self):
        ts = TaskSet([PeriodicTask("A", 2.0, 10.0, deadline=4.0),
                      PeriodicTask("B", 2.0, 10.0, deadline=5.0)])
        assert edf_density_test(ts)  # density 0.9

    def test_high_density_fails_test(self):
        ts = TaskSet([PeriodicTask("A", 4.0, 10.0, deadline=5.0),
                      PeriodicTask("B", 3.0, 10.0, deadline=6.0)])
        assert not edf_density_test(ts)  # density 1.3


class TestProcessorDemandTest:
    def test_implicit_deadlines_reduce_to_utilization(self, two_task_set):
        assert processor_demand_test(two_task_set)

    def test_overutilized_fails(self):
        ts = TaskSet([PeriodicTask("A", 8.0, 10.0),
                      PeriodicTask("B", 3.0, 10.0)])
        assert not processor_demand_test(ts)

    def test_constrained_feasible(self):
        # dbf check: A demands 2 by 4, B demands 3 by 8;
        # dbf(4)=2<=4, dbf(8)=3+2(A@?).. all points hold.
        ts = TaskSet([PeriodicTask("A", 2.0, 10.0, deadline=4.0),
                      PeriodicTask("B", 3.0, 10.0, deadline=8.0)])
        assert processor_demand_test(ts)

    def test_constrained_infeasible_despite_low_utilization(self):
        # Two tasks each needing 3 units within the same 4-unit window:
        # dbf(4) = 6 > 4 although U = 0.6.
        ts = TaskSet([PeriodicTask("A", 3.0, 10.0, deadline=4.0),
                      PeriodicTask("B", 3.0, 10.0, deadline=4.0)])
        assert not processor_demand_test(ts)

    def test_exactness_beyond_density(self):
        # Density-test failure that the exact test accepts:
        # A: C=2, D=3, T=10 (density .67); B: C=4, D=8, T=10 (.5);
        # density 1.17 > 1 but dbf(3)=2, dbf(8)=6, dbf(13)=8... all fit.
        ts = TaskSet([PeriodicTask("A", 2.0, 10.0, deadline=3.0),
                      PeriodicTask("B", 4.0, 10.0, deadline=8.0)])
        assert not edf_density_test(ts)
        assert processor_demand_test(ts)


class TestMinimumConstantSpeed:
    def test_implicit_equals_utilization(self, two_task_set):
        assert minimum_constant_speed(two_task_set) == pytest.approx(0.5)

    def test_saturated_needs_full_speed(self, saturated_task_set):
        assert minimum_constant_speed(saturated_task_set) == \
            pytest.approx(1.0)

    def test_constrained_above_utilization(self):
        # A: C=2, D=4, T=10 alone: needs speed 0.5 to fit 2 into 4.
        ts = TaskSet([PeriodicTask("A", 2.0, 10.0, deadline=4.0)])
        speed = minimum_constant_speed(ts)
        assert speed == pytest.approx(0.5, abs=1e-6)
        assert speed > ts.utilization

    def test_result_is_feasible_speed(self):
        ts = TaskSet([PeriodicTask("A", 2.0, 10.0, deadline=5.0),
                      PeriodicTask("B", 2.0, 12.0, deadline=7.0)])
        speed = minimum_constant_speed(ts)
        scaled = TaskSet([t.scaled(1.0 / speed) for t in ts])
        assert processor_demand_test(scaled)

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_equals_the_scalar_bisection(self, n):
        # The numpy demand test must reach the speed the scalar
        # processor-demand test reaches, step for step.
        from repro.analysis.schedulability import _feasible_at
        for seed in range(4):
            ts = generate_taskset(
                n, 0.45 + 0.15 * seed, np.random.default_rng(seed),
                period_choices=EXPERIMENT_PERIOD_CHOICES,
                deadline_range=(0.6, 0.95))
            low, high = ts.utilization, 1.0
            for _ in range(64):
                mid = 0.5 * (low + high)
                if _feasible_at(ts, mid):
                    high = mid
                else:
                    low = mid
                if high - low < 1e-9:
                    break
            assert minimum_constant_speed(ts) == high

    def test_constrained_16_task_unit_binds_fast(self, monkeypatch):
        # Six policies of a suite bind with it; the task set pays once:
        # one vectorized demand test, one bisection of at most 64 steps,
        # and never the scalar per-speed test.
        ts = generate_taskset(16, 0.85, np.random.default_rng(3),
                              period_choices=EXPERIMENT_PERIOD_CHOICES,
                              deadline_range=(0.6, 0.95))
        counts = {"built": 0, "called": 0, "scalar": 0}

        class Counted(schedulability._ScaledDemandTest):
            def __init__(self, *args, **kwargs):
                counts["built"] += 1
                super().__init__(*args, **kwargs)

            def __call__(self, speed):
                counts["called"] += 1
                return super().__call__(speed)

        def scalar(name):
            original = getattr(schedulability, name)

            def counted(*args, **kwargs):
                counts["scalar"] += 1
                return original(*args, **kwargs)
            return counted

        monkeypatch.setattr(schedulability, "_ScaledDemandTest", Counted)
        for name in ("_feasible_at", "processor_demand_test"):
            monkeypatch.setattr(schedulability, name, scalar(name))
        policies = [make_policy(name) for name in ALL_POLICY_NAMES]
        for policy in policies:
            policy.bind(ts, ideal_processor())
        assert counts["built"] == 1
        assert 1 <= counts["called"] <= 64
        assert counts["scalar"] == 0
        assert minimum_constant_speed(ts) is minimum_constant_speed(ts)
