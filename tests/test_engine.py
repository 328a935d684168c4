"""Tests for the simulation engine against hand-computed schedules."""

import pytest

from repro.cpu.power import PolynomialPowerModel
from repro.cpu.processor import Processor
from repro.cpu.speed import ContinuousScale, DiscreteScale
from repro.cpu.transition import ConstantOverhead
from repro.errors import ConfigurationError, DeadlineMissError, PolicyError
from repro.policies.base import DvsPolicy
from repro.policies.none import NoDvsPolicy
from repro.policies.static_edf import StaticEdfPolicy
from repro.sim.engine import Simulator, simulate
from repro.sim.tracing import SegmentKind
from repro.tasks.execution import ConstantExecution, WorstCaseExecution
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet


class FixedSpeedPolicy(DvsPolicy):
    """Test helper: always returns one configured speed."""

    name = "fixed"

    def __init__(self, speed):
        super().__init__()
        self.speed = speed

    def select_speed(self, job, ctx):
        return self.speed


class TestFullSpeedSchedule:
    def test_single_task_timeline(self):
        ts = TaskSet([PeriodicTask("T", wcet=2.0, period=10.0)])
        result = simulate(ts, Processor(), NoDvsPolicy(),
                          WorstCaseExecution(), horizon=30.0,
                          record_trace=True)
        # Jobs at 0, 10, 20 each run [r, r+2] at speed 1.
        runs = [s for s in result.trace if s.kind == SegmentKind.RUN]
        assert [(s.start, s.end) for s in runs] == [
            (0.0, 2.0), (10.0, 12.0), (20.0, 22.0)]
        assert result.jobs_released == 3
        assert result.jobs_completed == 3
        assert result.busy_time == pytest.approx(6.0)
        assert result.idle_time == pytest.approx(24.0)

    def test_edf_preemption(self):
        # B#0 (d=20) starts; A releases at 5 with d=13 and preempts.
        ts = TaskSet([
            PeriodicTask("A", wcet=2.0, period=20.0, deadline=8.0,
                         phase=5.0),
            PeriodicTask("B", wcet=10.0, period=20.0),
        ])
        result = simulate(ts, Processor(), NoDvsPolicy(),
                          WorstCaseExecution(), horizon=20.0,
                          record_trace=True)
        runs = [(s.job, s.start, s.end) for s in result.trace
                if s.kind == SegmentKind.RUN]
        assert runs == [
            ("B#0", 0.0, 5.0),
            ("A#0", 5.0, 7.0),
            ("B#0", 7.0, 12.0),
        ]
        assert result.task_stats["B"].preemptions == 1

    def test_work_conservation(self, three_task_set):
        result = simulate(three_task_set, Processor(), NoDvsPolicy(),
                          ConstantExecution(0.6), horizon=80.0,
                          record_trace=True)
        for task in three_task_set:
            expected = sum(
                ConstantExecution(0.6).work(task, i)
                for i in range(int(80.0 / task.period)))
            assert result.task_stats[task.name].total_executed == \
                pytest.approx(expected, rel=1e-6)


class TestScaledSchedule:
    def test_half_speed_doubles_runtime_and_energy_drops(self):
        ts = TaskSet([PeriodicTask("T", wcet=2.0, period=10.0)])
        proc = Processor(power_model=PolynomialPowerModel(alpha=3.0))
        fast = simulate(ts, proc, FixedSpeedPolicy(1.0),
                        WorstCaseExecution(), horizon=10.0)
        slow = simulate(ts, proc, FixedSpeedPolicy(0.5),
                        WorstCaseExecution(), horizon=10.0)
        assert slow.busy_time == pytest.approx(2 * fast.busy_time)
        # Cubic power: E = s^2 * work -> quarter the energy.
        assert slow.busy_energy == pytest.approx(fast.busy_energy / 4)

    def test_static_policy_runs_at_utilization(self, two_task_set):
        result = simulate(two_task_set, Processor(), StaticEdfPolicy(),
                          WorstCaseExecution(), horizon=20.0)
        assert result.mean_speed() == pytest.approx(0.5)
        assert not result.deadline_misses

    def test_discrete_scale_quantizes_up(self):
        ts = TaskSet([PeriodicTask("T", wcet=3.0, period=10.0)])
        proc = Processor(scale=DiscreteScale([0.25, 0.5, 0.75, 1.0]))
        result = simulate(ts, proc, FixedSpeedPolicy(0.3),
                          WorstCaseExecution(), horizon=10.0)
        assert result.mean_speed() == pytest.approx(0.5)


class TestDeadlineHandling:
    def test_miss_raises_by_default(self):
        ts = TaskSet([PeriodicTask("T", wcet=5.0, period=10.0)])
        with pytest.raises(DeadlineMissError):
            simulate(ts, Processor(), FixedSpeedPolicy(0.25),
                     WorstCaseExecution(), horizon=20.0)

    def test_miss_recorded_when_allowed(self):
        ts = TaskSet([PeriodicTask("T", wcet=5.0, period=10.0)])
        result = simulate(ts, Processor(), FixedSpeedPolicy(0.25),
                          WorstCaseExecution(), horizon=20.0,
                          allow_misses=True)
        assert result.missed
        assert result.deadline_misses[0].task == "T"

    def test_infeasible_taskset_rejected_before_running(self):
        ts = TaskSet([PeriodicTask("A", 8.0, 10.0),
                      PeriodicTask("B", 5.0, 10.0)])
        with pytest.raises(Exception) as excinfo:
            simulate(ts, Processor(), NoDvsPolicy())
        assert "utilization" in str(excinfo.value)

    def test_incomplete_job_at_horizon_with_passed_deadline_is_miss(self):
        # One job of 6 units at the 0.05 floor retires only 5 units by
        # t=100, so its (deadline = horizon) obligation is missed.
        ts = TaskSet([PeriodicTask("T", wcet=6.0, period=100.0)])
        result = simulate(ts, Processor(), FixedSpeedPolicy(0.049),
                          WorstCaseExecution(), horizon=100.0,
                          allow_misses=True, check_feasibility=False)
        assert result.missed


class TestTransitionOverhead:
    def test_switch_costs_accounted(self):
        ts = TaskSet([PeriodicTask("T", wcet=2.0, period=10.0)])
        proc = Processor(
            scale=ContinuousScale(min_speed=0.05),
            transition_model=ConstantOverhead(switch_time=0.5,
                                              switch_energy=3.0))
        # Policy switches to 0.5 (from the initial 1.0) on first dispatch.
        result = simulate(ts, proc, FixedSpeedPolicy(0.5),
                          WorstCaseExecution(), horizon=10.0,
                          record_trace=True)
        assert result.switch_count == 1
        assert result.switch_energy == pytest.approx(3.0)
        assert result.switch_time == pytest.approx(0.5)
        switches = [s for s in result.trace
                    if s.kind == SegmentKind.SWITCH]
        assert len(switches) == 1
        # Job starts after the relock window and still completes.
        assert result.jobs_completed == 1

    def test_no_switch_no_cost(self):
        ts = TaskSet([PeriodicTask("T", wcet=2.0, period=10.0)])
        proc = Processor(
            transition_model=ConstantOverhead(switch_time=0.5,
                                              switch_energy=3.0))
        result = simulate(ts, proc, NoDvsPolicy(),
                          WorstCaseExecution(), horizon=20.0)
        assert result.switch_count == 0
        assert result.switch_energy == 0.0


class TestIdlePower:
    def test_idle_energy_integrates(self):
        ts = TaskSet([PeriodicTask("T", wcet=2.0, period=10.0)])
        proc = Processor(idle_power=0.1)
        result = simulate(ts, proc, NoDvsPolicy(), WorstCaseExecution(),
                          horizon=10.0)
        assert result.idle_time == pytest.approx(8.0)
        assert result.idle_energy == pytest.approx(0.8)
        assert result.total_energy == pytest.approx(
            result.busy_energy + 0.8)


class TestEngineValidation:
    def test_policy_returning_nan_rejected(self):
        ts = TaskSet([PeriodicTask("T", wcet=2.0, period=10.0)])
        with pytest.raises(PolicyError):
            simulate(ts, Processor(), FixedSpeedPolicy(float("nan")),
                     WorstCaseExecution(), horizon=10.0)

    def test_invalid_horizon_rejected(self):
        ts = TaskSet([PeriodicTask("T", wcet=2.0, period=10.0)])
        with pytest.raises(ConfigurationError):
            Simulator(ts, Processor(), NoDvsPolicy(), horizon=0.0)

    def test_phase_delays_first_release(self):
        ts = TaskSet([PeriodicTask("T", wcet=1.0, period=10.0,
                                   phase=4.0)])
        result = simulate(ts, Processor(), NoDvsPolicy(),
                          WorstCaseExecution(), horizon=10.0,
                          record_trace=True)
        runs = [s for s in result.trace if s.kind == SegmentKind.RUN]
        assert runs[0].start == pytest.approx(4.0)

    def test_results_reproducible(self, three_task_set, half_model):
        a = simulate(three_task_set, Processor(), NoDvsPolicy(),
                     half_model, horizon=80.0)
        b = simulate(three_task_set, Processor(), NoDvsPolicy(),
                     half_model, horizon=80.0)
        assert a.total_energy == b.total_energy
        assert a.jobs_completed == b.jobs_completed
