"""Tests for the YDS offline-optimal scheduler."""

import numpy as np
import pytest

from repro.analysis.yds import (
    ConcreteJob,
    IntensityStep,
    jobs_from_taskset,
    yds_optimal_energy,
    yds_schedule,
)
from repro.cpu.profiles import generic4_processor, ideal_processor
from repro.errors import ConfigurationError
from repro.policies.registry import make_policy
from repro.sim.engine import simulate
from repro.tasks.execution import UniformExecution, WorstCaseExecution
from repro.tasks.generators import generate_taskset
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet


class TestConcreteJob:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ConcreteJob(release=5.0, deadline=5.0, work=1.0)
        with pytest.raises(ConfigurationError):
            ConcreteJob(release=0.0, deadline=5.0, work=0.0)


class TestSchedule:
    def test_single_job(self):
        steps = yds_schedule([ConcreteJob(0.0, 10.0, 2.0)])
        assert len(steps) == 1
        assert steps[0].intensity == pytest.approx(0.2)
        assert steps[0].work == pytest.approx(2.0)

    def test_nested_critical_interval(self):
        # Inner tight job forms the first critical interval; the outer
        # job then spreads over the collapsed timeline.
        steps = yds_schedule([ConcreteJob(0.0, 10.0, 2.0),
                              ConcreteJob(4.0, 6.0, 1.8)])
        assert steps[0].intensity == pytest.approx(0.9)
        assert steps[1].intensity == pytest.approx(0.25)  # 2 / (10 - 2)

    def test_intensities_non_increasing(self):
        rng = np.random.default_rng(3)
        jobs = [ConcreteJob(r, r + 5 + 10 * rng.random(),
                            0.5 + rng.random())
                for r in rng.uniform(0, 50, size=20)]
        steps = yds_schedule(jobs)
        intensities = [s.intensity for s in steps]
        assert all(a >= b - 1e-9
                   for a, b in zip(intensities, intensities[1:]))

    def test_work_conserved(self):
        rng = np.random.default_rng(4)
        jobs = [ConcreteJob(r, r + 4 + 6 * rng.random(),
                            0.2 + rng.random())
                for r in rng.uniform(0, 40, size=15)]
        steps = yds_schedule(jobs)
        assert sum(s.work for s in steps) == pytest.approx(
            sum(j.work for j in jobs))

    def test_disjoint_jobs_each_spread(self):
        steps = yds_schedule([ConcreteJob(0.0, 4.0, 1.0),
                              ConcreteJob(10.0, 14.0, 1.0)])
        assert all(s.intensity == pytest.approx(0.25) for s in steps)

    def test_feasible_set_intensity_at_most_one(self):
        ts = generate_taskset(5, 0.9, np.random.default_rng(8))
        jobs = jobs_from_taskset(ts, WorstCaseExecution(), horizon=600.0)
        steps = yds_schedule(jobs)
        assert max(s.intensity for s in steps) <= 1.0 + 1e-9


class TestJobsFromTaskset:
    def test_only_due_jobs_included(self):
        ts = TaskSet([PeriodicTask("T", wcet=1.0, period=10.0)])
        jobs = jobs_from_taskset(ts, WorstCaseExecution(), horizon=25.0)
        # Releases at 0, 10, 20; the job released at 20 has deadline 30
        # outside the horizon.
        assert len(jobs) == 2

    def test_actual_work_used(self):
        ts = TaskSet([PeriodicTask("T", wcet=4.0, period=10.0)])
        model = UniformExecution(low=0.5, high=1.0, seed=1)
        jobs = jobs_from_taskset(ts, model, horizon=10.0)
        assert jobs[0].work == pytest.approx(model.work(ts[0], 0))


class TestOptimalEnergy:
    def test_lower_bounds_every_policy(self):
        ts = generate_taskset(5, 0.8, np.random.default_rng(21))
        model = UniformExecution(low=0.4, high=1.0, seed=21)
        proc = ideal_processor()
        horizon = 900.0
        optimal = yds_optimal_energy(ts, model, proc, horizon)
        for name in ("static", "ccEDF", "lpSEH", "lpSTA", "clairvoyant"):
            result = simulate(ts, proc, make_policy(name), model,
                              horizon=horizon)
            assert optimal <= result.total_energy + 1e-6, name

    def test_oracle_near_optimal(self):
        ts = generate_taskset(5, 0.6, np.random.default_rng(22))
        model = UniformExecution(low=0.4, high=1.0, seed=22)
        proc = ideal_processor()
        optimal = yds_optimal_energy(ts, model, proc, 900.0)
        oracle = simulate(ts, proc, make_policy("clairvoyant"), model,
                          horizon=900.0)
        # The per-dispatch oracle holds one speed between scheduling
        # points, so it cannot always match the fluid optimum exactly;
        # empirically it lands within a few percent on aggregate
        # (EXP-F9) and within ~20% on individual workloads.
        assert oracle.total_energy <= optimal * 1.20

    def test_empty_horizon(self):
        ts = TaskSet([PeriodicTask("T", wcet=1.0, period=100.0,
                                   phase=50.0)])
        assert yds_optimal_energy(ts, WorstCaseExecution(),
                                  ideal_processor(), 10.0) == 0.0

    def test_discrete_scale_rejected(self):
        # Rounding each intensity up to a level is no lower bound:
        # policies mixing adjacent levels spend less.
        ts = TaskSet([PeriodicTask("T", wcet=1.0, period=10.0)])
        with pytest.raises(ConfigurationError, match="continuous"):
            yds_optimal_energy(ts, WorstCaseExecution(),
                               generic4_processor(), 100.0)
