"""Tests for repro.tasks.arrivals and sporadic simulation."""

import numpy as np
import pytest

from repro.analysis import audit_trace, render_violations
from repro.cpu.profiles import ideal_processor
from repro.errors import ConfigurationError
from repro.policies.registry import ALL_POLICY_NAMES, make_policy
from repro.sim.engine import simulate
from repro.tasks.arrivals import (
    BurstyArrival,
    ExponentialGapArrival,
    PeriodicArrival,
    UniformJitterArrival,
)
from repro.tasks.execution import UniformExecution, WorstCaseExecution
from repro.tasks.generators import generate_taskset
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet


@pytest.fixture
def task() -> PeriodicTask:
    return PeriodicTask("T", wcet=2.0, period=10.0, phase=3.0)


ALL_ARRIVALS = [
    PeriodicArrival(),
    UniformJitterArrival(jitter=0.5, seed=1),
    ExponentialGapArrival(mean_extra=0.4, seed=2),
    BurstyArrival(lull_factor=3.0, p_stay=0.8, seed=3),
]


class TestModelInvariants:
    @pytest.mark.parametrize("model", ALL_ARRIVALS,
                             ids=lambda m: type(m).__name__)
    def test_first_arrival_is_phase(self, model, task):
        assert model.arrival_time(task, 0) == pytest.approx(3.0)

    @pytest.mark.parametrize("model", ALL_ARRIVALS,
                             ids=lambda m: type(m).__name__)
    def test_minimum_separation_respected(self, model, task):
        times = [model.arrival_time(task, i) for i in range(100)]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g >= task.period - 1e-9 for g in gaps)

    @pytest.mark.parametrize("model", ALL_ARRIVALS,
                             ids=lambda m: type(m).__name__)
    def test_deterministic_and_order_independent(self, model, task):
        forward = [model.arrival_time(task, i) for i in range(30)]
        fresh = type(model)(**{k: v for k, v in model.__dict__.items()
                               if k in ("jitter", "mean_extra",
                                        "lull_factor", "p_stay", "seed")})
        backward = [fresh.arrival_time(task, i)
                    for i in reversed(range(30))]
        assert forward == list(reversed(backward))

    def test_negative_index_rejected(self, task):
        with pytest.raises(ConfigurationError):
            PeriodicArrival().arrival_time(task, -1)


class TestPeriodic:
    def test_exact_periods(self, task):
        model = PeriodicArrival()
        assert model.arrival_time(task, 4) == pytest.approx(43.0)
        assert model.is_periodic


class TestUniformJitter:
    def test_zero_jitter_is_periodic(self, task):
        model = UniformJitterArrival(jitter=0.0, seed=1)
        assert model.is_periodic
        assert model.arrival_time(task, 5) == pytest.approx(53.0)

    def test_gap_upper_bound(self, task):
        model = UniformJitterArrival(jitter=0.3, seed=4)
        times = [model.arrival_time(task, i) for i in range(200)]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert max(gaps) <= 13.0 + 1e-9

    def test_invalid_jitter(self):
        with pytest.raises(ConfigurationError):
            UniformJitterArrival(jitter=-0.1)


class TestBursty:
    def test_only_two_gap_values(self, task):
        model = BurstyArrival(lull_factor=2.5, p_stay=0.7, seed=5)
        times = [model.arrival_time(task, i) for i in range(100)]
        gaps = sorted({round(b - a, 9) for a, b in zip(times, times[1:])})
        assert gaps == pytest.approx([10.0, 25.0])

    def test_deep_gap_first_equals_index_order(self, task):
        # The burst chain fills forward, without one frame per index.
        fresh = BurstyArrival(p_stay=0.8, seed=3)
        deep = fresh.gap(task, 5000)
        warmed = BurstyArrival(p_stay=0.8, seed=3)
        in_order = [warmed.gap(task, i) for i in range(5001)]
        assert deep == in_order[-1]
        assert [fresh.gap(task, i) for i in range(5001)] == in_order

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            BurstyArrival(lull_factor=0.5)
        with pytest.raises(ConfigurationError):
            BurstyArrival(p_stay=1.5)


class TestSporadicSimulation:
    @pytest.mark.parametrize("policy_name", ALL_POLICY_NAMES)
    def test_no_misses_with_jittered_arrivals(self, policy_name):
        ts = generate_taskset(5, 0.9, np.random.default_rng(61))
        result = simulate(
            ts, ideal_processor(), make_policy(policy_name),
            UniformExecution(low=0.3, high=1.0, seed=61),
            arrival_model=UniformJitterArrival(jitter=0.6, seed=61),
            horizon=min(ts.default_horizon(), 3000.0))
        assert not result.missed, policy_name

    @pytest.mark.parametrize("policy_name",
                             ("static", "DRA", "lpSEH", "lpSTA",
                              "clairvoyant"))
    def test_no_misses_with_bursty_arrivals(self, policy_name):
        ts = generate_taskset(5, 0.95, np.random.default_rng(67))
        result = simulate(
            ts, ideal_processor(), make_policy(policy_name),
            UniformExecution(low=0.2, high=1.0, seed=67),
            arrival_model=BurstyArrival(lull_factor=4.0, p_stay=0.85,
                                        seed=67),
            horizon=min(ts.default_horizon(), 3000.0))
        assert not result.missed, policy_name

    def test_sporadic_saves_more_than_periodic(self):
        # Longer gaps mean lower effective load: the dynamic policies
        # harvest it while the no-DVS baseline idles it away.
        ts = generate_taskset(5, 0.8, np.random.default_rng(71))
        model = UniformExecution(low=0.5, high=1.0, seed=71)
        norms = {}
        for label, arrivals in (
                ("periodic", PeriodicArrival()),
                ("sporadic", ExponentialGapArrival(mean_extra=1.0,
                                                   seed=71))):
            baseline = simulate(ts, ideal_processor(),
                                make_policy("none"), model,
                                arrival_model=arrivals, horizon=2400.0)
            result = simulate(ts, ideal_processor(),
                              make_policy("lpSTA"), model,
                              arrival_model=arrivals, horizon=2400.0)
            norms[label] = result.normalized_energy(baseline)
        assert norms["sporadic"] < norms["periodic"]

    def test_sporadic_trace_validates(self):
        ts = generate_taskset(4, 0.7, np.random.default_rng(73))
        model = UniformExecution(low=0.4, high=1.0, seed=73)
        arrivals = UniformJitterArrival(jitter=0.4, seed=73)
        result = simulate(ts, ideal_processor(), make_policy("lpSEH"),
                          model, arrival_model=arrivals, horizon=1200.0,
                          record_trace=True)
        violations = audit_trace(result, ts, ideal_processor(), model,
                                 arrivals)
        assert violations == [], render_violations(violations)
        assert not result.deadline_misses

    def test_policy_view_is_pessimistic(self):
        # With sporadic arrivals the policy-visible next release must
        # never exceed the engine's actual sampled arrival.
        from repro.policies.base import DvsPolicy

        gaps_checked = []

        class ProbePolicy(DvsPolicy):
            name = "probe"

            def select_speed(self, job, ctx):
                for t in ctx.taskset:
                    visible = ctx.next_release_of(t.name)
                    actual = ctx._engine._next_release[t.name]
                    gaps_checked.append(actual - visible)
                return 1.0

        ts = TaskSet([PeriodicTask("A", 1.0, 10.0),
                      PeriodicTask("B", 2.0, 14.0)])
        simulate(ts, ideal_processor(), ProbePolicy(),
                 WorstCaseExecution(),
                 arrival_model=UniformJitterArrival(jitter=0.8, seed=3),
                 horizon=400.0)
        assert gaps_checked
        assert all(g >= -1e-9 for g in gaps_checked)
        assert any(g > 0.5 for g in gaps_checked)  # genuinely sporadic
