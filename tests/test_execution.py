"""Tests for repro.tasks.execution models."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.tasks.execution import (
    BimodalExecution,
    ConstantExecution,
    MarkovExecution,
    SinusoidalExecution,
    TraceExecution,
    TruncatedNormalExecution,
    UniformExecution,
    WorstCaseExecution,
    model_for_bcwc_ratio,
)
from repro.tasks.task import PeriodicTask


@pytest.fixture
def task() -> PeriodicTask:
    return PeriodicTask("T", wcet=10.0, period=100.0)


ALL_MODELS = [
    ConstantExecution(0.7),
    WorstCaseExecution(),
    UniformExecution(0.3, 0.9, seed=1),
    TruncatedNormalExecution(mean=0.6, std=0.2, seed=2),
    BimodalExecution(light=0.2, heavy=0.9, p_heavy=0.4, seed=3),
    SinusoidalExecution(offset=0.5, amplitude=0.3, cycle=10, seed=4),
    MarkovExecution(light=0.3, heavy=0.9, p_stay=0.8, seed=5),
    TraceExecution([0.5, 0.7, 0.9]),
]


class TestUniversalInvariants:
    @pytest.mark.parametrize("model", ALL_MODELS,
                             ids=lambda m: type(m).__name__)
    def test_work_in_valid_range(self, model, task):
        for index in range(200):
            work = model.work(task, index)
            assert 0.0 < work <= task.wcet + 1e-12

    @pytest.mark.parametrize("model", ALL_MODELS,
                             ids=lambda m: type(m).__name__)
    def test_deterministic_per_job(self, model, task):
        first = [model.work(task, i) for i in range(50)]
        second = [model.work(task, i) for i in range(50)]
        assert first == second

    @pytest.mark.parametrize("model", ALL_MODELS,
                             ids=lambda m: type(m).__name__)
    def test_order_independent(self, model, task):
        forward = [model.work(task, i) for i in range(30)]
        backward = [model.work(task, i) for i in reversed(range(30))]
        assert forward == list(reversed(backward))

    @pytest.mark.parametrize("model", ALL_MODELS,
                             ids=lambda m: type(m).__name__)
    def test_describe_is_nonempty(self, model):
        assert model.describe()

    def test_bcet_respected_as_floor(self):
        task = PeriodicTask("T", wcet=10.0, period=100.0, bcet=6.0)
        model = ConstantExecution(0.1)
        assert model.work(task, 0) == pytest.approx(6.0)


class TestConstant:
    def test_exact_fraction(self, task):
        assert ConstantExecution(0.25).work(task, 7) == pytest.approx(2.5)

    def test_worst_case_is_wcet(self, task):
        assert WorstCaseExecution().work(task, 0) == task.wcet

    @pytest.mark.parametrize("ratio", [0.0, -0.5, 1.5])
    def test_invalid_ratio(self, ratio):
        with pytest.raises(ConfigurationError):
            ConstantExecution(ratio)


class TestUniform:
    def test_bounds_respected(self, task):
        model = UniformExecution(0.4, 0.6, seed=9)
        ratios = [model.work(task, i) / task.wcet for i in range(500)]
        assert min(ratios) >= 0.4
        assert max(ratios) <= 0.6

    def test_mean_near_centre(self, task):
        model = UniformExecution(0.4, 0.6, seed=9)
        ratios = [model.work(task, i) / task.wcet for i in range(2000)]
        assert sum(ratios) / len(ratios) == pytest.approx(0.5, abs=0.01)

    def test_different_seeds_differ(self, task):
        a = UniformExecution(0.2, 1.0, seed=1).work(task, 0)
        b = UniformExecution(0.2, 1.0, seed=2).work(task, 0)
        assert a != b

    def test_different_tasks_independent(self):
        model = UniformExecution(0.2, 1.0, seed=1)
        t1 = PeriodicTask("T1", 10.0, 100.0)
        t2 = PeriodicTask("T2", 10.0, 100.0)
        assert model.work(t1, 0) != model.work(t2, 0)

    def test_invalid_bounds(self):
        with pytest.raises(ConfigurationError):
            UniformExecution(0.8, 0.5)
        with pytest.raises(ConfigurationError):
            UniformExecution(0.0, 0.5)


class TestTruncatedNormal:
    def test_within_truncation(self, task):
        model = TruncatedNormalExecution(mean=0.5, std=0.3, low=0.2, seed=1)
        for i in range(500):
            ratio = model.work(task, i) / task.wcet
            assert 0.2 <= ratio <= 1.0

    def test_zero_std_is_constant(self, task):
        model = TruncatedNormalExecution(mean=0.5, std=0.0, seed=1)
        works = [model.work(task, i) for i in range(10)]
        assert works == pytest.approx([5.0] * 10)


class TestBimodal:
    def test_only_two_values(self, task):
        model = BimodalExecution(light=0.2, heavy=0.8, p_heavy=0.5, seed=7)
        values = sorted({round(model.work(task, i), 9) for i in range(300)})
        assert values == pytest.approx([2.0, 8.0])

    def test_heavy_fraction_matches_probability(self, task):
        model = BimodalExecution(light=0.2, heavy=0.8, p_heavy=0.3, seed=7)
        heavy = sum(1 for i in range(3000)
                    if model.work(task, i) > 5.0)
        assert heavy / 3000 == pytest.approx(0.3, abs=0.03)

    def test_degenerate_probabilities(self, task):
        always = BimodalExecution(0.2, 0.8, p_heavy=1.0, seed=1)
        never = BimodalExecution(0.2, 0.8, p_heavy=0.0, seed=1)
        assert always.work(task, 5) == pytest.approx(8.0)
        assert never.work(task, 5) == pytest.approx(2.0)


class TestSinusoidal:
    def test_periodicity(self, task):
        model = SinusoidalExecution(offset=0.5, amplitude=0.3, cycle=10)
        assert model.work(task, 3) == pytest.approx(model.work(task, 13))

    def test_amplitude_bounds(self, task):
        model = SinusoidalExecution(offset=0.5, amplitude=0.3, cycle=16)
        ratios = [model.work(task, i) / task.wcet for i in range(32)]
        assert min(ratios) == pytest.approx(0.2, abs=0.01)
        assert max(ratios) == pytest.approx(0.8, abs=0.01)

    def test_out_of_range_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            SinusoidalExecution(offset=0.9, amplitude=0.3)


class TestMarkov:
    def test_burstiness(self, task):
        # With p_stay=0.95 runs of identical values should be long.
        model = MarkovExecution(light=0.2, heavy=0.9, p_stay=0.95, seed=3)
        values = [model.work(task, i) for i in range(400)]
        changes = sum(1 for a, b in zip(values, values[1:]) if a != b)
        assert changes < 60  # far fewer than the ~200 of a fair coin

    def test_states_map_to_ratios(self, task):
        model = MarkovExecution(light=0.25, heavy=0.75, p_stay=0.5, seed=3)
        values = sorted({round(model.work(task, i), 9) for i in range(200)})
        assert values == pytest.approx([2.5, 7.5])

    def test_deep_index_first_equals_index_order(self, task):
        # A fresh chain queried far ahead fills forward (no recursion)
        # to the states an in-order walk reaches.
        fresh = MarkovExecution(p_stay=0.9, seed=3)
        deep = fresh.work(task, 5000)
        warmed = MarkovExecution(p_stay=0.9, seed=3)
        in_order = [warmed.work(task, i) for i in range(5001)]
        assert deep == in_order[-1]
        assert [fresh.work(task, i) for i in range(5001)] == in_order


class TestTrace:
    def test_cyclic_replay(self, task):
        model = TraceExecution([0.5, 1.0])
        assert model.work(task, 0) == pytest.approx(5.0)
        assert model.work(task, 1) == pytest.approx(10.0)
        assert model.work(task, 2) == pytest.approx(5.0)

    def test_per_task_traces(self):
        t1 = PeriodicTask("T1", 10.0, 100.0)
        t2 = PeriodicTask("T2", 10.0, 100.0)
        model = TraceExecution({"T1": [0.5], "T2": [1.0]})
        assert model.work(t1, 0) == pytest.approx(5.0)
        assert model.work(t2, 0) == pytest.approx(10.0)

    def test_missing_task_without_default_raises(self, task):
        model = TraceExecution({"other": [0.5]})
        with pytest.raises(ConfigurationError):
            model.work(task, 0)

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceExecution([])

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceExecution([1.5])


class TestFactory:
    def test_ratio_one_gives_worst_case(self):
        assert isinstance(model_for_bcwc_ratio(1.0), WorstCaseExecution)

    def test_partial_ratio_gives_uniform(self, task):
        model = model_for_bcwc_ratio(0.3, seed=5)
        assert isinstance(model, UniformExecution)
        assert model.low == 0.3
        for i in range(100):
            assert model.work(task, i) >= 0.3 * task.wcet - 1e-12
