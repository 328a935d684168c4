"""Tests for the extension policies: feedback and critical-speed."""

import pytest

from repro.cpu.power import PolynomialPowerModel
from repro.cpu.processor import Processor
from repro.cpu.speed import ContinuousScale
from repro.errors import ConfigurationError
from repro.policies.critical_speed import CriticalSpeedPolicy
from repro.policies.feedback import FeedbackDvsPolicy
from repro.policies.slack_seh import LpSehPolicy
from repro.policies.slack_sta import LpStaPolicy
from repro.sim.engine import simulate
from repro.tasks.execution import (
    BimodalExecution,
    ConstantExecution,
    UniformExecution,
    WorstCaseExecution,
)


class TestFeedback:
    def test_predictor_converges_on_constant_demand(self, two_task_set,
                                                    processor):
        policy = FeedbackDvsPolicy()
        simulate(two_task_set, processor, policy, ConstantExecution(0.5),
                 horizon=200.0)
        for task in two_task_set:
            assert policy.prediction(task.name) == pytest.approx(
                0.5 * task.wcet, rel=0.05)

    def test_beats_budget_based_policy_on_steady_demand(
            self, two_task_set, processor):
        # Steady 30% demand: prediction pays off against pure
        # budget-based stretching.
        model = ConstantExecution(0.3)
        fb = simulate(two_task_set, processor, FeedbackDvsPolicy(),
                      model, horizon=400.0)
        seh = simulate(two_task_set, processor, LpSehPolicy(), model,
                       horizon=400.0)
        assert fb.total_energy < seh.total_energy
        assert not fb.missed

    def test_hard_deadlines_survive_wrong_predictions(
            self, three_task_set, processor):
        # Bimodal demand is the adversarial case for predictors: the
        # PID is systematically wrong, yet the safety floor holds.
        result = simulate(
            three_task_set, processor, FeedbackDvsPolicy(),
            BimodalExecution(light=0.05, heavy=1.0, p_heavy=0.5, seed=13),
            horizon=400.0)
        assert not result.missed

    def test_worst_case_cold_start_is_safe(self, saturated_task_set,
                                           processor):
        result = simulate(saturated_task_set, processor,
                          FeedbackDvsPolicy(), WorstCaseExecution(),
                          horizon=40.0)
        assert not result.missed

    def test_invalid_gains_rejected(self):
        with pytest.raises(ConfigurationError):
            FeedbackDvsPolicy(kp=-0.1)

    def test_prediction_clamped_to_budget(self, two_task_set, processor):
        policy = FeedbackDvsPolicy(kp=5.0, ki=1.0, kd=2.0)  # unstable PID
        simulate(two_task_set, processor, policy,
                 UniformExecution(low=0.2, high=1.0, seed=5),
                 horizon=400.0)
        for task in two_task_set:
            assert 0.0 < policy.prediction(task.name) <= task.wcet


class TestCriticalSpeed:
    @pytest.fixture
    def leaky_processor(self) -> Processor:
        return Processor(
            scale=ContinuousScale(min_speed=0.05),
            power_model=PolynomialPowerModel(alpha=3.0, static=0.4))

    def test_critical_speed_math(self):
        # P(s) = s^3 + rho: P/s minimised at s = (rho/2)^(1/3).
        model = PolynomialPowerModel(alpha=3.0, static=0.4)
        assert model.critical_speed() == pytest.approx(0.2 ** (1 / 3),
                                                       abs=0.01)

    def test_no_leakage_no_floor(self):
        model = PolynomialPowerModel(alpha=3.0, static=0.0)
        assert model.critical_speed() < 0.01

    def test_floor_applied(self, two_task_set, leaky_processor):
        policy = CriticalSpeedPolicy(LpStaPolicy())
        result = simulate(two_task_set, leaky_processor, policy,
                          ConstantExecution(0.2), horizon=100.0)
        assert policy.critical_speed > 0.5
        assert result.mean_speed() >= policy.critical_speed - 1e-9

    def test_floor_saves_energy_under_leakage(self, two_task_set,
                                              leaky_processor):
        model = ConstantExecution(0.2)
        plain = simulate(two_task_set, leaky_processor, LpStaPolicy(),
                         model, horizon=400.0)
        floored = simulate(two_task_set, leaky_processor,
                           CriticalSpeedPolicy(LpStaPolicy()), model,
                           horizon=400.0)
        assert floored.total_energy < plain.total_energy
        assert not floored.missed

    def test_transparent_without_leakage(self, two_task_set, processor,
                                         half_model):
        plain = simulate(two_task_set, processor, LpStaPolicy(),
                         half_model, horizon=100.0)
        wrapped = simulate(two_task_set, processor,
                           CriticalSpeedPolicy(LpStaPolicy()),
                           half_model, horizon=100.0)
        assert wrapped.total_energy == pytest.approx(plain.total_energy,
                                                     rel=1e-6)
