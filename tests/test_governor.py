"""Tests for the runtime safety governor (:mod:`repro.policies.governor`).

The acceptance property from the fault-matrix experiment, in miniature:
under WCET-overrun injection a raw reclaiming policy misses deadlines,
while the same policy wrapped in :class:`SafetyGovernor` (margin >= the
overrun factor, margin-inflated utilization <= 1) misses nothing.
"""

import pytest

from repro.cpu.profiles import ideal_processor
from repro.errors import ConfigurationError
from repro.experiments.runner import standard_taskset
from repro.faults import FaultPlan, OverrunFault
from repro.policies.governor import SafetyGovernor
from repro.policies.registry import make_policy
from repro.sim.engine import simulate
from repro.tasks.execution import model_for_bcwc_ratio
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet

pytestmark = pytest.mark.faults

FACTOR = 1.4
UTILIZATION = 0.65  # margin-inflated utilization 0.91 stays feasible


def _run(policy, *, faults, horizon=1200.0, record_trace=False):
    taskset = standard_taskset(6, UTILIZATION, seed=3)
    model = model_for_bcwc_ratio(0.5, seed=3)
    return simulate(taskset, ideal_processor(), policy, model,
                    horizon=horizon, allow_misses=True, faults=faults,
                    record_trace=record_trace)


def _overrun_plan(seed=1):
    return FaultPlan(seed=seed, overrun=OverrunFault(factor=FACTOR))


class TestConstruction:
    def test_margin_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            SafetyGovernor(make_policy("ccEDF"), margin=0.9)

    def test_bad_window_cap_rejected(self):
        with pytest.raises(ConfigurationError):
            SafetyGovernor(make_policy("ccEDF"), window_cap_periods=0.0)

    def test_name_wraps_inner(self):
        gov = SafetyGovernor(make_policy("lpSTA"), margin=1.2)
        assert gov.name == "gov(lpSTA)"
        assert "margin=1.2" in gov.describe()

    def test_registry_integration(self):
        policy = make_policy("ccEDF", governed=True, governor_margin=1.3)
        assert isinstance(policy, SafetyGovernor)
        assert policy.inner.name == "ccEDF"

    def test_capped_inflation_fits_the_deadline(self):
        # 4.222 * (10 / 4.222) rounds to 10.000000000000002: a cap at
        # deadline / wcet alone would inflate the task past its
        # deadline, which PeriodicTask refuses.
        assert 4.222 * (10.0 / 4.222) > 10.0
        taskset = TaskSet([PeriodicTask("T1", 4.222, 10.0),
                           PeriodicTask("T2", 0.5, 10.0)])
        gov = SafetyGovernor(make_policy("ccEDF"), margin=3.0)
        gov.bind(taskset, ideal_processor())
        inflated = {t.name: t.wcet for t in gov._inflated_tasks}
        assert inflated["T1"] <= 10.0
        assert inflated["T1"] == pytest.approx(10.0)
        assert inflated["T2"] == 1.5


class TestSafetyProperty:
    @pytest.mark.parametrize("name", ["ccEDF", "lpSEH", "lpSTA"])
    def test_raw_policy_misses_governed_does_not(self, name):
        plan = _overrun_plan()
        raw = _run(make_policy(name), faults=plan)
        governed = _run(
            make_policy(name, governed=True, governor_margin=FACTOR),
            faults=plan)
        assert len(raw.deadline_misses) > 0
        assert len(governed.deadline_misses) == 0
        # Same injected workload in both runs.
        assert raw.overrun_jobs == governed.overrun_jobs > 0

    def test_interventions_reported_in_policy_metrics(self):
        governed = _run(
            make_policy("ccEDF", governed=True, governor_margin=FACTOR),
            faults=_overrun_plan())
        metrics = governed.policy_metrics
        assert metrics["interventions"] > 0
        assert metrics["dispatches"] >= metrics["interventions"]
        assert 0.0 < metrics["intervention_rate"] <= 1.0
        assert metrics["max_clamp"] > 0.0

    def test_interventions_pinned_to_trace(self):
        governed = _run(
            make_policy("ccEDF", governed=True, governor_margin=FACTOR),
            faults=_overrun_plan(), horizon=600.0, record_trace=True)
        notes = governed.trace.notes_of_kind("governor")
        assert notes
        assert "raised" in notes[0].detail

    def test_safety_costs_energy(self):
        plan = _overrun_plan()
        raw = _run(make_policy("ccEDF"), faults=plan)
        governed = _run(
            make_policy("ccEDF", governed=True, governor_margin=FACTOR),
            faults=plan)
        assert governed.total_energy > raw.total_energy


class TestTransparency:
    """Without faults and with margin 1, the governor must not change
    behaviour: the floor it computes is exactly the feasibility bound
    the reclaiming policies already respect."""

    @pytest.mark.parametrize("name", ["static", "ccEDF", "lpSTA"])
    def test_margin_one_no_faults_zero_misses(self, name):
        raw = _run(make_policy(name), faults=None)
        governed = _run(make_policy(name, governed=True), faults=None)
        assert len(governed.deadline_misses) == 0
        assert governed.jobs_completed == raw.jobs_completed

    def test_inner_metrics_forwarded_with_prefix(self):
        gov = SafetyGovernor(make_policy("ccEDF"), margin=1.0)

        class Probe:
            name = "probe"

            def metrics(self):
                return {"calls": 7.0}

        gov.inner = Probe()
        assert gov.metrics()["inner.calls"] == 7.0

    def test_delegates_lifecycle_to_inner(self):
        events = []

        class Recorder:
            name = "rec"

            def bind(self, taskset, processor):
                events.append("bind")

            def on_release(self, job, ctx):
                events.append("release")

            def on_completion(self, job, ctx):
                events.append("complete")

            def select_speed(self, job, ctx):
                return 1.0

            def metrics(self):
                return {}

        gov = SafetyGovernor(make_policy("none"), margin=1.0)
        gov.inner = Recorder()
        gov.on_release(None, None)
        gov.on_completion(None, None)
        assert events == ["release", "complete"]
