"""Trace validation through repro.analysis.audit_trace: a traced lpSTA
run, a hand-built overlapping trace and a trace-less result."""

import dataclasses

import pytest

from repro.analysis import audit_trace
from repro.errors import ConfigurationError
from repro.policies.registry import make_policy
from repro.sim.engine import simulate
from repro.sim.results import SimulationResult
from repro.sim.tracing import Segment, SegmentKind, TraceRecorder
from repro.tasks.execution import UniformExecution
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet

pytestmark = pytest.mark.trace


@pytest.fixture
def good_run(three_task_set, processor, half_model):
    return simulate(three_task_set, processor, make_policy("lpSTA"),
                    half_model, horizon=80.0, record_trace=True)


def _recorder_with(*segments):
    rec = TraceRecorder()
    rec._segments = list(segments)  # bypass recording guards on purpose
    return rec


class TestEndToEnd:
    def test_missing_trace_rejected(self, three_task_set, processor,
                                    half_model):
        result = simulate(three_task_set, processor, make_policy("none"),
                          half_model, horizon=80.0, record_trace=False)
        with pytest.raises(ConfigurationError, match="trace"):
            audit_trace(result, three_task_set, processor, half_model)


class TestCorruptedTraces:
    def test_overlap_detected(self, processor):
        ts = TaskSet([PeriodicTask("T", wcet=2.0, period=10.0)])
        model = UniformExecution(low=1.0, high=1.0, seed=0)
        rec = _recorder_with(
            Segment(0.0, 2.0, SegmentKind.RUN, 1.0, 2.0, "T#0", "T"),
            Segment(1.0, 3.0, SegmentKind.RUN, 1.0, 2.0, "T#1", "T"),
            Segment(3.0, 10.0, SegmentKind.IDLE, 0.0, 0.0))
        result = SimulationResult(policy="hand", horizon=10.0, trace=rec,
                                  busy_energy=4.0)
        violations = audit_trace(result, ts, processor, model)
        assert any(v.kind == "coverage" and "overlap" in v.message
                   for v in violations), violations

    def test_energy_mismatch_detected(self, good_run, three_task_set,
                                      processor, half_model):
        audit = (three_task_set, processor, half_model)
        assert audit_trace(good_run, *audit) == []
        segs = good_run.trace._segments
        segs[0] = dataclasses.replace(segs[0], energy=segs[0].energy + 1.0)
        violations = audit_trace(good_run, *audit)
        assert violations
        assert {v.kind for v in violations} == {"energy"}
