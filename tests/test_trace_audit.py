"""Tests for repro.analysis.audit: the schedule invariant auditor."""

import dataclasses
import json

import pytest

from repro.analysis import (
    Violation,
    audit_trace,
    render_violations,
    run_and_audit,
)
from repro.cpu.profiles import generic4_processor, ideal_processor
from repro.errors import ConfigurationError
from repro.experiments.runner import (
    bcwc_model,
    run_suite,
    standard_taskset,
    sweep,
)
from repro.faults import FaultPlan, OverrunFault
from repro.faults.plan import TransitionFault
from repro.policies.registry import ALL_POLICY_NAMES, make_policy
from repro.sim.engine import Simulator
from repro.sim.results import DeadlineMiss, SimulationResult
from repro.sim.tracing import Segment, SegmentKind, TraceNote, TraceRecorder
from repro.tasks.execution import UniformExecution
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet

pytestmark = pytest.mark.trace


def small_taskset():
    return TaskSet([PeriodicTask("A", wcet=1.0, period=4.0),
                    PeriodicTask("B", wcet=2.0, period=10.0)])


def traced_sim(policy="lpSTA", taskset=None, horizon=40.0, faults=None,
               processor=None, **policy_kwargs):
    return Simulator(taskset or small_taskset(),
                     processor or ideal_processor(),
                     make_policy(policy, **policy_kwargs),
                     horizon=horizon, record_trace=True,
                     allow_misses=True, faults=faults)


def governed_laedf_sim(stuck=0.0):
    """laEDF under the governor, with overruns and optional stuck
    speed switches: the governor raises floors at most dispatches."""
    plan = FaultPlan(
        seed=1, overrun=OverrunFault(factor=1.3, probability=0.4),
        transition=(TransitionFault(stuck_probability=stuck)
                    if stuck else None))
    return Simulator(standard_taskset(4, 0.5, seed=1), ideal_processor(),
                     make_policy("laEDF", governed=True,
                                 governor_margin=1.3),
                     bcwc_model(0.5, seed=1), horizon=120.0,
                     record_trace=True, allow_misses=True, faults=plan)


PROCESSORS = {"ideal": ideal_processor, "generic4": generic4_processor}

#: Every policy on both processors; ideal runs keep the bare policy id.
POLICY_PROCESSOR = (
    [pytest.param(policy, "ideal", id=policy)
     for policy in ALL_POLICY_NAMES]
    + [pytest.param(policy, "generic4", id=f"{policy}-generic4")
       for policy in ALL_POLICY_NAMES])


class TestCleanRuns:
    @pytest.mark.parametrize("policy,processor", POLICY_PROCESSOR)
    def test_every_policy_audits_clean(self, policy, processor):
        result, violations = run_and_audit(
            traced_sim(policy, processor=PROCESSORS[processor]()))
        assert violations == [], render_violations(violations)
        assert not result.deadline_misses

    @pytest.mark.parametrize("policy", ALL_POLICY_NAMES)
    def test_variable_demands_audit_clean(self, policy, three_task_set,
                                          half_model):
        """Early completions (demands 0.5-1.0 x WCET) beside a long
        task: the slack every reclaiming policy feeds on."""
        result, violations = run_and_audit(Simulator(
            three_task_set, ideal_processor(), make_policy(policy),
            half_model, horizon=80.0, record_trace=True))
        assert violations == [], render_violations(violations)
        assert not result.deadline_misses

    def test_generated_workload_audits_clean(self):
        sim = Simulator(standard_taskset(5, 0.7, seed=11),
                        ideal_processor(), make_policy("lpSEH"),
                        bcwc_model(0.5, seed=11), horizon=80.0,
                        record_trace=True, allow_misses=True)
        _, violations = run_and_audit(sim)
        assert violations == [], render_violations(violations)

    def test_fault_injected_run_audits_clean(self):
        plan = FaultPlan(
            seed=7, overrun=OverrunFault(factor=1.4, probability=0.5),
            transition=TransitionFault(stuck_probability=0.3))
        _, violations = run_and_audit(
            traced_sim("lpSTA", faults=plan, governed=True,
                       governor_margin=1.4))
        assert violations == [], render_violations(violations)

    def test_stuck_switch_below_governor_floor_audits_clean(self):
        """A stuck switch holds the old speed under a governor floor:
        the injected fault, not the policy, kept the dispatch below it."""
        result, violations = run_and_audit(governed_laedf_sim(stuck=0.3))
        stuck = {note.time
                 for note in result.notes_of_kind("transition-fault")
                 if note.detail.startswith("stuck at")}
        assert stuck & {note.time
                        for note in result.notes_of_kind("governor")}
        assert violations == [], render_violations(violations)

    def test_requires_trace(self):
        sim = Simulator(small_taskset(), ideal_processor(),
                        make_policy("none"), horizon=8.0,
                        record_trace=False)
        result = sim.run()
        with pytest.raises(ConfigurationError):
            audit_trace(result, sim.taskset, sim.processor,
                        sim.execution_model, sim.arrival_model)


def _audit_mutated(mutate):
    """Run clean, apply *mutate* to the result, return violation kinds."""
    sim = traced_sim("ccEDF")
    result = sim.run()
    mutate(result)
    violations = audit_trace(result, sim.taskset, sim.processor,
                             sim.execution_model, sim.arrival_model)
    assert all(isinstance(v, Violation) for v in violations)
    return {v.kind for v in violations}


class TestMutationDetection:
    def test_seeded_overlap_detected(self):
        def mutate(result):
            segs = result.trace._segments
            i = len(segs) // 2
            segs[i] = dataclasses.replace(segs[i],
                                          start=segs[i].start - 0.05)
        assert "coverage" in _audit_mutated(mutate)

    def test_coverage_gap_detected(self):
        def mutate(result):
            segs = result.trace._segments
            del segs[len(segs) // 2]
        assert "coverage" in _audit_mutated(mutate)

    def test_unreported_deadline_miss_detected(self):
        # Halving a run's speed starves that job: the trace no longer
        # retires its demand, so the audit must flag a miss the result
        # does not report.
        def mutate(result):
            segs = result.trace._segments
            i = next(j for j, s in enumerate(segs)
                     if s.kind == SegmentKind.RUN)
            segs[i] = dataclasses.replace(segs[i],
                                          speed=segs[i].speed * 0.5)
        assert "deadline" in _audit_mutated(mutate)

    def test_fabricated_miss_report_detected(self):
        def mutate(result):
            seg = next(s for s in result.trace.segments
                       if s.kind == SegmentKind.RUN)
            result.deadline_misses.append(DeadlineMiss(
                job=seg.job, task=seg.task, deadline=1.0,
                detected_at=1.0))
        assert "deadline" in _audit_mutated(mutate)

    def test_power_model_energy_mismatch_detected(self):
        """A run segment and the result's busy energy moved together:
        the ledger still balances, only the power model disagrees."""
        sim = traced_sim("ccEDF")
        result = sim.run()
        segs = result.trace._segments
        i = next(j for j, s in enumerate(segs)
                 if s.kind == SegmentKind.RUN)
        segs[i] = dataclasses.replace(segs[i], energy=segs[i].energy + 0.5)
        result.busy_energy += 0.5
        violations = audit_trace(result, sim.taskset, sim.processor,
                                 sim.execution_model, sim.arrival_model)
        assert [(v.kind, v.job) for v in violations] == [
            ("energy", segs[i].job)]
        assert "power model" in violations[0].message

    def test_energy_ledger_imbalance_detected(self):
        def mutate(result):
            segs = result.trace._segments
            i = next(j for j, s in enumerate(segs)
                     if s.kind == SegmentKind.RUN)
            segs[i] = dataclasses.replace(segs[i],
                                          energy=segs[i].energy + 1.0)
        assert "energy" in _audit_mutated(mutate)

    def test_result_totals_off_the_trace_detected(self):
        """The trace untouched, the result's idle total moved: only the
        ledger's reconciliation can see it."""
        def mutate(result):
            result.idle_energy += 1.0
        assert _audit_mutated(mutate) == {"energy"}

    @staticmethod
    def _halve_clamped_dispatch(result, note):
        """Halve the speed of the run the governor *note* clamped."""
        job = note.detail.partition(":")[0]
        segs = result.trace._segments
        i = next(j for j, s in enumerate(segs)
                 if s.kind == SegmentKind.RUN and s.job == job
                 and s.end > note.time)
        segs[i] = dataclasses.replace(segs[i], speed=segs[i].speed * 0.5)

    @staticmethod
    def _floor_kinds(sim, result):
        return {v.kind for v in audit_trace(
            result, sim.taskset, sim.processor, sim.execution_model,
            sim.arrival_model)}

    def test_governor_floor_breach_detected(self):
        sim = governed_laedf_sim()
        result = sim.run()
        self._halve_clamped_dispatch(result,
                                     result.notes_of_kind("governor")[0])
        assert "governor-floor" in self._floor_kinds(sim, result)

    def test_breach_below_a_stuck_switch_detected(self):
        """A stuck switch lowers the floor to the speed it held, no
        further: a dispatch below the held speed is still a breach."""
        sim = governed_laedf_sim(stuck=0.3)
        result = sim.run()
        notes = result.notes
        held = next(
            note for note, after in zip(notes, notes[1:])
            if note.kind == "governor" and after.time == note.time
            and after.detail.startswith("stuck at"))
        assert self._floor_kinds(sim, result) == set()
        self._halve_clamped_dispatch(result, held)
        assert "governor-floor" in self._floor_kinds(sim, result)

    def test_stuck_switch_of_an_earlier_dispatch_ignored(self):
        """Only the switch that follows a clamp can hold its dispatch:
        a stuck note earlier at the same instant belongs to another."""
        sim = governed_laedf_sim()
        result = sim.run()
        note = result.notes_of_kind("governor")[0]
        at = result.notes.index(note)
        result.notes = (result.notes[:at]
                        + (TraceNote(note.time, "transition-fault",
                                     "stuck at 0.01 (wanted 1)"),)
                        + result.notes[at:])
        self._halve_clamped_dispatch(result, note)
        assert "governor-floor" in self._floor_kinds(sim, result)

    def test_render_names_the_violations(self):
        violations = [Violation(kind="coverage", time=1.0,
                                message="gap", job="A#0")]
        rendered = render_violations(violations)
        assert "coverage" in rendered and "A#0" in rendered
        assert render_violations([]) == "audit: 0 violations"


def run_seg(start, end, job, speed=1.0, processor=None):
    """A run segment carrying its power-model energy."""
    energy = (processor or ideal_processor()).active_energy(
        speed, end - start)
    return Segment(start, end, SegmentKind.RUN, speed, energy, job,
                   job.partition("#")[0] if job else None)


def idle_seg(start, end):
    return Segment(start, end, SegmentKind.IDLE, 0.0, 0.0)


def audit_hand_trace(taskset, segments, horizon, processor=None):
    """Audit a hand-built trace of jobs that each demand their WCET;
    the result's energy totals are the trace's, so only the seeded
    fault shows."""
    trace = TraceRecorder()
    trace._segments = list(segments)  # bypass recording guards
    result = SimulationResult(
        policy="hand", horizon=horizon, trace=trace,
        busy_energy=sum(s.energy for s in segments
                        if s.kind == SegmentKind.RUN))
    return audit_trace(result, taskset, processor or ideal_processor(),
                       UniformExecution(low=1.0, high=1.0, seed=0))


def found(violations, kind, text, job=None):
    return any(v.kind == kind and text in v.message
               and (job is None or v.job == job) for v in violations)


def one_task(phase=0.0):
    return TaskSet([PeriodicTask("T", wcet=2.0, period=10.0, phase=phase)])


class TestHandBuiltTraces:
    """One seeded fault per check, each named by its message."""

    def test_clean_hand_trace_passes(self):
        assert audit_hand_trace(one_task(), [run_seg(0.0, 2.0, "T#0"),
                                             idle_seg(2.0, 10.0)],
                                10.0) == []

    def test_late_first_segment_detected(self):
        violations = audit_hand_trace(
            one_task(), [run_seg(1.0, 3.0, "T#0"), idle_seg(3.0, 10.0)],
            10.0)
        assert found(violations, "coverage", "first segment starts at 1")

    def test_trace_short_of_the_horizon_detected(self):
        violations = audit_hand_trace(
            one_task(), [run_seg(0.0, 2.0, "T#0"), idle_seg(2.0, 8.0)],
            10.0)
        assert found(violations, "coverage", "last segment ends at 8")

    def test_negative_duration_detected(self):
        # [0,2] [2,1] [1,3]: no gap and no overlap between neighbours.
        backwards = run_seg(2.0, 3.0, "T#0")
        object.__setattr__(backwards, "end", 1.0)
        violations = audit_hand_trace(
            one_task(), [run_seg(0.0, 2.0, "T#0"), backwards,
                         idle_seg(1.0, 3.0)], 3.0)
        assert found(violations, "coverage", "negative duration")

    def test_unattainable_speed_detected(self):
        proc = generic4_processor()  # levels .25/.5/.75/1
        violations = audit_hand_trace(
            one_task(), [run_seg(0.0, 10 / 3, "T#0", 0.6, proc),
                         idle_seg(10 / 3, 10.0)], 10.0, proc)
        assert found(violations, "speed", "unattainable speed 0.6")

    def test_execution_before_release_detected(self):
        violations = audit_hand_trace(
            one_task(phase=5.0), [run_seg(0.0, 2.0, "T#0"),
                                  idle_seg(2.0, 10.0)], 10.0)
        assert found(violations, "work", "before its release", "T#0")

    def test_overrun_detected(self):
        violations = audit_hand_trace(
            one_task(), [run_seg(0.0, 3.0, "T#0"), idle_seg(3.0, 10.0)],
            10.0)
        assert found(violations, "work", "more than its demand", "T#0")

    def test_late_completion_detected(self):
        violations = audit_hand_trace(
            one_task(), [idle_seg(0.0, 9.0), run_seg(9.0, 11.0, "T#0"),
                         idle_seg(11.0, 20.0)], 20.0)
        assert found(violations, "deadline", "completion 11", "T#0")

    def test_starved_job_detected(self):
        violations = audit_hand_trace(
            one_task(), [run_seg(0.0, 1.0, "T#0"), idle_seg(1.0, 20.0)],
            20.0)
        assert found(violations, "deadline", "completion never", "T#0")

    @pytest.mark.parametrize("job", ["X#0", None])
    def test_unknown_or_unlabelled_job_detected(self, job):
        violations = audit_hand_trace(
            one_task(), [run_seg(0.0, 2.0, job), idle_seg(2.0, 10.0)],
            10.0)
        assert found(violations, "work", "never release")

    def test_later_deadline_dispatched_first_detected(self):
        violations = audit_hand_trace(
            small_taskset(), [run_seg(0.0, 2.0, "B#0"),
                              run_seg(2.0, 3.0, "A#0"),
                              idle_seg(3.0, 4.0)], 4.0)
        assert found(violations, "edf-order", "A#0 (deadline 4) is "
                                               "pending", "B#0")

    def test_unpreempted_earlier_deadline_release_detected(self):
        tasks = TaskSet([PeriodicTask("A", wcet=1.0, period=4.0,
                                      phase=1.0),
                         PeriodicTask("B", wcet=2.0, period=10.0)])
        violations = audit_hand_trace(
            tasks, [run_seg(0.0, 2.0, "B#0"), run_seg(2.0, 3.0, "A#0"),
                    idle_seg(3.0, 5.0)], 5.0)
        assert found(violations, "edf-order", "without preempting", "B#0")

    def test_idling_with_pending_work_detected(self):
        violations = audit_hand_trace(
            small_taskset(), [run_seg(0.0, 1.0, "A#0"), idle_seg(1.0, 2.0),
                              run_seg(2.0, 4.0, "B#0"),
                              run_seg(4.0, 5.0, "A#1"), idle_seg(5.0, 8.0)],
            8.0)
        assert found(violations, "idle", "B#0 pending", "B#0")
        assert {v.kind for v in violations} == {"idle"}


class TestSuiteAudit:
    def test_run_suite_audit_passes_clean_workload(self):
        suite = run_suite(small_taskset(), ["ccEDF"], ideal_processor(),
                          bcwc_model(0.6, seed=1), horizon=40.0,
                          allow_misses=True, audit=True)
        assert "ccEDF" in suite.results

    def test_audited_summaries_match_unaudited(self):
        kwargs = dict(policy_names=["ccEDF", "lpSTA"],
                      processor=ideal_processor(),
                      execution_model=bcwc_model(0.6, seed=1),
                      horizon=40.0, allow_misses=True)
        audited = run_suite(small_taskset(), audit=True, **kwargs)
        plain = run_suite(small_taskset(), audit=False, **kwargs)
        assert audited.policy_summaries() == plain.policy_summaries()


class TestSweepSpotAudit:
    def test_sweep_with_audit_matches_without(self):
        def make_workload(x, seed):
            return standard_taskset(4, x, seed), bcwc_model(0.5, seed)

        kwargs = dict(xs=[0.5, 0.7], make_workload=make_workload,
                      policy_names=["ccEDF"], n_tasksets=2,
                      horizon=40.0, allow_misses=True)
        audited = sweep(audit_every=2, **kwargs)
        plain = sweep(**kwargs)
        assert ([c.to_payload() for c in audited]
                == [c.to_payload() for c in plain])

    def test_bad_audit_every_rejected(self):
        from repro.errors import ExperimentError
        with pytest.raises(ExperimentError, match="audit_every"):
            sweep([0.5], lambda x, s: (small_taskset(),
                                       bcwc_model(0.5, s)),
                  ["ccEDF"], horizon=10.0, audit_every=0)


@pytest.mark.telemetry
class TestAuditTelemetry:
    def test_manifest_records_audit_block(self, tmp_path):
        from repro.telemetry import TELEMETRY

        def make_workload(x, seed):
            return standard_taskset(4, x, seed), bcwc_model(0.5, seed)

        TELEMETRY.configure(enabled=True,
                            events_path=tmp_path / "events.jsonl",
                            manifest_dir=tmp_path)
        try:
            sweep(xs=[0.5], make_workload=make_workload,
                  policy_names=["ccEDF"], n_tasksets=2, horizon=40.0,
                  allow_misses=True, audit_every=2)
        finally:
            TELEMETRY.configure(enabled=False)
        manifest = json.loads(
            sorted(tmp_path.glob("manifest_*.json"))[-1].read_text())
        audit = manifest["audit"]
        assert audit["every"] == 2
        assert audit["units"] == 1  # positions 0 and 1, every 2nd
        assert audit["violations"] == 0
