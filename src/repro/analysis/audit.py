"""Trace invariant auditor: machine-checkable schedule correctness.

:func:`audit_trace` replays a recorded schedule trace against the
workload models and returns structured :class:`Violation` records —
one per broken invariant occurrence — instead of raising on the first
problem (the contract of :mod:`repro.analysis.validation`) or
reducing to a boolean.  CI consumes the list (empty == pass, each
entry names what broke, when, and for which job); humans get
:func:`render_violations`.

Invariants audited, in one merge-walk over the segment stream:

* **coverage** — segments tile ``[0, horizon]`` gap-free and without
  overlaps;
* **edf-order** — at every dispatch the running job has the earliest
  deadline among released, incomplete jobs, and no earlier-deadline
  release inside a run segment went unpreempted;
* **idle** — the processor never idles (or sleeps, at the start of the
  episode) while released work is pending;
* **work** — every job executes inside its ``[release, ...]`` window
  and retires exactly its actual demand, never more;
* **deadline** — trace-observed completions agree with the result's
  recorded deadline misses, in both directions;
* **speed** — every run speed is attainable on the processor's scale;
* **energy** — the per-job :class:`~repro.trace.ledger.EnergyLedger`
  reconciles bucket-by-bucket with the result's energy totals;
* **governor-floor** — every governor intervention note is honoured by
  the dispatch it clamped (the run executes at or above the floor, or
  at the old speed when an injected transition fault held that switch).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.cpu.processor import Processor
from repro.errors import ConfigurationError
from repro.sim.results import SimulationResult
from repro.sim.tracing import SegmentKind
from repro.tasks.arrivals import ArrivalModel, PeriodicArrival
from repro.tasks.execution import ExecutionModel
from repro.tasks.taskset import TaskSet
from repro.trace.ledger import EnergyLedger
from repro.types import DEADLINE_EPS, TIME_EPS

#: Governor note floors are rendered with 4 decimals; allow that much.
_FLOOR_TOL = 1e-4
#: The engine's note for a switch a transition fault held at the old speed.
_STUCK = re.compile(r"stuck at ([0-9.e+-]+) ")


@dataclass(frozen=True)
class Violation:
    """One broken invariant occurrence, pinned to a time and job."""

    kind: str
    time: float
    message: str
    job: str | None = None

    def render(self) -> str:
        where = f" [{self.job}]" if self.job else ""
        return f"{self.kind:<15} t={self.time:<12g}{where} {self.message}"


def render_violations(violations: list[Violation]) -> str:
    """Human-readable audit report."""
    if not violations:
        return "audit: 0 violations"
    lines = [f"audit: {len(violations)} violation(s)"]
    lines.extend(f"  {v.render()}" for v in violations)
    return "\n".join(lines)


@dataclass
class _JobWindow:
    """Reconstructed obligations of one job."""

    release: float
    deadline: float
    demand: float
    executed: float = 0.0
    completion: float | None = None


def _reconstruct_jobs(
    taskset: TaskSet, execution_model: ExecutionModel,
    arrival_model: ArrivalModel, horizon: float,
) -> dict[str, _JobWindow]:
    """Every job the engine would release before the horizon."""
    jobs: dict[str, _JobWindow] = {}
    for task in taskset:
        index = 0
        while True:
            release = arrival_model.arrival_time(task, index)
            if release >= horizon - TIME_EPS:
                break
            jobs[f"{task.name}#{index}"] = _JobWindow(
                release=release, deadline=release + task.deadline,
                demand=execution_model.work(task, index))
            index += 1
    return jobs


def audit_trace(
    result: SimulationResult,
    taskset: TaskSet,
    processor: Processor,
    execution_model: ExecutionModel,
    arrival_model: ArrivalModel | None = None,
    *,
    time_eps: float = DEADLINE_EPS,
    deadline_eps: float = DEADLINE_EPS,
) -> list[Violation]:
    """Audit a traced run; returns all violations found (empty = clean).

    The models must be the ones the engine actually ran — for
    fault-injected runs that means the *wrapped* models
    (:class:`~repro.faults.FaultyExecution` /
    :class:`~repro.faults.FaultyArrival`); use :func:`run_and_audit`
    to get that pairing for free.
    """
    if result.trace is None:
        raise ConfigurationError(
            "cannot audit a result without a trace; run with "
            "record_trace=True")
    arrival_model = arrival_model or PeriodicArrival()
    horizon = result.horizon
    violations: list[Violation] = []
    jobs = _reconstruct_jobs(taskset, execution_model, arrival_model,
                             horizon)
    releases = sorted((w.release, name) for name, w in jobs.items())

    # -- coverage ------------------------------------------------------
    segments = result.trace.segments
    if not segments:
        violations.append(Violation(
            kind="coverage", time=0.0,
            message=f"empty trace over horizon {horizon:g}"))
    else:
        if segments[0].start > time_eps:
            violations.append(Violation(
                kind="coverage", time=0.0,
                message=f"first segment starts at {segments[0].start:g}, "
                        f"not 0"))
        for prev, cur in zip(segments, segments[1:]):
            if cur.start > prev.end + time_eps:
                violations.append(Violation(
                    kind="coverage", time=prev.end,
                    message=f"gap [{prev.end:g}, {cur.start:g}] in "
                            f"coverage"))
            elif cur.start < prev.end - time_eps:
                violations.append(Violation(
                    kind="coverage", time=cur.start,
                    message=f"segment [{cur.start:g}, {cur.end:g}] "
                            f"overlaps previous end {prev.end:g}"))
        if abs(segments[-1].end - horizon) > time_eps:
            violations.append(Violation(
                kind="coverage", time=segments[-1].end,
                message=f"last segment ends at {segments[-1].end:g}, "
                        f"horizon is {horizon:g}"))

    # -- the walk: EDF order, work conservation, idle, speeds ----------
    active: dict[str, _JobWindow] = {}
    release_pos = 0

    def admit(until: float) -> None:
        nonlocal release_pos
        while (release_pos < len(releases)
               and releases[release_pos][0] <= until):
            _, name = releases[release_pos]
            active[name] = jobs[name]
            release_pos += 1

    for seg in segments:
        admit(seg.start + time_eps)
        if seg.kind == SegmentKind.RUN:
            name = seg.job or "?"
            window = jobs.get(name)
            if window is None:
                violations.append(Violation(
                    kind="work", time=seg.start, job=name,
                    message="trace runs a job the workload models "
                            "never release"))
                continue
            if not processor.scale.is_attainable(seg.speed, tol=1e-6):
                violations.append(Violation(
                    kind="speed", time=seg.start, job=name,
                    message=f"runs at unattainable speed "
                            f"{seg.speed:g}"))
            if seg.start < window.release - time_eps:
                violations.append(Violation(
                    kind="work", time=seg.start, job=name,
                    message=f"executes before its release "
                            f"{window.release:g}"))
            earliest = min(
                active.values(), default=None,
                key=lambda w: (w.deadline, w.release))
            if (earliest is not None
                    and window.deadline > earliest.deadline + time_eps):
                blocking = next(n for n, w in active.items()
                                if w is earliest)
                violations.append(Violation(
                    kind="edf-order", time=seg.start, job=name,
                    message=f"runs (deadline {window.deadline:g}) while "
                            f"{blocking} (deadline "
                            f"{earliest.deadline:g}) is pending"))
            # Releases strictly inside a run segment may only carry
            # later-or-equal deadlines — an earlier one had to preempt.
            while (release_pos < len(releases)
                   and releases[release_pos][0] < seg.end - time_eps):
                release, newcomer = releases[release_pos]
                active[newcomer] = jobs[newcomer]
                release_pos += 1
                if (jobs[newcomer].deadline
                        < window.deadline - time_eps):
                    violations.append(Violation(
                        kind="edf-order", time=release, job=name,
                        message=f"{newcomer} (deadline "
                                f"{jobs[newcomer].deadline:g}) released "
                                f"mid-segment without preempting "
                                f"(running deadline "
                                f"{window.deadline:g})"))
            window.executed += seg.speed * seg.duration
            tolerance = deadline_eps * max(1.0, window.demand)
            if window.executed > window.demand + tolerance:
                violations.append(Violation(
                    kind="work", time=seg.end, job=name,
                    message=f"retired {window.executed:g} work, more "
                            f"than its demand {window.demand:g}"))
            if (window.completion is None
                    and window.executed >= window.demand - tolerance):
                window.completion = seg.end
                active.pop(name, None)
        elif seg.kind in (SegmentKind.IDLE, SegmentKind.SLEEP):
            # Idling (or *entering* sleep) with released work pending
            # breaks work conservation of the dispatcher.  A sleep
            # episode may legitimately span releases (procrastination),
            # so only the episode start is checked.
            pending = [n for n, w in active.items()
                       if w.release < seg.start - time_eps]
            if pending:
                violations.append(Violation(
                    kind="idle", time=seg.start, job=pending[0],
                    message=f"{seg.kind.value} segment starts while "
                            f"{', '.join(sorted(pending))} pending"))

    # -- deadlines: trace-observed vs result-recorded ------------------
    reported = {miss.job for miss in result.deadline_misses}
    for name, window in jobs.items():
        if window.completion is not None:
            missed = window.completion > window.deadline + deadline_eps
        else:
            missed = window.deadline <= horizon + TIME_EPS
        if missed and name not in reported:
            when = (window.completion if window.completion is not None
                    else horizon)
            violations.append(Violation(
                kind="deadline", time=when, job=name,
                message=f"missed deadline {window.deadline:g} "
                        f"(completion "
                        f"{'never' if window.completion is None else format(window.completion, 'g')}) "
                        f"but the result reports no miss"))
    for name in sorted(reported):
        window = jobs.get(name)
        if window is None:
            continue
        observed_miss = (window.completion is None
                         or window.completion
                         > window.deadline - deadline_eps)
        if not observed_miss:
            violations.append(Violation(
                kind="deadline", time=window.completion, job=name,
                message=f"result reports a miss but the trace "
                        f"completes it at {window.completion:g}, before "
                        f"deadline {window.deadline:g}"))

    # -- energy ledger conservation ------------------------------------
    ledger = EnergyLedger.from_result(result)
    for problem in ledger.check(result):
        violations.append(Violation(
            kind="energy", time=horizon, message=problem))

    # -- governor floor ------------------------------------------------
    violations.extend(_audit_governor_floor(result, time_eps))

    violations.sort(key=lambda v: (v.time, v.kind))
    return violations


def _audit_governor_floor(result: SimulationResult,
                          time_eps: float) -> list[Violation]:
    """Every governor clamp note must be honoured by its dispatch."""
    violations: list[Violation] = []
    segments = result.trace.segments
    notes = result.notes
    for index, note in enumerate(notes):
        if note.kind != "governor":
            continue
        job, _, rest = note.detail.partition(":")
        match = re.search(r"->\s*([0-9.]+)", rest)
        if not job or match is None:
            continue
        floor = float(match.group(1))
        held = _held_speed(notes, index, time_eps)
        # A stuck switch keeps the old speed, so the fault, not the
        # policy, bounds this dispatch: it must still run at or above
        # the speed the switch held.
        required = floor if held is None else min(floor, held)
        # The clamped dispatch runs right after the note (modulo a
        # timed switch).  If a release during the switch re-dispatched
        # another job, the floor no longer binds — skip.
        for seg in segments:
            if seg.end <= note.time + time_eps:
                continue
            if seg.kind == SegmentKind.SWITCH:
                continue
            if seg.kind == SegmentKind.RUN and seg.job == job:
                if seg.speed < required - _FLOOR_TOL:
                    held_text = ("" if held is None else
                                 f" (a stuck switch held {held:g})")
                    violations.append(Violation(
                        kind="governor-floor", time=seg.start, job=job,
                        message=f"governor raised the floor to "
                                f"{floor:g}{held_text} but the dispatch "
                                f"ran at {seg.speed:g}"))
            break
    return violations


def _held_speed(notes, index: int, time_eps: float) -> float | None:
    """The speed a stuck switch held for the clamp note at *index*.

    The engine applies the clamped speed right after the governor
    notes it, so that switch's ``stuck at`` note is a later note at the
    same instant, before the next clamp.
    """
    when = notes[index].time
    for note in notes[index + 1:]:
        if note.time > when + time_eps or note.kind == "governor":
            return None
        match = _STUCK.match(note.detail)
        if note.kind == "transition-fault" and match is not None:
            return float(match.group(1))
    return None


def run_and_audit(simulator) -> tuple[SimulationResult, list[Violation]]:
    """Run a :class:`~repro.sim.engine.Simulator` and audit its trace.

    Uses the simulator's *own* (possibly fault-wrapped) workload
    models, so audited demands and arrivals are exactly what the
    engine sampled.  The simulator must have been built with
    ``record_trace=True``.
    """
    result = simulator.run()
    violations = audit_trace(
        result, simulator.taskset, simulator.processor,
        simulator.execution_model, simulator.arrival_model)
    return result, violations
