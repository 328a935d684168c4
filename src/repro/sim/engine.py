"""The event-driven DVS scheduling simulator.

The engine advances from scheduling point to scheduling point (job
release, job completion, speed-transition end, horizon); between two
points exactly one job executes at one constant speed, or the processor
idles, so energy integrates in closed form.  The bound DVS policy is
consulted at every dispatch and its (quantized) speed holds until the
next point — the intra-job constant-speed model of the DVS-EDF
literature.

Deadline misses abort the run with :class:`DeadlineMissError` unless
``allow_misses=True`` (used by tests that *expect* misses, e.g. when
demonstrating that ignoring switch overhead is unsafe).
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import TYPE_CHECKING, Mapping

from repro.analysis.slack import SystemState
from repro.cpu.processor import Processor
from repro.errors import (
    ConfigurationError,
    DeadlineMissError,
    PolicyError,
    SimulationError,
)
from repro.faults import FaultPlan, FaultyArrival, FaultyExecution
from repro.sim import fastcore as _fastcore
from repro.sim.results import DeadlineMiss, SimulationResult, TaskStats
from repro.sim.tracing import TraceRecorder
from repro.telemetry import TELEMETRY as _TELEMETRY, decide_label
from repro.tasks.arrivals import ArrivalModel, PeriodicArrival
from repro.tasks.execution import ExecutionModel, WorstCaseExecution
from repro.tasks.job import Job
from repro.tasks.taskset import TaskSet
from repro.types import (
    DEADLINE_EPS,
    SPEED_EPS,
    TIME_EPS,
    WORK_EPS,
    Speed,
    Time,
)

if TYPE_CHECKING:
    from repro.policies.base import DvsPolicy
    from repro.policies.procrastination import IdlePolicy


#: The one EDF priority order: earliest deadline first, ties by release
#: time, then task name, then job index.  The tie-breaks make schedules
#: reproducible and match the slack analysis' determinism assumption
#: (a job reported as "earliest deadline" really is the one
#: dispatched).  An ``attrgetter`` builds the key in C, which saves
#: ``min`` one Python call per ready job at every scheduling point.
EDF_KEY = attrgetter("deadline", "release", "task.name", "index")


def edf_pick(ready: list[Job]) -> Job | None:
    """The highest-priority ready job, or ``None`` when idle."""
    if not ready:
        return None
    if len(ready) == 1:
        return ready[0]
    return min(ready, key=EDF_KEY)


class SimContext:
    """The read-only view of engine state handed to DVS policies.

    The release map handed to the slack analyses only changes when a
    job is released (periodic arrivals) or time advances (the
    pessimistic sporadic view), so the context memoizes it against the
    engine's release version — policies that snapshot the schedule
    several times per scheduling point (wrappers, dual-baseline
    policies) share one dict instead of rebuilding it per call.
    Callers must treat the returned mapping as frozen; the cache is
    replaced, never mutated, so holding a reference stays safe.
    """

    def __init__(self, engine: "Simulator") -> None:
        self._engine = engine
        self._map_cache: tuple[int, Time | None, dict[str, Time]] | None \
            = None

    @property
    def time(self) -> Time:
        """Current simulation time."""
        return self._engine._now

    @property
    def taskset(self) -> TaskSet:
        return self._engine.taskset

    @property
    def processor(self) -> Processor:
        return self._engine.processor

    @property
    def current_speed(self) -> Speed:
        """The speed the processor is currently set to."""
        return self._engine._current_speed

    @property
    def horizon(self) -> Time:
        """End of the simulation; no obligations exist beyond it."""
        return self._engine.horizon

    @property
    def active_jobs(self) -> tuple[Job, ...]:
        """Released, incomplete jobs (unsorted)."""
        return tuple(self._engine._active)

    def ready_sorted(self) -> list[Job]:
        """Active jobs from highest to lowest scheduling priority."""
        return sorted(self._engine._active, key=EDF_KEY)

    def next_release_of(self, task_name: str) -> Time:
        """Earliest *possible* next release of one task.

        For periodic arrivals this is the actual next release.  For
        sporadic arrivals an online policy may only assume the minimum
        separation, so the view is pessimistic (``last arrival +
        period``, clamped to now) — the engine's actual sampled arrival
        is never earlier, which keeps every slack analysis safe.
        """
        return self._engine._pessimistic_next_release(task_name)

    def next_release_map(self) -> Mapping[str, Time]:
        """Earliest possible next release for every task.

        Memoized against the engine's release version (and, for
        sporadic arrivals, the current time): rebuilding only happens
        after a release, not at every analysis call.
        """
        engine = self._engine
        cached = self._map_cache
        if engine.arrival_model.is_periodic:
            if cached is not None and cached[0] == engine._release_version:
                return cached[2]
            # Identical keys/order/values to the pessimistic view: for
            # periodic arrivals the sampled release *is* the bound.
            mapping = dict(engine._next_release)
            self._map_cache = (engine._release_version, None, mapping)
            return mapping
        if (cached is not None and cached[0] == engine._release_version
                and cached[1] == engine._now):
            return cached[2]
        mapping = {task.name: engine._pessimistic_next_release(task.name)
                   for task in engine.taskset}
        self._map_cache = (engine._release_version, engine._now, mapping)
        return mapping

    def next_event_time(self) -> Time:
        """Earliest possible future release (horizon when none remains).

        Pessimistic under sporadic arrivals, like
        :meth:`next_release_of`.
        """
        engine = self._engine
        if engine.arrival_model.is_periodic:
            # Pessimistic == actual: the release heap already knows
            # the earliest pending release.
            return engine._next_release_global()
        horizon = engine.horizon
        next_release = engine._next_release
        best = horizon
        for task in engine.taskset:
            if next_release[task.name] < horizon - TIME_EPS:
                candidate = engine._pessimistic_next_release(task.name)
                if candidate < best:
                    best = candidate
        return best

    def next_job_index(self, task_name: str) -> int:
        """Index of the task's next (not yet released) job."""
        return self._engine._next_index[task_name]

    def note(self, kind: str, detail: str) -> None:
        """Pin an annotation to the trace at the current time.

        Used by wrapper policies (the safety governor) to make their
        interventions auditable.  Notes are buffered even when full
        segment tracing is disabled and surface on
        :attr:`~repro.sim.results.SimulationResult.notes`.
        """
        self._engine._trace.note(self._engine._now, kind, detail)

    @property
    def execution_model(self) -> ExecutionModel:
        """The workload oracle — only clairvoyant policies may use it."""
        return self._engine.execution_model

    @property
    def arrival_model(self) -> ArrivalModel:
        """The arrival oracle — only clairvoyant policies may use it."""
        return self._engine.arrival_model

    def slack_state(self, *, baseline_speed: float = 1.0,
                    scaled_tasks: tuple | None = None) -> SystemState:
        """Snapshot the schedule for :mod:`repro.analysis.slack`.

        With ``baseline_speed < 1`` the snapshot is expressed in the
        scaled time base: active budgets become wall time at that speed
        and the task tuple is replaced by *scaled_tasks* (precomputed
        with :func:`repro.analysis.slack.scale_tasks`, to avoid
        rebuilding task objects at every scheduling point).
        """
        engine = self._engine
        jobs = engine._active
        # Each budget is Job.remaining_wcet inlined: ``wcet - executed``
        # clamped at zero (the same float in every case).  Dividing by
        # a baseline of exactly 1.0 would not change it either.
        budgets = [w if (w := job.task.wcet - job.executed) > 0.0 else 0.0
                   for job in jobs]
        if baseline_speed != 1.0:
            budgets = [w / baseline_speed for w in budgets]
        # Direct construction: the engine maintains the invariants
        # SystemState.build() re-validates (every task present, no
        # release in the past), and the memoized release map is frozen
        # by contract, so the build-time copy is skipped too.
        return SystemState(
            time=engine._now,
            active_deadlines=tuple([job.deadline for job in jobs]),
            active_budgets=tuple(budgets),
            tasks=(scaled_tasks if scaled_tasks is not None
                   else engine.taskset.tasks),
            next_release=self.next_release_map(),
        )


class CoreContext(SimContext):
    """The policy view over the compiled core (DESIGN.md §13).

    The same surface as :class:`SimContext`, but the active-job tuple
    and the slack snapshot's columns come straight from the core's job
    slots instead of a walk over the ``Job`` objects.  A slot holds its
    job's state; the ``Job`` is built from it on first request and kept
    in step after, so the columns are the floats
    :meth:`SimContext.slack_state` would compute.
    """

    @property
    def active_jobs(self) -> tuple[Job, ...]:
        return self._engine.active_jobs()

    def slack_state(self, *, baseline_speed: float = 1.0,
                    scaled_tasks: tuple | None = None) -> SystemState:
        engine = self._engine
        deadlines, budgets = engine.slack_columns(baseline_speed)
        return SystemState(
            time=engine._now,
            active_deadlines=deadlines,
            active_budgets=budgets,
            tasks=(scaled_tasks if scaled_tasks is not None
                   else engine.taskset.tasks),
            next_release=self.next_release_map(),
        )


class Simulator:
    """One simulation run binding a workload, a processor and a policy."""

    def __init__(
        self,
        taskset: TaskSet,
        processor: Processor,
        policy: "DvsPolicy",
        execution_model: ExecutionModel | None = None,
        *,
        arrival_model: ArrivalModel | None = None,
        idle_policy: "IdlePolicy | None" = None,
        horizon: Time | None = None,
        record_trace: bool = False,
        allow_misses: bool = False,
        check_feasibility: bool = True,
        faults: FaultPlan | None = None,
    ) -> None:
        if check_feasibility:
            taskset.assert_feasible_edf()
        self.taskset = taskset
        self.processor = processor
        self.policy = policy
        self.execution_model = execution_model or WorstCaseExecution()
        self.arrival_model = arrival_model or PeriodicArrival()
        self.faults = faults
        if faults is not None:
            # Wrap rather than branch inside the hot loop: with
            # faults=None the fault-free path stays byte-identical.
            if faults.affects_execution:
                self.execution_model = FaultyExecution(
                    self.execution_model, faults)
            if faults.affects_arrivals:
                self.arrival_model = FaultyArrival(
                    self.arrival_model, faults)
        self.idle_policy = idle_policy
        self.horizon = horizon if horizon is not None else taskset.default_horizon()
        if self.horizon <= 0:
            raise ConfigurationError(f"horizon must be > 0, got {self.horizon}")
        self.allow_misses = allow_misses
        self.record_trace = record_trace

        # Mutable run state (reset by run()).
        self._now: Time = 0.0
        self._active: list[Job] = []
        self._next_release: dict[str, Time] = {}
        self._release_heap: list[tuple[Time, str]] = []
        self._release_version: int = 0
        self._next_index: dict[str, int] = {}
        self._current_speed: Speed = 1.0
        self._missed_jobs: set[str] = set()
        self._last_running: Job | None = None
        self._result: SimulationResult | None = None
        # Built by _reset_loop: the context refers back to the engine,
        # and a compiled run, which never uses it, then leaves no
        # reference cycle for the garbage collector.
        self._ctx: SimContext | None = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the full simulation and return its result.

        With the timers on, the run is the region ``engine.run.<policy>``
        (the policy name :func:`~repro.telemetry.decide_label` uses), so
        the budget splits engine time per policy.
        """
        tele = _TELEMETRY
        if not tele.timers:
            return self._run()
        tele.push(f"engine.run.{self._policy_name()}")
        try:
            return self._run()
        finally:
            tele.pop()

    def _run(self) -> SimulationResult:
        self._reset()
        result = self._result
        assert result is not None
        self.policy.bind(self.taskset, self.processor)
        if self.idle_policy is not None:
            self.idle_policy.bind(self.taskset, self.processor)
        if not _fastcore.run_compiled(self):
            self._reset_loop()
            self._process_releases()

            while self._now < self.horizon - TIME_EPS:
                job = edf_pick(self._active)
                if job is None:
                    self._handle_empty_queue()
                    self._process_releases()
                    continue
                self._dispatch(job)

            self._final_miss_check()
            result.notes = self._trace.notes
        result.policy_metrics = dict(self.policy.metrics())
        result.trace = self._trace if self.record_trace else None
        if _TELEMETRY.enabled:
            self._fold_telemetry(result)
        return result

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _fold_telemetry(self, result: SimulationResult) -> None:
        """Fold one completed run's totals into the instrumentation registry.

        Folding *after* the run (from counts the result accumulates
        anyway) keeps the hot loop free of telemetry calls: with the
        registry disabled the only per-run cost is the ``enabled``
        check in :meth:`run`, and with it enabled the per-dispatch
        cost is the single speed-decision observation hook.
        """
        tele = _TELEMETRY
        tele.inc("engine.runs")
        tele.inc("engine.steps", result.dispatches + result.idle_episodes
                 + result.sleep_episodes)
        tele.inc("engine.dispatches", result.dispatches)
        tele.inc("engine.releases", result.jobs_released)
        tele.inc("engine.completions", result.jobs_completed)
        tele.inc("engine.speed_switches", result.switch_count)
        tele.inc("engine.idle_transitions", result.idle_episodes)
        tele.inc("engine.sleep_transitions", result.sleep_episodes)
        tele.inc("engine.misses", result.miss_count)
        tele.inc("engine.overruns", result.overrun_jobs)
        tele.inc("engine.transition_faults", result.transition_faults)
        tele.emit("simulation", policy=result.policy,
                  horizon=result.horizon, released=result.jobs_released,
                  completed=result.jobs_completed,
                  dispatches=result.dispatches,
                  switches=result.switch_count,
                  misses=result.miss_count,
                  energy=result.total_energy)

    def _policy_name(self) -> str:
        return getattr(self.policy, "name", type(self.policy).__name__)

    def _reset(self) -> None:
        """The run state both engines share: what the compiled core
        reads and writes, and what stays readable after a run."""
        self._now = 0.0
        self._current_speed = 1.0
        tasks = self.taskset.tasks
        arrival_time = self.arrival_model.arrival_time
        self._next_release = {t.name: arrival_time(t, 0) for t in tasks}
        self._next_index = dict.fromkeys(self._next_release, 0)
        # Bumped on every release; SimContext caches key off it.
        self._release_version = 0
        self._trace = TraceRecorder(enabled=self.record_trace)
        self._result = SimulationResult(
            policy=self._policy_name(),
            horizon=self.horizon,
            task_stats={t.name: TaskStats() for t in tasks},
        )

    def _reset_loop(self) -> None:
        """The interpreted loop's own state, built only for a run the
        compiled core declined."""
        self._active = []
        self._missed_jobs = set()
        self._last_running = None
        self._switch_attempts = 0
        self._last_arrival: dict[str, Time | None] = dict.fromkeys(
            self._next_release)
        # Min-heap over pending release times with lazy invalidation:
        # an entry is current iff it matches _next_release[name].  The
        # heap answers "earliest pending release" in O(1) amortised
        # instead of a per-task scan at every scheduling point.
        self._release_heap: list[tuple[Time, str]] = [
            (r, name) for name, r in self._next_release.items()]
        heapify(self._release_heap)
        self._ctx = SimContext(self)
        #: Timer region of this run's policy decisions.
        self._decide_label = decide_label(self._result.policy)

    def _next_release_global(self) -> Time:
        top = self._release_top()
        if top is not None and top < self.horizon - TIME_EPS:
            return top
        return self.horizon

    def _release_top(self) -> Time | None:
        """Earliest pending release, dropping stale heap entries."""
        heap = self._release_heap
        next_release = self._next_release
        while heap and heap[0][0] != next_release[heap[0][1]]:
            heappop(heap)
        return heap[0][0] if heap else None

    def _pessimistic_next_release(self, task_name: str) -> Time:
        """Earliest possible next release an online policy may assume."""
        if self.arrival_model.is_periodic:
            return self._next_release[task_name]
        last = self._last_arrival[task_name]
        if last is None:
            # First arrival: the phase is part of the task contract.
            return max(self._now, self._next_release[task_name])
        return max(self._now, last + self.taskset[task_name].period)

    def _process_releases(self) -> None:
        """Create all jobs whose release time has arrived."""
        # Fast path: when the earliest pending release is still in the
        # future, nothing can release — skip the per-task scan (this is
        # the common case, since most scheduling points are completions
        # mid-period).
        top = self._release_top()
        if top is None or top > self._now + TIME_EPS:
            self._check_misses()
            return
        for task in self.taskset:
            while (self._next_release[task.name] <= self._now + TIME_EPS
                   and self._next_release[task.name] < self.horizon - TIME_EPS):
                index = self._next_index[task.name]
                release = self._next_release[task.name]
                work = self.execution_model.work(task, index)
                job = Job.from_task(task, index, work, release=release,
                                    allow_overrun=self.faults is not None)
                if job.overrun:
                    self._result.overrun_jobs += 1
                    self._trace.note(
                        self._now, "overrun",
                        f"{job.name}: work {work:g} > wcet {task.wcet:g}")
                self._active.append(job)
                self._result.jobs_released += 1
                self._result.task_stats[task.name].released += 1
                self._last_arrival[task.name] = release
                self._next_index[task.name] = index + 1
                next_release = self.arrival_model.arrival_time(task, index + 1)
                self._next_release[task.name] = next_release
                heappush(self._release_heap, (next_release, task.name))
                self._release_version += 1
                self.policy.on_release(job, self._ctx)
        self._check_misses()

    def _check_misses(self) -> None:
        """Detect active jobs whose deadline has already passed."""
        fence = self._now - DEADLINE_EPS
        for job in self._active:
            if job.deadline < fence and job.name not in self._missed_jobs:
                self._register_miss(job, detected_at=self._now)

    def _register_miss(self, job: Job, detected_at: Time) -> None:
        self._missed_jobs.add(job.name)
        miss = DeadlineMiss(job=job.name, task=job.task.name,
                            deadline=job.deadline, detected_at=detected_at)
        self._result.deadline_misses.append(miss)
        self._result.task_stats[job.task.name].missed += 1
        self._trace.note(detected_at, "deadline-miss",
                         f"{job.name}: deadline {job.deadline:g}")
        if not self.allow_misses:
            raise DeadlineMissError(
                f"job {job.name} missed its deadline {job.deadline:g} "
                f"(detected at t={detected_at:g}, policy="
                f"{self._result.policy})",
                task=job.task.name, job_index=job.index,
                deadline=job.deadline, completion=detected_at)

    def _handle_empty_queue(self) -> None:
        """Idle or sleep until something can run again."""
        next_release = min(self._next_release_global(), self.horizon)
        if self.idle_policy is None:
            self._idle_until(next_release)
            return
        plan = self.idle_policy.plan_idle(self._ctx, self._now,
                                          next_release)
        if not plan.sleep:
            self._idle_until(min(max(plan.wake_time, self._now),
                                 self.horizon))
            return
        wake = min(max(plan.wake_time, self._now), self.horizon)
        if wake <= self._now + TIME_EPS:
            self._idle_until(next_release)
            return
        self._sleep_until(wake)

    def _sleep_until(self, until: Time) -> None:
        """One sleep episode (deadline-safe by the planner's contract)."""
        duration = until - self._now
        energy = self.processor.sleep_energy(duration)
        self._result.sleep_energy += energy
        self._result.sleep_time += duration
        self._result.sleep_episodes += 1
        self._trace.sleep(self._now, until, energy)
        self._last_running = None
        self._now = until
        self._check_misses()

    def _idle_until(self, until: Time) -> None:
        if until <= self._now + TIME_EPS:
            self._now = max(self._now, until)
            return
        duration = until - self._now
        energy = self.processor.idle_energy(duration)
        self._result.idle_energy += energy
        self._result.idle_time += duration
        self._result.idle_episodes += 1
        self._trace.idle(self._now, until, energy)
        self._last_running = None
        self._now = until
        self._check_misses()

    def _apply_speed(self, desired: Speed) -> Speed:
        """Quantize, validate and (paying overhead) switch to a speed."""
        if desired is None or math.isnan(desired):
            raise PolicyError(
                f"policy {self._result.policy} returned invalid speed "
                f"{desired!r}")
        speed = self.processor.quantize(desired)
        if speed <= 0 or speed > 1.0 + TIME_EPS:
            raise PolicyError(
                f"quantized speed {speed} outside (0, 1]")
        if abs(speed - self._current_speed) <= SPEED_EPS:
            return self._current_speed
        extra_dt = 0.0
        if self.faults is not None and self.faults.affects_transitions:
            outcome = self.faults.transition_outcome(
                self._switch_attempts, self._current_speed, speed)
            self._switch_attempts += 1
            if outcome.faulted:
                self._result.transition_faults += 1
            if abs(outcome.achieved - self._current_speed) <= SPEED_EPS:
                # The switch failed outright: no cost, speed holds.
                self._trace.note(self._now, "transition-fault",
                                 f"stuck at {self._current_speed:g} "
                                 f"(wanted {speed:g})")
                self._check_misses()
                return self._current_speed
            if abs(outcome.achieved - speed) > SPEED_EPS:
                self._trace.note(self._now, "transition-fault",
                                 f"quantized {speed:g} -> "
                                 f"{outcome.achieved:g}")
            # Re-snap to the processor grid: the faulty quantizer may
            # land between attainable levels.  quantize() rounds up, so
            # the achieved speed never drops below the request.
            speed = self.processor.quantize(min(1.0, outcome.achieved))
            extra_dt = outcome.extra_time
            if abs(speed - self._current_speed) <= SPEED_EPS:
                # Faulty quantization landed back on the current level.
                self._check_misses()
                return self._current_speed
        dt, de = self.processor.transition(self._current_speed, speed)
        dt += extra_dt
        self._result.switch_count += 1
        self._result.switch_energy += de
        if dt > 0:
            end = min(self._now + dt, self.horizon)
            self._result.switch_time += end - self._now
            self._trace.switch(self._now, end, de, to_speed=speed)
            self._now = end
        elif self.record_trace and de > 0:
            # Zero-duration switches still carry energy; attach it to a
            # zero-length marker the recorder drops, so account only in
            # the result totals (already done above).
            pass
        self._current_speed = speed
        self._check_misses()
        return speed

    def _dispatch(self, job: Job) -> None:
        """Run the chosen job until the next scheduling point."""
        if self._last_running is not None and self._last_running is not job:
            if not self._last_running.completed:
                self._last_running.preemption_count += 1
                self._result.task_stats[
                    self._last_running.task.name].preemptions += 1
        if job.first_dispatch_time is None:
            job.first_dispatch_time = self._now
        self._result.dispatches += 1
        if _TELEMETRY.timers:
            _TELEMETRY.push(self._decide_label)
            try:
                desired = self.policy.select_speed(job, self._ctx)
            finally:
                _TELEMETRY.pop()
        else:
            desired = self.policy.select_speed(job, self._ctx)
        if _TELEMETRY.enabled:
            self.policy.observe_decision(desired)
        switched_at = self._now
        speed = self._apply_speed(desired)
        if self._now != switched_at:
            if self._now >= self.horizon - TIME_EPS:
                self._last_running = job
                return
            # A release may have occurred during the timed switch; if
            # it changed the highest-priority job, re-dispatch.  An
            # instant switch leaves time, the ready set and thus the
            # pick unchanged, so it skips both.
            self._process_releases()
            current_best = edf_pick(self._active)
            if current_best is not job:
                self._last_running = job
                return

        remaining = job.remaining_work
        completion = self._now + remaining / speed
        fence = min(self._next_release_global(), self.horizon)
        if completion <= fence:
            # The job runs to completion before the next release: the
            # scheduling point is the completion event itself, and the
            # full remaining budget retires *exactly* — computing
            # ``speed * duration`` here would re-round the division
            # and leave float dust in ``remaining_work`` that long
            # horizons accumulate.
            next_point = completion
            retired = remaining
        else:
            # The next event time is known exactly (release timestamps
            # are arrival-model prefix sums; the horizon is a
            # constant), so assign it instead of accumulating a dt.
            next_point = fence
            retired = min(speed * (next_point - self._now), remaining)
        duration = next_point - self._now
        if duration <= 0:
            raise SimulationError(
                f"no progress at t={self._now} (next point {next_point})")
        job.execute(retired)
        result = self._result
        energy = self.processor.active_energy(speed, duration)
        result.busy_energy += energy
        result.busy_time += duration
        key = round(speed, 12)
        result.speed_time[key] = (
            result.speed_time.get(key, 0.0) + duration)
        result.task_stats[job.task.name].total_executed += retired
        if self.record_trace:
            self._trace.run(self._now, next_point, job.name, job.task.name,
                            speed, energy)
        self._now = next_point
        self._last_running = job

        if job.remaining_work <= WORK_EPS:
            self._complete(job)
        self._process_releases()

    def _complete(self, job: Job) -> None:
        job.complete(self._now)
        # By identity: list.remove() would run the dataclass __eq__
        # against every job ahead of this one.
        active = self._active
        for i, other in enumerate(active):
            if other is job:
                del active[i]
                break
        self._result.jobs_completed += 1
        stats = self._result.task_stats[job.task.name]
        stats.completed += 1
        response = job.response_time or 0.0
        stats.total_response += response
        stats.max_response = max(stats.max_response, response)
        if not job.met_deadline(eps=DEADLINE_EPS) \
                and job.name not in self._missed_jobs:
            self._register_miss(job, detected_at=self._now)
        self._last_running = None
        self.policy.on_completion(job, self._ctx)

    def _final_miss_check(self) -> None:
        """Jobs incomplete at the horizon with expired deadlines missed."""
        for job in self._active:
            if (job.deadline <= self.horizon + TIME_EPS
                    and job.name not in self._missed_jobs):
                self._register_miss(job, detected_at=self.horizon)


def simulate(
    taskset: TaskSet,
    processor: Processor,
    policy: "DvsPolicy",
    execution_model: ExecutionModel | None = None,
    **kwargs,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    return Simulator(taskset, processor, policy, execution_model,
                     **kwargs).run()
