"""Runtime job state.

A :class:`Job` is one activation of a :class:`~repro.tasks.task.PeriodicTask`.
It tracks the *actual* execution requirement drawn from the execution-time
model (``work``), the amount executed so far (in max-speed units), and
completion bookkeeping.  DVS policies must only ever look at
:attr:`Job.remaining_wcet` — the worst-case budget still outstanding —
because the actual demand is unknown online; the clairvoyant oracle
policy is the single sanctioned consumer of :attr:`Job.remaining_work`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import SimulationError
from repro.tasks.task import PeriodicTask
from repro.types import TIME_EPS, Time, Work, snap_nonnegative


@dataclass
class Job:
    """One released instance of a periodic task."""

    task: PeriodicTask
    index: int
    release: Time
    deadline: Time
    work: Work
    executed: Work = 0.0
    completion_time: Time | None = None
    first_dispatch_time: Time | None = None
    preemption_count: int = 0

    @classmethod
    def from_task(cls, task: PeriodicTask, index: int, work: Work,
                  release: Time | None = None, *,
                  allow_overrun: bool = False) -> "Job":
        """Build the *index*-th job of *task* with actual demand *work*.

        *release* overrides the strictly periodic release time (used by
        sporadic arrival processes); the absolute deadline is always
        ``release + task.deadline``.  ``allow_overrun=True`` admits
        demand beyond the WCET — only the fault-injection layer may do
        this; everywhere else ``work <= wcet`` stays a hard invariant.
        """
        if work <= 0 or (not allow_overrun and work > task.wcet + TIME_EPS):
            raise SimulationError(
                f"job {task.name}#{index}: actual work {work} outside "
                f"(0, wcet={task.wcet}]")
        if release is None:
            release = task.release_time(index)
        return cls(
            task=task,
            index=index,
            release=release,
            deadline=release + task.deadline,
            work=work if allow_overrun else min(work, task.wcet),
        )

    @property
    def overrun(self) -> bool:
        """``True`` when the actual demand exceeds the WCET budget."""
        return self.work > self.task.wcet + TIME_EPS

    @cached_property
    def name(self) -> str:
        """Human-readable job identifier, e.g. ``"T1#3"``.

        Cached: the engine's miss checks look it up for every job past
        its deadline at every scheduling point.
        """
        return f"{self.task.name}#{self.index}"

    @property
    def remaining_work(self) -> Work:
        """Actual work still outstanding (oracle-only information)."""
        return snap_nonnegative(self.work - self.executed)

    @property
    def remaining_wcet(self) -> Work:
        """Worst-case budget still outstanding — what online policies see.

        This is ``wcet - executed`` clamped at zero: once a job has
        executed for longer than its WCET budget predicted (possible
        only under fault-injected overruns, where ``work > wcet``) the
        budget is simply exhausted — online analyses keep seeing a
        consistent non-negative budget either way.
        """
        return max(0.0, snap_nonnegative(self.task.wcet - self.executed))

    @property
    def completed(self) -> bool:
        """``True`` once all actual work has been retired."""
        return self.completion_time is not None

    @property
    def response_time(self) -> Time | None:
        """Completion minus release, or ``None`` while incomplete."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.release

    @property
    def unused_wcet(self) -> Work:
        """Budget left over at completion (the per-job slack source)."""
        if not self.completed:
            raise SimulationError(f"job {self.name} is not complete")
        return snap_nonnegative(self.task.wcet - self.executed)

    def execute(self, amount: Work) -> None:
        """Retire *amount* of work (max-speed units).

        Raises :class:`SimulationError` if the job would execute beyond
        its actual demand — the engine must never over-run a job.
        """
        if amount < -TIME_EPS:
            raise SimulationError(
                f"job {self.name}: negative execution amount {amount}")
        new_total = self.executed + max(0.0, amount)
        if new_total > self.work + 1e-6:
            raise SimulationError(
                f"job {self.name}: executed {new_total} exceeds actual "
                f"work {self.work}")
        self.executed = min(new_total, self.work)

    def complete(self, t: Time) -> None:
        """Mark the job complete at time *t*."""
        if self.completed:
            raise SimulationError(f"job {self.name} already completed")
        if self.remaining_work > 1e-6:
            raise SimulationError(
                f"job {self.name}: completion with {self.remaining_work} "
                f"work outstanding")
        self.executed = self.work
        self.completion_time = t

    def met_deadline(self, eps: float = TIME_EPS) -> bool:
        """Whether the (completed) job finished by its absolute deadline."""
        if self.completion_time is None:
            raise SimulationError(f"job {self.name} is not complete")
        return self.completion_time <= self.deadline + eps
