"""Ready-queue schedulers.

EDF is the dynamic-priority policy the paper targets; rate-monotonic and
FIFO are included as substrate baselines (and to validate the kernel
against classical analyses).  A scheduler is a pure priority function
over released, incomplete jobs — preemption falls out of the engine
re-picking at every scheduling point.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from operator import attrgetter
from typing import Sequence

from repro.tasks.job import Job


class Scheduler(ABC):
    """Picks the job to run among the ready ones."""

    name: str = "abstract"

    @abstractmethod
    def sort_key(self, job: Job) -> tuple:
        """Total priority order; the minimum key runs.

        Keys must be unique per job (include stable tie-breaks) so the
        schedule is deterministic.
        """

    def pick(self, ready: Sequence[Job]) -> Job | None:
        """The highest-priority ready job, or ``None`` when idle."""
        if not ready:
            return None
        if len(ready) == 1:
            return ready[0]
        return min(ready, key=self.sort_key)

    def sorted_ready(self, ready: Sequence[Job]) -> list[Job]:
        """Ready jobs from highest to lowest priority."""
        return sorted(ready, key=self.sort_key)


class EDFScheduler(Scheduler):
    """Earliest deadline first; ties by release time, then task name.

    The tie-breaks make simulated schedules reproducible and match the
    determinism assumption of the slack analysis (a job reported as
    "earliest deadline" really is the one dispatched).
    """

    name = "edf"

    #: ``(deadline, release, task name, index)``, built in C: ``pick``
    #: runs at every scheduling point, and an ``attrgetter`` key saves
    #: ``min`` one Python call per ready job.
    sort_key = staticmethod(
        attrgetter("deadline", "release", "task.name", "index"))


class RMScheduler(Scheduler):
    """Rate monotonic: shorter period = higher priority (static)."""

    name = "rm"

    def sort_key(self, job: Job) -> tuple:
        return (job.task.period, job.task.name, job.index)


class FIFOScheduler(Scheduler):
    """First released runs first; no preemption benefit, baseline only."""

    name = "fifo"

    def sort_key(self, job: Job) -> tuple:
        return (job.release, job.task.name, job.index)
