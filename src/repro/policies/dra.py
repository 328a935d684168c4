"""Dynamic Reclaiming Algorithm (Aydin, Melhem, Mossé & Mejía-Alvarez).

DRA compares the actual schedule against the *canonical* schedule — the
static-optimal EDF schedule that runs every job at the constant speed
``S = U`` and consumes exactly its WCET.  The policy maintains the
canonical schedule's remaining allocations in an "alpha queue" ordered
by deadline.  When a job is dispatched it may run slowly enough to fill

* its own outstanding canonical allocation, plus
* the *earliness*: allocations of strictly-earlier-deadline jobs that
  have already finished in the actual schedule but not yet in the
  canonical one (their unused canonical time is transferred).

Because the actual schedule never falls behind the (feasible) canonical
one, all deadlines hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.schedulability import minimum_constant_speed
from repro.cpu.processor import Processor
from repro.policies.base import DecideSpec, DecideState, DvsPolicy
from repro.tasks.job import Job
from repro.tasks.taskset import TaskSet
from repro.types import Speed, Time


if TYPE_CHECKING:
    from repro.sim.engine import SimContext


@dataclass
class _AlphaEntry:
    """Remaining canonical wall-time allocation of one released job."""

    job_name: str
    deadline: Time
    release: Time
    task_name: str
    index: int
    budget: float
    actual_done: bool = False

    def sort_key(self) -> tuple:
        # MUST match repro.sim.engine.EDF_KEY exactly (pinned by
        # tests/test_scheduler.py): the canonical schedule and the
        # actual dispatch order have to agree on ties, otherwise the
        # alpha-queue drains a job that is not the one executing and
        # its budget is silently stolen (a real, observed deadline-miss
        # bug — see tests/test_policies_reclaiming.py).
        return (self.deadline, self.release, self.task_name, self.index)


class DraPolicy(DvsPolicy):
    """Dynamic reclaiming EDF-DVS."""

    name = "DRA"

    def __init__(self) -> None:
        super().__init__()
        self._entries: dict[str, _AlphaEntry] = {}
        self._canonical_now: Time = 0.0
        self._static_speed: Speed = 1.0

    def bind(self, taskset: TaskSet, processor: Processor) -> None:
        super().bind(taskset, processor)
        self._static_speed = max(minimum_constant_speed(taskset),
                                 processor.min_speed, 1e-9)
        self.decide_spec = DecideSpec(DraPolicy, "DRA", self._static_speed)

    def reset(self) -> None:
        self._entries = {}
        self._canonical_now = 0.0

    def absorb_decide_state(self, state: DecideState) -> None:
        assert self.taskset is not None
        tasks = self.taskset.tasks
        self._canonical_now = state.canonical_now
        self._entries = {}
        for task_index, index, deadline, release, budget, done \
                in state.alpha:
            name = tasks[task_index].name
            self._entries[f"{name}#{index}"] = _AlphaEntry(
                job_name=f"{name}#{index}", deadline=deadline,
                release=release, task_name=name, index=index,
                budget=budget, actual_done=done)

    # -- canonical-schedule bookkeeping --------------------------------

    def _advance_canonical(self, t: Time) -> None:
        """Drain alpha-queue budgets as the canonical schedule runs to *t*.

        The canonical schedule is EDF over the entries (by deadline),
        each entry holding wall time at the static speed; released
        entries only (all entries here are released, since they are
        created in ``on_release``).
        """
        elapsed = t - self._canonical_now
        if elapsed <= 0:
            return
        self._canonical_now = t
        for entry in sorted(self._entries.values(),
                            key=_AlphaEntry.sort_key):
            if elapsed <= 0:
                break
            consumed = min(entry.budget, elapsed)
            entry.budget -= consumed
            elapsed -= consumed
        self._gc()

    def _gc(self) -> None:
        """Drop entries that are spent and no longer reclaimable."""
        dead = [name for name, e in self._entries.items()
                if e.budget <= 1e-12 and e.actual_done]
        for name in dead:
            del self._entries[name]

    # -- policy hooks ---------------------------------------------------

    def on_release(self, job: Job, ctx: "SimContext") -> None:
        self._advance_canonical(ctx.time)
        self._entries[job.name] = _AlphaEntry(
            job_name=job.name,
            deadline=job.deadline,
            release=job.release,
            task_name=job.task.name,
            index=job.index,
            budget=job.task.wcet / self._static_speed,
        )

    def on_completion(self, job: Job, ctx: "SimContext") -> None:
        self._advance_canonical(ctx.time)
        entry = self._entries.get(job.name)
        if entry is not None:
            entry.actual_done = True
            if entry.budget <= 1e-12:
                del self._entries[job.name]

    def select_speed(self, job: Job, ctx: "SimContext") -> Speed:
        self._advance_canonical(ctx.time)
        entry = self._entries.get(job.name)
        own_budget = entry.budget if entry is not None else 0.0

        # Earliness: canonical time still owed to jobs *ahead of J in
        # the alpha queue* (the canonical EDF drain order, so deadline
        # ties resolve exactly as the scheduler does) that the actual
        # schedule has already finished.
        own_key = (entry.sort_key() if entry is not None
                   else (job.deadline, job.release, job.task.name,
                         job.index))
        earliness = 0.0
        donors: list[_AlphaEntry] = []
        for other in self._entries.values():
            if (other.actual_done and other.budget > 1e-12
                    and other.sort_key() < own_key):
                earliness += other.budget
                donors.append(other)

        allotted = own_budget + earliness
        remaining = job.remaining_wcet
        if allotted <= 1e-12 or remaining <= 1e-12:
            return 1.0 if remaining > 1e-12 else self.min_speed
        speed = remaining / allotted
        if speed >= 1.0:
            return 1.0
        # Reclaim: transfer donor budgets into the dispatched job's
        # entry so the canonical drain keeps charging the right owner.
        if donors and entry is not None:
            for donor in donors:
                entry.budget += donor.budget
                donor.budget = 0.0
            self._gc()
        return max(self.min_speed, speed)
