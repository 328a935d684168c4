"""Cycle-conserving EDF (Pillai & Shin, SOSP 2001).

Maintains a per-task utilization estimate: a task counts at its full
worst-case utilization while it has an outstanding job, and at the
utilization implied by the *actual* cycles its last job used once the
job completes.  The processor runs at the sum of the estimates.  The
estimate never drops below what feasibility requires, so EDF deadlines
are preserved; energy is saved whenever jobs under-run their budgets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cpu.processor import Processor
from repro.policies.base import DecideSpec, DecideState, DvsPolicy
from repro.tasks.job import Job
from repro.tasks.taskset import TaskSet
from repro.types import Speed

if TYPE_CHECKING:
    from repro.sim.engine import SimContext


class CcEdfPolicy(DvsPolicy):
    """Cycle-conserving RT-DVS for EDF."""

    name = "ccEDF"

    def __init__(self) -> None:
        super().__init__()
        self._util: dict[str, float] = {}

    def bind(self, taskset: TaskSet, processor: Processor) -> None:
        super().bind(taskset, processor)
        self.decide_spec = DecideSpec(CcEdfPolicy, "ccEDF")

    def reset(self) -> None:
        assert self.taskset is not None
        # Until a task's first job completes, assume worst case.
        self._util = {t.name: t.utilization for t in self.taskset}

    def absorb_decide_state(self, state: DecideState) -> None:
        assert self.taskset is not None
        self._util = dict(zip((t.name for t in self.taskset), state.util))

    def on_release(self, job: Job, ctx: "SimContext") -> None:
        # A new job resets the task to its worst-case utilization.
        self._util[job.task.name] = job.task.utilization

    def on_completion(self, job: Job, ctx: "SimContext") -> None:
        # The completed job used `executed` of its `wcet` budget.
        self._util[job.task.name] = job.executed / job.task.period

    def utilization_estimate(self) -> float:
        """Current total utilization estimate (sum over tasks)."""
        return sum(self._util.values())

    def select_speed(self, job: Job, ctx: "SimContext") -> Speed:
        return max(self.utilization_estimate(), self.min_speed)
