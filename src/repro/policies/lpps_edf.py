"""lppsEDF — low-power priority-based scheduling, EDF flavour.

After Shin & Choi's LPFPS transplanted to EDF, the form the DATE-era
comparisons use: the system normally runs at the statically scaled
speed, and when exactly one job is active *and* no other release will
interfere before it must finish, that lone job is stretched to the
earlier of its deadline and the next release time of any task.  This
reclaims only "tail" slack (single-job intervals), which is why it
saves less than the reclaiming/look-ahead schemes — the ordering the
figures reproduce.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.schedulability import minimum_constant_speed
from repro.cpu.processor import Processor
from repro.policies.base import DecideSpec, DvsPolicy
from repro.tasks.job import Job
from repro.tasks.taskset import TaskSet
from repro.types import Speed

if TYPE_CHECKING:
    from repro.sim.engine import SimContext


class LppsEdfPolicy(DvsPolicy):
    """Stretch the lone active job to the next arrival; else static speed."""

    name = "lppsEDF"

    def __init__(self) -> None:
        super().__init__()
        self._static_speed: Speed = 1.0

    def bind(self, taskset: TaskSet, processor: Processor) -> None:
        super().bind(taskset, processor)
        self._static_speed = max(minimum_constant_speed(taskset),
                                 processor.min_speed)
        self.decide_spec = DecideSpec(LppsEdfPolicy, "lppsEDF",
                                      self._static_speed)

    def select_speed(self, job: Job, ctx: "SimContext") -> Speed:
        active = ctx.active_jobs
        if len(active) == 1:
            t = ctx.time
            fence = min(job.deadline, ctx.next_event_time())
            window = fence - t
            if window > 1e-12:
                # The stretched job must still fit its *worst-case*
                # budget before the fence; if even full speed cannot
                # (deadline pressure), run flat out.
                needed = job.remaining_wcet / window
                return max(self.min_speed, min(1.0, needed))
        return max(self._static_speed, self.min_speed)
