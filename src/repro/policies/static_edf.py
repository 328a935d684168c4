"""Statically scaled EDF.

The classical offline result: with implicit deadlines, EDF remains
feasible at the constant speed equal to the worst-case utilization, and
that constant speed is the energy-optimal *static* schedule under a
convex power function when every job consumes its WCET.  All dynamic
slack-reclaiming policies are measured by how far below this they get
when jobs finish early.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.schedulability import minimum_constant_speed
from repro.policies.base import DecideSpec, DvsPolicy
from repro.tasks.job import Job
from repro.tasks.taskset import TaskSet
from repro.cpu.processor import Processor
from repro.types import Speed

if TYPE_CHECKING:
    from repro.sim.engine import SimContext


class StaticEdfPolicy(DvsPolicy):
    """Constant speed = minimum feasible constant speed (U for implicit
    deadlines), computed once at bind time."""

    name = "static"

    def __init__(self) -> None:
        super().__init__()
        self._speed: Speed = 1.0

    def bind(self, taskset: TaskSet, processor: Processor) -> None:
        super().bind(taskset, processor)
        self._speed = max(minimum_constant_speed(taskset),
                          processor.min_speed)
        self.decide_spec = DecideSpec(StaticEdfPolicy, "static", self._speed)

    @property
    def static_speed(self) -> Speed:
        """The constant speed this run uses (after binding)."""
        return self._speed

    def select_speed(self, job: Job, ctx: "SimContext") -> Speed:
        return self._speed
