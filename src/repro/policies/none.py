"""The no-DVS baseline: everything runs at maximum speed."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cpu.processor import Processor
from repro.policies.base import DecideSpec, DvsPolicy
from repro.tasks.job import Job
from repro.tasks.taskset import TaskSet
from repro.types import Speed

if TYPE_CHECKING:
    from repro.sim.engine import SimContext


class NoDvsPolicy(DvsPolicy):
    """Always full speed.

    This is the normalisation baseline of every figure: a plain EDF
    system without voltage scaling.  It also gives the most idle time,
    so with non-zero idle power it is *not* automatically the most
    expensive policy — exactly the effect the idle-power experiments
    probe.
    """

    name = "none"

    def bind(self, taskset: TaskSet, processor: Processor) -> None:
        super().bind(taskset, processor)
        self.decide_spec = DecideSpec(NoDvsPolicy, "none", 1.0)

    def select_speed(self, job: Job, ctx: "SimContext") -> Speed:
        return 1.0
