"""lpSEH — the low-overhead slack-estimation heuristic.

Same statically scaled reference schedule and dispatch rule as
:mod:`repro.policies.slack_sta`, but the slack comes from
:func:`repro.analysis.slack.heuristic_slack`: O(n) work per scheduling
point, inspecting only the active jobs' deadlines and each task's next
release, with future demand over-approximated by the closed-form
linear bound.  The estimate never exceeds the exact slack, so the
heuristic inherits lpSTA's safety while being cheap enough for an RTOS
scheduler hook — the practical variant such papers deploy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.schedulability import minimum_constant_speed
from repro.analysis.slack import allotted_speed, heuristic_slack, scale_tasks
from repro.cpu.processor import Processor
from repro.policies.base import DecideSpec, DecideState, DvsPolicy
from repro.tasks.job import Job
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet
from repro.types import Speed

if TYPE_CHECKING:
    from repro.sim.engine import SimContext


class LpSehPolicy(DvsPolicy):
    """Heuristic slack-estimation DVS for EDF (paper's practical variant)."""

    name = "lpSEH"

    def __init__(self) -> None:
        super().__init__()
        self._baseline_speed: Speed = 1.0
        self._scaled_tasks: tuple[PeriodicTask, ...] = ()
        self._analysis_calls = 0

    def bind(self, taskset: TaskSet, processor: Processor) -> None:
        super().bind(taskset, processor)
        self._baseline_speed = max(minimum_constant_speed(taskset),
                                   processor.min_speed, 1e-9)
        self._scaled_tasks = scale_tasks(taskset.tasks, self._baseline_speed)
        self.decide_spec = DecideSpec(LpSehPolicy, "lpSEH",
                                      self._baseline_speed,
                                      self._scaled_tasks)

    def reset(self) -> None:
        self._analysis_calls = 0

    def absorb_decide_state(self, state: DecideState) -> None:
        self._analysis_calls = state.analysis_calls

    @property
    def analysis_calls(self) -> int:
        """How many slack estimations the last run performed."""
        return self._analysis_calls

    @property
    def baseline_speed(self) -> Speed:
        """The reference speed the estimate measures slack against."""
        return self._baseline_speed

    def select_speed(self, job: Job, ctx: "SimContext") -> Speed:
        remaining = job.remaining_wcet
        if remaining <= 1e-12:
            return ctx.current_speed
        self._analysis_calls += 1
        state = ctx.slack_state(baseline_speed=self._baseline_speed,
                                scaled_tasks=self._scaled_tasks)
        slack = heuristic_slack(state)
        self.observe_slack(slack)
        return min(1.0, allotted_speed(remaining, self._baseline_speed,
                                       slack, self.min_speed))
