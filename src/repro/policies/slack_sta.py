"""lpSTA — the paper's exact slack-time-analysis DVS algorithm.

The analysis runs against the *statically scaled* EDF schedule: the
reference execution speed is ``S`` — the minimum feasible constant
speed (the utilization, for implicit deadlines) — so every budget is
``wcet / S`` wall time and the canonical schedule is exactly tight.
Whatever the online analysis then finds as slack is genuine earliness
produced by jobs finishing under budget, and the dispatched job absorbs
it:

``speed = rem / (rem / S + slack(t))    (<= S)``

Feasibility is re-established at every scheduling point, so the
algorithm is safe by the induction of DESIGN.md §4.3.  This is the
aggressive, higher-overhead variant; :mod:`repro.policies.slack_seh`
is the O(n) heuristic companion.

``baseline="full"`` selects the greedy ablation: slack measured against
full-speed execution, which hands the current job *all* the system's
slack (including the static headroom).  It is equally safe but — as the
EXP-F7 ablation bench shows — convex power punishes the resulting
slow-then-fast speed profile.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.schedulability import minimum_constant_speed
from repro.analysis.slack import (
    allotted_speed,
    exact_slack,
    scale_tasks,
    stretch_speed,
)
from repro.cpu.processor import Processor
from repro.errors import ConfigurationError
from repro.policies.base import DecideSpec, DecideState, DvsPolicy
from repro.tasks.job import Job
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet
from repro.types import Speed

if TYPE_CHECKING:
    from repro.sim.engine import SimContext


class LpStaPolicy(DvsPolicy):
    """Exact slack-time-analysis DVS for EDF (the paper's algorithm)."""

    name = "lpSTA"

    def __init__(self, window_cap_periods: float | None = 2.0,
                 baseline: str = "static") -> None:
        super().__init__()
        if window_cap_periods is not None and window_cap_periods <= 0:
            raise ConfigurationError(
                f"window_cap_periods must be > 0, got {window_cap_periods}")
        if baseline not in ("static", "full"):
            raise ConfigurationError(
                f"baseline must be 'static' or 'full', got {baseline!r}")
        self.window_cap_periods = window_cap_periods
        self.baseline = baseline
        if baseline == "full":
            self.name = "lpSTA-greedy"
        self._baseline_speed: Speed = 1.0
        self._scaled_tasks: tuple[PeriodicTask, ...] = ()
        self._analysis_calls = 0

    def bind(self, taskset: TaskSet, processor: Processor) -> None:
        super().bind(taskset, processor)
        if self.baseline == "static":
            self._baseline_speed = max(minimum_constant_speed(taskset),
                                       processor.min_speed, 1e-9)
        else:
            self._baseline_speed = 1.0
        self._scaled_tasks = scale_tasks(taskset.tasks, self._baseline_speed)
        self.decide_spec = DecideSpec(
            LpStaPolicy, "lpSTA", self._baseline_speed, self._scaled_tasks,
            window_cap=self.window_cap_periods,
            option=self.baseline == "full")

    def reset(self) -> None:
        self._analysis_calls = 0

    def absorb_decide_state(self, state: DecideState) -> None:
        self._analysis_calls = state.analysis_calls

    @property
    def analysis_calls(self) -> int:
        """How many slack analyses the last run performed."""
        return self._analysis_calls

    @property
    def baseline_speed(self) -> Speed:
        """The reference speed the analysis measures slack against."""
        return self._baseline_speed

    def select_speed(self, job: Job, ctx: "SimContext") -> Speed:
        remaining = job.remaining_wcet
        if remaining <= 1e-12:
            # Budget exhausted (job about to finish on float dust).
            return ctx.current_speed
        state = ctx.slack_state(baseline_speed=self._baseline_speed,
                                scaled_tasks=self._scaled_tasks)
        # The analysis assumes the dispatched job has the earliest
        # deadline; the EDF scheduler guarantees it (equal deadlines
        # appear as candidate points either way).
        self._analysis_calls += 1
        slack = exact_slack(state,
                            window_cap_periods=self.window_cap_periods)
        self.observe_slack(slack)
        if self.baseline == "full":
            speed = stretch_speed(remaining, slack, self.min_speed)
        else:
            speed = allotted_speed(remaining, self._baseline_speed, slack,
                                   self.min_speed)
        return min(1.0, speed)

    def describe(self) -> str:
        window = (f"{self.window_cap_periods} max periods"
                  if self.window_cap_periods is not None
                  else "latest active deadline")
        return f"lpSTA(baseline={self.baseline}, window={window})"
