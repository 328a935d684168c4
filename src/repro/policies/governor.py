"""The runtime safety governor: faults degrade energy, never deadlines.

:class:`SafetyGovernor` wraps any :class:`~repro.policies.base.DvsPolicy`
and clamps every ``select_speed`` answer to a slack-based feasibility
floor.  The floor is the paper's own machinery pointed at the worst
case the deployment is provisioned for: at each dispatch the governor
rebuilds the schedule snapshot with every remaining budget inflated by
a *margin* (``margin * C_i - executed``), runs the exact slack analysis
against full-speed execution, and refuses to dispatch slower than

``floor = inflated_remaining / (inflated_remaining + slack)``

— the minimum constant speed that still fits the inflated budget of the
earliest-deadline job into its allotment.  By the induction of
DESIGN.md §4.3 this keeps every deadline as long as actual demands stay
within ``margin * C_i`` and the margin-inflated task set is feasible at
full speed (``sum margin * u_i <= 1``); under WCET-overrun injection
with factor ``<= margin`` the governed system therefore misses nothing
while the raw reclaiming policies do.

Interventions (floor above the inner policy's request) are counted,
exposed via :meth:`metrics` into ``SimulationResult.policy_metrics``,
and pinned to the trace as ``governor`` notes for audit.

When the inner policy decides in the compiled core, so does the
governor: :meth:`SafetyGovernor.bind` hands the core the inner spec
plus the floor as a :class:`~repro.policies.base.GovernorStage`
(DESIGN.md §13.4).  The methods below stay the reference the stage is
held to, and keep deciding for subclasses, patched hooks and inner
policies without a compiled decide.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.analysis.slack import (
    SystemState,
    exact_slack,
    stretch_speed,
)
from repro.cpu.processor import Processor
from repro.errors import ConfigurationError
from repro.policies.base import DecideState, DvsPolicy, GovernorStage
from repro.tasks.job import Job
from repro.telemetry import TELEMETRY as _TELEMETRY
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet
from repro.types import Speed

if TYPE_CHECKING:
    from repro.sim.engine import SimContext


def _inflation(margin: float, task: PeriodicTask) -> float:
    """The task's WCET factor: *margin*, capped at deadline / wcet.

    Beyond the cap even a dedicated full-speed processor cannot finish
    the job, so a larger margin buys nothing and would only break the
    PeriodicTask wcet <= deadline invariant.  ``wcet * (deadline /
    wcet)`` can round one ulp above the deadline (wcet 4.222, deadline
    10); the cap then steps down until the product fits.
    """
    factor = min(margin, task.deadline / task.wcet)
    while task.wcet * factor > task.deadline:
        factor = math.nextafter(factor, 0.0)
    return factor


class SafetyGovernor(DvsPolicy):
    """Clamp an inner policy's speed to a slack-based feasibility floor."""

    def __init__(self, inner: DvsPolicy, margin: float = 1.0,
                 window_cap_periods: float | None = 2.0) -> None:
        super().__init__()
        if margin < 1.0:
            raise ConfigurationError(
                f"governor margin must be >= 1, got {margin}")
        if window_cap_periods is not None and window_cap_periods <= 0:
            raise ConfigurationError(
                f"window_cap_periods must be > 0, got {window_cap_periods}")
        self.inner = inner
        self.margin = margin
        self.window_cap_periods = window_cap_periods
        self.name = f"gov({inner.name})"
        self._factors: dict[str, float] = {}
        self._inflated_tasks: tuple[PeriodicTask, ...] = ()
        #: Margin-inflated WCET budget per task name.
        self._budgets: dict[str, float] = {}
        self._interventions = 0
        self._dispatches = 0
        self._max_clamp = 0.0

    def bind(self, taskset: TaskSet, processor: Processor) -> None:
        super().bind(taskset, processor)
        self.inner.bind(taskset, processor)
        self._factors = {t.name: _inflation(self.margin, t)
                         for t in taskset}
        self._inflated_tasks = tuple(
            t.scaled(self._factors[t.name]) for t in taskset)
        self._budgets = {
            t.name: self._factors[t.name] * t.wcet for t in taskset}
        spec = self.inner.decide_spec
        self.decide_spec = None
        # The core runs one stage: a governed governor stays Python.
        if (type(self) is SafetyGovernor and spec is not None
                and spec.stage is None and self.inner.decides_unpatched()):
            self.decide_spec = spec._replace(
                owner=SafetyGovernor, stage=GovernorStage(
                    self._inflated_tasks, self.window_cap_periods))

    def decides_unpatched(self) -> bool:
        return (super().decides_unpatched()
                and self.inner.decides_unpatched())

    def absorb_decide_state(self, state: DecideState) -> None:
        self._interventions = state.interventions
        self._dispatches = state.dispatches
        self._max_clamp = state.max_clamp
        self.inner.absorb_decide_state(state)

    def reset(self) -> None:
        self._interventions = 0
        self._dispatches = 0
        self._max_clamp = 0.0

    def on_release(self, job: Job, ctx: "SimContext") -> None:
        self.inner.on_release(job, ctx)

    def on_completion(self, job: Job, ctx: "SimContext") -> None:
        self.inner.on_completion(job, ctx)

    def _inflated_remaining(self, job: Job) -> float:
        remaining = self._budgets[job.task.name] - job.executed
        return remaining if remaining > 0.0 else 0.0

    def feasibility_floor(self, job: Job, ctx: "SimContext") -> Speed:
        """Minimum safe dispatch speed under margin-inflated budgets."""
        remaining = self._inflated_remaining(job)
        if remaining <= 1e-12:
            # The job outran even the provisioned margin; nothing the
            # analysis promises still holds, so do not constrain.
            return 0.0
        jobs = ctx.active_jobs
        budgets = self._budgets
        # Direct construction, as in SimContext.slack_state: the engine
        # keeps every task in the release map and no release in the past.
        state = SystemState(
            time=ctx.time,
            active_deadlines=tuple([j.deadline for j in jobs]),
            active_budgets=tuple([
                w if (w := budgets[j.task.name] - j.executed) > 0.0 else 0.0
                for j in jobs]),
            tasks=self._inflated_tasks,
            next_release=ctx.next_release_map())
        slack = exact_slack(state,
                            window_cap_periods=self.window_cap_periods)
        if _TELEMETRY.enabled:
            _TELEMETRY.observe("governor.slack", slack)
        return stretch_speed(remaining, slack)

    def select_speed(self, job: Job, ctx: "SimContext") -> Speed:
        self._dispatches += 1
        desired = self.inner.select_speed(job, ctx)
        floor = self.feasibility_floor(job, ctx)
        if floor > desired + 1e-9:
            self._interventions += 1
            self._max_clamp = max(self._max_clamp, floor - desired)
            ctx.note("governor",
                     f"{job.name}: raised {desired:.4f} -> {floor:.4f}")
            if _TELEMETRY.enabled:
                _TELEMETRY.inc("governor.clamps")
                _TELEMETRY.observe("governor.clamp_magnitude",
                                   floor - desired)
                _TELEMETRY.emit("governor.clamp", job=job.name,
                                t=ctx.time, desired=round(desired, 6),
                                floor=round(floor, 6))
            return min(1.0, floor)
        return min(1.0, max(desired, floor))

    def metrics(self) -> dict[str, float]:
        inner_metrics = {f"inner.{k}": v
                         for k, v in self.inner.metrics().items()}
        return {
            "interventions": float(self._interventions),
            "dispatches": float(self._dispatches),
            "intervention_rate": (self._interventions / self._dispatches
                                  if self._dispatches else 0.0),
            "max_clamp": self._max_clamp,
            **inner_metrics,
        }

    def describe(self) -> str:
        return (f"governor(margin={self.margin:g}) "
                f"over {self.inner.describe()}")
