"""Look-ahead EDF (Pillai & Shin, SOSP 2001).

The aggressive member of the RT-DVS pair: instead of tracking used
utilization, laEDF *defers* as much work as possible past the earliest
active deadline ``d_n`` — each task, visited from the latest deadline
backwards, keeps only the work that provably cannot wait — and runs
just fast enough (``s / (d_n - t)``) to clear the non-deferrable part
before ``d_n``.

**Safety note.**  The published deferral formula is a heuristic: its
``(1 - U)``-bandwidth reservation is fluid — it ignores the release
granularity of short-period tasks competing with already-deferred
work — and in loaded corner cases it over-defers until even full speed
cannot catch up (``tests/test_policies_safety.py`` reproduces such a
miss).  By default this implementation therefore floors the deferral
speed with the *slack-analysis safety envelope*: the dispatched job may
take at most ``rem + slack(t)`` wall time, where ``slack`` is the
(conservative) heuristic slack against full-speed execution — any speed
inside that envelope is feasible by the induction of DESIGN.md §4.3.
Pass ``safe=False`` for the verbatim published formula (the engine will
raise on the resulting misses unless ``allow_misses`` is set).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.slack import heuristic_slack
from repro.cpu.processor import Processor
from repro.policies.base import DecideSpec, DvsPolicy
from repro.tasks.job import Job
from repro.tasks.taskset import TaskSet
from repro.types import Speed

if TYPE_CHECKING:
    from repro.sim.engine import SimContext


class LaEdfPolicy(DvsPolicy):
    """Look-ahead RT-DVS for EDF."""

    name = "laEDF"

    def __init__(self, safe: bool = True) -> None:
        super().__init__()
        self.safe = safe
        if not safe:
            self.name = "laEDF-raw"
        self._total_utilization = 0.0

    def bind(self, taskset: TaskSet, processor: Processor) -> None:
        super().bind(taskset, processor)
        self._total_utilization = sum(task.utilization for task in taskset)
        self.decide_spec = DecideSpec(LaEdfPolicy, "laEDF",
                                      option=self.safe)

    # -- the published deferral computation ------------------------------

    def deferral_speed(self, ctx: "SimContext") -> Speed:
        """The raw look-ahead speed ``s / (d_n - t)`` (may exceed 1)."""
        t = ctx.time
        active = ctx.active_jobs
        if not active:
            return 0.0
        d_n = min(j.deadline for j in active)
        horizon = d_n - t
        if horizon <= 1e-12:
            return 1.0

        # Per-task view: remaining budget and deadline of the current
        # incomplete job (tasks without one defer trivially; keeping
        # their utilization inside `u` for the whole loop reserves
        # bandwidth for their future jobs at every span, which is at
        # least as conservative as any iteration position for them).
        entries = [(j.deadline, j.remaining_wcet, j.task.utilization)
                   for j in active]
        # Visit from the latest deadline backwards (Pillai & Shin Fig. 4).
        entries.sort(key=lambda e: e[0], reverse=True)
        u = self._total_utilization
        s = 0.0
        for deadline, c_left, task_util in entries:
            u -= task_util
            span = deadline - d_n
            if span > 1e-12:
                # Defer everything the spare bandwidth (1 - u) after d_n
                # can absorb; the remainder x must run before d_n.
                x = max(0.0, c_left - (1.0 - u) * span)
                u += (c_left - x) / span
            else:
                # The earliest-deadline task cannot defer anything.
                x = c_left
            s += x
        return s / horizon

    def select_speed(self, job: Job, ctx: "SimContext") -> Speed:
        speed = self.deferral_speed(ctx)
        if self.safe:
            remaining = job.remaining_wcet
            if remaining > 1e-12:
                slack = heuristic_slack(ctx.slack_state())
                speed = max(speed, remaining / (remaining + slack))
        return max(self.min_speed, min(1.0, speed))
