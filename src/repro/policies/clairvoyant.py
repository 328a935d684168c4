"""Clairvoyant oracle policy — the fluid-optimal reference floor.

The oracle knows every job's *actual* execution demand, including
future jobs', and at every scheduling point runs at the **YDS
intensity** from the current instant:

``s*(t) = max over deadlines d_k  of  h_act(t, d_k) / (d_k - t)``

where ``h_act`` is the *actual* demand (remaining actual work of active
jobs plus actual work of future releases) due by ``d_k``.  This is the
lowest constant-from-now speed that meets every deadline given perfect
knowledge, re-evaluated whenever the workload changes — the discrete-
event analogue of the Yao/Demers/Shenker fluid schedule.  With convex
power it yields the smooth, near-optimal profile the figures plot as
the floor that shows how much of the knowable headroom each online
policy captures.

Safety: running at ``max_k h(t, d_k)/(d_k - t)`` satisfies the
processor-demand criterion for every deadline by construction, and the
speed is re-derived at every scheduling point.  The maximisation is
evaluated over the analysis window plus a worst-case linear tail bound,
so deadlines beyond the window are covered conservatively.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.policies.base import DecideSpec, DvsPolicy
from repro.sim import fastcore as _fastcore
from repro.tasks.job import Job
from repro.types import Speed, Time, Work

if TYPE_CHECKING:
    from repro.sim.engine import SimContext

_BY_DEADLINE = itemgetter(0)

#: Closes the last deadline group of the sweep: no real deadline is
#: infinite, and it adds no work.
_END_OF_EVENTS = (math.inf, 0.0)


def peak_intensity(t: Time, window_end: Time,
                   events: list[tuple[Time, Work]]) -> Speed:
    """``max(0, max_k h(t, d_k) / (d_k - t))`` over the deadline groups
    of *events* (``(deadline, work)`` pairs, sorted here in place).

    One pass: a group is every event within 1e-12 of its first
    deadline, and it is evaluated once the next group's first event
    arrives.  Groups past ``window_end + 1e-9`` or within 1e-12 of *t*
    are not evaluated.
    """
    events.sort(key=_BY_DEADLINE)
    events.append(_END_OF_EVENTS)
    edge = window_end + 1e-9
    best = 0.0
    h = 0.0
    d_k = group_end = -math.inf
    for d, w in events:
        if d > group_end:
            span = d_k - t
            if span > 1e-12 and d_k <= edge:
                ratio = h / span
                if ratio > best:
                    best = ratio
            d_k = d
            group_end = d + 1e-12
        h += w
    return best


def intensity_sweep(t: Time, window_end: Time, active_d, active_w,
                    streams, k0s) -> Speed:
    """:func:`peak_intensity` over the demand events in the window.

    Active jobs step in with their actual remaining work at their
    deadlines, future jobs with their actual demand at theirs: task
    ``i``'s jobs ``k0s[i]`` onwards whose deadline in ``streams[i]``
    (a ``(deadlines, works)`` list pair, deadlines ascending) lies
    within 1e-12 of ``window_end``.  The compiled twin
    ``repro.sim._fastcore.intensity_sweep`` takes the same arguments
    and returns the bit-identical float.
    """
    fence = window_end + 1e-12
    events: list[tuple[Time, Work]] = list(zip(active_d, active_w))
    extend = events.extend
    for (deadlines, works), k0 in zip(streams, k0s):
        hi = bisect_right(deadlines, fence)
        if hi > k0:
            extend(zip(deadlines[k0:hi], works[k0:hi]))
    return peak_intensity(t, window_end, events)


class ClairvoyantPolicy(DvsPolicy):
    """YDS-intensity oracle with perfect workload knowledge."""

    name = "clairvoyant"

    def __init__(self, window_cap_periods: float = 4.0) -> None:
        super().__init__()
        self.window_cap_periods = window_cap_periods
        # Per task (taskset order), the (absolute deadline, actual
        # work) of its future jobs by index, grown lazily.  Deadlines
        # are monotone in the job index (arrivals are monotone, the
        # relative deadline is a constant offset), so each intensity()
        # call takes the events inside its window by binary search
        # instead of re-querying the oracles job by job.
        self._streams: list[tuple[list[Time], list[Work]]] | None = None
        # The smallest last deadline over the streams: no stream needs
        # growing while the window's fence stays below it.
        self._covered: Time = -math.inf
        self._max_period: Time = 0.0

    def bind(self, taskset, processor) -> None:
        super().bind(taskset, processor)
        self._max_period = max(task.period for task in taskset)
        self.decide_spec = DecideSpec(
            ClairvoyantPolicy, "clairvoyant",
            window_cap=self.window_cap_periods)

    def reset(self) -> None:
        self._streams = None
        self._covered = -math.inf

    # -- oracle workload knowledge ---------------------------------------

    def _grow_streams(self, ctx: "SimContext",
                      fence: Time) -> list[tuple[list[Time], list[Work]]]:
        """Extend every task's stream past *fence*, task by task."""
        tasks = ctx.taskset.tasks
        streams = self._streams
        if streams is None:
            streams = self._streams = [([], []) for _ in tasks]
        arrival_time = ctx.arrival_model.arrival_time
        work = ctx.execution_model.work
        for task, (deadlines, works) in zip(tasks, streams):
            while not deadlines or deadlines[-1] <= fence:
                k = len(deadlines)
                deadlines.append(arrival_time(task, k) + task.deadline)
                works.append(work(task, k))
        self._covered = min(deadlines[-1] for deadlines, _ in streams)
        return streams

    # -- the YDS intensity -------------------------------------------------

    def intensity(self, ctx: "SimContext") -> Speed:
        """``max_k h_act(t, d_k) / (d_k - t)`` over the analysis window."""
        t = ctx.time
        active = ctx.active_jobs
        if not active:
            return 0.0
        tasks = ctx.taskset.tasks
        max_period = self._max_period
        if max_period <= 0.0:
            max_period = max(task.period for task in tasks)
        active_d = [j.deadline for j in active]
        # Obligations end at the simulation horizon, so the analysis
        # window never needs to extend beyond it.
        window_end = min(
            ctx.horizon,
            max(max(active_d), t + self.window_cap_periods * max_period))

        # The oracle is allowed to read both workload oracles: actual
        # execution demands and actual (possibly sporadic) arrivals.
        fence = window_end + 1e-12
        streams = self._streams
        if streams is None or self._covered <= fence:
            streams = self._grow_streams(ctx, fence)
        next_job_index = ctx.next_job_index
        k0s = [next_job_index(task.name) for task in tasks]
        kernels = _fastcore.slack_kernels()
        sweep = (kernels.intensity_sweep if kernels is not None
                 else intensity_sweep)
        return sweep(t, window_end, active_d,
                     [j.remaining_work for j in active], streams, k0s)

    # -- policy ------------------------------------------------------------

    def select_speed(self, job: Job, ctx: "SimContext") -> Speed:
        return max(self.min_speed, min(1.0, self.intensity(ctx)))
