"""Online slack-time analysis for EDF — the paper's core computation.

At a scheduling point ``t`` the earliest-deadline active job ``J``
(deadline ``d_J``) may be granted at most

``slack(t) = max(0, min over deadlines d_k >= d_J of (d_k - t - h(t, d_k)))``

extra wall time, where ``h(t, d_k)`` is the *time demand* in
``[t, d_k]``: the wall time that active jobs with deadline at or before
``d_k`` plus future job releases with deadlines at or before ``d_k``
still need under the reference execution speed.  Granting ``J`` up to
``slack`` extra time delays every later deadline by at most ``slack``,
which by construction still fits — so re-running the analysis at every
scheduling point keeps all deadlines (DESIGN.md §4.3).

The reference speed matters enormously for energy:

* **baseline_speed = 1** (the greedy variant): demand is measured
  against full-speed execution, so the analysis finds *all* the slack
  in the system and hands it to the current job.  Safe, but convex
  power punishes the resulting slow-then-fast speed profile.
* **baseline_speed = S** (the paper's formulation, with ``S`` the
  statically scaled EDF speed, i.e. the utilization for implicit
  deadlines): demand is measured against the canonical static-speed
  schedule — budgets are ``wcet / S`` wall time.  The static schedule
  is tight (scaled utilization 1), so the only slack the analysis finds
  is genuine *earliness* from jobs that finished under budget, and
  speeds stay near ``S`` with dips when slack appears.

Callers pass states already expressed in the reference time base (see
:func:`SystemState.scaled`); the analysis itself is baseline-agnostic.

Two evaluators:

* :func:`exact_slack` — true demand over every deadline in the capped
  analysis window via one sorted event walk, with a provably safe
  linear tail guard beyond the cap.  Backs the ``lpSTA`` policy.
* :func:`heuristic_slack` — O(n) per call: only active-job deadlines
  and next release points, with the closed-form linear demand bound.
  Never exceeds the true slack (safe).  Backs ``lpSEH``.

Safety of the candidate sets (sketch): with the linear demand bound,
``g(x) = x - t - h_bar(t, x)`` is piecewise linear with slope
``1 - sum(started task utilizations) >= 1 - U >= 0`` and downward jumps
only where an active deadline (budget step) or a task's release point
(constrained-deadline correction step) enters.  A non-negative-slope
piecewise-linear function attains its minimum immediately after a
downward jump, so evaluating exactly there bounds the true minimum
from below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, itemgetter
from typing import Mapping, Sequence

from repro.analysis.demand import (
    future_demand,
    future_demand_linear_bound,
)
from repro.errors import ConfigurationError
from repro.tasks.task import PeriodicTask
from repro.telemetry import TELEMETRY as _TELEMETRY
from repro.types import Time, Work

# The compiled slack kernels (repro.sim._fastcore, DESIGN.md §13) are
# resolved lazily: importing repro.sim.fastcore at module level would
# close an import cycle back through repro.sim.engine, which imports
# this module for ActiveJob/SystemState.
_fastcore = None


def _slack_kernels():
    """The compiled kernel module, or ``None`` (absent or disabled)."""
    global _fastcore
    if _fastcore is None:
        from repro.sim import fastcore
        _fastcore = fastcore
    return _fastcore.slack_kernels()


# Per-tasks-tuple flattened columns, keyed by tuple identity.  Policies
# reuse one (possibly scaled) task tuple across every scheduling point
# of a run, so the flatten cost is paid once per run, not per call.
# The tuple itself is pinned in the value so an id() can never be
# recycled while its entry is alive.
_FLAT_CACHE: dict[int, tuple] = {}


def _flat_tasks(tasks: tuple[PeriodicTask, ...]) -> tuple:
    """``(names, rel_deadline, period, wcet, utilization, correction)``
    columns for *tasks*, in task order."""
    entry = _FLAT_CACHE.get(id(tasks))
    if entry is not None and entry[0] is tasks:
        return entry[1]
    columns = (
        tuple(task.name for task in tasks),
        tuple(task.deadline for task in tasks),
        tuple(task.period for task in tasks),
        tuple(task.wcet for task in tasks),
        tuple(task.utilization for task in tasks),
        tuple(task.wcet * (task.period - task.deadline) / task.period
              if task.deadline < task.period else 0.0
              for task in tasks),
    )
    if len(_FLAT_CACHE) > 128:
        _FLAT_CACHE.clear()
    _FLAT_CACHE[id(tasks)] = (tasks, columns)
    return columns


@dataclass(frozen=True, slots=True)
class ActiveJob:
    """The slice of job state the analysis needs: (deadline, budget).

    ``remaining_wcet`` is expressed in the caller's reference time base
    (wall time the budget needs at the baseline speed).
    """

    deadline: Time
    remaining_wcet: Work

    def __post_init__(self) -> None:
        if self.remaining_wcet < 0:
            raise ConfigurationError(
                f"remaining_wcet must be >= 0, got {self.remaining_wcet}")


@dataclass(frozen=True, slots=True)
class SystemState:
    """A snapshot of the schedule at one scheduling point.

    The active jobs are stored as two parallel columns — exactly the
    arrays the slack walks consume — so a snapshot taken at every
    scheduling point allocates two tuples, not one object per job.

    Attributes
    ----------
    time:
        Current time ``t``.
    active_deadlines, active_budgets:
        Deadline and remaining budget (reference time base, ``>= 0``)
        of every incomplete released job, *including* the one being
        dispatched (which must have the earliest deadline; ties
        allowed).
    tasks:
        The full task set, with WCETs in the reference time base
        (future arrivals come from here).
    next_release:
        For each task name, the first strictly-future release time.
    """

    time: Time
    active_deadlines: tuple[Time, ...]
    active_budgets: tuple[Work, ...]
    tasks: tuple[PeriodicTask, ...]
    next_release: Mapping[str, Time]

    @classmethod
    def build(cls, time: Time, active: Sequence[ActiveJob],
              tasks: Sequence[PeriodicTask],
              next_release: Mapping[str, Time]) -> "SystemState":
        for task in tasks:
            if task.name not in next_release:
                raise ConfigurationError(
                    f"next_release missing task {task.name!r}")
            if next_release[task.name] < time - 1e-9:
                raise ConfigurationError(
                    f"next_release[{task.name!r}]={next_release[task.name]} "
                    f"is in the past (t={time})")
        active = tuple(active)
        return cls(time=time,
                   active_deadlines=tuple(job.deadline for job in active),
                   active_budgets=tuple(job.remaining_wcet for job in active),
                   tasks=tuple(tasks), next_release=dict(next_release))

    @property
    def active(self) -> tuple[ActiveJob, ...]:
        """The active jobs as :class:`ActiveJob` records (a derived view)."""
        return tuple(ActiveJob(deadline, budget) for deadline, budget
                     in zip(self.active_deadlines, self.active_budgets))

    @property
    def earliest_deadline(self) -> Time:
        if not self.active_deadlines:
            raise ConfigurationError("no active jobs in state")
        return min(self.active_deadlines)

    @property
    def pending_work(self) -> Work:
        return sum(self.active_budgets)

    def utilization(self) -> float:
        return sum(task.utilization for task in self.tasks)


# The last task tuple scale_tasks scaled, pinned, and its scaled copies
# by baseline speed: every policy of a suite binds to one task set, run
# after run, so its scaled tuple is built once per suite and its
# _flat_tasks columns stay cached with it.  One task tuple at a time.
_SCALED: tuple[tuple, dict[float, tuple]] = ((), {})


def scale_tasks(tasks: Sequence[PeriodicTask],
                baseline_speed: float) -> tuple[PeriodicTask, ...]:
    """Re-express task WCETs as wall time at *baseline_speed*.

    Raises :class:`ConfigurationError` when a scaled WCET no longer fits
    its deadline — i.e. the baseline speed is below the task set's
    minimum feasible constant speed.  A task tuple's scaled copies are
    reused while it is the last one scaled (tasks are frozen).
    """
    global _SCALED
    if not (0.0 < baseline_speed <= 1.0):
        raise ConfigurationError(
            f"baseline_speed must be in (0, 1], got {baseline_speed}")
    pinned, by_speed = _SCALED
    if pinned is not tasks:
        if type(tasks) is not tuple:
            return tuple(task.scaled(1.0 / baseline_speed) for task in tasks)
        by_speed = {}
        _SCALED = (tasks, by_speed)
    scaled = by_speed.get(baseline_speed)
    if scaled is None:
        scaled = by_speed[baseline_speed] = tuple(
            task.scaled(1.0 / baseline_speed) for task in tasks)
    return scaled


def demand(state: SystemState, d: Time) -> Work:
    """Exact time demand ``h(t, d)`` in the state's reference base."""
    fence = d + 1e-12
    total = sum(budget for deadline, budget
                in zip(state.active_deadlines, state.active_budgets)
                if deadline <= fence)
    for task in state.tasks:
        total += future_demand(task, state.next_release[task.name], d)
    return total


def demand_linear_bound(state: SystemState, d: Time) -> Work:
    """Over-approximate demand ``h_bar(t, d)`` using the linear bound."""
    fence = d + 1e-12
    total = sum(budget for deadline, budget
                in zip(state.active_deadlines, state.active_budgets)
                if deadline <= fence)
    for task in state.tasks:
        total += future_demand_linear_bound(
            task, state.next_release[task.name], d)
    return total


def exact_slack(state: SystemState, *,
                window_cap_periods: float | None = None,
                earliest_candidate: Time | None = None) -> Time:
    """Exact-within-window slack available at *state*.

    Walks every deadline in ``(t, window_end]`` once, accumulating
    demand incrementally — active budgets step in at their deadlines,
    each future job contributes its WCET at its own deadline — and
    takes ``min(d_k - t - h)`` over candidates at or after the earliest
    active deadline.  The linear tail guard covers deadlines beyond the
    window, so the result is always a safe lower bound on the true
    infinite-horizon slack.

    The default window ends at the latest *active* deadline: beyond it
    the linear-bound function ``g_bar`` has no further downward jumps
    from active budgets and slope ``1 - U >= 0``, so its value at the
    window edge bounds the whole tail — which makes the default both
    cheap (O(jobs within one max-period)) and near-exact (the only
    approximation left is linear-vs-floor future demand at the edge).
    Pass ``window_cap_periods`` to widen the exact walk to
    ``t + cap * max_period`` for even tighter tails.

    ``earliest_candidate`` selects which deadlines constrain the
    grantee.  The default (the earliest active deadline) is correct for
    a *dispatch*: the running job has the earliest deadline and EDF
    still preempts it for any earlier-deadline arrival, so those
    arrivals are not delayed.  A *processor vacation* (sleeping through
    arrivals — see :mod:`repro.policies.procrastination`) delays
    everything, so it must pass ``earliest_candidate=state.time`` to
    constrain against every future deadline.
    """
    tele = _TELEMETRY
    if not tele.timers:
        return _exact_slack(state, window_cap_periods, earliest_candidate)
    tele.push("slack.exact")
    try:
        return _exact_slack(state, window_cap_periods, earliest_candidate)
    finally:
        tele.pop()


def _exact_slack(state: SystemState,
                 window_cap_periods: float | None,
                 earliest_candidate: Time | None) -> Time:
    active_d = state.active_deadlines
    if not active_d:
        raise ConfigurationError("slack analysis requires an active job")
    names, rdl, per, wcet, util, corr = _flat_tasks(state.tasks)
    t = state.time
    d_first = (earliest_candidate if earliest_candidate is not None
               else min(active_d))
    window_end = max(active_d)
    if window_cap_periods is not None:
        window_end = max(window_end, t + window_cap_periods * max(per))
    next_release = state.next_release
    kernels = _slack_kernels()
    walk = kernels.exact_slack_walk if kernels is not None else _exact_walk
    return walk(t, d_first, window_end, active_d, state.active_budgets,
                tuple([next_release[name] for name in names]),
                rdl, per, wcet, util, corr)


def heuristic_slack(state: SystemState) -> Time:
    """O(n) conservative slack estimate (the lpSEH computation).

    Candidate points: the active jobs' deadlines and each task's next
    release time (where the constrained-deadline correction step
    lands), restricted to ``>= d_J``; demand uses the linear
    over-approximation throughout.  On implicit-deadline task sets it
    never exceeds ``exact_slack(state)`` beyond rounding; with
    constrained deadlines the exact walk's tail guard can be the
    looser of the two (``tests/test_slack_walks.py``).
    """
    tele = _TELEMETRY
    if not tele.timers:
        return _heuristic_slack(state)
    tele.push("slack.heuristic")
    try:
        return _heuristic_slack(state)
    finally:
        tele.pop()


def _heuristic_slack(state: SystemState) -> Time:
    active_d = state.active_deadlines
    if not active_d:
        raise ConfigurationError("slack analysis requires an active job")
    names, _rdl, _per, _wcet, util, corr = _flat_tasks(state.tasks)
    next_release = state.next_release
    kernels = _slack_kernels()
    walk = (kernels.heuristic_slack_walk if kernels is not None
            else _heuristic_walk)
    return walk(state.time, min(active_d), active_d, state.active_budgets,
                tuple([next_release[name] for name in names]), util, corr)


# ----------------------------------------------------------------------
# The walks.  Each takes exactly the flattened arguments of its compiled
# twin in repro.sim._fastcore (``exact_slack_walk``,
# ``heuristic_slack_walk``) and returns the bit-identical float: the
# same events, the same deadline grouping and the same accumulation
# order.  ``rel`` is each task's next release, and the task columns
# come from :func:`_flat_tasks`, all in task order.
# ----------------------------------------------------------------------

_BY_DEADLINE = itemgetter(0)

#: Appended after the sort so a sweep's single loop also closes the
#: last deadline group: no real deadline is infinite, and it adds no
#: work.
_END_OF_EVENTS = (math.inf, 0.0)


def _exact_walk(t, d_first, window_end, active_d, active_w,
                rel, rdl, per, wcet, util, corr) -> Time:
    """Slack over every deadline group from *d_first* to *window_end*,
    and the linear tail guard beyond.

    Demand events are ``(deadline, work)`` steps: active budgets at
    their deadlines and one event per future job at its own absolute
    deadline.  Events within 1e-12 of a group's first deadline fold
    into that group before the group is evaluated.
    """
    events = list(zip(active_d, active_w))
    append = events.append
    fence = window_end + 1e-12
    for deadline, period, work in zip(map(add, rel, rdl), per, wcet):
        while deadline <= fence:
            append((deadline, work))
            deadline += period
    events.sort(key=_BY_DEADLINE)
    events.append(_END_OF_EVENTS)

    d_lo = d_first - 1e-12
    best = math.inf
    h = 0.0
    d_k = group_end = -math.inf
    for d, w in events:
        if d > group_end:
            # d opens a new group: evaluate the one it closes.
            if d_k >= d_lo:
                g = d_k - t - h
                if g < best:
                    if g <= 0.0:
                        return 0.0  # the clamp below would give 0.0
                    best = g
            d_k = d
            group_end = d + 1e-12
        h += w

    # Linear tail guard: a safe lower bound on g(x) for every
    # x >= window_end.  Every active budget and every constrained-
    # deadline correction is charged unconditionally, so the bound has
    # slope 1 - U >= 0 (feasible reference bases) and its minimum over
    # the tail is at window_end.
    total = 0.0
    for w in active_w:
        total += w
    for release, u, c, dl, p in zip(rel, util, corr, rdl, per):
        head = window_end - release
        total += u * (head if head > 0.0 else 0.0)
        if dl < p:
            total += c
    tail = window_end - t - total
    if tail < best:
        best = tail
    return best if best > 0.0 else 0.0


def _heuristic_walk(t, d_first, active_d, active_w, rel, util,
                    corr) -> Time:
    """Linear-bound slack at the active deadlines and next releases.

    Demand accumulates active budgets in state order, then tasks in
    task order, at every candidate — the order the compiled kernel
    uses.  The minimum does not depend on the candidate order, so
    ``d_first`` goes first: a dispatch behind a missed deadline gets
    a non-positive ``g`` there and needs no other candidate.
    """
    actives = tuple(zip(active_d, active_w))
    terms = tuple(zip(rel, util, corr))
    candidates = set(active_d)
    candidates.update([release for release in rel if release >= d_first])
    candidates.discard(d_first)
    d_lo = d_first - 1e-12
    best = math.inf
    for d_k in (d_first, *candidates):
        if d_k < d_lo:
            continue
        fence = d_k + 1e-12
        total = 0.0
        for deadline, budget in actives:
            if deadline <= fence:
                total += budget
        for release, u, c in terms:
            headroom = d_k - release
            if headroom > 0.0:
                total += u * headroom + c
        g = d_k - t - total
        if g < best:
            if g <= 0.0:
                return 0.0  # the clamp below would give 0.0
            best = g
    return best if best > 0.0 else 0.0


def stretch_speed(remaining_wcet: Work, slack: Time,
                  min_speed: float = 0.0) -> float:
    """The minimum constant speed that fits *remaining_wcet* (max-speed
    units of work) into ``remaining_wcet + slack`` wall time.

    Degenerate inputs (zero budget) return *min_speed* — there is
    nothing left to run so any attainable speed is fine.
    """
    if slack < 0:
        raise ConfigurationError(f"slack must be >= 0, got {slack}")
    if remaining_wcet <= 0:
        return max(min_speed, 0.0)
    return max(min_speed, remaining_wcet / (remaining_wcet + slack))


def allotted_speed(remaining_work: Work, baseline_speed: float,
                   slack: Time, min_speed: float = 0.0) -> float:
    """Speed that spreads *remaining_work* over its scaled budget + slack.

    The paper's dispatch rule under a static baseline ``S``: the job's
    canonical allotment is ``remaining_work / S`` wall time; with
    *slack* extra time granted the required speed is

    ``remaining_work / (remaining_work / S + slack)``

    which is at most ``S`` and degrades gracefully to ``S`` when no
    slack exists.
    """
    if not (0.0 < baseline_speed <= 1.0):
        raise ConfigurationError(
            f"baseline_speed must be in (0, 1], got {baseline_speed}")
    if slack < 0:
        raise ConfigurationError(f"slack must be >= 0, got {slack}")
    if remaining_work <= 0:
        return max(min_speed, 0.0)
    allotment = remaining_work / baseline_speed + slack
    return max(min_speed, remaining_work / allotment)
