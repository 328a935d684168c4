"""Offline schedulability tests for periodic task sets.

These back the feasibility gates of the simulator and are also exposed
as a user-facing API: a DVS policy only makes sense on a task set that
is schedulable at maximum speed in the first place.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from repro.analysis.demand import dbf
from repro.errors import ConfigurationError
from repro.tasks.taskset import TaskSet
from repro.types import Time


def edf_utilization_test(taskset: TaskSet) -> bool:
    """Exact EDF test for implicit deadlines: ``U <= 1``.

    Raises :class:`ConfigurationError` when applied to a constrained-
    deadline set, for which utilization alone is not sufficient.
    """
    if not taskset.implicit_deadlines:
        raise ConfigurationError(
            "utilization test is only exact for implicit deadlines; use "
            "processor_demand_test")
    return taskset.utilization <= 1.0 + 1e-9


def edf_density_test(taskset: TaskSet) -> bool:
    """Sufficient (not necessary) EDF test: total density <= 1."""
    return taskset.density <= 1.0 + 1e-9


def processor_demand_test(taskset: TaskSet, *,
                          max_points: int = 1_000_000) -> bool:
    """Exact EDF test for constrained deadlines (synchronous release).

    Checks ``dbf(L) <= L`` at every absolute deadline up to the
    Baruah/Mok/Rosier bound ``min(hyperperiod, busy-period style bound)``.
    ``max_points`` guards against pathological period structures.
    """
    u = taskset.utilization
    if u > 1.0 + 1e-9:
        return False
    if taskset.implicit_deadlines:
        return True
    # L* bound: max(D_i, (U / (1-U)) * max(T_i - D_i)) or hyperperiod.
    if u < 1.0 - 1e-9:
        la = max((t.period - t.deadline) for t in taskset) * u / (1.0 - u)
        bound = max(la, max(t.deadline for t in taskset))
    else:
        bound = math.inf
    try:
        bound = min(bound, taskset.hyperperiod())
    except ConfigurationError:
        if math.isinf(bound):
            raise
    points: set[Time] = set()
    for task in taskset:
        deadline = task.deadline
        count = 0
        while deadline <= bound + 1e-9:
            points.add(deadline)
            deadline += task.period
            count += 1
            if len(points) > max_points:
                raise ConfigurationError(
                    f"processor demand test exceeds {max_points} check points")
    for point in sorted(points):
        if dbf(taskset, point) > point + 1e-9:
            return False
    return True


#: minimum_constant_speed per task set: six policies bind with it, once
#: per run, and every policy of a suite shares the task set.
_MIN_SPEED: "weakref.WeakKeyDictionary[TaskSet, float]" = \
    weakref.WeakKeyDictionary()


def minimum_constant_speed(taskset: TaskSet) -> float:
    """Lowest constant speed at which EDF meets all deadlines.

    For implicit deadlines this is exactly the utilization; for
    constrained deadlines a binary search over the processor-demand
    test is performed.  Computed once per task set.
    """
    speed = _MIN_SPEED.get(taskset)
    if speed is None:
        speed = _MIN_SPEED[taskset] = _minimum_constant_speed(taskset)
    return speed


def _minimum_constant_speed(taskset: TaskSet) -> float:
    if taskset.implicit_deadlines:
        return min(1.0, taskset.utilization)
    low, high = taskset.utilization, 1.0
    if low >= 1.0:
        return 1.0
    feasible = _ScaledDemandTest(taskset)
    for _ in range(64):
        mid = 0.5 * (low + high)
        if feasible(mid):
            high = mid
        else:
            low = mid
        if high - low < 1e-9:
            break
    return high


def _feasible_at(taskset: TaskSet, speed: float) -> bool:
    """The processor-demand test of *taskset* run at constant *speed*."""
    if any(t.wcet / speed > t.deadline for t in taskset):
        return False
    scaled = TaskSet([t.scaled(1.0 / speed) for t in taskset])
    return processor_demand_test(scaled)


class _ScaledDemandTest:
    """:func:`_feasible_at` for many speeds of one task set.

    The scaled set's check points are a prefix of the same per-task
    deadline streams at every speed, so they are enumerated once (up to
    the hyperperiod, the largest bound) and each call evaluates the
    demand bound at all of them with numpy, task by task in task order:
    the same float operations in the same order as
    :func:`processor_demand_test`, so the verdict is the same.  Sets
    whose hyperperiod is unknown or too long keep the scalar test.
    """

    def __init__(self, taskset: TaskSet, max_points: int = 1_000_000) -> None:
        self.taskset = taskset
        tasks = taskset.tasks
        self.columns = [(t.wcet, t.deadline, t.period) for t in tasks]
        self.max_gap = max(t.period - t.deadline for t in tasks)
        self.max_deadline = max(t.deadline for t in tasks)
        self.points = None
        try:
            self.hyperperiod = taskset.hyperperiod()
        except ConfigurationError:
            return
        if sum(self.hyperperiod / t.period + 1 for t in tasks) > max_points:
            return
        points: set[Time] = set()
        for task in tasks:
            deadline = task.deadline
            while deadline <= self.hyperperiod + 1e-9:
                points.add(deadline)
                deadline += task.period
        self.points = np.array(sorted(points))

    def __call__(self, speed: float) -> bool:
        if self.points is None:
            return _feasible_at(self.taskset, speed)
        if any(wcet / speed > deadline
               for wcet, deadline, _period in self.columns):
            return False
        factor = 1.0 / speed
        scaled = [(wcet * factor, deadline, period)
                  for wcet, deadline, period in self.columns]
        if any(wcet > deadline for wcet, deadline, _period in scaled):
            # Building the scaled tasks raises; let the scalar path.
            return _feasible_at(self.taskset, speed)
        u = sum(wcet / period for wcet, _deadline, period in scaled)
        if u > 1.0 + 1e-9:
            return False
        if u < 1.0 - 1e-9:
            bound = max(self.max_gap * u / (1.0 - u), self.max_deadline)
        else:
            bound = math.inf
        bound = min(bound, self.hyperperiod)
        points = self.points[:np.searchsorted(self.points, bound + 1e-9,
                                              side="right")]
        total = None
        for wcet, deadline, period in scaled:
            jobs = np.floor((points - deadline) / period) + 1.0
            term = np.maximum(jobs, 0.0) * wcet
            total = term if total is None else total + term
        return not bool(np.any(total > points + 1e-9))
