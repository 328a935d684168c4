"""Task-set container and aggregate properties."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

from repro.errors import ConfigurationError, InfeasibleTaskSetError
from repro.tasks.task import PeriodicTask
from repro.types import Time

#: Denominator cap when rationalising float periods for hyperperiod
#: computation.  Periods in the library's experiments are either small
#: integers or simple decimals, well inside this cap.
_MAX_DENOMINATOR = 1_000_000


class TaskSet:
    """An ordered, immutable collection of periodic tasks.

    Task names must be unique.  Iteration order is the construction
    order, which also serves as the deterministic tie-break for
    schedulers.
    """

    #: Set on an instance once assert_feasible_edf() passed: the set is
    #: immutable, and every run of a suite asks again.
    _edf_feasible = False

    def __init__(self, tasks: Sequence[PeriodicTask]) -> None:
        tasks = tuple(tasks)
        if not tasks:
            raise ConfigurationError("a task set must contain at least one task")
        names = [t.name for t in tasks]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigurationError(f"duplicate task names: {dupes}")
        self._tasks = tasks
        self._by_name = {t.name: t for t in tasks}

    def __iter__(self) -> Iterator[PeriodicTask]:
        return iter(self._tasks)

    def __len__(self) -> int:
        return len(self._tasks)

    def __getitem__(self, item: int | str) -> PeriodicTask:
        if isinstance(item, str):
            try:
                return self._by_name[item]
            except KeyError:
                raise KeyError(f"no task named {item!r}") from None
        return self._tasks[item]

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __repr__(self) -> str:
        return (f"TaskSet(n={len(self)}, U={self.utilization:.3f}, "
                f"tasks={[t.name for t in self._tasks]})")

    @property
    def tasks(self) -> tuple[PeriodicTask, ...]:
        """The tasks, in construction order."""
        return self._tasks

    @property
    def utilization(self) -> float:
        """Total worst-case utilization ``sum(C_i / P_i)``."""
        return sum(t.utilization for t in self._tasks)

    @property
    def density(self) -> float:
        """Total worst-case density ``sum(C_i / min(D_i, P_i))``."""
        return sum(t.density for t in self._tasks)

    @property
    def implicit_deadlines(self) -> bool:
        """``True`` when every task's deadline equals its period."""
        return all(t.implicit_deadline for t in self._tasks)

    @property
    def max_period(self) -> Time:
        return max(t.period for t in self._tasks)

    @property
    def min_period(self) -> Time:
        return min(t.period for t in self._tasks)

    @property
    def max_phase(self) -> Time:
        return max(t.phase for t in self._tasks)

    def hyperperiod(self) -> Time:
        """Least common multiple of the task periods.

        Float periods are rationalised first; periods that are not
        simple rationals raise :class:`ConfigurationError` instead of
        silently producing an astronomical horizon.
        """
        fractions = []
        for task in self._tasks:
            frac = Fraction(task.period).limit_denominator(_MAX_DENOMINATOR)
            if abs(float(frac) - task.period) > 1e-9 * max(1.0, task.period):
                raise ConfigurationError(
                    f"period {task.period} of task {task.name!r} is not a "
                    f"simple rational; cannot compute a hyperperiod")
            fractions.append(frac)
        numerator_lcm = 1
        denominator_gcd = fractions[0].denominator
        for frac in fractions:
            numerator_lcm = math.lcm(numerator_lcm, frac.numerator)
            denominator_gcd = math.gcd(denominator_gcd, frac.denominator)
        return numerator_lcm / denominator_gcd

    def default_horizon(self, *, min_jobs_per_task: int = 20,
                        max_hyperperiods: int = 20) -> Time:
        """A simulation horizon balancing fidelity and cost.

        A whole number of hyperperiods: enough that the slowest task
        releases *min_jobs_per_task* jobs, at least one hyperperiod,
        and at most *max_hyperperiods* (the runtime-control knob —
        benchmark suites with huge hyperperiods pass 1).  Task sets
        without a rational hyperperiod fall back to the job-count
        horizon directly.
        """
        by_jobs = min_jobs_per_task * self.max_period
        try:
            hp = self.hyperperiod()
        except ConfigurationError:
            return self.max_phase + by_jobs
        periods = max(1, min(max_hyperperiods, math.ceil(by_jobs / hp)))
        return self.max_phase + periods * hp

    def assert_feasible_edf(self) -> None:
        """Raise :class:`InfeasibleTaskSetError` if EDF at max speed fails.

        For implicit deadlines this is the exact ``U <= 1`` test.  For
        constrained deadlines the cheap (sufficient) density test runs
        first and, when it fails, the exact processor-demand test
        delivers the final verdict.
        """
        if self._edf_feasible:
            return
        self._assert_feasible_edf()
        self._edf_feasible = True

    def _assert_feasible_edf(self) -> None:
        if self.implicit_deadlines:
            if self.utilization > 1.0 + 1e-9:
                raise InfeasibleTaskSetError(
                    f"utilization {self.utilization:.6f} > 1: not EDF-"
                    f"schedulable even at maximum speed")
            return
        if self.density <= 1.0 + 1e-9:
            return
        from repro.analysis.schedulability import processor_demand_test
        if not processor_demand_test(self):
            raise InfeasibleTaskSetError(
                f"processor-demand test fails (density {self.density:.6f}): "
                f"not EDF-schedulable even at maximum speed")

    def scaled_to_utilization(self, target: float) -> "TaskSet":
        """Return a copy with all WCETs scaled to hit *target* utilization."""
        if target <= 0:
            raise ConfigurationError(f"target utilization must be > 0, got {target}")
        factor = target / self.utilization
        return TaskSet([t.scaled(factor) for t in self._tasks])

    def describe(self) -> str:
        """Multi-line human-readable summary table."""
        lines = [f"TaskSet: {len(self)} tasks, U={self.utilization:.4f}"]
        header = f"  {'name':<10} {'wcet':>10} {'period':>10} {'deadline':>10} {'util':>8}"
        lines.append(header)
        for t in self._tasks:
            lines.append(
                f"  {t.name:<10} {t.wcet:>10.4f} {t.period:>10.4f} "
                f"{t.deadline:>10.4f} {t.utilization:>8.4f}")
        return "\n".join(lines)
