"""Fault injectors: wrappers that bend the workload models.

Each injector wraps a fault-free model and applies the plan's seeded
perturbations on top, preserving the wrapped model's determinism
contract — ``(seed, task, index)`` fully determines every sample, so
oracle queries (clairvoyant policy) and the engine keep agreeing even
under faults.
"""

from __future__ import annotations

from repro.faults import plan as _plan
from repro.faults.plan import FaultPlan
from repro.tasks import execution as _execution
from repro.tasks.arrivals import ArrivalModel
from repro.tasks.execution import ExecutionModel
from repro.tasks.task import PeriodicTask
from repro.types import Time, Work


class FaultyExecution(ExecutionModel):
    """Execution model with seeded WCET overruns layered on top.

    A faulted job's demand becomes ``factor * C_i`` — deliberately
    *more* than the worst case every online policy budgets for.  The
    engine admits such jobs only when a fault plan is active, so the
    fault-free invariant ``work <= wcet`` stays enforced everywhere
    else.
    """

    def __init__(self, inner: ExecutionModel, plan: FaultPlan) -> None:
        super().__init__(inner.seed)
        self.inner = inner
        self.plan = plan

    def ratio(self, task: PeriodicTask, index: int) -> float:
        return self.inner.ratio(task, index)

    def work(self, task: PeriodicTask, index: int) -> Work:
        factor = self.plan.overrun_factor(task.name, index)
        if factor <= 1.0:
            return self.inner.work(task, index)
        return task.wcet * factor

    def compiled_overrun(self) -> tuple[int, float, float] | None:
        """``(seed, factor, probability)`` of the overrun draw when the
        compiled core may draw this model's demands itself, bit-identical
        to :meth:`work`; ``None`` keeps :meth:`work`.

        Only an exact ``FaultyExecution`` over an exact ``FaultPlan``
        with an overrun qualifies, with :meth:`work`, :meth:`ratio` and
        ``FaultPlan.overrun_factor`` as defined and the plan drawing
        from the execution models' ``_job_rng``; the inner model must
        pass its own :meth:`compiled_draw` (the caller checks that).
        """
        plan = self.plan
        if (_OVERRUN_HOOKS != _overrun_snapshot()
                or type(self) is not FaultyExecution
                or type(plan) is not FaultPlan or plan.overrun is None
                or any(name in vars(self) for name in ("work", "ratio"))
                or "overrun_factor" in vars(plan)):
            return None
        return (plan.seed ^ _plan._OVERRUN_SALT, plan.overrun.factor,
                plan.overrun.probability)

    def describe(self) -> str:
        return f"{self.inner.describe()} + {self.plan.describe()}"


def _overrun_snapshot() -> tuple:
    # What compiled_overrun stands in for (compared by identity).
    return (FaultyExecution.work, FaultyExecution.ratio,
            FaultPlan.overrun_factor, _plan._job_rng, _execution._job_rng)


_OVERRUN_HOOKS = _overrun_snapshot()


class FaultyArrival(ArrivalModel):
    """Arrival model with jitter, burst compression and clock drift.

    Gap pipeline per job: burst blocks collapse the wrapped gap to the
    minimum separation; otherwise seeded jitter stretches it; finally
    clock drift multiplies everything by ``1 + rate``.  Every stage
    maps gaps ``>= period`` to gaps ``>= period``, so the sporadic
    minimum-separation contract — and with it every feasibility bound —
    survives injection.
    """

    def __init__(self, inner: ArrivalModel, plan: FaultPlan) -> None:
        super().__init__(inner.seed)
        self.inner = inner
        self.plan = plan

    def gap(self, task: PeriodicTask, index: int) -> Time:
        gap = self.inner.gap(task, index)
        if self.plan.in_burst(task.name, index):
            gap = task.period
        else:
            gap += self.plan.jitter_stretch(task.name, index) * task.period
        if self.plan.drift is not None:
            gap *= 1.0 + self.plan.drift.rate
        return gap

    @property
    def is_periodic(self) -> bool:
        # Jitter/bursts/drift all make the timeline data-dependent;
        # policies must fall back to the pessimistic sporadic view.
        return False

    def describe(self) -> str:
        return f"{self.inner.describe()} + {self.plan.describe()}"
