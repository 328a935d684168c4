"""Partitioned multiprocessor DVS-EDF.

The standard way the uniprocessor DVS results extend to multicore:
**partition** the task set onto ``m`` identical cores (each task runs
all its jobs on one core), then run an independent DVS-EDF instance per
core.  No migration, no global queue — every uniprocessor guarantee in
this library transfers verbatim to each partition, and the per-core
slack analyses remain exact.

Partitioning heuristics (bin packing by worst-case utilization):

* ``first_fit_decreasing`` — the classic FFD; tight packings that
  leave later cores lightly loaded or empty;
* ``worst_fit_decreasing`` — load balancing; spreads utilization
  evenly, which convex power rewards (running ``m`` cores at ``U/m``
  beats one core at ``U``) — the effect EXP-F12 measures.

Energy accounting sums the per-core results; idle cores pay their idle
power for the whole horizon (they exist whether or not they get work).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cpu.processor import Processor
from repro.errors import ConfigurationError, InfeasibleTaskSetError
from repro.policies.base import DvsPolicy
from repro.sim.engine import simulate
from repro.sim.results import SimulationResult
from repro.tasks.execution import ExecutionModel
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet
from repro.types import Energy, Time


def first_fit_decreasing(taskset: TaskSet, cores: int) -> list[list[PeriodicTask]]:
    """FFD partitioning by utilization; raises when the set won't fit."""
    return _pack(taskset, cores, choose=_first_fit)


def worst_fit_decreasing(taskset: TaskSet, cores: int) -> list[list[PeriodicTask]]:
    """WFD (load-balancing) partitioning by utilization."""
    return _pack(taskset, cores, choose=_worst_fit)


def _first_fit(loads: list[float], utilization: float) -> int | None:
    for i, load in enumerate(loads):
        if load + utilization <= 1.0 + 1e-9:
            return i
    return None


def _worst_fit(loads: list[float], utilization: float) -> int | None:
    best = None
    for i, load in enumerate(loads):
        if load + utilization <= 1.0 + 1e-9:
            if best is None or load < loads[best]:
                best = i
    return best


def _pack(taskset: TaskSet, cores: int,
          choose: Callable[[list[float], float], int | None],
          ) -> list[list[PeriodicTask]]:
    if cores < 1:
        raise ConfigurationError(f"need >= 1 core, got {cores}")
    ordered = sorted(taskset, key=lambda t: t.utilization, reverse=True)
    bins: list[list[PeriodicTask]] = [[] for _ in range(cores)]
    loads = [0.0] * cores
    for task in ordered:
        index = choose(loads, task.utilization)
        if index is None:
            raise InfeasibleTaskSetError(
                f"task {task.name!r} (u={task.utilization:.3f}) does not "
                f"fit on any of {cores} cores (loads={loads})")
        bins[index].append(task)
        loads[index] += task.utilization
    return bins


@dataclass
class MulticoreResult:
    """Aggregated outcome of a partitioned run."""

    per_core: list[SimulationResult | None]
    partitions: list[list[str]]
    horizon: Time
    idle_core_energy: Energy = 0.0

    @property
    def total_energy(self) -> Energy:
        return self.idle_core_energy + sum(
            r.total_energy for r in self.per_core if r is not None)

    @property
    def missed(self) -> bool:
        return any(r.missed for r in self.per_core if r is not None)

    @property
    def deadline_miss_count(self) -> int:
        return sum(r.miss_count for r in self.per_core if r is not None)

    def normalized_energy(self, baseline: "MulticoreResult") -> float:
        if baseline.total_energy <= 0:
            raise ConfigurationError("baseline energy is zero")
        return self.total_energy / baseline.total_energy

    def core_loads(self, taskset: TaskSet) -> list[float]:
        """Worst-case utilization packed onto each core."""
        return [sum(taskset[name].utilization for name in names)
                for names in self.partitions]


def simulate_partitioned(
    taskset: TaskSet,
    cores: int,
    processor_factory: Callable[[], Processor],
    policy_factory: Callable[[], DvsPolicy],
    execution_model: ExecutionModel,
    *,
    horizon: Time,
    partition: Callable[[TaskSet, int],
                        list[list[PeriodicTask]]] = worst_fit_decreasing,
    **simulate_kwargs,
) -> MulticoreResult:
    """Partition *taskset* onto *cores* and simulate each independently.

    Fresh processor and policy instances are created per core (policies
    are stateful).  Empty cores contribute ``idle_power * horizon``.
    Extra keyword arguments are forwarded to each per-core
    :func:`repro.sim.engine.simulate` call.
    """
    bins = partition(taskset, cores)
    per_core: list[SimulationResult | None] = []
    idle_energy = 0.0
    for tasks in bins:
        if not tasks:
            idle_energy += processor_factory().idle_energy(horizon)
            per_core.append(None)
            continue
        subset = TaskSet(tasks)
        result = simulate(subset, processor_factory(), policy_factory(),
                          execution_model, horizon=horizon,
                          **simulate_kwargs)
        per_core.append(result)
    return MulticoreResult(
        per_core=per_core,
        partitions=[[t.name for t in tasks] for tasks in bins],
        horizon=horizon,
        idle_core_energy=idle_energy)
