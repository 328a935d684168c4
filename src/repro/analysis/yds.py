"""YDS offline-optimal speed scheduling (Yao, Demers & Shenker 1995).

Given a *concrete* job set — releases, deadlines and (actual) work
known in advance — YDS computes the speed schedule minimising total
energy under any convex power function: repeatedly find the
**critical interval** ``[z1, z2]`` maximising the intensity
``g = (work of jobs entirely inside the interval) / (z2 - z1)``, run
those jobs at ``g``, remove them, collapse the interval, and recurse.

This module provides the optimal *energy* (and the peeled intensity
steps) as the absolute reference floor for the experiment figures: the
clairvoyant policy operates per-dispatch and cannot beat it.  It is a
bound on continuous speed scales only: speeds are clamped into the
processor's ``[min_speed, 1]`` range when pricing the schedule, but on a
discrete scale rounding an intensity up to the next level costs more
than mixing the two adjacent levels, so policies can spend less than
the priced "optimum" there; pricing on one is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cpu.processor import Processor
from repro.errors import ConfigurationError
from repro.tasks.execution import ExecutionModel
from repro.tasks.taskset import TaskSet
from repro.types import Energy, Time, Work


@dataclass(frozen=True)
class ConcreteJob:
    """One job instance with fully known parameters."""

    release: Time
    deadline: Time
    work: Work

    def __post_init__(self) -> None:
        if self.deadline <= self.release:
            raise ConfigurationError(
                f"deadline {self.deadline} must follow release "
                f"{self.release}")
        if self.work <= 0:
            raise ConfigurationError(f"work must be > 0, got {self.work}")


@dataclass(frozen=True)
class IntensityStep:
    """One peeled critical interval: run at *intensity* for *duration*."""

    intensity: float
    duration: Time
    work: Work


def jobs_from_taskset(taskset: TaskSet, execution_model: ExecutionModel,
                      horizon: Time) -> list[ConcreteJob]:
    """Materialise the concrete jobs a simulation horizon contains.

    Only jobs whose deadline falls inside the horizon are included —
    the same obligation set the simulator enforces.
    """
    jobs = []
    for task in taskset:
        index = 0
        while task.release_time(index) < horizon - 1e-9:
            deadline = task.absolute_deadline(index)
            if deadline <= horizon + 1e-9:
                jobs.append(ConcreteJob(
                    release=task.release_time(index),
                    deadline=deadline,
                    work=execution_model.work(task, index)))
            index += 1
    return jobs


def yds_schedule(jobs: Sequence[ConcreteJob]) -> list[IntensityStep]:
    """Peel critical intervals until every job is scheduled.

    Returns the intensity steps in peel order (non-increasing
    intensity).  O(n^2) per peel with vectorised interval scans; fine
    for the few hundred jobs a figure horizon contains.
    """
    releases = np.array([j.release for j in jobs], dtype=float)
    deadlines = np.array([j.deadline for j in jobs], dtype=float)
    works = np.array([j.work for j in jobs], dtype=float)
    steps: list[IntensityStep] = []

    while releases.size:
        z1_candidates = np.unique(releases)
        best_g = -1.0
        best_z1 = best_z2 = 0.0
        for z1 in z1_candidates:
            inside = releases >= z1 - 1e-12
            if not np.any(inside):
                continue
            ds = deadlines[inside]
            ws = works[inside]
            order = np.argsort(ds, kind="stable")
            ds = ds[order]
            ws = ws[order]
            cumulative = np.cumsum(ws)
            spans = ds - z1
            valid = spans > 1e-12
            if not np.any(valid):
                continue
            intensity = np.where(valid, cumulative / np.maximum(spans, 1e-300),
                                 -1.0)
            k = int(np.argmax(intensity))
            if intensity[k] > best_g + 1e-15:
                best_g = float(intensity[k])
                best_z1 = float(z1)
                best_z2 = float(ds[k])
        if best_g <= 0:
            raise ConfigurationError("no critical interval found")

        inside = ((releases >= best_z1 - 1e-12)
                  & (deadlines <= best_z2 + 1e-12))
        step_work = float(works[inside].sum())
        duration = best_z2 - best_z1
        steps.append(IntensityStep(intensity=best_g, duration=duration,
                                   work=step_work))
        # Remove the scheduled jobs and collapse the interval: jobs
        # overlapping it have the interval's span excised from their
        # windows (the classic YDS timeline compression).
        releases = releases[~inside]
        deadlines = deadlines[~inside]
        works = works[~inside]
        releases = np.where(releases >= best_z2, releases - duration,
                            np.minimum(releases, best_z1))
        deadlines = np.where(deadlines >= best_z2, deadlines - duration,
                             np.minimum(deadlines, best_z1))
    return steps


def yds_optimal_energy(taskset: TaskSet, execution_model: ExecutionModel,
                       processor: Processor, horizon: Time) -> Energy:
    """Energy of the YDS-optimal schedule, priced on *processor*.

    Intensities are clamped into the processor's continuous speed range.
    A processor with a discrete speed scale raises
    :class:`ConfigurationError`: quantizing each intensity up to a level
    is not a lower bound there (mixing two adjacent levels is cheaper).
    """
    if not processor.scale.is_continuous:
        raise ConfigurationError(
            f"YDS energy is a lower bound on continuous speed scales "
            f"only; {processor.name} has {processor.scale.describe()}")
    jobs = jobs_from_taskset(taskset, execution_model, horizon)
    if not jobs:
        return 0.0
    energy = 0.0
    for step in yds_schedule(jobs):
        speed = processor.quantize(min(1.0, step.intensity))
        # The step's work retires in work/speed wall time at `speed`.
        energy += processor.active_energy(speed, step.work / speed)
    return energy
