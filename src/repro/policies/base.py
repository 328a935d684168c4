"""DVS policy interface.

A policy decides, at every dispatch point, what speed the processor
should run the chosen job at.  It sees only information that is
available online — remaining *worst-case* budgets, deadlines, release
times — never a job's actual demand (the clairvoyant oracle being the
explicitly marked exception).

Lifecycle: ``bind`` once per run, then any interleaving of
``on_release`` / ``on_completion`` notifications and ``select_speed``
queries.  Policies must be reusable: ``bind`` fully resets state so one
policy instance can serve many runs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.cpu.processor import Processor
from repro.tasks.job import Job
from repro.tasks.taskset import TaskSet
from repro.telemetry import TELEMETRY as _TELEMETRY
from repro.types import Speed

#: Bucket edges for speed-decision histograms: speeds live in (0, 1].
SPEED_BOUNDS: tuple[float, ...] = (
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

if TYPE_CHECKING:
    from repro.sim.engine import SimContext


class DvsPolicy(ABC):
    """Base class for dynamic voltage scaling policies."""

    #: Registry/reporting identifier; subclasses override.
    name: str = "abstract"

    def __init__(self) -> None:
        self.taskset: TaskSet | None = None
        self.processor: Processor | None = None

    def bind(self, taskset: TaskSet, processor: Processor) -> None:
        """Attach to a run; resets all per-run state."""
        self.taskset = taskset
        self.processor = processor
        self.reset()

    def reset(self) -> None:
        """Clear per-run state; called by :meth:`bind`."""

    def on_release(self, job: Job, ctx: "SimContext") -> None:
        """Notification: *job* was just released."""

    def on_completion(self, job: Job, ctx: "SimContext") -> None:
        """Notification: *job* just completed."""

    @abstractmethod
    def select_speed(self, job: Job, ctx: "SimContext") -> Speed:
        """Desired speed for dispatching *job* now (pre-quantization).

        The engine quantizes the returned value *up* to an attainable
        level, so policies may return ideal continuous speeds.
        """

    def observe_decision(self, desired: Speed) -> None:
        """Record one speed decision into telemetry.

        Invoked by the engine at every dispatch — but only when the
        telemetry registry is enabled, so the disabled path never pays
        the call.  Wrappers inherit this; the counter is keyed by the
        (wrapped) policy's reporting name.
        """
        tele = _TELEMETRY
        if not tele.enabled:
            return
        tele.inc(f"policy.{self.name}.decisions")
        tele.observe(f"policy.{self.name}.speed", desired,
                     bounds=SPEED_BOUNDS)

    def observe_slack(self, slack: float) -> None:
        """Record one slack estimate into telemetry (analysis policies)."""
        tele = _TELEMETRY
        if tele.enabled:
            tele.observe(f"policy.{self.name}.slack", slack)

    def metrics(self) -> dict[str, float]:
        """Per-run policy-internal counters, folded into the result.

        The engine copies this into ``SimulationResult.policy_metrics``
        after every run, so wrappers (e.g. the safety governor) can
        report intervention counts without a side channel.
        """
        return {}

    @property
    def min_speed(self) -> Speed:
        """The bound processor's lowest speed (1.0 before binding)."""
        if self.processor is None:
            return 1.0
        return self.processor.min_speed

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        return self.name
