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

import sys
from abc import ABC, abstractmethod
from itertools import repeat
from operator import is_
from typing import TYPE_CHECKING, Any, NamedTuple

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

#: What a compiled decide stands in for: the policy's methods, and the
#: analysis helpers its module imported.  Replacing any of them after
#: the class was defined (a monkeypatch, a tracer) keeps the Python path.
_DECIDE_HOOKS = ("bind", "reset", "select_speed", "on_release",
                 "on_completion", "observe_slack", "observe_decision",
                 "deferral_speed", "_advance_canonical", "_gc",
                 "utilization_estimate", "intensity", "_grow_streams",
                 "feasibility_floor", "_inflated_remaining")
_DECIDE_HELPERS = ("exact_slack", "heuristic_slack", "allotted_speed",
                   "stretch_speed")


def _hook_snapshot(cls: type) -> tuple:
    # map() over the names: this runs for every compiled run.
    module = vars(sys.modules.get(cls.__module__, sys))
    return (*map(getattr, repeat(cls), _DECIDE_HOOKS, repeat(None)),
            *map(module.get, _DECIDE_HELPERS))


class GovernorStage(NamedTuple):
    """The safety governor's feasibility floor, as a decide stage that
    runs after its inner policy's (DESIGN.md §13.4)."""

    #: The margin-inflated tasks, task order: each WCET is the task's
    #: budget.
    tasks: tuple
    #: The floor's exact-walk window cap in max periods (``None``: no
    #: cap).
    window_cap: float | None


class DecideSpec(NamedTuple):
    """What the compiled core needs to run a policy's speed decision.

    Set by :meth:`DvsPolicy.bind` of the policies the compiled core can
    decide for (DESIGN.md §13.4).  *owner* is the class whose hooks the
    decide mirrors: a subclass inherits the spec but not the decide.
    The safety governor's spec is its inner policy's, owned by the
    governor and carrying the governor's floor as its *stage*.
    """

    owner: type
    #: The registry name of the policy whose decide the core runs:
    #: ``"lpSTA"``, ``"lpSEH"``, ``"laEDF"``, ``"feedback"``, ``"DRA"``,
    #: ``"none"``, ``"static"``, ``"ccEDF"``, ``"lppsEDF"`` or
    #: ``"clairvoyant"``.
    kind: str
    #: Reference speed of the analysis (DRA: the canonical speed; none
    #: and static: the constant speed; lppsEDF: the static speed).
    baseline: float = 1.0
    #: The tasks in the reference time base (``None``: the task set's).
    tasks: tuple | None = None
    #: lpSTA's and clairvoyant's window cap in max periods (``None``:
    #: no cap).
    window_cap: float | None = None
    #: lpSTA: the greedy full-speed baseline; laEDF: the safety floor.
    option: bool = False
    #: feedback's PID gains ``(kp, ki, kd)``.
    gains: tuple[float, float, float] = (0.0, 0.0, 0.0)
    #: A stage after the decide: the governor's floor (``None``: none).
    stage: GovernorStage | None = None


class DecideState(NamedTuple):
    """The policy state a compiled decide leaves behind after a run."""

    analysis_calls: int
    #: feedback's one ``(prediction, integral, last_error)`` per task,
    #: task order (empty for the other kinds).
    pid: tuple
    canonical_now: float
    #: One ``(task index, job index, deadline, release, budget, done)``
    #: per alpha-queue entry, in queue order.
    alpha: tuple
    #: ccEDF's utilization estimate per task, task order (empty for the
    #: other kinds).
    util: tuple
    #: The governor stage's intervention and dispatch counts, and its
    #: largest clamp.
    interventions: int
    dispatches: int
    max_clamp: float


class DvsPolicy(ABC):
    """Base class for dynamic voltage scaling policies."""

    #: Registry/reporting identifier; subclasses override.
    name: str = "abstract"
    #: Set by ``bind`` when the compiled core can decide for the policy.
    decide_spec: DecideSpec | None = None

    def __init__(self) -> None:
        self.taskset: TaskSet | None = None
        self.processor: Processor | None = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._reference_hooks = _hook_snapshot(cls)

    def decides_unpatched(self) -> bool:
        """Whether the spec's owner and this instance still run the
        hooks the compiled decide mirrors."""
        spec = self.decide_spec
        if spec is None or type(self) is not spec.owner:
            return False
        return (all(map(is_, _hook_snapshot(spec.owner),
                        spec.owner._reference_hooks))
                and vars(self).keys().isdisjoint(_DECIDE_HOOKS))

    def absorb_decide_state(self, state: DecideState) -> None:
        """Take back the state a compiled decide ran on (see
        :class:`DecideState`); the policy then reads as if its own
        hooks had run."""

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
        instrumentation registry is on, so the disabled path never pays
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
