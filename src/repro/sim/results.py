"""Simulation outcome containers."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import mul

from repro.errors import ConfigurationError
from repro.sim.tracing import TraceNote, TraceRecorder
from repro.types import Energy, Time


@dataclass
class TaskStats:
    """Per-task aggregates accumulated during a run."""

    released: int = 0
    completed: int = 0
    missed: int = 0
    total_executed: float = 0.0
    total_response: float = 0.0
    max_response: float = 0.0
    preemptions: int = 0

    @property
    def mean_response(self) -> float:
        """Mean response time over completed jobs (0 when none)."""
        if self.completed == 0:
            return 0.0
        return self.total_response / self.completed


@dataclass(slots=True)
class DeadlineMiss:
    """Record of one missed deadline (only with ``allow_misses``)."""

    job: str
    task: str
    deadline: Time
    detected_at: Time


#: The fields :meth:`SimulationResult._defer` leaves to their first read.
_DEFERRED = frozenset({"deadline_misses", "speed_time", "notes"})


@dataclass
class SimulationResult:
    """Everything a run produced.

    Energies decompose exactly: ``total_energy = busy_energy +
    idle_energy + switch_energy + sleep_energy``.

    A compiled run leaves ``deadline_misses``, ``speed_time`` and
    ``notes`` compact in the core's store (DESIGN.md §13.1): each is
    built on its first read and kept, and :attr:`miss_count` and
    :meth:`mean_speed` read the store without building them.  Equality,
    ``dataclasses.replace``, ``copy`` and pickling read every field, so
    they see what the interpreted engine would have built.
    """

    policy: str
    horizon: Time
    busy_energy: Energy = 0.0
    idle_energy: Energy = 0.0
    switch_energy: Energy = 0.0
    sleep_energy: Energy = 0.0
    switch_count: int = 0
    sleep_episodes: int = 0
    busy_time: Time = 0.0
    idle_time: Time = 0.0
    switch_time: Time = 0.0
    sleep_time: Time = 0.0
    jobs_released: int = 0
    jobs_completed: int = 0
    dispatches: int = 0
    idle_episodes: int = 0
    overrun_jobs: int = 0
    transition_faults: int = 0
    deadline_misses: list[DeadlineMiss] = field(default_factory=list)
    task_stats: dict[str, TaskStats] = field(default_factory=dict)
    speed_time: dict[float, Time] = field(default_factory=dict)
    policy_metrics: dict[str, float] = field(default_factory=dict)
    trace: TraceRecorder | None = None
    #: Zero-duration annotations (governor interventions, injected
    #: faults, overruns) — captured even when full segment tracing is
    #: disabled, so large sweeps keep their audit trail.  (A factory,
    #: not a class default: a deferred field must be missing from the
    #: instance and the class alike for ``__getattr__`` to build it.)
    notes: tuple[TraceNote, ...] = field(default_factory=tuple)
    #: (Not a field.)  After a compiled run, its store and recorder.
    _deferred = None

    @property
    def total_energy(self) -> Energy:
        return (self.busy_energy + self.idle_energy + self.switch_energy
                + self.sleep_energy)

    @property
    def missed(self) -> bool:
        return self.miss_count > 0

    @property
    def miss_count(self) -> int:
        """``len(deadline_misses)``, without building the records."""
        deferred = self._deferred
        if deferred is None or "deadline_misses" in self.__dict__:
            return len(self.deadline_misses)
        return deferred[0].miss_count

    def _defer(self, records, trace: TraceRecorder, *, notes: bool) -> None:
        """Leave a compiled run's records in *records* until read; with
        *notes*, ``notes`` too: the *trace*'s notes when the run ended."""
        del self.deadline_misses, self.speed_time
        if notes:
            del self.notes
        self._deferred = (records, trace)

    def __getattr__(self, name: str):
        # Reached only for an attribute missing from the instance: one
        # of the fields a compiled run deferred (see _defer).
        deferred = self._deferred
        if deferred is None or name not in _DEFERRED:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        records, trace = deferred
        if name == "deadline_misses":
            value = records.misses()
        elif name == "speed_time":
            value = records.speed_time()
        else:
            value = tuple(trace._note_list()[:records.note_count])
        setattr(self, name, value)
        return value

    def __getstate__(self) -> dict:
        # Pickle and copy see the fields an interpreted run would hold,
        # in their order; the store itself is not kept.
        if self._deferred is None:
            return self.__dict__
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        state.update((key, value) for key, value in self.__dict__.items()
                     if key != "_deferred")
        return state

    def notes_of_kind(self, kind: str) -> tuple[TraceNote, ...]:
        """The buffered annotations of one kind (e.g. ``"governor"``)."""
        return tuple(n for n in self.notes if n.kind == kind)

    def energy_ledger(self):
        """Per-task/per-job energy attribution for this traced run.

        Requires ``record_trace=True``; see
        :class:`repro.trace.ledger.EnergyLedger`.
        """
        from repro.trace.ledger import EnergyLedger

        return EnergyLedger.from_result(self)

    def normalized_energy(self, baseline: "SimulationResult") -> float:
        """This run's energy relative to *baseline* (same workload)."""
        if abs(self.horizon - baseline.horizon) > 1e-6 * max(1.0, self.horizon):
            raise ConfigurationError(
                f"cannot normalise across different horizons "
                f"({self.horizon} vs {baseline.horizon})")
        if baseline.total_energy <= 0:
            raise ConfigurationError("baseline energy is zero")
        return self.total_energy / baseline.total_energy

    def mean_speed(self) -> float:
        """Time-weighted average execution speed while busy."""
        if self.busy_time <= 0:
            return 0.0
        if self._deferred is None or "speed_time" in self.__dict__:
            weighted = sum(s * t for s, t in self.speed_time.items())
        else:
            # The same products summed in the same order, read from the
            # store without building the dict.
            keys, durations = self._deferred[0].speed_columns()
            weighted = sum(map(mul, memoryview(keys).cast("d"),
                               memoryview(durations).cast("d")))
        return weighted / self.busy_time

    def summary(self) -> str:
        """One human-readable paragraph of the run's outcome."""
        lines = [
            f"policy={self.policy} horizon={self.horizon:g}",
            f"  energy: total={self.total_energy:.6g} "
            f"(busy={self.busy_energy:.6g}, idle={self.idle_energy:.6g}, "
            f"switch={self.switch_energy:.6g}, "
            f"sleep={self.sleep_energy:.6g})",
            f"  time: busy={self.busy_time:.6g}, idle={self.idle_time:.6g}, "
            f"switch={self.switch_time:.6g}, sleep={self.sleep_time:.6g}",
            f"  jobs: released={self.jobs_released}, "
            f"completed={self.jobs_completed}, "
            f"misses={self.miss_count}",
            f"  switches={self.switch_count}, "
            f"mean busy speed={self.mean_speed():.4f}",
        ]
        if self.overrun_jobs or self.transition_faults:
            lines.append(f"  faults: overrun_jobs={self.overrun_jobs}, "
                         f"transition_faults={self.transition_faults}")
        if self.policy_metrics:
            rendered = ", ".join(f"{k}={v:g}"
                                 for k, v in sorted(self.policy_metrics.items()))
            lines.append(f"  policy metrics: {rendered}")
        return "\n".join(lines)
