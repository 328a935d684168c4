"""Schedule trace recording.

A trace is a gap-free sequence of segments covering ``[0, horizon]``:
every instant is either running one job at one speed, idling, or inside
a speed transition.  Traces back the schedule auditor
(:mod:`repro.analysis.audit`), the examples' Gantt rendering, and
several tests; recording can be disabled for large sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from repro.errors import SimulationError
from repro.types import SPEED_EPS, TIME_EPS, Energy, Speed, Time


class SegmentKind(Enum):
    """What the processor was doing during a segment."""

    RUN = "run"
    IDLE = "idle"
    SWITCH = "switch"
    SLEEP = "sleep"


@dataclass(frozen=True, slots=True)
class TraceNote:
    """A zero-duration annotation pinned to one instant of the trace.

    Notes carry events that are not processor activity — governor
    interventions, injected transition faults, detected overruns — so
    they live beside the segment sequence rather than inside it and do
    not participate in the gap-free-coverage invariant.
    """

    time: Time
    kind: str
    detail: str


@dataclass(frozen=True)
class Segment:
    """One homogeneous stretch of processor activity."""

    start: Time
    end: Time
    kind: SegmentKind
    speed: Speed
    energy: Energy
    job: str | None = None
    task: str | None = None

    @property
    def duration(self) -> Time:
        return self.end - self.start

    def __post_init__(self) -> None:
        if self.end < self.start - SPEED_EPS:
            raise SimulationError(
                f"segment ends before it starts: [{self.start}, {self.end}]")


class TraceRecorder:
    """Collects segments; merges adjacent identical ones.

    ``enabled`` gates only the *segment* stream — the part whose cost
    scales with the schedule length.  Notes are always buffered: they
    record audit-critical events (governor interventions, injected
    faults, overruns, deadline misses), and disabling tracing for a
    large sweep must not silently drop them (they surface on
    :attr:`repro.sim.results.SimulationResult.notes` either way).
    Under faults they are many: one full EXP-FM1 writes 92,400 overrun,
    30,790 deadline-miss and 21,646 governor notes.  After a compiled
    run, ``_notes`` holds only the notes Python code added (``ctx.note``)
    and ``_records`` the core's own, compact; the first read merges them
    in write order and keeps the list (DESIGN.md §13.1).
    """

    #: The compiled core's records, until a read builds their notes.
    _records = None

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._segments: list[Segment] = []
        self._notes: list[TraceNote] = []

    def __getstate__(self) -> dict:
        self._note_list()
        return self.__dict__

    def _note_list(self) -> list[TraceNote]:
        """Every note in order, the compiled core's built on first read."""
        records = self._records
        if records is not None:
            self._notes = records.notes(self._notes)
            del self._records
        return self._notes

    def __len__(self) -> int:
        return len(self._segments)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self._segments)

    @property
    def segments(self) -> tuple[Segment, ...]:
        return tuple(self._segments)

    @property
    def notes(self) -> tuple[TraceNote, ...]:
        return tuple(self._note_list())

    def note(self, time: Time, kind: str, detail: str) -> None:
        """Record an instantaneous annotation (kept even when disabled)."""
        self._notes.append(TraceNote(time=time, kind=kind, detail=detail))

    def notes_of_kind(self, kind: str) -> tuple[TraceNote, ...]:
        return tuple(n for n in self._note_list() if n.kind == kind)

    def record(self, segment: Segment) -> None:
        """Append a segment (no-op when disabled; merges contiguous twins)."""
        if not self.enabled:
            return
        if segment.duration <= 0:
            return
        if self._segments:
            last = self._segments[-1]
            if segment.start < last.end - TIME_EPS:
                raise SimulationError(
                    f"overlapping segments: previous ends at {last.end}, "
                    f"new starts at {segment.start}")
            if (segment.kind == last.kind and segment.job == last.job
                    and abs(segment.speed - last.speed) < SPEED_EPS
                    and abs(segment.start - last.end) < TIME_EPS):
                merged = Segment(
                    start=last.start, end=segment.end, kind=last.kind,
                    speed=last.speed, energy=last.energy + segment.energy,
                    job=last.job, task=last.task)
                self._segments[-1] = merged
                return
        self._segments.append(segment)

    def run(self, start: Time, end: Time, job: str, task: str,
            speed: Speed, energy: Energy) -> None:
        """Record a job-execution segment."""
        self.record(Segment(start=start, end=end, kind=SegmentKind.RUN,
                            speed=speed, energy=energy, job=job, task=task))

    def idle(self, start: Time, end: Time, energy: Energy) -> None:
        """Record an idle segment."""
        self.record(Segment(start=start, end=end, kind=SegmentKind.IDLE,
                            speed=0.0, energy=energy))

    def switch(self, start: Time, end: Time, energy: Energy,
               to_speed: Speed) -> None:
        """Record a speed-transition segment."""
        self.record(Segment(start=start, end=end, kind=SegmentKind.SWITCH,
                            speed=to_speed, energy=energy))

    def sleep(self, start: Time, end: Time, energy: Energy) -> None:
        """Record a sleep episode (incl. its wake-up window)."""
        self.record(Segment(start=start, end=end, kind=SegmentKind.SLEEP,
                            speed=0.0, energy=energy))

    def total_energy(self) -> Energy:
        return sum(s.energy for s in self._segments)

    def busy_time(self) -> Time:
        return sum(s.duration for s in self._segments
                   if s.kind == SegmentKind.RUN)

    def idle_time(self) -> Time:
        return sum(s.duration for s in self._segments
                   if s.kind == SegmentKind.IDLE)

    def executed_work(self, job: str | None = None) -> float:
        """Work retired (speed x duration), optionally for one job."""
        return sum(s.duration * s.speed for s in self._segments
                   if s.kind == SegmentKind.RUN
                   and (job is None or s.job == job))

    def render_gantt(self, width: int = 80, end: Time | None = None) -> str:
        """A coarse ASCII Gantt strip (one char per time bucket).

        One merge-walk over the (sorted) segment list: bucket midpoints
        and segments advance together, so rendering is O(width +
        segments) instead of rescanning the whole list per bucket.
        Buckets outside every segment — beyond the end of the trace, or
        inside a genuine recording gap — render as ``_``, distinct from
        ``.`` which marks *recorded* idle time.
        """
        if not self._segments:
            return "(empty trace)"
        horizon = end if end is not None else self._segments[-1].end
        if horizon <= 0:
            return "(empty trace)"
        bucket = horizon / width
        segments = self._segments
        chars = []
        cursor = 0
        for i in range(width):
            t_mid = (i + 0.5) * bucket
            while cursor < len(segments) and segments[cursor].end <= t_mid:
                cursor += 1
            if cursor >= len(segments) or segments[cursor].start > t_mid:
                chars.append("_")  # unrecorded: past the trace, or a gap
                continue
            seg = segments[cursor]
            if seg.kind == SegmentKind.IDLE:
                chars.append(".")
            elif seg.kind == SegmentKind.SWITCH:
                chars.append("|")
            elif seg.kind == SegmentKind.SLEEP:
                chars.append("z")
            else:
                chars.append((seg.task or "?")[0].upper())
        return "".join(chars)
