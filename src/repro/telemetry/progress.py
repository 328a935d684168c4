"""Live sweep progress: the event log's narration, read back.

Run manifests, Chrome traces and the energy ledger are written
*after* a run completes; the event log ``events.jsonl``
(:mod:`repro.telemetry.core`) narrates a sweep *while* it runs, and
the reader/snapshot side here is what ``repro watch`` and ``repro
stats --follow`` render.

Writing
    ``sweep()`` writes its events to ``<run dir>/events.jsonl`` whenever
    it has a run directory: through the sink the CLI configured when
    telemetry is on, else through a sink it opens for its own length.
    Every fact is emitted once, through
    :meth:`~repro.telemetry.core.Telemetry.emit`, by the parent only
    (a :class:`~repro.telemetry.core.JsonlSink` is pinned to the pid
    that opened it), which is what makes the serial and parallel logs
    *equivalent*: the same ``unit.done``/``cell.done`` event sets and
    the same terminal summary, regardless of worker count (pinned by
    ``tests/test_progress.py``).  Between ``sweep.start`` and
    ``sweep.done`` a :class:`Heartbeat` thread writes pid-liveness
    ``heartbeat`` events every ``DEFAULT_HEARTBEAT_INTERVAL`` seconds,
    so a watcher can tell "long unit still computing" from "writer
    process is gone" even while the parent blocks in a pool wait.
    Threads do not survive ``fork``, so workers never beat.

Narrated kinds (:data:`EVENT_KINDS`, schema :data:`PROGRESS_SCHEMA`)
    ``sweep.start`` (totals, workers, schema), ``unit.start`` (units
    computed in the sweep's own process: the serial driver and inline
    chunks — forked dispatch is marked at chunk granularity by
    ``chunk.dispatch``), ``unit.done`` (status ``computed`` / ``cached``
    / ``quarantined``), ``unit.retry``, ``cell.done``, ``cell.resumed``
    (checkpoint-resumed cells), ``chunk.dispatch``, ``heartbeat``
    (``pids`` and ``alive``), ``resilience.*`` supervision facts
    (worker crash, watchdog kill, escalation step, pool rebuild,
    quarantine, drain), and a terminal ``sweep.done`` carrying the
    summary the run manifest's ``progress`` block repeats verbatim.
    The log's other kinds (``span``, ``parallel.chunk``,
    ``simulation``, ...) are skipped.

Reader (:func:`read_progress` → :class:`ProgressSnapshot`)
    Re-reads the whole file (sweep events are per unit, cell and chunk,
    not per engine step).  One log can hold several sweeps (``run
    all``, a ``--resume``, a second process appending), so the reader
    judges the **newest** ``sweep.start`` segment.  Torn or corrupt
    lines are skipped and counted — in the snapshot and in the
    ``progress.corrupt`` telemetry counter — and the snapshot carries
    live throughput, an ETA, per-cell progress, cache-hit counts,
    recent failures and a stall verdict (no events beyond the stall
    budget, or the writer pid is dead while the sweep is unfinished).
    :meth:`ProgressSnapshot.to_payload` is the exact JSON ``repro
    watch --json`` prints.

Like the telemetry core, this module imports only
:mod:`repro.telemetry.core` and :mod:`repro.errors`.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.errors import ExperimentError
from repro.telemetry.core import EVENTS_FILENAME, TELEMETRY, read_events

#: Bumped when the narrated layout changes; readers refuse newer logs.
#: 2: heartbeats carry only ``pids`` and ``alive``; the narration is
#:    read from the event log, ``events.jsonl``.
PROGRESS_SCHEMA = 2

#: Default seconds between heartbeat events.
DEFAULT_HEARTBEAT_INTERVAL = 2.0

#: Default reader-side stall budget (seconds without any event).
DEFAULT_STALL_AFTER = 10.0

#: Every kind the reader narrates; the log's other kinds are skipped.
EVENT_KINDS = frozenset({
    "sweep.start", "sweep.done",
    "unit.start", "unit.done", "unit.retry",
    "cell.done", "cell.resumed",
    "chunk.dispatch", "heartbeat",
    "resilience.worker_crash", "resilience.watchdog_kill",
    "resilience.escalation", "resilience.pool_rebuild",
    "resilience.quarantine", "resilience.drain",
})

#: ``unit.done`` statuses (``resumed`` units are declared at cell
#: granularity by ``cell.resumed`` instead — their per-unit work
#: happened in an earlier run).
UNIT_STATUSES = ("computed", "cached", "quarantined")


def _alive(pid: int) -> bool:
    """Whether *pid* is a live process we may signal-probe."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return False
    return True


class Heartbeat:
    """A daemon thread emitting ``heartbeat`` events until :meth:`stop`.

    Every *interval* seconds it probes the pids :attr:`pids` names
    (default: this process) and emits them with the live ones, through
    the registry's one event log.
    """

    def __init__(self, interval: float) -> None:
        self.interval = interval
        #: Replaceable: which pids a beat probes.  A sweep points this
        #: at the live pool while it dispatches.
        self.pids: Callable[[], list[int]] | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="repro-progress-heartbeat")
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                pids = (list(self.pids()) if self.pids is not None
                        else [os.getpid()])
            except Exception:  # pragma: no cover - racing pool teardown
                pids = [os.getpid()]
            TELEMETRY.emit("heartbeat", pids=pids,
                           alive=[pid for pid in pids if _alive(pid)])

    def stop(self) -> None:
        """Stop beating; no beat is written after this returns."""
        self._stop.set()
        self._thread.join(timeout=1.0)


# -- the read side -----------------------------------------------------


@dataclass
class CellProgress:
    """Per-cell completion state derived from the log."""

    index: int
    x: float | None = None
    total: int = 0
    done: int = 0
    quarantined: int = 0
    resumed: bool = False

    def to_payload(self) -> dict:
        return {"index": self.index, "x": self.x, "total": self.total,
                "done": self.done, "quarantined": self.quarantined,
                "resumed": self.resumed}


@dataclass
class ProgressSnapshot:
    """Everything a watcher needs, one read.

    Derived purely from the event log — no live process contact
    beyond the pid liveness probes — so it works identically attached
    to a running sweep, a finished one, or an abandoned one.
    """

    path: str
    schema: int = PROGRESS_SCHEMA
    status: str = "running"          # running | completed | failed |
                                     # interrupted | stalled (derived)
    finished: bool = False
    workload_id: str | None = None
    workers: int = 1
    writer_pid: int | None = None
    started: float | None = None     # ts of sweep.start
    updated: float | None = None     # ts of the newest event
    cells: int = 0
    seeds: int = 0
    units: int = 0
    computed: int = 0
    cached: int = 0
    resumed: int = 0
    quarantined: int = 0
    cells_done: int = 0
    retries: int = 0
    corrupt_lines: int = 0
    error: str | None = None
    throughput: float | None = None  # units/s, recent window
    eta_s: float | None = None
    stalled: bool = False
    idle_s: float | None = None      # seconds since the last event
    heartbeat_pids: list[int] = field(default_factory=list)
    heartbeat_alive: list[int] = field(default_factory=list)
    recent_failures: list[dict] = field(default_factory=list)
    resilience: dict[str, int] = field(default_factory=dict)
    per_cell: list[CellProgress] = field(default_factory=list)

    @property
    def done(self) -> int:
        return (self.computed + self.cached + self.resumed
                + self.quarantined)

    def summary(self) -> dict:
        """The sweep's terminal-summary projection, for the
        manifest-vs-snapshot equality the CI gate enforces."""
        return {
            "units": self.units,
            "done": self.done,
            "computed": self.computed,
            "cached": self.cached,
            "resumed": self.resumed,
            "quarantined": self.quarantined,
            "cells": self.cells,
            "cells_done": self.cells_done,
            "stream": self.path,
        }

    def to_payload(self) -> dict:
        """The ``repro watch --json`` payload."""
        return {
            "kind": "progress-snapshot",
            "schema": self.schema,
            "path": self.path,
            "status": self.status,
            "finished": self.finished,
            "stalled": self.stalled,
            "workload_id": self.workload_id,
            "workers": self.workers,
            "writer_pid": self.writer_pid,
            "started": self.started,
            "updated": self.updated,
            "idle_s": self.idle_s,
            "cells": self.cells,
            "seeds": self.seeds,
            "units": self.units,
            "done": self.done,
            "computed": self.computed,
            "cached": self.cached,
            "resumed": self.resumed,
            "quarantined": self.quarantined,
            "cells_done": self.cells_done,
            "retries": self.retries,
            "corrupt_lines": self.corrupt_lines,
            "error": self.error,
            "throughput_units_per_s": self.throughput,
            "eta_s": self.eta_s,
            "heartbeat_pids": self.heartbeat_pids,
            "heartbeat_alive": self.heartbeat_alive,
            "recent_failures": self.recent_failures,
            "resilience": self.resilience,
            "per_cell": [cell.to_payload() for cell in self.per_cell],
        }


def progress_path(target: str | Path) -> Path:
    """Resolve a file-or-directory *target* to its event log path."""
    target = Path(target)
    if target.is_dir():
        return target / EVENTS_FILENAME
    return target


def _newest_sweep(path: Path) -> tuple[list[dict], int]:
    """The newest ``sweep.start`` segment of the log at *path* and the
    number of lines skipped inside it; ``([], skipped)`` when the log
    holds no ``sweep.start``."""
    events, skipped = read_events(path)
    starts = [i for i, event in enumerate(events)
              if event["kind"] == "sweep.start"]
    if not starts:
        return [], len(skipped)
    first = starts[-1]
    return events[first:], sum(1 for pos in skipped if pos > first)


#: How many trailing unit completions the throughput window uses.
_RATE_WINDOW = 25

#: How many failure-ish events the snapshot keeps for display.
_RECENT_FAILURES = 5


def read_progress(target: str | Path, *, now: float | None = None,
                  stall_after: float | None = None) -> ProgressSnapshot:
    """Narrate the newest sweep of an event log as one snapshot.

    Torn or corrupt lines (a watcher can race the writer mid-line; a
    crash can tear the tail) are *skipped and counted* — in
    ``corrupt_lines`` and in the ``progress.corrupt`` telemetry
    counter — never fatal; kinds outside :data:`EVENT_KINDS` are
    skipped.  A log with no readable ``sweep.start``, or whose newest
    sweep has a schema newer than this build, raises
    :class:`~repro.errors.ExperimentError` instead of narrating
    garbage.
    """
    path = progress_path(target)
    try:
        events, corrupt = _newest_sweep(path)
    except OSError as exc:
        raise ExperimentError(f"no event log at {path}: {exc}") from exc
    if not events:
        raise ExperimentError(
            f"event log {path} has no readable sweep.start event "
            f"({corrupt} corrupt line(s))")

    start = events[0]
    schema = int(start.get("schema", -1))
    if schema > PROGRESS_SCHEMA:
        raise ExperimentError(
            f"event log {path} has progress schema {schema}, newer "
            f"than this build understands ({PROGRESS_SCHEMA})")
    snap = ProgressSnapshot(
        path=str(path), schema=schema, started=float(start["ts"]),
        updated=float(start["ts"]), cells=int(start.get("cells", 0)),
        seeds=int(start.get("seeds", 0)),
        units=int(start.get("units", 0)),
        workers=int(start.get("workers", 1)),
        workload_id=start.get("workload_id"),
        writer_pid=start.get("pid"))
    hb_interval = start.get("heartbeat_interval")
    done_ts: list[float] = []
    failures: list[dict] = []
    cells: dict[int, CellProgress] = {}

    def cell(index: int) -> CellProgress:
        entry = cells.get(index)
        if entry is None:
            entry = cells[index] = CellProgress(index=index,
                                                total=snap.seeds)
        return entry

    for event in events[1:]:
        kind = event["kind"]
        if kind not in EVENT_KINDS:
            continue
        ts = float(event["ts"])
        snap.updated = ts
        if kind == "unit.done":
            status = event.get("status")
            if status == "computed":
                snap.computed += 1
            elif status == "cached":
                snap.cached += 1
            elif status == "quarantined":
                snap.quarantined += 1
                failures.append({"ts": ts, "kind": kind,
                                 "index": event.get("index"),
                                 "x": event.get("x"),
                                 "seed": event.get("seed"),
                                 "error_type": event.get("error_type"),
                                 "classification":
                                     event.get("classification")})
            entry = cell(int(event.get("index", -1)))
            entry.x = event.get("x", entry.x)
            entry.done += 1
            if status == "quarantined":
                entry.quarantined += 1
            done_ts.append(ts)
        elif kind == "unit.retry":
            snap.retries += 1
            failures.append({"ts": ts, "kind": kind,
                             "index": event.get("index"),
                             "x": event.get("x"),
                             "seed": event.get("seed"),
                             "attempt": event.get("attempt"),
                             "error_type": event.get("error_type")})
        elif kind == "cell.done":
            snap.cells_done += 1
            entry = cell(int(event.get("index", -1)))
            entry.x = event.get("x", entry.x)
        elif kind == "cell.resumed":
            seeds = int(event.get("seeds", snap.seeds))
            snap.resumed += seeds
            snap.cells_done += 1
            entry = cell(int(event.get("index", -1)))
            entry.x = event.get("x", entry.x)
            entry.done += seeds
            entry.resumed = True
            done_ts.append(ts)
        elif kind == "heartbeat":
            snap.heartbeat_pids = list(event.get("pids", []))
            snap.heartbeat_alive = list(event.get("alive", []))
        elif kind == "sweep.done":
            snap.finished = True
            snap.status = str(event.get("status", "completed"))
            snap.error = event.get("error")
        elif kind.startswith("resilience."):
            name = kind.split(".", 1)[1]
            snap.resilience[name] = snap.resilience.get(name, 0) + 1
            if name in ("worker_crash", "watchdog_kill", "quarantine"):
                failures.append({"ts": ts, "kind": kind,
                                 **{k: v for k, v in event.items()
                                    if k not in ("seq", "ts", "kind")}})

    snap.corrupt_lines = corrupt
    if corrupt:
        TELEMETRY.inc("progress.corrupt", corrupt)
    snap.recent_failures = failures[-_RECENT_FAILURES:]
    for index in sorted(cells):
        entry = cells[index]
        entry.total = snap.seeds
        snap.per_cell.append(entry)

    # -- derived: throughput, ETA, stall -------------------------------
    window = done_ts[-_RATE_WINDOW:]
    if len(window) >= 2 and window[-1] > window[0]:
        snap.throughput = (len(window) - 1) / (window[-1] - window[0])
    elif (snap.done and snap.started is not None
            and snap.updated is not None
            and snap.updated > snap.started):
        snap.throughput = snap.done / (snap.updated - snap.started)
    remaining = max(0, snap.units - snap.done)
    if snap.finished:
        snap.eta_s = 0.0
    elif snap.throughput:
        snap.eta_s = remaining / snap.throughput

    now = time.time() if now is None else now
    if snap.updated is not None:
        snap.idle_s = max(0.0, now - snap.updated)
    if not snap.finished:
        if stall_after is None:
            stall_after = DEFAULT_STALL_AFTER
            if hb_interval:
                stall_after = max(stall_after, 5.0 * hb_interval)
        dead_writer = (snap.writer_pid is not None
                       and not _alive(int(snap.writer_pid)))
        if dead_writer or (snap.idle_s is not None
                           and snap.idle_s > stall_after):
            snap.stalled = True
            snap.status = "stalled"
    return snap


def validate_stream(target: str | Path) -> list[str]:
    """Structural validation of the newest sweep's narration, for the
    CI gate: no torn or corrupt lines, strictly increasing ``seq``,
    non-decreasing ``ts``, at most one terminal ``sweep.done`` and no
    narration after it, known ``unit.done`` statuses.  Returns a list
    of human-readable problems (empty = valid)."""
    events, corrupt = _newest_sweep(progress_path(target))
    if not events:
        return ["no sweep.start event"]
    problems = ([f"{corrupt} torn or corrupt line(s)"] if corrupt else [])
    last_seq = 0
    last_ts: float | None = None
    saw_done = False
    for event in events:
        kind = event["kind"]
        if kind not in EVENT_KINDS:
            continue
        seq = event.get("seq")
        ts = event["ts"]
        where = f"{kind} seq {seq!r}"
        if not isinstance(seq, int) or seq <= last_seq:
            problems.append(f"{where}: seq not strictly increasing "
                            f"(last {last_seq})")
        else:
            last_seq = seq
        if last_ts is not None and ts < last_ts:
            problems.append(f"{where}: ts {ts!r} decreased "
                            f"(last {last_ts!r})")
        else:
            last_ts = float(ts)
        if saw_done:
            problems.append(f"{where}: after sweep.done")
        saw_done = saw_done or kind == "sweep.done"
        if kind == "unit.done" and event.get("status") \
                not in UNIT_STATUSES:
            problems.append(f"{where}: unit.done status "
                            f"{event.get('status')!r} unknown")
    return problems
