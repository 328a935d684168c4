"""Live sweep progress stream: `progress.jsonl` writer and reader.

Every observability surface before this one — run manifests, Chrome
traces, the energy ledger — is written *after* a run completes; a
researcher staring at a 20-minute sweep is blind until it ends.  This
module closes that gap with a schema-versioned, append-only
``progress.jsonl`` the sweep runner and the parallel executor write
*while* they run, plus the reader/snapshot side that ``repro watch``
(and the future ``repro serve`` poll endpoint) renders.

Writer (:class:`ProgressStream`)
    One stream per ``sweep()`` call, living next to the checkpoint or
    telemetry directory.  Events go through the existing fork-safe
    pid-pinned :class:`~repro.telemetry.core.JsonlSink`, so forked
    workers inherit the stream object but their writes silently no-op:
    only the parent narrates, which is what makes the serial and
    parallel streams *equivalent* — the same ``unit.done``/``cell.done``
    event sets and the same terminal snapshot, regardless of worker
    count (pinned by ``tests/test_progress.py``).  A daemon heartbeat
    thread emits pid-liveness beats every ``heartbeat_interval``
    seconds, so a watcher can tell "long unit still computing" from
    "writer process is gone" even while the parent blocks in a pool
    wait.  Threads do not survive ``fork``, so workers never heartbeat.

Event kinds (:data:`EVENT_KINDS`, schema :data:`PROGRESS_SCHEMA`)
    ``sweep.start`` (totals, workers, schema), ``unit.start`` (units
    computed in the sweep's own process: the serial driver and inline
    chunks — forked dispatch is marked at chunk granularity by
    ``chunk.dispatch``), ``unit.done`` (status ``computed`` / ``cached``
    / ``quarantined``), ``unit.retry``, ``cell.done``, ``cell.resumed``
    (checkpoint-resumed cells), ``chunk.dispatch``, ``heartbeat``,
    ``resilience.*`` supervision facts (worker crash, watchdog kill,
    escalation step, pool rebuild, quarantine, drain), and a terminal
    ``sweep.done`` carrying the summary the run manifest's ``progress``
    block repeats verbatim.

Reader (:func:`read_progress` → :class:`ProgressSnapshot`)
    Re-reads the whole file (streams are small: one line per unit, not
    per engine step), skips truncated or corrupt lines — counted in
    the snapshot and in the ``progress.corrupt`` telemetry counter —
    and derives live throughput, an ETA, per-cell progress, cache-hit
    counts, recent failures and a stall verdict (no events beyond the
    stall budget, or the writer pid is dead while the stream is
    unfinished).  :meth:`ProgressSnapshot.to_payload` is the exact
    JSON ``repro watch --json`` prints.

Like the telemetry core, this module stays leaf-level: it imports only
:mod:`repro.telemetry.core` and :mod:`repro.errors`, so the runner,
the parallel executor and the resilience layer can all emit into it
without import cycles.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.errors import ExperimentError
from repro.telemetry.core import TELEMETRY, JsonlSink

#: Bumped when the event layout changes; readers refuse newer streams.
PROGRESS_SCHEMA = 1

#: The stream's on-disk name, fixed so ``repro watch <dir>`` needs no
#: further coordinates.  A new ``sweep()`` truncates the previous run's
#: stream: watchers re-read the whole file each tick, so they follow
#: the replacement seamlessly.
PROGRESS_FILENAME = "progress.jsonl"

#: Default seconds between heartbeat events.
DEFAULT_HEARTBEAT_INTERVAL = 2.0

#: Default reader-side stall budget (seconds without any event).
DEFAULT_STALL_AFTER = 10.0

#: Every kind a schema-1 stream may contain; the CI gate
#: (``scripts/identity_gate.py``) fails on anything else.
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


class ProgressStream:
    """The write side: one live event stream for one sweep.

    All mutation funnels through :meth:`emit`, which checks the
    creating pid *before* touching the lock — a forked worker
    inheriting the stream can never write a line, bump a counter, or
    deadlock on a lock its parent held at fork time.
    """

    def __init__(self, directory: str | Path, *,
                 cells: int, seeds: int, workers: int = 1,
                 workload_id: str | None = None,
                 heartbeat_interval: float | None =
                 DEFAULT_HEARTBEAT_INTERVAL) -> None:
        self.directory = Path(directory)
        self.path = self.directory / PROGRESS_FILENAME
        self.directory.mkdir(parents=True, exist_ok=True)
        # Fresh stream per sweep: the old file narrates a finished run.
        self.path.unlink(missing_ok=True)
        self._sink = JsonlSink(self.path)
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._closed = False
        self.cells = int(cells)
        self.seeds = int(seeds)
        self.units = self.cells * self.seeds
        self.workers = int(workers)
        self.workload_id = workload_id
        self.heartbeat_interval = heartbeat_interval
        #: Parent-side tallies; the single source of the terminal
        #: summary the manifest's ``progress`` block repeats.
        self.computed = 0
        self.cached = 0
        self.quarantined = 0
        self.resumed = 0
        self.cells_done = 0
        #: Replaceable hook: which pids a heartbeat should liveness-
        #: probe.  The parallel executor points this at the live pool.
        self.pid_provider: Callable[[], list[int]] | None = None
        self.emit("sweep.start", schema=PROGRESS_SCHEMA,
                  cells=self.cells, seeds=self.seeds, units=self.units,
                  workers=self.workers, workload_id=workload_id,
                  pid=self._pid,
                  heartbeat_interval=heartbeat_interval)
        self._hb_stop = threading.Event()
        self._hb_thread: threading.Thread | None = None
        if heartbeat_interval is not None and heartbeat_interval > 0:
            self._hb_thread = threading.Thread(
                target=self._heartbeat_loop, daemon=True,
                name="repro-progress-heartbeat")
            self._hb_thread.start()

    # -- emission ------------------------------------------------------

    def emit(self, kind: str, **fields: Any) -> None:
        """Append one event; a no-op in workers and after close."""
        if os.getpid() != self._pid:
            return
        with self._lock:
            if self._closed:
                return
            self._sink.write(kind, fields)

    def unit_done(self, *, index: int, x: float, seed_pos: int,
                  seed: int, status: str,
                  error_type: str | None = None,
                  classification: str | None = None) -> None:
        """One (cell, seed) unit settled — the stream's workhorse."""
        if os.getpid() != self._pid:
            return
        if status == "computed":
            self.computed += 1
        elif status == "cached":
            self.cached += 1
        elif status == "quarantined":
            self.quarantined += 1
        fields: dict[str, Any] = {
            "index": index, "x": float(x), "seed_pos": seed_pos,
            "seed": seed, "status": status}
        if error_type is not None:
            fields["error_type"] = error_type
            fields["classification"] = classification
        self.emit("unit.done", **fields)

    def cell_done(self, *, index: int, x: float,
                  quarantined: int = 0) -> None:
        if os.getpid() != self._pid:
            return
        self.cells_done += 1
        self.emit("cell.done", index=index, x=float(x),
                  seeds=self.seeds, quarantined=quarantined)

    def cell_resumed(self, *, index: int, x: float) -> None:
        """A cell replayed from its checkpoint: all seeds pre-done."""
        if os.getpid() != self._pid:
            return
        self.resumed += self.seeds
        self.cells_done += 1
        self.emit("cell.resumed", index=index, x=float(x),
                  seeds=self.seeds)

    def heartbeat(self) -> None:
        """One liveness beat: progress counts plus pid liveness."""
        provider = self.pid_provider
        try:
            pids = list(provider()) if provider is not None \
                else [self._pid]
        except Exception:  # pragma: no cover - racing pool teardown
            pids = [self._pid]
        self.emit("heartbeat", done=self.done, computed=self.computed,
                  cached=self.cached, resumed=self.resumed,
                  quarantined=self.quarantined,
                  cells_done=self.cells_done, pids=pids,
                  alive=[pid for pid in pids if _alive(pid)])

    def _heartbeat_loop(self) -> None:
        while not self._hb_stop.wait(self.heartbeat_interval):
            self.heartbeat()

    # -- summary and shutdown ------------------------------------------

    @property
    def done(self) -> int:
        return (self.computed + self.cached + self.quarantined
                + self.resumed)

    def summary(self) -> dict:
        """The terminal snapshot; repeated verbatim by the manifest's
        ``progress`` block and by the ``sweep.done`` event."""
        return {
            "units": self.units,
            "done": self.done,
            "computed": self.computed,
            "cached": self.cached,
            "resumed": self.resumed,
            "quarantined": self.quarantined,
            "cells": self.cells,
            "cells_done": self.cells_done,
            "stream": str(self.path),
        }

    def close(self, *, status: str = "completed",
              error: BaseException | str | None = None) -> None:
        """Emit the terminal ``sweep.done`` and stop the heartbeat.

        Idempotent: only the first close narrates; a later close (the
        runner's failure path racing its success path) is a no-op.
        """
        if os.getpid() != self._pid or self._closed:
            return
        self._hb_stop.set()
        fields = dict(self.summary())
        fields.pop("stream")
        fields["status"] = status
        if error is not None:
            fields["error"] = str(error)
        self.emit("sweep.done", **fields)
        with self._lock:
            self._closed = True
            self._sink.close()
        if self._hb_thread is not None:
            self._hb_thread.join(timeout=1.0)


# -- the process-current stream ----------------------------------------

_CURRENT: ProgressStream | None = None


def current() -> ProgressStream | None:
    """The stream of the sweep currently executing, if any."""
    return _CURRENT


def attach(stream: ProgressStream | None) -> ProgressStream | None:
    """Install *stream* as current; returns the previous one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = stream
    return previous


def emit(kind: str, **fields: Any) -> None:
    """Emit into the current stream; safe to call from anywhere.

    A no-op when no stream is attached — and, via the pid pinning, in
    any forked worker that inherited one.
    """
    stream = _CURRENT
    if stream is not None:
        stream.emit(kind, **fields)


def open_stream(directory: str | Path, *, cells: int, seeds: int,
                workers: int = 1, workload_id: str | None = None,
                heartbeat_interval: float | None =
                DEFAULT_HEARTBEAT_INTERVAL) -> ProgressStream | None:
    """Open a stream, degrading to ``None`` on unusable directories.

    Progress narration is an observability aid — a read-only disk or a
    permission error must never take the sweep itself down.
    """
    try:
        return ProgressStream(directory, cells=cells, seeds=seeds,
                              workers=workers, workload_id=workload_id,
                              heartbeat_interval=heartbeat_interval)
    except OSError as exc:
        TELEMETRY.inc("progress.degraded")
        import sys
        print(f"warning: progress stream dir {directory} unusable "
              f"({exc}); sweep runs unnarrated", file=sys.stderr)
        return None


# -- the read side -----------------------------------------------------


@dataclass
class CellProgress:
    """Per-cell completion state derived from the stream."""

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
    """Everything a watcher (or the serve daemon) needs, one read.

    Derived purely from the stream file — no live process contact
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
        """The stream-writer's terminal-summary projection, for the
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
        """The ``repro watch --json`` payload (and the future serve
        daemon's poll-endpoint body)."""
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
    """Resolve a file-or-directory *target* to its stream path."""
    target = Path(target)
    if target.is_dir():
        return target / PROGRESS_FILENAME
    return target


#: How many trailing unit completions the throughput window uses.
_RATE_WINDOW = 25

#: How many failure-ish events the snapshot keeps for display.
_RECENT_FAILURES = 5


def read_progress(target: str | Path, *, now: float | None = None,
                  stall_after: float | None = None) -> ProgressSnapshot:
    """Parse a ``progress.jsonl`` into one :class:`ProgressSnapshot`.

    Corrupt or truncated lines (a watcher can race the writer
    mid-line; a crash can tear the tail) are *skipped and counted* —
    in ``corrupt_lines`` and in the ``progress.corrupt`` telemetry
    counter — never fatal.  A stream whose first valid event is
    missing, or whose schema is newer than this build, raises
    :class:`~repro.errors.ExperimentError` instead of narrating
    garbage.
    """
    path = progress_path(target)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ExperimentError(
            f"no progress stream at {path}: {exc}") from exc

    snap = ProgressSnapshot(path=str(path))
    hb_interval: float | None = DEFAULT_HEARTBEAT_INTERVAL
    done_ts: list[float] = []
    failures: list[dict] = []
    cells: dict[int, CellProgress] = {}
    started = False
    corrupt = 0

    def cell(index: int) -> CellProgress:
        entry = cells.get(index)
        if entry is None:
            entry = cells[index] = CellProgress(index=index,
                                                total=snap.seeds)
        return entry

    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            event = json.loads(line)
            kind = event["kind"]
            ts = float(event["ts"])
        except (ValueError, KeyError, TypeError):
            corrupt += 1
            continue
        if not isinstance(kind, str) or kind not in EVENT_KINDS:
            corrupt += 1
            continue
        if not started:
            if kind != "sweep.start":
                corrupt += 1
                continue
            schema = int(event.get("schema", -1))
            if schema > PROGRESS_SCHEMA:
                raise ExperimentError(
                    f"progress stream {path} has schema {schema}, "
                    f"newer than this build understands "
                    f"({PROGRESS_SCHEMA})")
            snap.schema = schema
            snap.started = ts
            snap.cells = int(event.get("cells", 0))
            snap.seeds = int(event.get("seeds", 0))
            snap.units = int(event.get("units", 0))
            snap.workers = int(event.get("workers", 1))
            snap.workload_id = event.get("workload_id")
            snap.writer_pid = event.get("pid")
            hb_interval = event.get("heartbeat_interval")
            started = True
            snap.updated = ts
            continue
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
                             "x": event.get("x"),
                             "seed": event.get("seed"),
                             "attempt": event.get("attempt")})
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

    if not started:
        raise ExperimentError(
            f"progress stream {path} has no readable sweep.start event "
            f"({corrupt} corrupt line(s))")
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
    """Structural validation for the CI gate: schema-known kinds,
    strictly increasing ``seq``, non-decreasing ``ts``, a single
    ``sweep.start`` first and at most one terminal ``sweep.done``.
    Returns a list of human-readable problems (empty = valid)."""
    path = progress_path(target)
    problems: list[str] = []
    last_seq = 0
    last_ts: float | None = None
    saw_start = False
    saw_done = False
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except ValueError:
            problems.append(f"line {lineno}: not valid JSON")
            continue
        kind = event.get("kind")
        if kind not in EVENT_KINDS:
            problems.append(f"line {lineno}: unknown kind {kind!r}")
            continue
        seq = event.get("seq")
        ts = event.get("ts")
        if not isinstance(seq, int) or seq <= last_seq:
            problems.append(f"line {lineno}: seq {seq!r} not "
                            f"strictly increasing (last {last_seq})")
        else:
            last_seq = seq
        if not isinstance(ts, (int, float)) or (
                last_ts is not None and ts < last_ts):
            problems.append(f"line {lineno}: ts {ts!r} decreased "
                            f"(last {last_ts!r})")
        else:
            last_ts = float(ts)
        if kind == "sweep.start":
            if saw_start:
                problems.append(f"line {lineno}: duplicate sweep.start")
            saw_start = True
        elif not saw_start:
            problems.append(f"line {lineno}: {kind} before sweep.start")
        if kind == "sweep.done":
            if saw_done:
                problems.append(f"line {lineno}: duplicate sweep.done")
            saw_done = True
        elif saw_done:
            problems.append(f"line {lineno}: {kind} after sweep.done")
        if kind == "unit.done" and event.get("status") \
                not in UNIT_STATUSES:
            problems.append(f"line {lineno}: unit.done status "
                            f"{event.get('status')!r} unknown")
    if not saw_start:
        problems.append("no sweep.start event")
    return problems
