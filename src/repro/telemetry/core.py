"""The instrumentation registry: counters, histograms, spans, samples.

One process-local :class:`Telemetry` registry (:data:`TELEMETRY`)
records everything the repo measures about itself:

* **counters** — monotonically increasing integers
  (``engine.releases``, ``cache.hits``, ``sweep.retries`` ...);
* **histograms** — fixed-boundary bucket counts plus count/total/
  min/max, for value distributions (dispatch speeds, slack estimates,
  chunk latencies);
* **phases** — named regions on one span stack.  Each pop folds
  ``count``, ``total_ns`` and *exact self time* (``self_ns``: elapsed
  minus the time of child frames) into a per-name record.  Every
  nanosecond of a frame is its own self time or a child's, so self
  times telescope: their sum equals the root frames' total to the
  nanosecond, which is why the time budget of
  :mod:`repro.profiling.report` sums to wall time by construction;
* **samples** — collapsed Python call stacks from an opt-in sampler
  thread, the input format of every flamegraph tool;
* **worker accounting** — chunks, units and busy time per pid.

Two switches, both off by default:

* ``enabled`` (:meth:`Telemetry.configure`) turns on counters,
  histograms, worker accounting, the JSONL event sink and run
  manifests;
* ``timers`` (:meth:`Telemetry.configure_timers`) turns on the hot-
  seam regions (engine runs, slack walks, policy decisions, cache
  I/O, chunk IPC, pool idle), the optional timeline and the sampler.

Hot-path callers guard with ``if TELEMETRY.enabled`` or ``if
TELEMETRY.timers``, so a run with both off pays one attribute load per
seam.  :meth:`Telemetry.span` is the coarse region (``sweep.plan``,
``sweep.compute``): it opens a frame on the same stack when either
switch is on, also measures CPU time, and emits a ``span`` event.
What "off" costs is pinned by ``tests/test_telemetry.py`` and by the
identity gate's ``check_profile_overhead`` anchor.

Snapshots are plain JSON-able dicts; :meth:`Telemetry.delta_since`
and :meth:`Telemetry.merge_snapshot` make the registry composable
across process boundaries: a forked sweep worker cuts one delta per
chunk against its pre-chunk snapshot and the parent merges it in its
fold loop, so parallel sweeps aggregate the same counts and phases a
serial sweep would (pinned by ``tests/test_telemetry.py``).

Events have one entry point, :meth:`Telemetry.emit`, and one
destination: the event log ``events.jsonl``, written by the
:class:`JsonlSink` in :attr:`Telemetry.sink` whenever one is open —
the one :meth:`Telemetry.configure` opens for an ``events_path``, or
the one a sweep opens in its run directory for its own length.  A
:class:`JsonlSink` records the pid that opened it and silently
refuses writes from any other process, so forked workers never
interleave lines into the parent's log.  :func:`read_events` is the
one line reader every consumer of the log shares.

Nothing here imports from the rest of ``repro`` — the registry must
stay leaf-level so every layer (engine, slack walks, policies,
experiments, CLI) can hook into it without import cycles.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from bisect import bisect_right
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Iterator, Mapping

#: Default histogram boundaries: a coarse log-ish grid wide enough for
#: speeds (0..1], slack values (time units) and latencies (seconds).
DEFAULT_BOUNDS: tuple[float, ...] = (
    0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 2.5, 10.0, 100.0)

#: Declared overhead contract, enforced by ``scripts/identity_gate.py``:
#: with timers *on*, the engine anchor workload may take at most this
#: multiple of its timers-off time (min-of-N, plus a small absolute
#: noise floor the gate adds).  The same anchor checks that timers
#: *off* cost nothing measurable.
OVERHEAD_BUDGET = 1.5

#: Default sampling period.  5 ms keeps the sampler thread invisible
#: next to unit compute times (tens of ms) while still collecting
#: hundreds of stacks over a mini sweep.
DEFAULT_SAMPLE_INTERVAL_S = 0.005

#: Cap on recorded timeline events (Chrome trace export).  A mini
#: profiling run stays far under this; a huge sweep drops the tail and
#: counts the drops rather than growing without bound.
TIMELINE_CAP = 200_000

#: Deepest Python stack the sampler will record per sample.
_SAMPLE_MAX_DEPTH = 64

#: The event log's file name in a run directory.
EVENTS_FILENAME = "events.jsonl"

#: Field order of a phase record (``[count, total_ns, self_ns, cpu_ns]``);
#: only :meth:`Telemetry.span` measures CPU time.
_PHASE_FIELDS = ("count", "total_ns", "self_ns", "cpu_ns")


def decide_label(policy_name: str) -> str:
    """The phase name of one policy's speed decisions.

    Engines build it once per run, so timers off cost nothing per
    dispatch; the ``policy.`` prefix keeps every policy's decisions in
    the budget's ``policy`` category.
    """
    return f"policy.decide.{policy_name}"


class Histogram:
    """Fixed-boundary bucket counts with count/total/min/max.

    ``bounds`` are the *upper* edges of the first ``len(bounds)``
    buckets; one overflow bucket catches everything beyond the last
    edge.  Two histograms with the same bounds merge (and subtract)
    bucket-wise, which is what makes worker deltas foldable.
    """

    __slots__ = ("bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.buckets[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_payload(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    def merge_payload(self, payload: Mapping) -> None:
        """Fold another histogram's payload (same bounds) into this."""
        if tuple(payload["bounds"]) != self.bounds:
            raise ValueError(
                f"histogram bounds mismatch: {payload['bounds']} vs "
                f"{list(self.bounds)}")
        for i, n in enumerate(payload["buckets"]):
            self.buckets[i] += n
        self.count += payload["count"]
        self.total += payload["total"]
        if payload["min"] is not None and payload["min"] < self.min:
            self.min = payload["min"]
        if payload["max"] is not None and payload["max"] > self.max:
            self.max = payload["max"]


def _subtract_histogram(after: Mapping, before: Mapping | None) -> dict:
    """Bucket-wise ``after - before``; min/max come from *after*.

    Min/max are not invertible through subtraction; keeping the
    *after* extrema is a safe over-approximation for a delta that only
    ever folds back into the registry it was cut from.
    """
    if before is None:
        return dict(after)
    return {
        "bounds": list(after["bounds"]),
        "buckets": [a - b for a, b in zip(after["buckets"],
                                          before["buckets"])],
        "count": after["count"] - before["count"],
        "total": after["total"] - before["total"],
        "min": after["min"],
        "max": after["max"],
    }


def _subtract_counts(after: Mapping, before: Mapping) -> dict:
    """``after - before`` per name, unchanged names dropped."""
    return {name: n - before.get(name, 0) for name, n in after.items()
            if n != before.get(name, 0)}


def _subtract_records(after: Mapping, before: Mapping) -> dict:
    """Field-wise ``after - before`` per name, unchanged names dropped."""
    out = {}
    for name, rec in after.items():
        base = before.get(name, {})
        diff = {key: value - base.get(key, 0) for key, value in rec.items()}
        if any(diff.values()):
            out[name] = diff
    return out


class JsonlSink:
    """Append-only JSONL event stream, pinned to its attaching pid.

    The pid is checked before the lock is touched, so a forked child
    can neither write a line nor block on a lock its parent held at
    fork time.  The lock serialises the attaching process's threads
    (a sweep's heartbeat thread writes beside the main one).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = self.path.open("a", encoding="utf-8")
        if self._file.tell():
            # A killed writer can leave a torn last line: end it, so
            # this sink's first event starts a line of its own.
            with self.path.open("rb") as tail:
                tail.seek(-1, os.SEEK_END)
                if tail.read(1) != b"\n":
                    self._file.write("\n")
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._seq = 0

    def write(self, kind: str, fields: Mapping[str, Any]) -> bool:
        """Append one event; whether it was written (never in any
        process but the attacher's, nor after :meth:`close`)."""
        if os.getpid() != self._pid:
            return False
        with self._lock:
            if self._file.closed:
                return False
            self._seq += 1
            record = {"seq": self._seq, "ts": round(time.time(), 6),
                      "kind": kind, **fields}
            self._file.write(json.dumps(record) + "\n")
            self._file.flush()
        return True

    def close(self) -> None:
        if os.getpid() == self._pid:
            with self._lock:
                self._file.close()


def read_events(path: str | Path) -> tuple[list[dict], list[int]]:
    """Every event of a JSONL event log, skipping unreadable lines.

    An event is a line holding a JSON object with a string ``kind``
    and a numeric ``ts``; anything else (a tail torn by a killed
    writer, a reader racing a write) is skipped.  Returns the events
    in file order and, per skipped line, how many events preceded it,
    so a reader can count the skipped lines of any stretch of the log.
    Raises ``OSError`` when the file cannot be read.
    """
    events: list[dict] = []
    skipped: list[int] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except ValueError:
            event = None
        if (isinstance(event, dict) and isinstance(event.get("kind"), str)
                and isinstance(event.get("ts"), (int, float))):
            events.append(event)
        else:
            skipped.append(len(events))
    return events, skipped


class StackSampler:
    """Daemon thread sampling one thread's Python stack.

    Created lazily from the thread it is meant to observe (the thread
    that runs (cell, seed) units — the main thread in the parent and
    in each forked worker), so ``threading.get_ident()`` at
    construction pins the right target.  The thread itself never
    survives a fork; :class:`Telemetry` re-creates a sampler when the
    pid changes.

    Sampling only happens while at least one ``activate()`` is
    outstanding, so stacks are attributed to unit compute and not to
    pool idle or IPC plumbing.
    """

    def __init__(self, interval_s: float = DEFAULT_SAMPLE_INTERVAL_S):
        self.interval_s = max(float(interval_s), 0.0005)
        self.counts: dict[str, int] = {}
        self._active = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._target = threading.get_ident()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profile-sampler", daemon=True)
        self._thread.start()

    def activate(self) -> None:
        with self._lock:
            self._active += 1

    def deactivate(self) -> None:
        with self._lock:
            self._active -= 1

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            if self._active > 0:
                self._sample()

    def _sample(self) -> None:
        frame = sys._current_frames().get(self._target)
        if frame is None:
            return
        parts: list[str] = []
        depth = 0
        while frame is not None and depth < _SAMPLE_MAX_DEPTH:
            code = frame.f_code
            name = getattr(code, "co_qualname", code.co_name)
            parts.append(f"{os.path.basename(code.co_filename)}:{name}")
            frame = frame.f_back
            depth += 1
        # Collapsed-stack convention: root first, frames joined by ';'.
        key = ";".join(reversed(parts))
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + 1

    def drain(self) -> dict[str, int]:
        """Copy the folded counts (thread-safe)."""
        with self._lock:
            return dict(self.counts)


class Telemetry:
    """The process-local instrumentation registry.

    All recording entry points are cheap no-ops while their switch is
    off — hot-path callers additionally guard with ``if
    TELEMETRY.enabled`` / ``if TELEMETRY.timers`` so the disabled cost
    is one attribute check, not a method call.  With timers on, a
    region is two ``perf_counter_ns`` calls and a handful of list/dict
    operations.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.timers = False
        self.sampling = False
        self.timeline = False
        self.sample_interval_s = DEFAULT_SAMPLE_INTERVAL_S
        self.manifest_dir: Path | None = None
        self.timeline_dropped = 0
        self.origin_ns = perf_counter_ns()
        self._counters: dict[str, int] = {}
        self._histograms: dict[str, Histogram] = {}
        # name -> [count, total_ns, self_ns, cpu_ns]
        self._phases: dict[str, list[int]] = {}
        # open frames: [name, start_ns, child_ns]
        self._stack: list[list] = []
        # (name, start_ns, end_ns, depth), while ``timeline`` is on
        self._timeline: list[tuple] = []
        # collapsed-stack counts merged from workers
        self._samples: dict[str, int] = {}
        self._sampler: StackSampler | None = None
        self._sampler_pid: int | None = None
        self._workers: dict[str, dict[str, float]] = {}
        #: The event log's sink while one is open, else ``None``.
        self.sink: JsonlSink | None = None

    # -- configuration -------------------------------------------------

    def configure(self, *, enabled: bool = True,
                  events_path: str | Path | None = None,
                  manifest_dir: str | Path | None = None) -> None:
        """Switch counters, events and manifests on (or off)."""
        self.enabled = enabled
        if self.sink is not None:
            self.sink.close()
            self.sink = None
        if events_path is not None and enabled:
            self.sink = JsonlSink(events_path)
        self.manifest_dir = (Path(manifest_dir)
                            if manifest_dir is not None else None)

    def configure_timers(self, *, enabled: bool = True,
                         timeline: bool = False, sample: bool = False,
                         sample_interval_s: float =
                         DEFAULT_SAMPLE_INTERVAL_S) -> None:
        """Switch the hot-seam timers on (or off).

        Every call sets the timeline and the sampler afresh: a call
        that does not ask for a timeline stops recording one (the
        events already recorded stay until :meth:`reset`).
        """
        self.timers = bool(enabled)
        self.sampling = self.timers and bool(sample)
        self.sample_interval_s = float(sample_interval_s)
        if self.timers and timeline and not self._timeline:
            self.origin_ns = perf_counter_ns()
        self.timeline = self.timers and bool(timeline)
        if not self.timers:
            self._close_sampler()

    def reset(self) -> None:
        """Drop every recorded metric (configuration is kept)."""
        self._counters.clear()
        self._histograms.clear()
        self._phases.clear()
        self._stack.clear()
        self._timeline.clear()
        self._samples.clear()
        self._workers.clear()
        self.timeline_dropped = 0
        self.origin_ns = perf_counter_ns()
        self._close_sampler()

    def _close_sampler(self) -> None:
        # Joining is safe even for a sampler inherited across fork():
        # the thread did not survive and threading marks it stopped.
        sampler = self._sampler
        self._sampler = None
        self._sampler_pid = None
        if sampler is not None:
            sampler.close()

    # -- counters, histograms, events ----------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        if not self.enabled or n == 0:
            return
        self._counters[name] = self._counters.get(name, 0) + n

    def observe(self, name: str, value: float,
                bounds: tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        if not self.enabled:
            return
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(bounds)
        histogram.observe(value)

    def record_worker(self, pid: int, *, chunks: int = 0, units: int = 0,
                      busy_s: float = 0.0) -> None:
        """Accumulate one worker process's chunk accounting."""
        if not self.enabled:
            return
        stats = self._workers.get(str(pid))
        if stats is None:
            stats = self._workers[str(pid)] = {
                "chunks": 0, "units": 0, "busy_s": 0.0}
        stats["chunks"] += chunks
        stats["units"] += units
        stats["busy_s"] += busy_s

    def emit(self, kind: str, **fields: Any) -> None:
        """Write one structured event to the event log, if one is open."""
        sink = self.sink
        if sink is not None:
            sink.write(kind, fields)

    # -- the span stack ------------------------------------------------

    def push(self, name: str) -> None:
        """Open a region.  Callers must guard with ``if tele.timers``."""
        self._stack.append([name, perf_counter_ns(), 0])

    def pop(self) -> int:
        """Close the innermost region, fold its self time; elapsed ns."""
        end = perf_counter_ns()
        name, start, child_ns = self._stack.pop()
        elapsed = end - start
        rec = self._phases.get(name)
        if rec is None:
            rec = self._phases[name] = [0, 0, 0, 0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - child_ns
        stack = self._stack
        if stack:
            stack[-1][2] += elapsed
        if self.timeline:
            if len(self._timeline) < TIMELINE_CAP:
                self._timeline.append((name, start, end, len(stack)))
            else:
                self.timeline_dropped += 1
        return elapsed

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Timer region context manager for the less hot seams."""
        if not self.timers:
            yield
            return
        self.push(name)
        try:
            yield
        finally:
            self.pop()

    @contextmanager
    def span(self, name: str, **fields: Any) -> Iterator[None]:
        """A coarse region, recorded when either switch is on.

        Adds CPU seconds (this process's only — a parallel phase's
        worker CPU arrives through the merged worker deltas) to the
        region's record and emits one ``span`` event.
        """
        if not (self.enabled or self.timers):
            yield
            return
        cpu0 = time.process_time_ns()
        self.push(name)
        try:
            yield
        finally:
            wall = self.pop()
            cpu = time.process_time_ns() - cpu0
            self._phases[name][3] += cpu
            self.emit("span", name=name, wall_s=round(wall / 1e9, 6),
                      cpu_s=round(cpu / 1e9, 6), **fields)

    def timeline_events(self) -> list[tuple]:
        return list(self._timeline)

    # -- sampling ------------------------------------------------------

    @contextmanager
    def sample_unit(self) -> Iterator[None]:
        """Sample Python stacks while one (cell, seed) unit computes."""
        if not self.sampling:
            yield
            return
        pid = os.getpid()
        if self._sampler is None or self._sampler_pid != pid:
            self._sampler = StackSampler(self.sample_interval_s)
            self._sampler_pid = pid
        sampler = self._sampler
        sampler.activate()
        try:
            yield
        finally:
            sampler.deactivate()

    # -- reading and the fork fold -------------------------------------

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def histogram(self, name: str) -> Histogram | None:
        return self._histograms.get(name)

    def snapshot(self) -> dict:
        """A plain JSON-able copy of everything recorded so far."""
        samples = dict(self._samples)
        if self._sampler is not None and self._sampler_pid == os.getpid():
            for key, n in self._sampler.drain().items():
                samples[key] = samples.get(key, 0) + n
        return {
            "counters": dict(self._counters),
            "histograms": {k: h.to_payload()
                           for k, h in self._histograms.items()},
            "phases": {k: dict(zip(_PHASE_FIELDS, rec))
                       for k, rec in self._phases.items()},
            "samples": samples,
            "workers": {k: dict(v) for k, v in self._workers.items()},
        }

    def delta_since(self, before: Mapping | None) -> dict:
        """Current snapshot minus *before* (``None`` = everything).

        The shape workers ship back to the sweep parent: pre-chunk
        state is subtracted out so merging the delta never double
        counts what the parent already holds.
        """
        after = self.snapshot()
        if not before:
            return after
        histograms = {}
        for name, payload in after["histograms"].items():
            diff = _subtract_histogram(
                payload, before["histograms"].get(name))
            if diff["count"]:
                histograms[name] = diff
        return {
            "counters": _subtract_counts(after["counters"],
                                         before["counters"]),
            "histograms": histograms,
            "phases": _subtract_records(after["phases"], before["phases"]),
            "samples": _subtract_counts(after["samples"],
                                        before["samples"]),
            "workers": _subtract_records(after["workers"],
                                         before["workers"]),
        }

    def merge_snapshot(self, snap: Mapping) -> None:
        """Fold a snapshot/delta (e.g. from a worker) into the registry.

        Counters, histograms and worker accounting fold while
        ``enabled``; phases and samples while ``timers`` — a worker
        only opens timer regions, never a coarse span.
        """
        if self.enabled:
            for name, value in snap.get("counters", {}).items():
                self.inc(name, value)
            for name, payload in snap.get("histograms", {}).items():
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram(
                        tuple(payload["bounds"]))
                histogram.merge_payload(payload)
            for pid, stats in snap.get("workers", {}).items():
                self.record_worker(int(pid), **stats)
        if self.timers:
            for name, rec in snap.get("phases", {}).items():
                mine = self._phases.get(name)
                if mine is None:
                    mine = self._phases[name] = [0, 0, 0, 0]
                for i, key in enumerate(_PHASE_FIELDS):
                    mine[i] += int(rec.get(key, 0))
            for key, n in snap.get("samples", {}).items():
                self._samples[key] = self._samples.get(key, 0) + int(n)


#: The process-local registry every layer hooks into.
TELEMETRY = Telemetry()
