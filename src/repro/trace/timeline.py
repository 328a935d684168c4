"""Sweep timeline: the parallel executor's pool as a Chrome trace.

The warm-pool executor (:mod:`repro.experiments.parallel`) already
emits structured telemetry events — ``chunk.dispatch`` when chunks
are submitted, ``parallel.chunk`` when each worker-executed chunk
lands (carrying the worker pid and the chunk's wall-clock window),
``span`` records for the sweep phases, ``sweep.checkpoint`` per cell.
This module folds one ``events.jsonl`` stream into a worker-lane
Chrome trace: one lane per worker pid holding its chunk spans, plus a
parent lane with the sweep phases, dispatch instants and checkpoint
markers — so pool utilization (stragglers, idle lanes, rebalancing)
is visually inspectable in Perfetto instead of inferred from the
manifest's aggregate utilization number.  It reads the log with the
same line reader as ``repro watch``: a torn or corrupt line (a sweep
killed mid-write) is skipped and counted, never fatal.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ExperimentError
from repro.telemetry.core import read_events

#: Event wall-clock seconds -> trace microseconds.
_SCALE = 1e6

#: The sweep process id used for every lane.
_PID = 0

#: The parent (sweep orchestrator) lane.
_PARENT_TID = 0


def _load_events(events_path: str | Path) -> tuple[list[dict], int]:
    """The log's events and how many lines were skipped."""
    path = Path(events_path)
    try:
        events, skipped = read_events(path)
    except OSError as exc:
        raise ExperimentError(
            f"cannot read telemetry events {path}: {exc}") from exc
    if not events:
        raise ExperimentError(f"telemetry events {path} are empty")
    return events, len(skipped)


def sweep_timeline_events(events_path: str | Path) -> list[dict]:
    """Fold an ``events.jsonl`` stream into Chrome trace events."""
    return _fold(_load_events(events_path)[0])


def _fold(records: list[dict]) -> list[dict]:

    # The origin: earliest timestamp seen anywhere in the stream
    # (chunk windows start before their landing event's ts).
    times = []
    for rec in records:
        if "ts" in rec:
            times.append(float(rec["ts"]))
        if rec.get("kind") == "parallel.chunk" and "t0" in rec:
            times.append(float(rec["t0"]))
        if rec.get("kind") == "span":
            times.append(float(rec["ts"]) - float(rec.get("wall_s", 0.0)))
    origin = min(times)

    def ts(value: float) -> float:
        return (value - origin) * _SCALE

    lanes: dict[int, int] = {}  # worker pid -> tid

    def worker_tid(pid: int) -> int:
        if pid not in lanes:
            lanes[pid] = len(lanes) + 1
        return lanes[pid]

    events: list[dict] = []
    for rec in records:
        kind = rec.get("kind")
        if kind == "parallel.chunk":
            tid = worker_tid(int(rec["pid"]))
            start = float(rec.get("t0", rec["ts"]))
            wall = float(rec.get("wall_s", 0.0))
            events.append({
                "name": f"chunk ({rec.get('units', '?')} units)",
                "cat": "worker", "ph": "X", "ts": ts(start),
                "dur": wall * _SCALE, "pid": _PID, "tid": tid,
                "args": {"pid": rec["pid"], "units": rec.get("units"),
                         "wall_s": wall},
            })
        elif kind == "span":
            wall = float(rec.get("wall_s", 0.0))
            events.append({
                "name": rec.get("name", "span"), "cat": "phase",
                "ph": "X", "ts": ts(float(rec["ts"]) - wall),
                "dur": wall * _SCALE, "pid": _PID, "tid": _PARENT_TID,
                "args": {"cpu_s": rec.get("cpu_s")},
            })
        elif kind == "chunk.dispatch":
            events.append({
                "name": "dispatch", "cat": "executor", "ph": "i",
                "s": "t", "ts": ts(float(rec["ts"])), "pid": _PID,
                "tid": _PARENT_TID,
                "args": {"chunks": rec.get("chunks"),
                         "units": rec.get("units"),
                         "workers": rec.get("workers")},
            })
        elif kind == "sweep.checkpoint":
            events.append({
                "name": f"checkpoint cell {rec.get('index')}",
                "cat": "checkpoint", "ph": "i", "s": "t",
                "ts": ts(float(rec["ts"])), "pid": _PID,
                "tid": _PARENT_TID, "args": {"x": rec.get("x")},
            })

    meta = [{"name": "process_name", "ph": "M", "pid": _PID,
             "args": {"name": "sweep"}},
            {"name": "thread_name", "ph": "M", "pid": _PID,
             "tid": _PARENT_TID, "args": {"name": "(sweep)"}}]
    for pid, tid in sorted(lanes.items(), key=lambda kv: kv[1]):
        meta.append({"name": "thread_name", "ph": "M", "pid": _PID,
                     "tid": tid, "args": {"name": f"worker {pid}"}})
        meta.append({"name": "thread_sort_index", "ph": "M", "pid": _PID,
                     "tid": tid, "args": {"sort_index": tid}})
    events.sort(key=lambda e: e["ts"])
    return meta + events


def export_sweep_timeline(events_path: str | Path,
                          out: str | Path) -> Path:
    """Write the worker-lane Chrome trace for one sweep's events."""
    records, skipped = _load_events(events_path)
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "traceEvents": _fold(records),
        "displayTimeUnit": "ms",
        "otherData": {"source": str(events_path),
                      "skipped_lines": skipped},
    }
    out.write_text(json.dumps(payload) + "\n")
    return out
