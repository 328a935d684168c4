"""Live progress stream: writer/runner wiring, reader, watch rendering.

The contracts under test (DESIGN.md §14):

* a serial and a parallel run of the same sweep write *equivalent*
  streams — identical {unit.done, cell.done, cell.resumed} event sets
  and identical terminal summaries — and both validate structurally;
* the manifest's ``progress`` block equals the stream's terminal
  snapshot (the equality ``scripts/identity_gate.py`` enforces in CI);
* resumed sweeps narrate ``cell.resumed`` and count those units;
* corrupt or truncated lines are skipped and counted — in the
  snapshot and in the ``progress.corrupt`` telemetry counter — never
  fatal;
* stall detection fires on a silent unfinished stream and on a dead
  writer pid, and never on a finished one;
* the watch renderer and exit codes reflect the snapshot state.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ExperimentError
from repro.experiments.parallel import fork_available, shutdown_pool
from repro.experiments.runner import bcwc_model, standard_taskset, sweep
from repro.telemetry import TELEMETRY
from repro.telemetry.manifest import RunManifest
from repro.telemetry.progress import (
    PROGRESS_FILENAME,
    PROGRESS_SCHEMA,
    ProgressStream,
    read_progress,
    validate_stream,
)
from repro.telemetry.watch import render_snapshot, watch

pytestmark = pytest.mark.watch

HORIZON = 200.0
POLICIES = ("static", "lpSTA")
XS = (0.4, 0.7)
N_TASKSETS = 2


@pytest.fixture(autouse=True)
def clean_registry():
    TELEMETRY.configure(enabled=False)
    TELEMETRY.reset()
    yield
    shutdown_pool()
    TELEMETRY.configure(enabled=False)
    TELEMETRY.reset()


def workload(u: float, seed: int):
    return standard_taskset(4, u, seed), bcwc_model(0.5, seed)


def run_sweep(directory, **kwargs):
    return sweep(XS, workload, POLICIES, n_tasksets=N_TASKSETS,
                 horizon=HORIZON, progress_dir=directory, **kwargs)


def unit_events(path) -> list[tuple]:
    """The order-insensitive progress substance of one stream."""
    events = []
    for line in path.read_text().splitlines():
        event = json.loads(line)
        if event["kind"] == "unit.done":
            events.append(("unit.done", event["index"],
                           event["seed_pos"], event["status"]))
        elif event["kind"] in ("cell.done", "cell.resumed"):
            events.append((event["kind"], event["index"]))
    return sorted(events)


def dead_pid() -> int:
    """A pid that existed a moment ago and is certainly gone now."""
    proc = subprocess.Popen(["true"])
    proc.wait()
    return proc.pid


def write_stream(path, lines) -> None:
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))


def start_event(seq=1, ts=1000.0, *, cells=1, seeds=2, pid=None,
                heartbeat_interval=0.5, **extra):
    return {"seq": seq, "ts": ts, "kind": "sweep.start",
            "schema": PROGRESS_SCHEMA, "cells": cells, "seeds": seeds,
            "units": cells * seeds, "workers": 1,
            "pid": pid if pid is not None else os.getpid(),
            "heartbeat_interval": heartbeat_interval, **extra}


def unit_event(seq, ts, *, index=0, seed_pos=0, status="computed"):
    return {"seq": seq, "ts": ts, "kind": "unit.done", "index": index,
            "x": 0.5, "seed_pos": seed_pos, "seed": 7,
            "status": status}


def fields_of(event: dict) -> dict:
    """An event's payload: what a sink's ``write`` takes."""
    return {k: v for k, v in event.items()
            if k not in ("seq", "ts", "kind")}


# -- serial / parallel equivalence -------------------------------------


def test_serial_stream_is_valid_and_complete(tmp_path):
    cells = run_sweep(tmp_path)
    path = tmp_path / PROGRESS_FILENAME
    assert validate_stream(path) == []
    snap = read_progress(path)
    assert snap.finished and snap.status == "completed"
    assert snap.done == snap.units == len(XS) * N_TASKSETS
    assert snap.computed == snap.units and snap.cached == 0
    assert snap.cells_done == snap.cells == len(cells)
    assert not snap.stalled
    assert [cell.done for cell in snap.per_cell] == [N_TASKSETS] * 2


@pytest.mark.skipif(not fork_available(), reason="needs os.fork")
def test_parallel_stream_equivalent_to_serial(tmp_path):
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    serial_cells = run_sweep(serial_dir)
    parallel_cells = run_sweep(parallel_dir, workers=2)
    assert [c.to_payload() for c in serial_cells] \
        == [c.to_payload() for c in parallel_cells]
    assert validate_stream(parallel_dir / PROGRESS_FILENAME) == []
    assert unit_events(serial_dir / PROGRESS_FILENAME) \
        == unit_events(parallel_dir / PROGRESS_FILENAME)
    serial_snap = read_progress(serial_dir)
    parallel_snap = read_progress(parallel_dir)
    for snap in (serial_snap, parallel_snap):
        snap_summary = snap.summary()
        snap_summary.pop("stream")
        assert snap_summary == {
            "units": 4, "done": 4, "computed": 4, "cached": 0,
            "resumed": 0, "quarantined": 0, "cells": 2,
            "cells_done": 2}
    # The parallel stream additionally narrates its dispatch.
    kinds = {json.loads(line)["kind"] for line in
             (parallel_dir / PROGRESS_FILENAME).read_text().splitlines()}
    assert "chunk.dispatch" in kinds


def test_manifest_progress_block_equals_stream_snapshot(tmp_path):
    TELEMETRY.configure(enabled=True, manifest_dir=tmp_path)
    run_sweep(tmp_path, workload_id="progress-test")
    TELEMETRY.configure(enabled=False)
    manifests = sorted(tmp_path.glob("manifest_*.json"))
    assert manifests
    manifest = RunManifest.load(manifests[-1])
    snap = read_progress(tmp_path)
    assert manifest.progress == snap.summary()


def test_resumed_cells_are_narrated(tmp_path):
    run_sweep(tmp_path, checkpoint_dir=tmp_path)
    run_sweep(tmp_path, checkpoint_dir=tmp_path, resume=True)
    snap = read_progress(tmp_path)
    assert snap.finished
    assert snap.resumed == snap.units and snap.computed == 0
    assert all(cell.resumed for cell in snap.per_cell)
    assert "(resumed)" in render_snapshot(snap)


def test_cached_units_are_narrated(tmp_path):
    cache = tmp_path / "cache"
    run_sweep(tmp_path / "a", cache_dir=cache, workload_id="cache-test")
    run_sweep(tmp_path / "b", cache_dir=cache, workload_id="cache-test")
    snap = read_progress(tmp_path / "b")
    assert snap.cached == snap.units and snap.computed == 0


# -- reader robustness -------------------------------------------------


def test_corrupt_lines_skipped_and_counted(tmp_path):
    run_sweep(tmp_path)
    path = tmp_path / PROGRESS_FILENAME
    with path.open("a") as fh:
        fh.write("{torn json\n")
        fh.write('{"kind": "no.such.kind", "seq": 9999, "ts": 1}\n')
        fh.write('{"seq": 10000}\n')
    TELEMETRY.configure(enabled=True)
    snap = read_progress(path)
    assert snap.corrupt_lines == 3
    assert snap.finished  # the valid prefix still parses fully
    assert snap.done == snap.units
    assert TELEMETRY.snapshot()["counters"]["progress.corrupt"] == 3


def test_missing_stream_and_missing_start_raise(tmp_path):
    with pytest.raises(ExperimentError, match="no progress stream"):
        read_progress(tmp_path / "nope.jsonl")
    bad = tmp_path / PROGRESS_FILENAME
    write_stream(bad, [unit_event(1, 1000.0)])
    with pytest.raises(ExperimentError, match="sweep.start"):
        read_progress(bad)


def test_newer_schema_refused(tmp_path):
    path = tmp_path / PROGRESS_FILENAME
    write_stream(path, [dict(start_event(), schema=PROGRESS_SCHEMA + 1)])
    with pytest.raises(ExperimentError, match="newer"):
        read_progress(path)


def test_validate_stream_flags_structural_problems(tmp_path):
    path = tmp_path / PROGRESS_FILENAME
    write_stream(path, [
        start_event(seq=1, ts=1000.0),
        {"seq": 1, "ts": 999.0, "kind": "unit.done", "status": "weird"},
        {"seq": 3, "ts": 1001.0, "kind": "made.up"},
    ])
    problems = "\n".join(validate_stream(path))
    assert "not strictly increasing" in problems
    assert "decreased" in problems
    assert "unknown kind" in problems
    assert "status 'weird' unknown" in problems


# -- stall detection ---------------------------------------------------


def test_silent_unfinished_stream_stalls(tmp_path):
    path = tmp_path / PROGRESS_FILENAME
    write_stream(path, [start_event(ts=1000.0),
                        unit_event(2, 1001.0)])
    fresh = read_progress(path, now=1002.0)
    assert not fresh.stalled and fresh.status == "running"
    stale = read_progress(path, now=1001.0 + 60.0)
    assert stale.stalled and stale.status == "stalled"
    assert stale.idle_s == pytest.approx(60.0)
    assert "STALLED" in render_snapshot(stale)
    # An explicit budget overrides the default.
    assert read_progress(path, now=1003.0, stall_after=1.0).stalled
    assert not read_progress(path, now=1001.0 + 60.0,
                             stall_after=120.0).stalled


def test_dead_writer_pid_stalls_immediately(tmp_path):
    path = tmp_path / PROGRESS_FILENAME
    write_stream(path, [start_event(ts=1000.0, pid=dead_pid()),
                        unit_event(2, 1001.0)])
    snap = read_progress(path, now=1001.5)
    assert snap.stalled and snap.status == "stalled"


def test_finished_stream_never_stalls(tmp_path):
    run_sweep(tmp_path)
    snap = read_progress(tmp_path, now=time.time() + 10_000.0)
    assert snap.finished and not snap.stalled
    assert snap.eta_s == 0.0


def test_writer_heartbeats_carry_pid_liveness(tmp_path):
    stream = ProgressStream(tmp_path, heartbeat_interval=0.02)
    stream.write("sweep.start", fields_of(
        start_event(cells=1, seeds=1, heartbeat_interval=0.02)))
    try:
        deadline = time.time() + 2.0
        while time.time() < deadline:
            if any(json.loads(line)["kind"] == "heartbeat"
                   for line in stream.path.read_text().splitlines()):
                break
            time.sleep(0.02)
    finally:
        stream.close()
    snap = read_progress(tmp_path)
    assert snap.heartbeat_pids == [os.getpid()]
    assert snap.heartbeat_alive == [os.getpid()]


def test_forked_child_cannot_write(tmp_path):
    if not fork_available():
        pytest.skip("needs os.fork")
    stream = ProgressStream(tmp_path, heartbeat_interval=None)
    stream.write("sweep.start", fields_of(start_event(cells=1, seeds=1)))
    done = fields_of(unit_event(2, 1000.0))
    previous = TELEMETRY.attach_stream(stream)
    try:
        pid = os.fork()
        if pid == 0:  # child: all of these must silently no-op
            stream.write("unit.start", {"index": 0})
            stream.write("unit.done", done)
            TELEMETRY.emit("unit.done", **done)
            stream.close()
            os._exit(0 if stream.done == 0 else 1)  # counted nothing
        assert os.waitpid(pid, 0)[1] == 0
        stream.write("unit.done", done)
    finally:
        TELEMETRY.attach_stream(previous)
    stream.close()
    assert stream.computed == 1
    snap = read_progress(tmp_path)
    assert snap.computed == 1  # the parent's one write, nothing more
    assert validate_stream(tmp_path) == []


def test_heartbeats_and_events_share_the_sink_safely(tmp_path):
    # The sink's lock serialises the heartbeat thread with the main
    # one: a lost update would repeat a seq, a torn write would leave
    # a corrupt line.
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    stream = ProgressStream(tmp_path, heartbeat_interval=0.001)
    try:
        stream.write("sweep.start", fields_of(
            start_event(cells=1, seeds=1, heartbeat_interval=0.001)))
        done = fields_of(unit_event(2, 1000.0))
        written = 0
        deadline = time.monotonic() + 0.3
        while time.monotonic() < deadline:
            stream.write("unit.done", done)
            written += 1
    finally:
        stream.close()
        sys.setswitchinterval(switch)
    assert not any(thread.name == "repro-progress-heartbeat"
                   for thread in threading.enumerate())
    assert validate_stream(tmp_path) == []
    kinds = [json.loads(line)["kind"]
             for line in stream.path.read_text().splitlines()]
    assert kinds.count("heartbeat") > 0
    assert kinds.count("unit.done") == stream.computed == written
    assert read_progress(tmp_path).corrupt_lines == 0


def test_retry_failure_names_its_error_type(tmp_path):
    path = tmp_path / PROGRESS_FILENAME
    write_stream(path, [
        start_event(),
        {"seq": 2, "ts": 1000.5, "kind": "unit.retry", "index": 0,
         "x": 0.5, "seed_pos": 1, "seed": 7, "attempt": 0,
         "error_type": "OSError"}])
    snap = read_progress(path, now=1001.0)
    [failure] = snap.recent_failures
    assert failure["error_type"] == "OSError"
    assert failure["index"] == 0
    assert "unit.retry: OSError (x=0.5, seed=7)" in render_snapshot(snap)


# -- watch loop --------------------------------------------------------


def test_watch_once_renders_and_exits_zero(tmp_path):
    run_sweep(tmp_path)
    out = io.StringIO()
    assert watch(tmp_path, once=True, out=out) == 0
    frame = out.getvalue()
    assert "4/4 units" in frame and "[completed]" in frame


def test_watch_exit_codes(tmp_path):
    assert watch(tmp_path / "missing", once=True,
                 out=io.StringIO()) == 2
    path = tmp_path / PROGRESS_FILENAME
    write_stream(path, [start_event(ts=1000.0, pid=dead_pid())])
    # Dead writer => stalled => exit 1 (without --once).
    assert watch(tmp_path, interval=0.01, out=io.StringIO()) == 1


def test_watch_follows_to_completion(tmp_path):
    path = tmp_path / PROGRESS_FILENAME
    write_stream(path, [start_event(ts=time.time())])
    frames = []

    def fake_sleep(_):
        # Finish the sweep between the first and second frame.
        now = time.time()
        write_stream(path, [
            start_event(ts=now - 1.0),
            unit_event(2, now - 0.5), unit_event(3, now - 0.4,
                                                 seed_pos=1),
            {"seq": 4, "ts": now - 0.3, "kind": "cell.done",
             "index": 0, "x": 0.5, "seeds": 2, "quarantined": 0},
            {"seq": 5, "ts": now - 0.2, "kind": "sweep.done",
             "status": "completed", "units": 2, "done": 2,
             "computed": 2, "cached": 0, "resumed": 0,
             "quarantined": 0, "cells": 1, "cells_done": 1},
        ])

    out = io.StringIO()
    code = watch(tmp_path, interval=0.01, out=out, sleep=fake_sleep,
                 max_wait=30.0)
    assert code == 0
    assert "[completed]" in out.getvalue()
    assert len(out.getvalue().split("[running]")) == 2  # one live frame
