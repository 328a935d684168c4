"""Live progress: the event log's narration, reader, watch rendering.

The contracts under test (DESIGN.md §14):

* a serial and a parallel run of the same sweep write *equivalent*
  event logs — identical {unit.done, cell.done, cell.resumed} event
  sets and identical terminal summaries — and both validate
  structurally;
* the manifest's ``progress`` block equals the log's terminal
  snapshot and the ``sweep.done`` event (the equality
  ``scripts/identity_gate.py`` enforces in CI);
* resumed sweeps narrate ``cell.resumed`` and count those units;
* one log holds several sweeps, and the reader and the validator
  judge the newest;
* corrupt or truncated lines are skipped and counted — in the
  snapshot and in the ``progress.corrupt`` telemetry counter — never
  fatal, and kinds the reader does not narrate are skipped;
* an unusable run directory degrades the sweep to unnarrated, never
  fails it;
* stall detection fires on a silent unfinished sweep and on a dead
  writer pid, and never on a finished one;
* the watch renderer and exit codes reflect the snapshot state.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.experiments import runner
from repro.experiments.parallel import fork_available, shutdown_pool
from repro.experiments.runner import bcwc_model, standard_taskset, sweep
from repro.telemetry import EVENTS_FILENAME, TELEMETRY, JsonlSink
from repro.telemetry.core import read_events
from repro.telemetry.manifest import RunManifest
from repro.telemetry.progress import (
    PROGRESS_SCHEMA,
    Heartbeat,
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
    """A sweep narrated into *directory*, its checkpoint directory
    unless *kwargs* name another run directory."""
    kwargs.setdefault("checkpoint_dir", directory)
    return sweep(XS, workload, POLICIES, n_tasksets=N_TASKSETS,
                 horizon=HORIZON, **kwargs)


@contextlib.contextmanager
def event_log(directory):
    """Route emitted events to ``<directory>/events.jsonl``."""
    sink = TELEMETRY.sink = JsonlSink(directory / EVENTS_FILENAME)
    try:
        yield sink
    finally:
        sink.close()
        TELEMETRY.sink = None


def kinds_in(path) -> list[str]:
    return [event["kind"] for event in read_events(path)[0]]


def unit_events(path) -> list[tuple]:
    """The order-insensitive progress substance of one log."""
    events = []
    for event in read_events(path)[0]:
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
    """An event's payload: what ``emit`` takes."""
    return {k: v for k, v in event.items()
            if k not in ("seq", "ts", "kind")}


# -- serial / parallel equivalence -------------------------------------


def test_serial_stream_is_valid_and_complete(tmp_path):
    cells = run_sweep(tmp_path)
    path = tmp_path / EVENTS_FILENAME
    assert validate_stream(path) == []
    snap = read_progress(path)
    assert snap.finished and snap.status == "completed"
    assert snap.schema == PROGRESS_SCHEMA
    assert snap.done == snap.units == len(XS) * N_TASKSETS
    assert snap.computed == snap.units and snap.cached == 0
    assert snap.cells_done == snap.cells == len(cells)
    assert not snap.stalled
    assert [cell.done for cell in snap.per_cell] == [N_TASKSETS] * 2
    # One event log: the old second file is gone.
    assert not (tmp_path / "progress.jsonl").exists()


@pytest.mark.skipif(not fork_available(), reason="needs os.fork")
def test_parallel_stream_equivalent_to_serial(tmp_path):
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    serial_cells = run_sweep(serial_dir)
    parallel_cells = run_sweep(parallel_dir, workers=2)
    assert [c.to_payload() for c in serial_cells] \
        == [c.to_payload() for c in parallel_cells]
    assert validate_stream(parallel_dir / EVENTS_FILENAME) == []
    assert unit_events(serial_dir / EVENTS_FILENAME) \
        == unit_events(parallel_dir / EVENTS_FILENAME)
    serial_snap = read_progress(serial_dir)
    parallel_snap = read_progress(parallel_dir)
    for snap in (serial_snap, parallel_snap):
        snap_summary = snap.summary()
        snap_summary.pop("stream")
        assert snap_summary == {
            "units": 4, "done": 4, "computed": 4, "cached": 0,
            "resumed": 0, "quarantined": 0, "cells": 2,
            "cells_done": 2}
    # The parallel log additionally narrates its dispatch.
    assert "chunk.dispatch" in kinds_in(parallel_dir / EVENTS_FILENAME)


def test_manifest_progress_block_equals_stream_snapshot(tmp_path):
    TELEMETRY.configure(enabled=True, manifest_dir=tmp_path)
    run_sweep(tmp_path, workload_id="progress-test")
    TELEMETRY.configure(enabled=False)
    manifests = sorted(tmp_path.glob("manifest_*.json"))
    assert manifests
    manifest = RunManifest.load(manifests[-1])
    snap = read_progress(tmp_path)
    assert manifest.progress == snap.summary()


def poisoned(u: float, seed: int):
    if u == XS[1] and seed == runner.taskset_seeds(2002, N_TASKSETS)[0]:
        raise ValueError("poisoned unit")
    return workload(u, seed)


@pytest.mark.parametrize("mode", [
    "serial",
    pytest.param("parallel", marks=pytest.mark.skipif(
        not fork_available(), reason="needs os.fork")),
    "resumed", "quarantining"])
def test_manifest_block_equals_sweep_done(tmp_path, mode):
    # The tallies are counted where the events are emitted, not by a
    # sink: the manifest's block and ``sweep.done`` both repeat them.
    kwargs = {"parallel": {"workers": 2},
              "quarantining": {"on_failure": "quarantine"}}.get(mode, {})
    make = poisoned if mode == "quarantining" else workload
    if mode == "resumed":
        # A killed sweep: its first cell checkpointed, its second not.
        sweep(XS, workload, POLICIES, n_tasksets=N_TASKSETS,
              horizon=HORIZON, checkpoint_dir=tmp_path)
        (tmp_path / "cell_0001.json").unlink()
        kwargs = {"resume": True}
    TELEMETRY.configure(enabled=True,
                        events_path=tmp_path / EVENTS_FILENAME,
                        manifest_dir=tmp_path)
    sweep(XS, make, POLICIES, n_tasksets=N_TASKSETS, horizon=HORIZON,
          checkpoint_dir=tmp_path, **kwargs)
    TELEMETRY.configure(enabled=False)
    [manifest] = sorted(tmp_path.glob("manifest_*.json"))
    block = RunManifest.load(manifest).progress
    done = [event for event in read_events(tmp_path / EVENTS_FILENAME)[0]
            if event["kind"] == "sweep.done"][-1]
    assert dict(fields_of(done), stream=str(tmp_path / EVENTS_FILENAME),
                status="completed") == dict(block, status="completed")
    units = len(XS) * N_TASKSETS
    assert block["done"] == block["units"] == units
    assert (block["resumed"], block["quarantined"]) == {
        "resumed": (N_TASKSETS, 0),
        "quarantining": (0, 1)}.get(mode, (0, 0))


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


def test_sweep_heartbeats_end_before_sweep_done(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "DEFAULT_HEARTBEAT_INTERVAL", 0.01)

    def slow(u: float, seed: int):
        time.sleep(0.05)
        return workload(u, seed)

    sweep(XS, slow, POLICIES, n_tasksets=N_TASKSETS, horizon=HORIZON,
          checkpoint_dir=tmp_path)
    events = read_events(tmp_path / EVENTS_FILENAME)[0]
    kinds = [event["kind"] for event in events]
    assert "heartbeat" in kinds
    assert kinds.index("sweep.start") < kinds.index("heartbeat")
    assert kinds[-1] == "sweep.done"
    beat = events[kinds.index("heartbeat")]
    assert fields_of(beat) == {"pids": [os.getpid()],
                               "alive": [os.getpid()]}
    assert events[0]["heartbeat_interval"] == 0.01
    assert validate_stream(tmp_path) == []
    assert not any(thread.name == "repro-progress-heartbeat"
                   for thread in threading.enumerate())


# -- one log, several sweeps -------------------------------------------


def test_multi_sweep_log_narrates_the_newest(tmp_path, capsys):
    # Two sweeps through the sink `repro run --telemetry-dir` opens,
    # then a third from a fresh sink (counters off, the checkpoint dir
    # is the run dir), whose seq restarts at 1.
    TELEMETRY.configure(enabled=True,
                        events_path=tmp_path / EVENTS_FILENAME,
                        manifest_dir=tmp_path)
    sweep(XS, workload, POLICIES, n_tasksets=N_TASKSETS, horizon=HORIZON)
    sweep(XS[:1], workload, POLICIES, n_tasksets=N_TASKSETS,
          horizon=HORIZON)
    TELEMETRY.configure(enabled=False)
    sweep(XS, workload, POLICIES, n_tasksets=1, horizon=HORIZON,
          checkpoint_dir=tmp_path)
    events = read_events(tmp_path / EVENTS_FILENAME)[0]
    starts = [event for event in events if event["kind"] == "sweep.start"]
    assert [start["units"] for start in starts] \
        == [len(XS) * N_TASKSETS, N_TASKSETS, len(XS)]
    assert starts[-1]["seq"] == 1 and events[0]["seq"] == 1
    assert validate_stream(tmp_path) == []
    snap = read_progress(tmp_path)
    assert snap.finished and snap.status == "completed"
    assert snap.units == snap.done == snap.computed == len(XS)
    assert snap.corrupt_lines == 0
    capsys.readouterr()
    assert main(["watch", str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "completed"
    assert payload["units"] == payload["done"] == len(XS)


def test_torn_tail_then_a_new_sweep(tmp_path):
    # A sweep killed mid-write leaves a torn last line; the next sink
    # ends it first, so the next sweep.start is not lost in it, and
    # the torn line belongs to the older sweep.
    run_sweep(tmp_path)
    with (tmp_path / EVENTS_FILENAME).open("a") as fh:
        fh.write('{"seq": 99, "ts": 1000.0, "kind": "unit.do')
    sweep(XS, workload, POLICIES, n_tasksets=1, horizon=HORIZON,
          checkpoint_dir=tmp_path)
    assert len(read_events(tmp_path / EVENTS_FILENAME)[1]) == 1
    assert validate_stream(tmp_path) == []
    snap = read_progress(tmp_path)
    assert snap.finished and snap.units == len(XS)
    assert snap.corrupt_lines == 0


def test_unusable_run_dir_degrades_to_unnarrated(tmp_path, capsys):
    reference = sweep(XS, workload, POLICIES, n_tasksets=N_TASKSETS,
                      horizon=HORIZON)
    blocker = tmp_path / "run"
    blocker.write_text("a regular file where the run dir should be")
    TELEMETRY.configure(enabled=True)
    capsys.readouterr()
    cells = sweep(XS, workload, POLICIES, n_tasksets=N_TASKSETS,
                  horizon=HORIZON, checkpoint_dir=blocker)
    degraded = TELEMETRY.counter("progress.degraded")
    TELEMETRY.configure(enabled=False)
    assert [json.dumps(c.to_payload()) for c in cells] \
        == [json.dumps(c.to_payload()) for c in reference]
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if "event log" in line]
    assert len(warnings) == 1 and "unnarrated" in warnings[0]
    assert degraded == 1
    assert TELEMETRY.sink is None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]


# -- reader robustness -------------------------------------------------


def test_corrupt_lines_skipped_and_counted(tmp_path):
    run_sweep(tmp_path)
    path = tmp_path / EVENTS_FILENAME
    with path.open("a") as fh:
        fh.write("{torn json\n")
        fh.write('{"kind": "no.such.kind", "seq": 9999, "ts": 1}\n')
        fh.write('{"seq": 10000}\n')
    TELEMETRY.configure(enabled=True)
    snap = read_progress(path)
    # The unknown kind is a readable event the reader does not narrate:
    # skipped, not corrupt.
    assert snap.corrupt_lines == 2
    assert snap.finished  # the valid prefix still parses fully
    assert snap.done == snap.units
    assert TELEMETRY.snapshot()["counters"]["progress.corrupt"] == 2


def test_missing_stream_and_missing_start_raise(tmp_path):
    with pytest.raises(ExperimentError, match="no event log"):
        read_progress(tmp_path / "nope.jsonl")
    bad = tmp_path / EVENTS_FILENAME
    write_stream(bad, [unit_event(1, 1000.0)])
    with pytest.raises(ExperimentError, match="sweep.start"):
        read_progress(bad)


def test_newer_schema_refused(tmp_path):
    path = tmp_path / EVENTS_FILENAME
    write_stream(path, [dict(start_event(), schema=PROGRESS_SCHEMA + 1)])
    with pytest.raises(ExperimentError, match="newer"):
        read_progress(path)


def test_validate_stream_flags_structural_problems(tmp_path):
    path = tmp_path / EVENTS_FILENAME
    write_stream(path, [
        start_event(seq=1, ts=1000.0),
        {"seq": 1, "ts": 999.0, "kind": "unit.done", "status": "weird"},
        {"seq": 3, "ts": 1001.0, "kind": "made.up"},
        {"seq": 4, "ts": 1002.0, "kind": "sweep.done"},
        {"seq": 5, "ts": 1003.0, "kind": "cell.done"},
    ])
    with path.open("a") as fh:
        fh.write("{torn\n")
    problems = "\n".join(validate_stream(path))
    assert "not strictly increasing" in problems
    assert "decreased" in problems
    assert "made.up" not in problems  # not narrated: skipped
    assert "status 'weird' unknown" in problems
    assert "cell.done seq 5: after sweep.done" in problems
    assert "1 torn or corrupt line(s)" in problems


# -- stall detection ---------------------------------------------------


def test_silent_unfinished_stream_stalls(tmp_path):
    path = tmp_path / EVENTS_FILENAME
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
    path = tmp_path / EVENTS_FILENAME
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
    with event_log(tmp_path) as sink:
        TELEMETRY.emit("sweep.start", **fields_of(
            start_event(cells=1, seeds=1, heartbeat_interval=0.02)))
        heartbeat = Heartbeat(0.02)
        try:
            deadline = time.time() + 2.0
            while time.time() < deadline:
                if "heartbeat" in kinds_in(sink.path):
                    break
                time.sleep(0.02)
        finally:
            heartbeat.stop()
    snap = read_progress(tmp_path)
    assert snap.heartbeat_pids == [os.getpid()]
    assert snap.heartbeat_alive == [os.getpid()]


def test_forked_child_cannot_write(tmp_path):
    if not fork_available():
        pytest.skip("needs os.fork")
    done = fields_of(unit_event(2, 1000.0))
    with event_log(tmp_path) as sink:
        TELEMETRY.emit("sweep.start",
                       **fields_of(start_event(cells=1, seeds=1)))
        pid = os.fork()
        if pid == 0:  # child: all of these must silently no-op
            wrote = sink.write("unit.start", {"index": 0})
            TELEMETRY.emit("unit.done", **done)
            sink.close()
            os._exit(1 if wrote else 0)
        assert os.waitpid(pid, 0)[1] == 0
        TELEMETRY.emit("unit.done", **done)
    snap = read_progress(tmp_path)
    assert snap.computed == 1  # the parent's one write, nothing more
    assert validate_stream(tmp_path) == []


def test_heartbeats_and_events_share_the_sink_safely(tmp_path):
    # The sink's lock serialises the heartbeat thread with the main
    # one: a lost update would repeat a seq, a torn write would leave
    # a corrupt line.
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with event_log(tmp_path) as sink:
            TELEMETRY.emit("sweep.start", **fields_of(
                start_event(cells=1, seeds=1, heartbeat_interval=0.001)))
            heartbeat = Heartbeat(0.001)
            done = fields_of(unit_event(2, 1000.0))
            written = 0
            deadline = time.monotonic() + 0.3
            while time.monotonic() < deadline:
                TELEMETRY.emit("unit.done", **done)
                written += 1
            heartbeat.stop()
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.name == "repro-progress-heartbeat"
                   for thread in threading.enumerate())
    assert validate_stream(tmp_path) == []
    kinds = kinds_in(sink.path)
    assert kinds.count("heartbeat") > 0
    assert kinds.count("unit.done") == written
    snap = read_progress(tmp_path)
    assert snap.computed == written and snap.corrupt_lines == 0


def test_retry_failure_names_its_error_type(tmp_path):
    path = tmp_path / EVENTS_FILENAME
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
    path = tmp_path / EVENTS_FILENAME
    write_stream(path, [start_event(ts=1000.0, pid=dead_pid())])
    # Dead writer => stalled => exit 1 (without --once).
    assert watch(tmp_path, interval=0.01, out=io.StringIO()) == 1


def test_watch_follows_to_completion(tmp_path):
    path = tmp_path / EVENTS_FILENAME
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
