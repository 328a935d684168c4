"""Tests for repro.trace: Chrome export, JSONL round-trip, ledger, diff."""

import dataclasses
import json

import pytest

from repro.cpu.profiles import ideal_processor
from repro.errors import ConfigurationError, TraceValidationError
from repro.policies.registry import make_policy
from repro.sim.engine import simulate
from repro.tasks.execution import WorstCaseExecution
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet
from repro.trace import (
    EnergyLedger,
    chrome_trace_events,
    diff_docs,
    diff_traces,
    export_chrome_trace,
    read_trace_jsonl,
    write_trace_jsonl,
)

pytestmark = pytest.mark.trace


@pytest.fixture
def traced_result():
    taskset = TaskSet([PeriodicTask("A", wcet=1.0, period=4.0),
                       PeriodicTask("B", wcet=2.0, period=10.0)])
    return simulate(taskset, ideal_processor(), make_policy("lpSTA"),
                    WorstCaseExecution(), horizon=40.0,
                    record_trace=True)


class TestChromeExport:
    def test_requires_trace(self):
        taskset = TaskSet([PeriodicTask("A", wcet=1.0, period=4.0)])
        result = simulate(taskset, ideal_processor(),
                          make_policy("none"), WorstCaseExecution(),
                          horizon=8.0, record_trace=False)
        with pytest.raises(ConfigurationError):
            chrome_trace_events(result)

    def test_valid_json_with_monotonic_timestamps(self, traced_result,
                                                  tmp_path):
        path = export_chrome_trace(traced_result, tmp_path / "t.json")
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert events
        stamps = [e["ts"] for e in events if e["ph"] != "M"]
        assert stamps == sorted(stamps)
        assert all(ts >= 0 for ts in stamps)

    def test_one_lane_per_task_plus_activity_lanes(self, traced_result):
        events = chrome_trace_events(traced_result)
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"A", "B", "(idle)", "(switch)", "(sleep)",
                "(notes)"} <= names

    def test_speed_counter_track_present(self, traced_result):
        events = chrome_trace_events(traced_result)
        counters = [e for e in events if e["ph"] == "C"]
        assert counters
        assert all(e["name"] == "speed" for e in counters)

    def test_complete_events_cover_busy_time(self, traced_result):
        events = chrome_trace_events(traced_result)
        run_dur = sum(e["dur"] for e in events
                      if e["ph"] == "X" and e["cat"] == "run")
        assert run_dur / 1e6 == pytest.approx(traced_result.busy_time)


class TestJsonlRoundTrip:
    def test_round_trip_preserves_everything(self, traced_result,
                                             tmp_path):
        path = write_trace_jsonl(traced_result, tmp_path / "t.jsonl")
        doc = read_trace_jsonl(path)
        assert doc.policy == traced_result.policy
        assert doc.horizon == traced_result.horizon
        assert doc.segments == tuple(traced_result.trace.segments)
        assert doc.notes == tuple(traced_result.notes)

    def test_truncated_file_detected(self, traced_result, tmp_path):
        path = write_trace_jsonl(traced_result, tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(TraceValidationError, match="declares"):
            read_trace_jsonl(path)

    def test_newer_schema_refused(self, traced_result, tmp_path):
        path = write_trace_jsonl(traced_result, tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema"] = 99
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(TraceValidationError, match="newer"):
            read_trace_jsonl(path)

    def test_non_trace_file_refused(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text(json.dumps({"kind": "run-manifest"}) + "\n")
        with pytest.raises(TraceValidationError, match="not a schedule"):
            read_trace_jsonl(path)


class TestEnergyLedger:
    def test_conserves_total_energy(self, traced_result):
        ledger = traced_result.energy_ledger()
        assert ledger.total == pytest.approx(traced_result.total_energy,
                                             rel=1e-9)
        assert ledger.check(traced_result) == []

    def test_buckets_match_result_decomposition(self, traced_result):
        ledger = traced_result.energy_ledger()
        assert ledger.run == pytest.approx(traced_result.busy_energy,
                                           rel=1e-9)
        assert ledger.idle == pytest.approx(traced_result.idle_energy,
                                            rel=1e-9)
        assert ledger.sleep == pytest.approx(traced_result.sleep_energy,
                                             rel=1e-9)

    def test_per_job_attribution_sums_to_per_task(self, traced_result):
        ledger = traced_result.energy_ledger()
        for task, total in ledger.run_by_task.items():
            jobs = sum(e for job, e in ledger.run_by_job.items()
                       if job.startswith(f"{task}#"))
            assert jobs == pytest.approx(total, rel=1e-9)

    def test_imbalance_reported(self, traced_result):
        ledger = traced_result.energy_ledger()
        broken = dataclasses.replace(
            traced_result, busy_energy=traced_result.busy_energy + 1.0)
        problems = ledger.check(broken)
        assert problems
        assert any("run" in p or "total" in p for p in problems)

    def test_requires_trace(self):
        taskset = TaskSet([PeriodicTask("A", wcet=1.0, period=4.0)])
        result = simulate(taskset, ideal_processor(),
                          make_policy("none"), WorstCaseExecution(),
                          horizon=8.0, record_trace=False)
        with pytest.raises(ConfigurationError):
            EnergyLedger.from_result(result)

    def test_render_mentions_every_task(self, traced_result):
        rendered = traced_result.energy_ledger().render()
        assert "A" in rendered and "B" in rendered
        assert "total" in rendered


class TestDiff:
    def test_identical_traces_have_no_divergence(self, traced_result,
                                                 tmp_path):
        a = read_trace_jsonl(
            write_trace_jsonl(traced_result, tmp_path / "a.jsonl"))
        b = read_trace_jsonl(
            write_trace_jsonl(traced_result, tmp_path / "b.jsonl"))
        assert diff_docs(a, b) is None

    def test_first_divergent_segment_reported(self, traced_result):
        segments = list(traced_result.trace.segments)
        mutated = list(segments)
        mutated[2] = dataclasses.replace(segments[2],
                                         speed=segments[2].speed + 0.1)
        divergence = diff_traces(segments, mutated)
        assert divergence is not None
        assert divergence.index == 2
        assert divergence.field == "speed"

    def test_length_mismatch_reported(self, traced_result):
        segments = list(traced_result.trace.segments)
        divergence = diff_traces(segments, segments[:-1])
        assert divergence is not None
        assert divergence.field == "segment-count"

class TestSweepTimeline:
    def _events(self, tmp_path):
        lines = [
            {"seq": 1, "ts": 100.0, "kind": "chunk.dispatch",
             "chunks": 2, "units": 4, "workers": 2},
            {"seq": 2, "ts": 101.5, "kind": "parallel.chunk",
             "pid": 41, "units": 2, "wall_s": 1.4, "t0": 100.1,
             "t1": 101.5},
            {"seq": 3, "ts": 101.9, "kind": "parallel.chunk",
             "pid": 42, "units": 2, "wall_s": 1.7, "t0": 100.2,
             "t1": 101.9},
            {"seq": 4, "ts": 102.0, "kind": "sweep.checkpoint",
             "index": 0, "x": 0.5},
            {"seq": 5, "ts": 102.1, "kind": "span",
             "name": "sweep.compute", "wall_s": 2.0, "cpu_s": 3.1},
        ]
        path = tmp_path / "events.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in lines)
                        + "\n")
        return path

    def test_worker_lanes_and_monotonic_timestamps(self, tmp_path):
        from repro.trace import export_sweep_timeline
        out = export_sweep_timeline(self._events(tmp_path),
                                    tmp_path / "timeline.json")
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        lanes = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"(sweep)", "worker 41", "worker 42"} <= lanes
        chunk_spans = [e for e in events if e.get("cat") == "worker"]
        assert len(chunk_spans) == 2
        assert all(e["dur"] > 0 for e in chunk_spans)
        stamps = [e["ts"] for e in events if e["ph"] != "M"]
        assert stamps == sorted(stamps)
        assert min(stamps) >= 0

    def test_torn_tail_still_folds(self, tmp_path):
        # A sweep killed mid-write tears the log's last line: the
        # timeline skips and counts it, as `repro watch` does.
        from repro.trace import export_sweep_timeline
        path = self._events(tmp_path)
        intact = export_sweep_timeline(path, tmp_path / "intact.json")
        with path.open("a") as fh:
            fh.write('{"seq": 6, "ts": 102.2, "kind": "parallel.ch')
        torn = export_sweep_timeline(path, tmp_path / "torn.json")
        intact, torn = (json.loads(p.read_text()) for p in (intact, torn))
        assert torn["traceEvents"] == intact["traceEvents"]
        assert intact["otherData"]["skipped_lines"] == 0
        assert torn["otherData"]["skipped_lines"] == 1

    def test_empty_events_rejected(self, tmp_path):
        from repro.errors import ExperimentError
        from repro.trace import sweep_timeline_events
        empty = tmp_path / "events.jsonl"
        empty.write_text("")
        with pytest.raises(ExperimentError, match="empty"):
            sweep_timeline_events(empty)
        with pytest.raises(ExperimentError, match="cannot read"):
            sweep_timeline_events(tmp_path / "missing.jsonl")


class TestDiffNotes:
    def test_note_divergence_reported(self, traced_result, tmp_path):
        path = write_trace_jsonl(traced_result, tmp_path / "a.jsonl")
        doc_a = read_trace_jsonl(path)
        from repro.sim.tracing import TraceNote
        doc_b = dataclasses.replace(
            doc_a, notes=doc_a.notes + (TraceNote(1.0, "governor",
                                                  "x"),))
        divergence = diff_docs(doc_a, doc_b)
        assert divergence is not None
        assert divergence.field == "note-count"
