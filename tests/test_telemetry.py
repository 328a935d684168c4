"""Telemetry layer: core primitives, engine counters, merge, manifests.

The contracts under test (DESIGN.md §9):

* the registry is disabled by default (both switches) and a disabled
  run records nothing and costs nothing measurable on the engine loop;
* enabled engine counters agree with the hand-analysable two-task
  schedule and with ``SimulationResult``'s own totals;
* a parallel sweep merges worker deltas into exactly the counts and
  phase counts the serial sweep records (no double counting across the
  fork, nor for a chunk run inline in the parent);
* run manifests round-trip through JSON, detect fingerprint drift,
  and their cache section matches the actual suite-cache behaviour.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cpu.profiles import ideal_processor
from repro.errors import ExperimentError
from repro.experiments import parallel
from repro.experiments.parallel import fork_available, shutdown_pool
from repro.experiments.runner import bcwc_model, standard_taskset, sweep
from repro.policies.registry import make_policy
from repro.sim.engine import simulate
from repro.tasks.execution import WorstCaseExecution
from repro.telemetry import (
    DEFAULT_BOUNDS,
    TELEMETRY,
    Histogram,
    RunManifest,
    Telemetry,
    next_manifest_path,
    render_manifest,
)

pytestmark = pytest.mark.telemetry

HORIZON = 300.0
POLICIES = ("static", "lpSTA")


EMPTY = {"counters": {}, "histograms": {}, "phases": {}, "samples": {},
         "workers": {}}


@pytest.fixture(autouse=True)
def clean_registry():
    """Every test starts and ends with a pristine, disabled registry."""
    TELEMETRY.configure(enabled=False)
    TELEMETRY.configure_timers(enabled=False)
    TELEMETRY.reset()
    yield
    TELEMETRY.configure(enabled=False)
    TELEMETRY.configure_timers(enabled=False)
    TELEMETRY.reset()


def workload(u: float, seed: int):
    return standard_taskset(5, u, seed), bcwc_model(0.5, seed)


def run_two_task(two_task_set, policy_name="none"):
    policy = make_policy(policy_name)
    return simulate(two_task_set, ideal_processor(min_speed=0.05),
                    policy, WorstCaseExecution(), horizon=20.0)


class TestCore:
    def test_disabled_registry_records_nothing(self):
        tele = Telemetry()
        assert tele.enabled is False and tele.timers is False
        tele.inc("x")
        tele.observe("y", 0.5)
        with tele.span("z"):
            pass
        with tele.phase("engine.run"):
            pass
        with tele.sample_unit():
            pass
        tele.record_worker(123, chunks=1, units=1, busy_s=0.1)
        assert tele.snapshot() == EMPTY

    def test_counter_and_histogram(self):
        tele = Telemetry()
        tele.configure(enabled=True)
        tele.inc("hits")
        tele.inc("hits", 4)
        tele.observe("speed", 0.3)
        tele.observe("speed", 0.9)
        assert tele.counter("hits") == 5
        hist = tele.histogram("speed")
        assert hist.count == 2
        assert hist.mean == pytest.approx(0.6)
        assert hist.min == pytest.approx(0.3)
        assert hist.max == pytest.approx(0.9)
        assert sum(hist.buckets) == 2

    def test_histogram_merge_equals_single(self):
        merged, single = Histogram(), Histogram()
        other = Histogram()
        for v in (0.01, 0.2, 0.2, 5.0, 1e6):
            single.observe(v)
        for v in (0.01, 0.2):
            merged.observe(v)
        for v in (0.2, 5.0, 1e6):
            other.observe(v)
        merged.merge_payload(other.to_payload())
        got, want = merged.to_payload(), single.to_payload()
        # Summation order differs across the merge, so the running
        # total is only float-approximately equal.
        assert got.pop("total") == pytest.approx(want.pop("total"))
        assert got == want

    def test_histogram_bounds_mismatch_rejected(self):
        hist = Histogram(bounds=(1.0, 2.0))
        with pytest.raises(ValueError, match="bounds"):
            hist.merge_payload(Histogram(DEFAULT_BOUNDS).to_payload())

    def test_span_accumulates(self):
        tele = Telemetry()
        tele.configure(enabled=True)
        for _ in range(3):
            with tele.span("phase"):
                time.sleep(0.001)
        span = tele.snapshot()["phases"]["phase"]
        assert span["count"] == 3
        assert span["total_ns"] >= 3_000_000

    def test_delta_then_merge_is_identity(self):
        tele = Telemetry()
        tele.configure(enabled=True)
        tele.configure_timers(enabled=True)
        tele.inc("a", 2)
        tele.observe("h", 0.5)
        with tele.phase("engine.run"):
            pass
        before = tele.snapshot()
        tele.inc("a", 3)
        tele.inc("b")
        tele.observe("h", 0.7)
        with tele.phase("engine.run"):
            with tele.phase("slack.exact"):
                pass
        delta = tele.delta_since(before)
        assert delta["counters"] == {"a": 3, "b": 1}
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["phases"]["engine.run"]["count"] == 1
        assert delta["phases"]["slack.exact"]["count"] == 1
        # Folding the delta into a registry holding `before` must
        # reconstruct the full state — the cross-process contract.
        other = Telemetry()
        other.configure(enabled=True)
        other.configure_timers(enabled=True)
        other.merge_snapshot(before)
        other.merge_snapshot(delta)
        after, want = other.snapshot(), tele.snapshot()
        assert after["counters"] == want["counters"]
        assert (after["histograms"]["h"]["buckets"]
                == want["histograms"]["h"]["buckets"])
        assert after["phases"] == want["phases"]

    def test_snapshot_is_json_safe(self):
        tele = Telemetry()
        tele.configure(enabled=True)
        tele.inc("a")
        tele.observe("h", 2.0)
        with tele.span("p"):
            pass
        tele.configure_timers(enabled=True)
        with tele.phase("engine.run"):
            pass
        tele.record_worker(42, chunks=1, units=3, busy_s=0.5)
        json.dumps(tele.snapshot())  # must not raise


class TestEngineCounters:
    def test_two_task_schedule_counts(self, two_task_set):
        TELEMETRY.configure(enabled=True)
        result = run_two_task(two_task_set)
        # Hyperperiod 20: A releases at 0,4,8,12,16 and B at 0,10 —
        # seven jobs, all completing at full speed (U = 0.5).
        assert TELEMETRY.counter("engine.releases") == 7
        assert TELEMETRY.counter("engine.completions") == 7
        assert TELEMETRY.counter("engine.misses") == 0
        assert TELEMETRY.counter("engine.runs") == 1
        assert TELEMETRY.counter("engine.dispatches") == result.dispatches
        assert result.dispatches >= 7
        assert (TELEMETRY.counter("policy.none.decisions")
                == result.dispatches)
        hist = TELEMETRY.histogram("policy.none.speed")
        assert hist is not None and hist.count == result.dispatches
        assert hist.min == hist.max == 1.0  # no-DVS runs flat out

    def test_counters_accumulate_across_runs(self, two_task_set):
        TELEMETRY.configure(enabled=True)
        run_two_task(two_task_set)
        run_two_task(two_task_set)
        assert TELEMETRY.counter("engine.runs") == 2
        assert TELEMETRY.counter("engine.releases") == 14

    def test_disabled_run_records_nothing(self, two_task_set):
        run_two_task(two_task_set)
        assert TELEMETRY.snapshot() == EMPTY

    def test_slack_policies_observe_slack(self, two_task_set):
        TELEMETRY.configure(enabled=True)
        run_two_task(two_task_set, "lpSTA")
        hist = TELEMETRY.histogram("policy.lpSTA.slack")
        assert hist is not None and hist.count > 0

    def test_disabled_overhead_not_measurable(self, three_task_set):
        """The disabled fast path must not cost engine time.

        An enabled run does strictly more work than a disabled one, so
        min-of-N disabled time at or below min-of-N enabled time (plus
        generous scheduling-noise headroom) pins the disabled path to
        'no measurable overhead'.  The guard against *any* slowdown of
        the engine loop is the paired end-to-end A/B of ``fig1``
        against the base revision (``scripts/ab.py``).
        """
        def timed(enabled: bool) -> float:
            TELEMETRY.configure(enabled=enabled)
            best = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                run_two_task(three_task_set, "lpSTA")
                best = min(best, time.perf_counter() - started)
            return best

        enabled = timed(True)
        TELEMETRY.reset()
        disabled = timed(False)
        assert disabled <= enabled * 1.5 + 0.01


@pytest.mark.skipif(not fork_available(),
                    reason="parallel executor needs fork()")
class TestParallelMerge:
    XS = (0.4, 0.7)
    N_TASKSETS = 2
    UNITS = len(XS) * N_TASKSETS

    @pytest.fixture(autouse=True)
    def both_switches_on(self):
        TELEMETRY.configure(enabled=True)
        TELEMETRY.configure_timers(enabled=True)

    def sweep_counts(self, workers: int = 1) -> tuple[dict, dict]:
        """Engine/policy counters and timing-free phase counts of one
        fresh sweep."""
        TELEMETRY.reset()
        sweep(self.XS, workload, POLICIES, n_tasksets=self.N_TASKSETS,
              horizon=HORIZON, workers=workers)
        snap = TELEMETRY.snapshot()
        counters = {name: value for name, value in snap["counters"].items()
                    if name.split(".")[0] in ("engine", "policy")}
        phases = {name: rec["count"]
                  for name, rec in snap["phases"].items()
                  if name.startswith(("policy.decide.", "engine.run."))
                  or name in ("unit.workload", "slack.exact",
                              "slack.heuristic")}
        assert counters and phases["unit.workload"] == self.UNITS
        # One engine.run.<policy> region per run of each policy, the
        # no-DVS baseline included.
        assert {name: count for name, count in phases.items()
                if name.startswith("engine.run.")} == {
            f"engine.run.{policy}": self.UNITS
            for policy in ("none", *POLICIES)}
        return counters, phases

    def test_parallel_counts_equal_serial(self):
        serial = self.sweep_counts()
        # The pool must fork *after* enabling, so workers inherit an
        # enabled registry; their pre-chunk snapshot subtracts any
        # inherited counts, so nothing is double-counted.
        shutdown_pool()
        try:
            merged = self.sweep_counts(workers=3)
            workers_seen = TELEMETRY.snapshot()["workers"]
        finally:
            shutdown_pool()
        assert merged == serial
        assert workers_seen  # worker accounting actually arrived
        assert (sum(w["units"] for w in workers_seen.values())
                == self.UNITS)

    def test_inline_chunk_counted_once(self, monkeypatch):
        # With one schedulable CPU every chunk runs inline in the
        # parent: its counters and phases land there directly, and
        # merging its delta as well would count them twice.
        monkeypatch.setattr(parallel, "default_workers", lambda: 1)
        serial = self.sweep_counts()
        assert self.sweep_counts(workers=2) == serial
        assert TELEMETRY.counter("parallel.units_computed") == self.UNITS


class TestManifest:
    FP = {"xs": [0.4, 0.7], "policies": ["static"], "master_seed": 2002}

    def manifest(self) -> RunManifest:
        return RunManifest(
            label="test", fingerprint=dict(self.FP),
            phases={"sweep.compute": {"count": 1, "wall_s": 1.5,
                                      "cpu_s": 1.2}},
            counters={"engine.runs": 4, "cache.hits": 2},
            histograms={}, cache={"hits": 2, "misses": 2, "writes": 2,
                                  "corrupt": 0},
            workers={"pool_workers": 2,
                     "per_worker": {"101": {"chunks": 1, "units": 2,
                                            "busy_s": 1.0}}},
            faults={"injected": False})

    def test_round_trip(self, tmp_path):
        manifest = self.manifest()
        path = manifest.write(tmp_path / "manifest_test_001.json")
        loaded = RunManifest.load(path)
        assert loaded.to_payload() == manifest.to_payload()
        assert loaded.cache_hit_rate() == pytest.approx(0.5)

    def test_fingerprint_match_passes(self):
        self.manifest().check_fingerprint(dict(self.FP))

    def test_fingerprint_mismatch_raises(self):
        drifted = dict(self.FP, master_seed=1999)
        with pytest.raises(ExperimentError, match="master_seed"):
            self.manifest().check_fingerprint(drifted)

    def test_foreign_payload_rejected(self, tmp_path):
        path = tmp_path / "manifest_x_001.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ExperimentError):
            RunManifest.load(path)

    def test_next_manifest_path_increments(self, tmp_path):
        first = next_manifest_path(tmp_path, "EXP-F1:u")
        first.write_text("{}")
        second = next_manifest_path(tmp_path, "EXP-F1:u")
        assert first.name != second.name
        assert second.name.endswith("_002.json")

    def test_render_mentions_key_sections(self):
        text = render_manifest(self.manifest())
        assert "fingerprint" in text
        assert "cache" in text
        assert "hit-rate 50.0%" in text


class TestSweepManifests:
    def test_manifest_matches_cache_state(self, tmp_path):
        """First run all misses, second all hits — manifests agree."""
        TELEMETRY.configure(enabled=True, manifest_dir=tmp_path / "tele")
        kwargs = dict(n_tasksets=2, horizon=HORIZON,
                      cache_dir=tmp_path / "cache",
                      workload_id="test:tele:n=5")
        xs = (0.4, 0.7)
        units = len(xs) * kwargs["n_tasksets"]
        sweep(xs, workload, POLICIES, **kwargs)
        sweep(xs, workload, POLICIES, **kwargs)
        manifests = sorted((tmp_path / "tele").glob("manifest_*.json"))
        assert len(manifests) == 2
        cold = RunManifest.load(manifests[0])
        warm = RunManifest.load(manifests[1])
        assert cold.cache == {"hits": 0, "misses": units,
                              "writes": units, "corrupt": 0}
        assert warm.cache == {"hits": units, "misses": 0,
                              "writes": 0, "corrupt": 0}
        assert warm.cache_hit_rate() == pytest.approx(1.0)
        # Same sweep spec -> identical fingerprints; and the warm run
        # simulated nothing, which the per-manifest deltas must show.
        cold.check_fingerprint(warm.fingerprint)
        assert cold.counters.get("engine.runs", 0) > 0
        assert warm.counters.get("engine.runs", 0) == 0
        assert "sweep.compute" in cold.phases

    def test_events_jsonl_is_structured(self, tmp_path):
        TELEMETRY.configure(enabled=True,
                            events_path=tmp_path / "events.jsonl",
                            manifest_dir=tmp_path)
        sweep((0.5,), workload, ("static",), n_tasksets=1,
              horizon=HORIZON, workload_id="test:events")
        lines = [json.loads(line) for line in
                 (tmp_path / "events.jsonl").read_text().splitlines()]
        kinds = {line["kind"] for line in lines}
        assert "sweep.start" in kinds
        assert "sweep.manifest" in kinds
        assert all("ts" in line and "seq" in line for line in lines)
