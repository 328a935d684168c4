"""Phase timers: self time, timeline, sampler, budget invariant, reports.

The contracts under test (DESIGN.md §9), with the timers switch on
and counters off (``tests/test_telemetry.py`` pins both switches):

* the timers are off by default and record nothing when off;
* phase self times telescope exactly — the sum of every phase's
  ``self_ns`` equals the root frames' total to the nanosecond, which
  is why the manifest's time budget sums to attributed wall time by
  construction;
* coarse spans nest correctly (same-name and distinct-name) on the
  one span stack the timer regions use;
* timeline recording follows the latest ``configure_timers`` call;
* a phase delta folded into its base reconstructs the full state;
* a profiled sweep is byte-identical to an unprofiled one, serial and
  parallel folds agree on deterministic phase counts, and the
  attributed wall tracks the measured wall within epsilon;
* the report layer round-trips collapsed stacks, renders a flame
  tree, emits a well-formed Chrome trace, and the schema-5 ``profile``
  block survives a manifest round-trip;
* ``repro profile diff`` prints two manifests' budget deltas, after
  the fingerprint keys that differ between them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time

import pytest

from repro.experiments.parallel import fork_available, shutdown_pool
from repro.experiments.runner import bcwc_model, standard_taskset, sweep
from repro.profiling.report import (
    category_of,
    chrome_profile_trace,
    diff_budgets,
    diff_engine_runs,
    profile_block,
    read_collapsed,
    render_budget,
    render_budget_diff,
    render_flame,
    write_collapsed,
)
from repro.telemetry import TELEMETRY, Telemetry, decide_label
from repro.telemetry.manifest import MANIFEST_SCHEMA, RunManifest

pytestmark = pytest.mark.telemetry

XS = (0.3, 0.7)
N_TASKSETS = 2
HORIZON = 200.0
POLICIES = ("none", "lpSTA")


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


def timers_on(**options) -> Telemetry:
    tele = Telemetry()
    tele.configure_timers(enabled=True, **options)
    return tele


def workload(u: float, seed: int):
    return standard_taskset(5, u, seed), bcwc_model(0.5, seed)


def fingerprint(cells) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for cell in cells:
        digest.update(json.dumps(cell.to_payload()).encode())
    return digest.hexdigest()


def run_sweep(workers: int = 1):
    try:
        return sweep(XS, workload, POLICIES, n_tasksets=N_TASKSETS,
                     horizon=HORIZON, workers=workers,
                     workload_id="profile-test")
    finally:
        if workers > 1:
            shutdown_pool()


class TestPhaseTimers:
    def test_disabled_by_default_records_nothing(self):
        prof = Telemetry()
        assert prof.timers is False
        with prof.phase("engine.run"):
            pass
        with prof.sample_unit():
            pass
        snap = prof.snapshot()
        assert snap["phases"] == {} and snap["samples"] == {}

    def test_self_time_telescopes_exactly(self):
        prof = timers_on()
        prof.push("root")
        prof.push("a")
        time.sleep(0.001)
        prof.pop()
        prof.push("b")
        prof.push("c")
        time.sleep(0.001)
        prof.pop()
        prof.pop()
        prof.pop()
        phases = prof.snapshot()["phases"]
        total_self = sum(rec["self_ns"] for rec in phases.values())
        # Integer-exact, not approximate: every nanosecond of the root
        # frame is either its own self time or some descendant's.
        assert total_self == phases["root"]["total_ns"]
        assert phases["b"]["self_ns"] == (phases["b"]["total_ns"]
                                          - phases["c"]["total_ns"])
        assert all(rec["count"] == 1 for rec in phases.values())

    def test_delta_then_merge_is_identity(self):
        # Timers alone, counters off: phases still cut and fold.
        prof = timers_on()
        with prof.phase("engine.run"):
            pass
        before = prof.snapshot()
        with prof.phase("engine.run"):
            with prof.phase("slack.exact"):
                pass
        delta = prof.delta_since(before)
        assert delta["phases"]["engine.run"]["count"] == 1
        assert delta["phases"]["slack.exact"]["count"] == 1
        # Folding the delta into a registry holding `before` must
        # reconstruct the full state — the cross-process contract.
        other = timers_on()
        other.merge_snapshot(before)
        other.merge_snapshot(delta)
        assert other.snapshot()["phases"] == prof.snapshot()["phases"]

    def test_profiler_view_follows_the_timers_switch(self):
        from repro.profiling import PROFILER
        assert PROFILER.enabled is False
        TELEMETRY.configure_timers(enabled=True)
        assert PROFILER.enabled is True
        TELEMETRY.configure(enabled=True)
        TELEMETRY.configure_timers(enabled=False)
        assert PROFILER.enabled is False

    def test_merge_ignored_when_disabled(self):
        tele = Telemetry()
        tele.merge_snapshot({
            "counters": {"engine.runs": 1},
            "phases": {"engine.run": {"count": 1, "total_ns": 5,
                                      "self_ns": 5}},
            "samples": {"main;run": 2}})
        snap = tele.snapshot()
        assert snap["counters"] == snap["phases"] == snap["samples"] == {}

    def test_timeline_cap_counts_drops(self, monkeypatch):
        import repro.telemetry.core as core
        monkeypatch.setattr(core, "TIMELINE_CAP", 2)
        prof = timers_on(timeline=True)
        for _ in range(5):
            with prof.phase("engine.run"):
                pass
        assert len(prof.timeline_events()) == 2
        assert prof.timeline_dropped == 3

    def test_timeline_follows_the_latest_configure(self):
        tele = timers_on(timeline=True)
        with tele.phase("a"):
            pass
        tele.configure_timers(enabled=False)
        tele.configure_timers(enabled=True)  # no timeline asked for
        with tele.phase("b"):
            pass
        assert [event[0] for event in tele.timeline_events()] == ["a"]
        assert tele.snapshot()["phases"]["b"]["count"] == 1


class TestTelemetrySpans:
    def test_distinct_spans_nest(self):
        tele = Telemetry()
        tele.configure(enabled=True)
        with tele.span("outer"):
            with tele.span("inner"):
                time.sleep(0.001)
        spans = tele.snapshot()["phases"]
        assert spans["outer"]["count"] == 1
        assert spans["inner"]["count"] == 1
        # total_ns is inclusive: the outer span's wall contains the
        # inner's, and self_ns is the exclusive counterpart.
        assert spans["outer"]["total_ns"] >= spans["inner"]["total_ns"]
        assert spans["outer"]["self_ns"] == (spans["outer"]["total_ns"]
                                             - spans["inner"]["total_ns"])

    def test_same_name_spans_nest_without_double_close(self):
        tele = Telemetry()
        tele.configure(enabled=True)
        with tele.span("phase"):
            with tele.span("phase"):
                time.sleep(0.001)
        span = tele.snapshot()["phases"]["phase"]
        assert span["count"] == 2
        assert span["total_ns"] >= 2_000_000  # both levels recorded


class TestSampler:
    def test_sampler_captures_stacks_during_busy_compute(self):
        TELEMETRY.configure_timers(enabled=True, sample=True,
                                   sample_interval_s=0.001)
        deadline = time.perf_counter() + 0.08
        with TELEMETRY.sample_unit():
            while time.perf_counter() < deadline:
                sum(i * i for i in range(200))
        samples = TELEMETRY.snapshot()["samples"]
        assert samples, "no stacks collected over 80ms at 1ms interval"
        assert any("test_profiling.py" in stack for stack in samples)

    def test_no_samples_outside_unit_window(self):
        TELEMETRY.configure_timers(enabled=True, sample=True,
                                   sample_interval_s=0.001)
        deadline = time.perf_counter() + 0.02
        while time.perf_counter() < deadline:
            sum(i * i for i in range(200))
        assert TELEMETRY.snapshot()["samples"] == {}


class TestBudgetInvariant:
    def test_profiled_sweep_budget_sums_to_wall(self):
        TELEMETRY.configure_timers(enabled=True)
        before = TELEMETRY.snapshot()
        # Collect the test process's garbage first, as timeit does: an
        # overdue full collection of everything earlier tests left
        # (80-100 ms) otherwise lands in the sweep's first allocations,
        # before its root frame opens, and is charged to the sweep.
        gc.collect()
        t0 = time.perf_counter()
        run_sweep(1)
        measured = time.perf_counter() - t0
        block = profile_block(TELEMETRY.delta_since(before))
        assert sum(block["budget"].values()) == pytest.approx(
            block["wall_s"], abs=1e-9)
        # Serial: one process, one root frame, so attributed wall
        # tracks the measured wall to instrumentation epsilon.
        assert block["wall_s"] == pytest.approx(
            measured, rel=0.15, abs=0.05)
        assert block["budget"]["compute"] > 0
        assert block["phases"]["sweep.compute"]["count"] == 1
        # Decisions are attributed per policy, never to a shared bucket.
        decided = {name for name in block["phases"]
                   if name.startswith("policy.decide")}
        assert decided == {decide_label(name) for name in POLICIES}
        # So are engine runs, and no run is left under a bare name.
        runs = {name for name in block["phases"]
                if name.startswith("engine.run")}
        assert runs == {f"engine.run.{name}" for name in POLICIES}

    def test_profiled_cells_byte_identical(self):
        bare = fingerprint(run_sweep(1))
        TELEMETRY.configure_timers(enabled=True)
        assert fingerprint(run_sweep(1)) == bare

    @pytest.mark.skipif(not fork_available(),
                        reason="parallel fold needs fork")
    def test_serial_and_parallel_folds_agree_on_counts(self):
        # Timers alone, counters off: worker phase deltas still fold.
        TELEMETRY.configure_timers(enabled=True)
        before = TELEMETRY.snapshot()
        run_sweep(1)
        serial = TELEMETRY.delta_since(before)
        before = TELEMETRY.snapshot()
        run_sweep(2)
        parallel = TELEMETRY.delta_since(before)

        def counts(delta):
            return {name: rec["count"]
                    for name, rec in delta["phases"].items()
                    if name.startswith(("policy.decide.", "engine.run."))
                    or name in ("unit.workload", "slack.exact",
                                "slack.heuristic")}

        assert counts(serial) == counts(parallel)
        assert counts(serial)["unit.workload"] == len(XS) * N_TASKSETS


class TestReport:
    def test_category_map(self):
        assert category_of("engine.run.lpSTA") == "compute"
        assert category_of("engine.run.gov(ccEDF)") == "compute"
        assert category_of("unit.workload") == "compute"
        assert category_of("slack.exact") == "slack"
        assert category_of(decide_label("lpSTA")) == "policy"
        assert category_of(decide_label("gov(ccEDF)")) == "policy"
        assert category_of("cache.lookup") == "cache"
        assert category_of("worker.chunk") == "ipc"
        assert category_of("pool.idle") == "idle"
        assert category_of("sweep.compute") == "supervision"
        assert category_of("mystery") == "other"

    def test_render_budget_mentions_categories_and_drift(self):
        delta = {"phases": {
            "sweep.compute": {"count": 1, "total_ns": 10**9,
                              "self_ns": 2 * 10**8},
            "engine.run.lpSTA": {"count": 3, "total_ns": 6 * 10**8,
                                 "self_ns": 6 * 10**8},
            "engine.run.none": {"count": 1, "total_ns": 2 * 10**8,
                                "self_ns": 2 * 10**8}},
            "samples": {}}
        block = profile_block(delta)
        text = render_budget(block, measured_wall_s=1.0)
        assert "compute" in text and "supervision" in text
        assert "attribution drift" in text
        # One row per policy, largest first, with its engine-time share.
        table = text.split("engine time per policy:\n")[1].splitlines()
        assert [row.split()[0] for row in table] == [
            "engine.run.lpSTA", "engine.run.none"]
        assert table[0].split()[-1] == "75.0%"

    def test_diff_budgets_shapes(self):
        a = profile_block({"phases": {"engine.run.lpSTA": {
            "count": 1, "total_ns": 10**9, "self_ns": 10**9}}})
        b = profile_block({"phases": {"engine.run.lpSTA": {
            "count": 1, "total_ns": 2 * 10**9, "self_ns": 2 * 10**9}}})
        diff = diff_budgets(a, b)
        assert diff["compute"]["ratio"] == pytest.approx(2.0)
        assert diff["wall_s"]["delta"] == pytest.approx(1.0)
        assert "compute" in render_budget_diff(diff)
        per_policy = diff_engine_runs(a, b)
        assert list(per_policy) == ["lpSTA"]
        assert per_policy["lpSTA"]["delta"] == pytest.approx(1.0)

    def test_collapsed_roundtrip(self, tmp_path):
        samples = {"main;cli:run;engine:simulate": 7,
                   "main;cli:run;slack:exact_slack": 3}
        path = write_collapsed(samples, tmp_path / "profile.folded")
        assert read_collapsed(path) == samples

    def test_render_flame_tree(self):
        text = render_flame({"a;b": 3, "a;c": 1}, min_share=0.0)
        assert "4 samples" in text
        assert " a " in text and " b " in text and " c " in text

    def test_chrome_trace_shape(self):
        timeline = [("engine.run", 2000, 5000, 1),
                    ("sweep.compute", 1000, 6000, 0)]
        doc = chrome_profile_trace(timeline, origin_ns=1000)
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        xs = [e for e in events if e["ph"] == "X"]
        assert {m["name"] for m in metas} >= {"process_name",
                                              "thread_name"}
        assert [e["ts"] for e in xs] == sorted(e["ts"] for e in xs)
        assert xs[0]["name"] == "sweep.compute"
        assert xs[0]["ts"] == 0.0 and xs[0]["dur"] == 5.0
        assert all(e["pid"] == 1 for e in xs)


class TestManifestAndRegistry:
    def _manifest(self, *, profile=None, label="profiled"):
        return RunManifest(
            label=label,
            fingerprint={"workload_id": "w", "policies": ["lpSTA"],
                         "xs": [0.3], "n_tasksets": 1},
            phases={"sweep.compute": {"wall_s": 1.0, "cpu_s": 1.0,
                                      "count": 1}},
            profile=profile,
        )

    def test_profile_block_roundtrips_schema_5(self):
        block = profile_block({"phases": {"engine.run": {
            "count": 2, "total_ns": 10**9, "self_ns": 10**9}}})
        manifest = self._manifest(profile=block)
        assert manifest.schema == MANIFEST_SCHEMA == 5
        loaded = RunManifest.from_payload(manifest.to_payload())
        assert loaded.profile == block

    def test_schema_4_payload_loads_with_profile_none(self):
        payload = self._manifest().to_payload()
        payload["schema"] = 4
        del payload["profile"]
        loaded = RunManifest.from_payload(payload)
        assert loaded.profile is None

    def _blocks(self):
        block_a = profile_block({"phases": {"engine.run.lpSTA": {
            "count": 2, "total_ns": 10**9, "self_ns": 10**9}}})
        block_b = profile_block({"phases": {
            "engine.run.lpSTA": {"count": 2, "total_ns": 7 * 10**8,
                                 "self_ns": 7 * 10**8},
            "engine.run.gov(DRA)": {"count": 1, "total_ns": 3 * 10**8,
                                    "self_ns": 3 * 10**8},
            "slack.exact": {"count": 5, "total_ns": 5 * 10**8,
                            "self_ns": 5 * 10**8}}})
        return block_a, block_b

    def test_profile_diff_reports_deltas(self, tmp_path, capsys):
        from repro.cli import main
        block_a, block_b = self._blocks()
        assert block_a["budget"]["compute"] == pytest.approx(1.0)
        diff = diff_budgets(block_a, block_b)
        assert diff["slack"]["delta"] == pytest.approx(0.5)
        assert diff["wall_s"]["delta"] == pytest.approx(0.5)

        a = self._manifest(profile=block_a).write(tmp_path / "a.json")
        b = self._manifest(profile=block_b, label="after").write(
            tmp_path / "b.json")
        assert main(["profile", "diff", str(a), str(b)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "profile attribution deltas (a -> b):"
        assert any(line.split()[:1] == ["slack"] for line in lines)
        assert "delta    +0.500s" in " ".join(lines)
        # The per-policy engine deltas follow the category table.
        table = lines[lines.index("engine time per policy (a -> b):"):]
        assert [line.split()[0] for line in table[1:]] == [
            "gov(DRA)", "lpSTA"]
        assert "delta    +0.300s" in table[1]
        assert "delta    -0.300s" in table[2]

    def test_profile_diff_names_fingerprint_drift(self, tmp_path,
                                                  capsys):
        from repro.cli import main
        block_a, block_b = self._blocks()
        a = self._manifest(profile=block_a).write(tmp_path / "a.json")
        drifted = self._manifest(profile=block_b)
        drifted.fingerprint["horizon"] = 400.0
        c = drifted.write(tmp_path / "c.json")
        assert main(["profile", "diff", str(a), str(c)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("FINGERPRINT DRIFT: horizon ")
        assert lines[1] == "profile attribution deltas (a -> b):"
