"""Cross-run registry: ingest, round-trip, query, compare, gc.

The contracts under test (DESIGN.md §14):

* a run manifest projects into a run record that round-trips through
  the sharded on-disk layout byte-for-byte, and re-ingest is
  idempotent (same run id, same shard, one file);
* written manifests auto-ingest when a registry is configured
  (``REPRO_REGISTRY_DIR`` / ``set_registry_dir``) and never fail the
  manifest write when the registry is broken;
* a registry that already holds ``bench``-kind records (older versions
  ingested their perf records) still lists, shows and gc's them,
  through the API and the CLI;
* list filters (workload / policy / fingerprint / since) and prefix
  ``get`` behave, and ``gc`` keeps exactly the newest N;
* ``compare`` flags fingerprint drift and diffs wall time, cache hit
  rate and per-policy mean dispatch speed.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.telemetry.manifest import RunManifest
from repro.telemetry.registry import (
    RunRegistry,
    compare_records,
    default_registry_dir,
    record_from_manifest,
    render_compare,
    render_record,
    render_records,
    set_registry_dir,
)

pytestmark = pytest.mark.watch


@pytest.fixture(autouse=True)
def clean_default_dir(monkeypatch):
    monkeypatch.delenv("REPRO_REGISTRY_DIR", raising=False)
    set_registry_dir(None)
    yield
    set_registry_dir(None)


def make_manifest(*, label="exp1", created="2026-08-08T10:00:00",
                  horizon=300.0, wall=2.5, hits=3, misses=5,
                  quarantined=0, policies=("static", "lpSTA")):
    return RunManifest(
        label=label,
        created=created,
        git_rev="abc1234",
        fingerprint={"workload_id": label, "horizon": horizon,
                     "policies": list(policies),
                     "xs": [0.4, 0.7], "n_tasksets": 2},
        phases={"sweep.compute": {"wall_s": wall, "cpu_s": wall,
                                  "count": 1}},
        counters={"engine.misses": 0, "engine.steps": 100,
                  "policy.lpSTA.decisions": 42,
                  "resilience.quarantined": quarantined},
        histograms={"policy.lpSTA.speed":
                    {"count": 10, "total": 4.0, "min": 0.2, "max": 0.7},
                    "policy.lpSTA.slack":
                    {"count": 10, "total": 50.0, "min": 0, "max": 10}},
        cache={"hits": hits, "misses": misses},
        progress={"units": 8, "done": 8, "computed": 5, "cached": 3,
                  "resumed": 0, "quarantined": quarantined,
                  "cells": 2, "cells_done": 2, "stream": "x"},
    )


#: A ``bench``-kind record as older versions wrote it into a registry.
OLD_PERF_RECORD = {
    "kind": "run-record", "schema": 1, "run_kind": "bench",
    "run_id": "20260807T000000-3f1c0a9b2e", "label": "bench 2026-08-07",
    "created": "2026-08-07",
    "fingerprint_digest": "3f1c0a9b2e5d4c6b7a8f9e0d1c2b3a49",
    "fingerprint": {"date": "2026-08-07", "rev": "deadbee",
                    "python": "3.11.7"},
    "workload_id": None, "policies": [], "git_rev": "deadbee",
    "code_epoch": "", "wall_s": None, "cache": {}, "progress": None,
    "counters": {}, "mean_speed": {}, "misses": {},
    "timings": {"hotpath.engine_step": 0.004,
                "sweep_exp1_mini.serial_s": 1.0},
    "profile": None, "source": "perf-record-2026-08-07.json",
}


# -- record projection and round-trip ----------------------------------


def test_manifest_record_round_trips(tmp_path):
    registry = RunRegistry(tmp_path)
    record = record_from_manifest(make_manifest(), "m.json")
    path = registry.add(record)
    assert path.parent.name == record.fingerprint_digest[:2]
    [loaded] = registry.list()
    assert loaded.to_payload() == record.to_payload()
    assert loaded.run_id.startswith("20260808T100000-")
    assert loaded.workload_id == "exp1"
    assert loaded.policies == ["static", "lpSTA"]
    assert loaded.wall_s == 2.5
    assert loaded.cache_hit_rate() == pytest.approx(3 / 8)
    assert loaded.mean_speed == {"lpSTA": pytest.approx(0.4)}
    assert loaded.progress["done"] == 8
    assert "engine.misses" in loaded.counters
    # Per-policy decision counters are not in the kept cross-run set.
    assert "policy.lpSTA.decisions" not in loaded.counters


def test_ingest_is_idempotent(tmp_path):
    registry = RunRegistry(tmp_path)
    manifest_path = tmp_path / "manifest_exp1_001.json"
    make_manifest().write(manifest_path)
    first = registry.ingest_manifest(manifest_path)
    second = registry.ingest_manifest(manifest_path)
    assert first.run_id == second.run_id
    assert len(registry.list()) == 1


def test_existing_bench_kind_records_list_show_and_gc(tmp_path, capsys):
    registry = RunRegistry(tmp_path)
    shard = registry.runs_dir / "3f"
    shard.mkdir()
    (shard / f"{OLD_PERF_RECORD['run_id']}.json").write_text(
        json.dumps(OLD_PERF_RECORD))
    registry.add(record_from_manifest(make_manifest()))

    [sweep, bench] = registry.list()
    assert (sweep.kind, bench.kind) == ("sweep", "bench")
    assert bench.git_rev == "deadbee"
    assert "bench 2026-08-07" in render_records([sweep, bench])
    assert "deadbee" in render_record(bench)
    assert registry.get("20260807").run_id == OLD_PERF_RECORD["run_id"]

    cli = ["runs", "--registry-dir", str(tmp_path)]
    assert main(cli + ["list"]) == 0
    assert "bench 2026-08-07" in capsys.readouterr().out
    assert main(cli + ["show", "20260807"]) == 0
    assert "(bench)" in capsys.readouterr().out
    assert main(cli + ["gc", "--keep", "1"]) == 0
    assert "removed 1 record(s)" in capsys.readouterr().out
    assert [r.kind for r in registry.list()] == ["sweep"]
    assert not shard.exists()


def test_ingest_path_scans_directories(tmp_path):
    registry = RunRegistry(tmp_path / "reg")
    data = tmp_path / "data"
    (data / "nested").mkdir(parents=True)
    make_manifest().write(data / "manifest_exp1_001.json")
    make_manifest(label="exp2").write(
        data / "nested" / "manifest_exp2_001.json")
    (data / "perf-record-2026-08-07.json").write_text("{}")  # ignored
    records = registry.ingest_path(data)
    assert sorted(r.label for r in records) == ["exp1", "exp2"]
    assert len(registry.list()) == 2


def test_torn_record_files_are_skipped(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.add(record_from_manifest(make_manifest()))
    shard = next(registry.runs_dir.glob("*"))
    (shard / "torn.json").write_text("{")
    assert len(registry.list()) == 1


# -- auto-ingest hook --------------------------------------------------


def test_written_manifest_auto_ingests(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "reg"))
    assert default_registry_dir() == tmp_path / "reg"
    make_manifest().write(tmp_path / "manifest_exp1_001.json")
    [record] = RunRegistry(tmp_path / "reg").list()
    assert record.label == "exp1"
    assert record.source.endswith("manifest_exp1_001.json")


def test_no_registry_means_no_ingest(tmp_path):
    assert default_registry_dir() is None
    make_manifest().write(tmp_path / "manifest_exp1_001.json")
    assert not (tmp_path / "runs").exists()


def test_broken_registry_never_fails_the_write(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where the registry dir should go")
    set_registry_dir(blocker)
    path = make_manifest().write(tmp_path / "manifest_exp1_001.json")
    assert path.exists()  # manifest written despite registry trouble


# -- query -------------------------------------------------------------


def test_list_filters_and_prefix_get(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.add(record_from_manifest(make_manifest(
        label="exp1", created="2026-08-01T10:00:00")))
    registry.add(record_from_manifest(make_manifest(
        label="exp2", created="2026-08-08T10:00:00", horizon=400.0)))
    registry.add(record_from_manifest(make_manifest(
        label="exp3", created="2026-08-07T10:00:00",
        policies=("ccEDF",))))

    assert [r.label for r in registry.list()] \
        == ["exp2", "exp3", "exp1"]  # newest first
    assert [r.label for r in registry.list(workload="exp2")] == ["exp2"]
    assert len(registry.list(policy="lpSTA")) == 2
    assert [r.label for r in registry.list(policy="ccEDF")] == ["exp3"]
    assert len(registry.list(policy="DRA")) == 0
    assert [r.label for r in registry.list(since="2026-08-05")] \
        == ["exp2", "exp3"]
    exp1 = registry.list(workload="exp1")[0]
    assert registry.list(
        fingerprint=exp1.fingerprint_digest[:6])[0].label == "exp1"

    assert registry.get(exp1.run_id[:10]).run_id == exp1.run_id
    with pytest.raises(ExperimentError, match="no run"):
        registry.get("zzz")
    with pytest.raises(ExperimentError, match="ambiguous"):
        registry.get("20260")
    assert "exp1" in render_record(exp1)


def test_gc_keeps_newest(tmp_path):
    registry = RunRegistry(tmp_path)
    for day in (1, 2, 3, 4):
        registry.add(record_from_manifest(make_manifest(
            label=f"exp{day}", created=f"2026-08-0{day}T10:00:00")))
    assert registry.gc(keep=2) == 2
    assert [r.label for r in registry.list()] == ["exp4", "exp3"]
    with pytest.raises(ExperimentError, match="keep"):
        registry.gc(keep=-1)


# -- compare -----------------------------------------------------------


def test_compare_flags_drift_and_diffs_summaries():
    a = record_from_manifest(make_manifest(wall=2.0, hits=0, misses=8))
    b_manifest = make_manifest(created="2026-08-08T11:00:00",
                               horizon=400.0, wall=3.0, hits=8,
                               misses=0)
    b_manifest.histograms["policy.lpSTA.speed"] = {
        "count": 10, "total": 6.0, "min": 0.2, "max": 0.9}
    b = record_from_manifest(b_manifest)
    diff = compare_records(a, b)
    assert not diff["same_fingerprint"]
    assert diff["fingerprint_drift"] == ["horizon"]
    assert diff["wall_s"]["delta"] == pytest.approx(1.0)
    assert diff["wall_s"]["ratio"] == pytest.approx(1.5)
    assert diff["cache_hit_rate"]["a"] == 0.0
    assert diff["cache_hit_rate"]["b"] == 1.0
    assert diff["mean_speed"]["lpSTA"]["delta"] == pytest.approx(0.2)
    rendered = render_compare(diff)
    assert "FINGERPRINT DRIFT: horizon" in rendered
    assert "wall_s" in rendered and "speed.lpSTA" in rendered


def test_compare_identical_runs_is_quiet():
    record = record_from_manifest(make_manifest())
    diff = compare_records(record, record)
    assert diff["same_fingerprint"]
    assert diff["fingerprint_drift"] == []
    assert diff["counters"] == {}
    assert "identical" in render_compare(diff)
