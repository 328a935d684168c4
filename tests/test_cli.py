"""Tests for the repro CLI."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestList:
    def test_list_outputs_components(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "lpSTA" in out
        assert "xscale" in out
        assert "avionics" in out
        assert "fig1" in out


class TestRun:
    def test_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "EXP-T1" in out
        assert "generic4" in out

    def test_quick_fig6_with_export(self, capsys, tmp_path):
        assert main(["run", "fig6", "--quick",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "EXP-F6" in out
        json_file = tmp_path / "exp_f6.json"
        assert json_file.exists()
        payload = json.loads(json_file.read_text())
        assert payload["experiment"] == "EXP-F6"
        assert (tmp_path / "exp_f6.csv").exists()

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestSimulate:
    def test_generated_workload(self, capsys):
        assert main(["simulate", "--policy", "lpSEH", "--tasks", "4",
                     "--utilization", "0.7", "--horizon", "500"]) == 0
        out = capsys.readouterr().out
        assert "policy=lpSEH" in out
        assert "misses=0" in out

    def test_benchmark_with_gantt(self, capsys):
        assert main(["simulate", "--benchmark", "cnc",
                     "--policy", "static", "--horizon", "300",
                     "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "gantt:" in out

    def test_discrete_profile(self, capsys):
        assert main(["simulate", "--processor", "generic4",
                     "--policy", "ccEDF", "--horizon", "500"]) == 0
        assert "misses=0" in capsys.readouterr().out


@pytest.mark.faults
class TestFaultsAndGovernor:
    """CLI surface of the fault-injection subsystem (tier-1 smoke)."""

    def test_simulate_with_faults_and_governor(self, capsys):
        assert main(["simulate", "--policy", "ccEDF",
                     "--tasks", "4", "--utilization", "0.55",
                     "--faults", "overrun:1.5", "--governed",
                     "--allow-misses", "--horizon", "400"]) == 0
        out = capsys.readouterr().out
        assert "faults(seed=" in out and "overrun" in out
        assert "policy=gov(ccEDF)" in out
        assert "misses=0" in out

    def test_simulate_raw_faults_report_overruns(self, capsys):
        assert main(["simulate", "--policy", "lpSTA",
                     "--tasks", "4", "--utilization", "0.55",
                     "--faults", "overrun:1.4,stuck:0.2",
                     "--allow-misses", "--horizon", "400"]) == 0
        out = capsys.readouterr().out
        assert "overrun_jobs=" in out

    def test_bad_fault_spec_rejected(self, capsys):
        assert main(["simulate", "--faults", "overrun:0.5",
                     "--horizon", "200"]) == 2
        assert "bad --faults spec" in capsys.readouterr().err

    def test_fault_matrix_quick_smoke(self, capsys):
        assert main(["run", "faultmatrix", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "EXP-FM1" in out
        assert "governed misses: 0" in out

    def test_fault_matrix_checkpoint_and_resume(self, capsys, tmp_path):
        assert main(["run", "faultmatrix", "--quick",
                     "--checkpoint-dir", str(tmp_path)]) == 0
        first = capsys.readouterr().out
        assert main(["run", "faultmatrix", "--quick",
                     "--checkpoint-dir", str(tmp_path),
                     "--resume"]) == 0
        second = capsys.readouterr().out
        # Identical tables; only the timing line may differ.
        strip = lambda s: [l for l in s.splitlines() if "(" not in l]
        assert strip(first) == strip(second)

    def test_resume_requires_checkpoint_dir(self, capsys):
        assert main(["run", "faultmatrix", "--quick", "--resume"]) == 2
        assert "--resume requires" in capsys.readouterr().err

    def test_unsupported_checkpoint_option_warns(self, capsys, tmp_path):
        # fig6's driver takes no checkpoint options; the CLI must say
        # so instead of silently dropping them.
        assert main(["run", "fig6", "--quick",
                     "--checkpoint-dir", str(tmp_path)]) == 0
        assert "does not support" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_policy_choices_validated(self, capsys):
        # Validation happens at command time (the option accepts a
        # comma-separated list, so argparse choices can't check it).
        assert main(["simulate", "--policy", "bogus"]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_policy_list_validated(self, capsys):
        assert main(["simulate", "--policy", "lpSTA,bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_runs_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["runs", "list"])
        assert exc.value.code == 2
        assert "invalid choice: 'runs'" in capsys.readouterr().err


class TestSimulateExtensions:
    def test_sporadic_arrivals_option(self, capsys):
        assert main(["simulate", "--policy", "lpSEH",
                     "--arrivals", "jitter", "--jitter", "0.6",
                     "--tasks", "4", "--horizon", "400"]) == 0
        assert "misses=0" in capsys.readouterr().out

    def test_bursty_arrivals_option(self, capsys):
        assert main(["simulate", "--policy", "static",
                     "--arrivals", "bursty", "--tasks", "3",
                     "--horizon", "400"]) == 0
        assert "misses=0" in capsys.readouterr().out

    def test_idle_management_options(self, capsys):
        for idle in ("sleep", "procrastinate"):
            assert main(["simulate", "--policy", "none",
                         "--idle", idle, "--tasks", "3",
                         "--utilization", "0.4",
                         "--horizon", "400"]) == 0
            assert "misses=0" in capsys.readouterr().out

    def test_critical_speed_option(self, capsys):
        assert main(["simulate", "--policy", "lpSTA",
                     "--critical-speed", "--tasks", "3",
                     "--horizon", "400"]) == 0
        assert "cs-lpSTA" in capsys.readouterr().out


@pytest.mark.telemetry
class TestRunPolicyAndTelemetry:
    """`run --policy` validation and the telemetry CLI surface."""

    @pytest.fixture(autouse=True)
    def _reset_registry(self):
        from repro.telemetry import TELEMETRY
        yield
        TELEMETRY.configure(enabled=False)
        TELEMETRY.reset()

    def test_unknown_policy_fails_before_any_simulation(self, capsys):
        assert main(["run", "fig1", "--quick",
                     "--policy", "lpSTA,bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown policy 'bogus'" in err
        assert "known: " in err and "lpSEH" in err
        assert capsys.readouterr().out == ""  # nothing ran

    def test_empty_policy_list_rejected(self, capsys):
        assert main(["run", "fig1", "--quick", "--policy", " , "]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_policy_subset_restricts_sweep(self, capsys):
        assert main(["run", "fig1", "--quick",
                     "--policy", "static,lpSTA"]) == 0
        out = capsys.readouterr().out
        assert "static" in out and "lpSTA" in out
        assert "lpSEH" not in out

    def test_telemetry_dir_manifest_and_stats(self, capsys, tmp_path):
        tele = tmp_path / "tele"
        assert main(["run", "fig1", "--quick",
                     "--policy", "static,lpSTA",
                     "--telemetry-dir", str(tele),
                     "--metrics-json", str(tmp_path / "m.json")]) == 0
        capsys.readouterr()
        manifests = list(tele.glob("manifest_*.json"))
        assert len(manifests) == 1
        assert (tele / "events.jsonl").exists()
        metrics = json.loads((tmp_path / "m.json").read_text())
        assert metrics["counters"]["engine.runs"] > 0
        assert main(["stats", str(tele)]) == 0
        out = capsys.readouterr().out
        assert "run manifest: EXP-F1" in out
        assert "engine.releases" in out

    def test_telemetry_dir_that_is_a_file_degrades(self, capsys,
                                                   tmp_path):
        """An unusable telemetry dir costs the run its event log and
        its manifest, one warning each, never its figure."""
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        assert main(["run", "fig1", "--quick",
                     "--policy", "static,lpSTA",
                     "--telemetry-dir", str(blocker)]) == 0
        captured = capsys.readouterr()
        assert "EXP-F1" in captured.out
        assert [line.split(" dir ")[0]
                for line in captured.err.splitlines()] == [
            "warning: event log", "warning: manifest"]
        assert blocker.read_text() == ""

    def test_profile_requires_telemetry_dir(self, capsys, tmp_path,
                                            monkeypatch):
        # Without --telemetry-dir no manifest is written, so the time
        # budget would be recorded and thrown away.
        monkeypatch.chdir(tmp_path)
        for extra in ([], ["--checkpoint-dir", "ck"]):
            assert main(["run", "fig1", "--quick", "--profile",
                         *extra]) == 2
            captured = capsys.readouterr()
            assert "--telemetry-dir" in captured.err
            assert captured.out == ""  # nothing ran
        assert list(tmp_path.iterdir()) == []

    def test_profile_writes_budget_into_manifest(self, capsys, tmp_path):
        from repro.telemetry import TELEMETRY
        from repro.telemetry.manifest import RunManifest
        tele = tmp_path / "tele"
        try:
            assert main(["run", "fig1", "--quick", "--policy", "lpSTA",
                         "--telemetry-dir", str(tele), "--profile"]) == 0
        finally:
            TELEMETRY.configure_timers(enabled=False)
        capsys.readouterr()
        manifest = RunManifest.load(next(tele.glob("manifest_*.json")))
        assert manifest.profile["budget"]["compute"] > 0
        assert "sweep.compute" in manifest.profile["phases"]
        assert manifest.phases["sweep.compute"]["wall_s"] > 0
        assert main(["profile", "report", str(tele)]) == 0
        assert "time budget" in capsys.readouterr().out

    def test_stats_on_empty_directory_fails(self, capsys, tmp_path):
        assert main(["stats", str(tmp_path)]) == 2
        assert "no manifest" in capsys.readouterr().err


@pytest.mark.trace
class TestTraceCommand:
    WORKLOAD = ["--tasks", "4", "--utilization", "0.6",
                "--seed", "3", "--horizon", "40"]

    def test_export_chrome(self, capsys, tmp_path):
        out = tmp_path / "sched.json"
        assert main(["trace", "export", "--policy", "lpSTA",
                     *self.WORKLOAD, "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]
        stamps = [e["ts"] for e in payload["traceEvents"]
                  if e["ph"] != "M"]
        assert stamps == sorted(stamps)

    def test_export_jsonl_with_ledger(self, capsys, tmp_path):
        out = tmp_path / "sched.jsonl"
        assert main(["trace", "export", "--policy", "ccEDF",
                     *self.WORKLOAD, "--out", str(out),
                     "--ledger"]) == 0
        assert "energy ledger" in capsys.readouterr().out
        header = json.loads(out.read_text().splitlines()[0])
        assert header["kind"] == "schedule-trace"

    def test_export_unknown_policy(self, capsys, tmp_path):
        assert main(["trace", "export", "--policy", "nope",
                     "--out", str(tmp_path / "x.json")]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_audit_clean_run(self, capsys):
        assert main(["trace", "audit", "--policy", "lpSTA",
                     *self.WORKLOAD]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_audit_fault_injected_run(self, capsys):
        assert main(["trace", "audit", "--policy", "lpSTA",
                     "--faults", "overrun:1.4:0.3", "--governed",
                     "--allow-misses", *self.WORKLOAD]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_diff_identical_and_divergent(self, capsys, tmp_path):
        a, b, c = (tmp_path / name for name in
                   ("a.jsonl", "b.jsonl", "c.jsonl"))
        for path, policy in ((a, "lpSTA"), (b, "lpSTA"), (c, "ccEDF")):
            assert main(["trace", "export", "--policy", policy,
                         *self.WORKLOAD, "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b)]) == 0
        assert "identical" in capsys.readouterr().out
        assert main(["trace", "diff", str(a), str(c)]) == 1
        assert "diverge" in capsys.readouterr().out

    def test_diff_unreadable_input(self, capsys, tmp_path):
        missing = tmp_path / "missing.jsonl"
        assert main(["trace", "diff", str(missing), str(missing)]) == 2
        assert capsys.readouterr().err

    def test_timeline_missing_events(self, capsys, tmp_path):
        assert main(["trace", "timeline",
                     str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "t.json")]) == 2
        assert capsys.readouterr().err


class TestStatsRenderer:
    def test_renders_every_block(self, capsys, tmp_path):
        from repro.telemetry.manifest import RunManifest
        manifest = RunManifest(
            label="unit-test",
            fingerprint={"horizon": 40.0, "policies": ["ccEDF"]},
            phases={"sweep.compute": {"count": 1, "wall_s": 1.25,
                                      "cpu_s": 2.5}},
            counters={"engine.runs": 4, "audit.units": 2},
            histograms={"parallel.chunk_latency_s": {
                "count": 2, "total": 3.0, "min": 1.0, "max": 2.0}},
            cache={"hits": 3, "misses": 1, "writes": 1, "corrupt": 0},
            workers={"pool_workers": 2,
                     "per_worker": {"41": {"chunks": 1, "units": 2,
                                           "busy_s": 1.0}}},
            faults={"injected": True},
            audit={"every": 2, "units": 2, "runs": 6, "violations": 0},
        )
        path = manifest.write(tmp_path / "manifest_unit_001.json")
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run manifest: unit-test" in out
        assert "sweep.compute" in out
        assert "hit-rate 75.0%" in out
        assert "pid 41" in out
        assert "faults: injected=True" in out
        assert "audit: every=2" in out and "violations=0" in out
        assert "engine.runs" in out
        assert "mean=1.5" in out

    def test_round_trips_audit_block(self, tmp_path):
        from repro.telemetry.manifest import RunManifest
        manifest = RunManifest(label="rt", fingerprint={},
                               audit={"every": 3, "violations": 1})
        loaded = RunManifest.load(
            manifest.write(tmp_path / "manifest_rt_001.json"))
        assert loaded.audit == {"every": 3, "violations": 1}
        assert loaded.schema == 5


class TestManifestPaths:
    """``stats``, ``profile report`` and ``profile diff`` resolve a
    directory to its newest manifest by write time, and report an
    unreadable manifest in one line with exit status 2."""

    @staticmethod
    def write(path, label, mtime):
        import os

        from repro.profiling.report import profile_block
        from repro.telemetry.manifest import RunManifest
        block = profile_block({"phases": {"engine.run": {
            "count": 1, "total_ns": 10**9, "self_ns": 10**9}}})
        RunManifest(label=label, fingerprint={"label": label},
                    profile=block).write(path)
        os.utime(path, ns=(mtime, mtime))

    def test_newest_by_write_time_not_by_name(self, capsys, tmp_path):
        # The names sort opposite to the write order.
        self.write(tmp_path / "manifest_b_001.json", "older", 10**18)
        self.write(tmp_path / "manifest_a_001.json", "newer", 2 * 10**18)
        assert main(["stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "run manifest: newer" in out and "older" not in out
        assert main(["stats", str(tmp_path), "--all"]) == 0
        out = capsys.readouterr().out
        assert out.index("run manifest: older") < out.index(
            "run manifest: newer")
        assert main(["profile", "report", str(tmp_path)]) == 0
        assert "time budget" in capsys.readouterr().out
        other = tmp_path / "other"
        other.mkdir()
        self.write(other / "manifest_a_001.json", "older", 10**18)
        assert main(["profile", "diff", str(other), str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("FINGERPRINT DRIFT: label")

    def test_missing_profile_block_points_at_the_same_experiment(
            self, capsys, tmp_path):
        from repro.telemetry.manifest import RunManifest
        RunManifest(label="EXP-F1", fingerprint={}).write(
            tmp_path / "manifest_EXP-F1_001.json")
        assert main(["profile", "report", str(tmp_path)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert "has no profile block" in line
        assert "repro run EXP --profile --telemetry-dir DIR" in line
        assert "profile run" not in line

    def test_unreadable_manifest_exits_2_in_one_line(self, capsys,
                                                     tmp_path):
        missing = tmp_path / "missing.json"
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps({"kind": "run-record"}))
        listed = tmp_path / "list.json"
        listed.write_text("[]")
        no_schema = tmp_path / "no_schema.json"
        no_schema.write_text(json.dumps({"kind": "run-manifest",
                                         "schema": None}))
        for argv in (["profile", "report", str(missing)],
                     ["profile", "diff", str(foreign), str(foreign)],
                     ["stats", str(foreign)],
                     ["stats", str(listed)],
                     ["profile", "report", str(no_schema)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            [line] = captured.err.splitlines()
            assert line.startswith("cannot read manifest ")

    #: Manifests whose blocks have the wrong type: a block that is not an
    #: object, a counter that is not an integer.
    MALFORMED = ({"counters": [1]}, {"phases": [1]}, {"profile": [1]},
                 {"fingerprint": None}, {"counters": {"engine.runs": 1.5}},
                 {"counters": {"engine.runs": "3"}})

    def malformed(self, tmp_path):
        for n, blocks in enumerate(self.MALFORMED):
            path = tmp_path / f"malformed_{n}.json"
            path.write_text(json.dumps({"kind": "run-manifest",
                                        "schema": 5, **blocks}))
            yield path

    def assert_one_line(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("cannot read manifest ")
        assert "manifest block" in line or "manifest counter" in line

    def test_malformed_block_stats_exits_2(self, capsys, tmp_path):
        for path in self.malformed(tmp_path):
            self.assert_one_line(capsys, ["stats", str(path)])

    def test_malformed_block_profile_report_exits_2(self, capsys, tmp_path):
        for path in self.malformed(tmp_path):
            self.assert_one_line(capsys, ["profile", "report", str(path)])

    def test_malformed_block_profile_diff_exits_2(self, capsys, tmp_path):
        good = tmp_path / "good" / "manifest_a_001.json"
        self.write(good, "good", 10**18)
        for path in self.malformed(tmp_path):
            self.assert_one_line(capsys, ["profile", "diff", str(good),
                                          str(path)])


class TestBrokenPipe:
    """Every command that streams to stdout stops quietly when its
    reader closes early (``repro stats --follow | head -5``), as a Unix
    filter does: no traceback, the SIGPIPE status."""

    @staticmethod
    def _into_closed_pipe(args, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        src = str(Path(repro.__file__).resolve().parents[1])
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", *args], stdout=write_end,
                stderr=subprocess.PIPE, text=True, timeout=120,
                cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
        finally:
            os.close(write_end)
        return done

    def test_streaming_commands_stop_quietly(self, capsys, tmp_path):
        tele = tmp_path / "tele"
        assert main(["run", "fig1", "--quick", "--policy", "static",
                     "--telemetry-dir", str(tele)]) == 0
        capsys.readouterr()
        results = Path(__file__).resolve().parents[1] / "results"
        commands = {
            "stats": ["stats", str(tele), "--follow", "--interval", "0.01"],
            "watch": ["watch", str(tele)],
            "trace": ["trace", "audit", "--policy", "lpSTA", "--tasks", "3",
                      "--horizon", "60"],
            "report": ["report", str(results)],
        }
        for name, args in commands.items():
            done = self._into_closed_pipe(args, tmp_path)
            assert done.stderr == "", (name, done.stderr)
            assert done.returncode == 128 + signal.SIGPIPE, name
