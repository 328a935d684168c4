"""Self-tests of the end-to-end benchmark: ``pytest benchmarks/e2e``.

They sit outside the tier-1 ``testpaths`` and run small ``--quick``
variants of the workloads, so the whole file takes seconds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import run
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
TIMING = re.compile(r"^  \(\d+\.\ds\)\n", re.MULTILINE)
sys.path.insert(0, str(ROOT / "src"))


def _env(src: bool = True) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    if src:
        env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _child(tmp_path: Path, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args,
         "--meta", str(tmp_path / "meta.json")],
        cwd=ROOT, env=_env(), capture_output=True, text=True, check=True)
    return proc.stdout


def _traced(tmp_path: Path, *args: str) -> dict:
    trace_dir = tmp_path / "trace"
    _child(tmp_path, *args, "--trace-dir", str(trace_dir))
    return json.loads((trace_dir / "trace.json").read_text())


@pytest.mark.parametrize("experiment", ["fig1", "faultmatrix"])
def test_child_prints_what_the_cli_prints(tmp_path, experiment):
    cli = subprocess.run(
        [sys.executable, "-m", "repro", "run", experiment, "--quick"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, check=True)
    ours = _child(tmp_path, "--experiment", experiment, "--quick")
    assert TIMING.sub("", ours) == TIMING.sub("", cli.stdout)


def test_self_times_telescope_to_the_driver_wall(tmp_path):
    trace = _traced(tmp_path, "--experiment", "faultmatrix", "--quick")
    (driver,) = [s for s in trace["root"]["spans"] if s[3] == -1]
    assert driver[0] == "driver.faultmatrix"
    self_ns = sum(totals[2] for totals in trace["root"]["agg"].values())
    assert self_ns == driver[2] - driver[1] > 0
    metrics = tracer.layer_metrics(trace, 0.0)
    assert metrics["driver.faultmatrix.s"] == (driver[2] - driver[1]) / 1e9
    assert 0 < metrics["trace.unattributed_s"] < metrics["driver.faultmatrix.s"]


def test_workers_fold_to_the_serial_counts(tmp_path):
    serial = tracer.layer_metrics(_traced(
        tmp_path / "w1", "--experiment", "faultmatrix", "--quick"), 0.0)
    forked_trace = _traced(tmp_path / "w2", "--experiment", "faultmatrix",
                           "--quick", "--workers", "2")
    forked = tracer.layer_metrics(forked_trace, 0.0)
    assert forked_trace["workers"], "no worker spans were merged"
    for name in ("runner.suite.calls", "sim.run.calls", "sim.run.jobs",
                 "policy.governor.calls", "slack.exact.calls"):
        assert forked[name] == serial[name] > 0, name
    assert forked["executor.units"] == serial["runner.suite.calls"]
    assert serial["executor.units"] == 0


def test_absent_targets_read_as_zero_calls(tmp_path, monkeypatch):
    import repro.experiments.runner as runner_module
    original = runner_module.run_suite
    monkeypatch.setattr(tracer, "POLICY_REGISTRY",
                        "repro.policies.gone:POLICY_FACTORIES")
    probe = tracer.Tracer(tmp_path)
    probe.install([("runner.suite", "repro.experiments.runner:run_suite"),
                   ("sim.batch", "repro.sim.gone:run_batch_suites"),
                   ("sim.run", "repro.sim.engine:Simulator.gone")])
    try:
        assert runner_module.run_suite is not original
        assert probe.absent == ["repro.sim.gone:run_batch_suites",
                                "repro.sim.engine:Simulator.gone",
                                "repro.policies.gone:POLICY_FACTORIES"]
    finally:
        probe.uninstall()
    assert runner_module.run_suite is original
    metrics = tracer.layer_metrics(json.loads(probe.finish().read_text()),
                                   0.0)
    assert metrics["sim.batch.calls"] == metrics["sim.run.calls"] == 0
    assert set(metrics) == set(tracer.layer_names())


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted(tmp_path, monkeypatch, capsys,
                                          trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    quick = run.Workload(("--experiment", "faultmatrix", "--quick",
                          "--workers", "2"), 8, 1, ("governed",))
    monkeypatch.setattr(run, "WORKLOADS", {"faultmatrix_w2": quick})
    monkeypatch.setattr(run, "SETUP_LAUNCHES", 2)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.measure_workload("faultmatrix_w2", 7, 0.1, bool(trace))
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"]
               for m in declared)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_a_failed_check_fails_the_run():
    digest, errors = run.check_output(
        "   note: total deadline misses across all runs: 3\n", ("total",))
    assert errors and len(digest) == 64
    _, errors = run.check_output("no notes\n", ("governed",))
    assert errors


def test_without_the_program_it_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fig1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=_env(src=False), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_child_offers_the_seed_only_where_accepted():
    from repro.experiments.figures import FIGURES
    from repro.experiments.tables import TABLES
    args = child._parse(["--experiment", "x", "--meta", "m", "--seed", "5"])
    assert child._driver_kwargs(FIGURES["fig1"], args)["master_seed"] == 5
    assert child._driver_kwargs(TABLES["table2"], args)["seed"] == 5
    assert child._driver_kwargs(TABLES["table1"], args) == {}
