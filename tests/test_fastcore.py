"""Compiled engine core: backend routing and byte identity (DESIGN.md §13).

The contract under test: the compiled core is purely an execution
strategy.  When the C extension is present and enabled, every eligible
run produces a :class:`SimulationResult` **bitwise identical** to the
interpreted engine's — including fault notes, governor interventions
and traces; anything the core cannot reproduce exactly (subclassed
simulators, non-EDF schedulers) falls through to the interpreted loop;
and a host without a compiler (or ``REPRO_COMPILED=0`` /
``--no-compiled``) runs exactly as before with zero new dependencies.
``scripts/identity_gate.py`` enforces the same contract on whole sweep
fingerprints in CI.  The loader tests build a stub extension into
temporary cache roots: the cache key, the digest check, the trust
rules and the ``REPRO_COMPILED=0`` short cut.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cpu.profiles import ideal_processor, xscale_processor
from repro.experiments.config import DEFAULT_POLICIES
from repro.experiments.runner import bcwc_model, standard_taskset
from repro.faults import FaultPlan
from repro.faults.plan import OverrunFault, TransitionFault
from repro.policies.registry import make_policy
from repro.sim import fastcore
from repro.sim.engine import Simulator, simulate
from repro.sim.scheduler import EDFScheduler
from repro.tasks.arrivals import (
    BurstyArrival,
    ExponentialGapArrival,
    PeriodicArrival,
    UniformJitterArrival,
)
from repro.tasks.generators import generate_taskset

pytestmark = pytest.mark.compiled

needs_compiled = pytest.mark.skipif(
    not fastcore.compiled_available(),
    reason="compiled core unavailable (see `repro doctor`)")
needs_compiler = pytest.mark.skipif(
    shutil.which((sysconfig.get_config_var("CC") or "cc").split()[0])
    is None, reason="no C compiler")

HORIZON = 400.0
SEED = 42


def _workload(n_tasks=6, utilization=0.7, seed=SEED):
    return standard_taskset(n_tasks, utilization, seed), \
        bcwc_model(0.5, seed)


def _fault_plan(seed=SEED):
    return FaultPlan(
        seed=seed,
        overrun=OverrunFault(factor=1.3, probability=0.3),
        transition=TransitionFault(stuck_probability=0.2))


def assert_results_identical(a, b):
    """Bitwise equality, with traces compared by content.

    ``TraceRecorder`` has no ``__eq__`` (dataclass equality would
    compare recorder objects by identity), so the trace field is
    compared segment-by-segment and note-by-note instead.
    """
    assert dataclasses.replace(a, trace=None) \
        == dataclasses.replace(b, trace=None)
    assert (a.trace is None) == (b.trace is None)
    if a.trace is not None:
        assert list(a.trace.segments) == list(b.trace.segments)
        assert list(a.trace.notes) == list(b.trace.notes)


def _run(policy_name, *, backend, faults=None, governed=False,
         processor=None, record_trace=False, seed=SEED):
    taskset, model = _workload(seed=seed)
    policy = make_policy(policy_name, governed=governed,
                         governor_margin=1.3 if governed else 1.0)
    with fastcore.forced(backend):
        return simulate(taskset, processor or ideal_processor(), policy,
                        model, horizon=HORIZON, faults=faults,
                        allow_misses=faults is not None,
                        record_trace=record_trace)


# ----------------------------------------------------------------------
# Routing: fallback, env override, eligibility
# ----------------------------------------------------------------------

def test_interpreted_fallback_without_extension(monkeypatch):
    """A plain install (extension absent) must run unchanged."""
    monkeypatch.setattr(fastcore, "_EXT", None)
    assert not fastcore.compiled_available()
    assert not fastcore.compiled_enabled()
    assert fastcore.slack_kernels() is None
    before = fastcore.RUN_COUNTS["interpreted"]
    result = _run("lpSTA", backend=None)
    assert result.jobs_completed > 0
    assert fastcore.RUN_COUNTS["interpreted"] == before + 1


@needs_compiled
def test_env_override_disables_compiled(monkeypatch):
    monkeypatch.setenv("REPRO_COMPILED", "0")
    assert not fastcore.compiled_enabled()
    before = dict(fastcore.RUN_COUNTS)
    result = _run("ccEDF", backend=None)
    assert result.jobs_completed > 0
    assert fastcore.RUN_COUNTS["compiled"] == before["compiled"]
    assert fastcore.RUN_COUNTS["interpreted"] \
        == before["interpreted"] + 1
    monkeypatch.setenv("REPRO_COMPILED", "1")
    assert fastcore.compiled_enabled()


@needs_compiled
def test_forced_override_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_COMPILED", "0")
    with fastcore.forced(True):
        assert fastcore.compiled_enabled()
    with fastcore.forced(False):
        assert not fastcore.compiled_enabled()
    assert not fastcore.compiled_enabled()


@needs_compiled
def test_compiled_core_engages():
    before = fastcore.RUN_COUNTS["compiled"]
    result = _run("lpSEH", backend=True)
    assert result.jobs_completed > 0
    assert fastcore.RUN_COUNTS["compiled"] == before + 1


@needs_compiled
def test_subclassed_simulator_stays_interpreted():
    """Exact-type eligibility: a subclass may override anything the C
    core inlines, so it must never be routed to the compiled loop."""

    class LoggingSimulator(Simulator):
        pass

    taskset, model = _workload()
    sim = LoggingSimulator(taskset, ideal_processor(),
                           make_policy("static"), model, horizon=HORIZON)
    assert fastcore._ineligible_reason(sim) is not None
    before = fastcore.RUN_COUNTS["compiled"]
    with fastcore.forced(True):
        result = sim.run()
    assert result.jobs_completed > 0
    assert fastcore.RUN_COUNTS["compiled"] == before


def test_core_info_shape():
    info = fastcore.core_info()
    assert set(info) == {"available", "enabled", "backend", "origin",
                         "reason", "refused", "runs"}
    assert set(info["runs"]) == {"compiled", "interpreted"}
    if info["available"]:
        assert info["backend"] == "c-extension"
        assert info["origin"] and info["reason"] is None
    else:
        assert info["reason"]


# ----------------------------------------------------------------------
# Byte identity: compiled == interpreted
# ----------------------------------------------------------------------

@needs_compiled
@pytest.mark.parametrize("policy", DEFAULT_POLICIES)
def test_results_identical_plain(policy):
    interpreted = _run(policy, backend=False)
    compiled = _run(policy, backend=True)
    assert_results_identical(interpreted, compiled)


@needs_compiled
def test_results_identical_faults_governor_trace():
    """The acceptance cell: seeded faults + safety governor + trace."""
    kwargs = dict(faults=_fault_plan(), governed=True, record_trace=True)
    interpreted = _run("lpSEH", backend=False, **kwargs)
    compiled = _run("lpSEH", backend=True, **kwargs)
    assert interpreted.overrun_jobs > 0  # the faults actually fired
    assert_results_identical(interpreted, compiled)


@needs_compiled
def test_results_identical_discrete_scale_with_overhead():
    """Quantized speed levels + transition overhead (xscale profile)."""
    interpreted = _run("ccEDF", backend=False,
                       processor=xscale_processor())
    compiled = _run("ccEDF", backend=True, processor=xscale_processor())
    assert interpreted.switch_count > 0
    assert_results_identical(interpreted, compiled)


@needs_compiled
def test_slack_kernels_identical():
    from repro.analysis.slack import (ActiveJob, SystemState, exact_slack,
                                      heuristic_slack, scale_tasks)
    taskset, _ = _workload()
    tasks = scale_tasks(taskset.tasks,
                        max(taskset.utilization, 1e-9))
    time = 23.0
    state = SystemState.build(
        time=time,
        active=tuple(
            ActiveJob(deadline=time + task.deadline - idx,
                      remaining_wcet=task.wcet * 0.4)
            for idx, task in enumerate(tasks[:3])),
        tasks=tasks,
        next_release={task.name: time + 1.0 + idx
                      for idx, task in enumerate(tasks)})
    with fastcore.forced(False):
        exact_i = exact_slack(state, window_cap_periods=2.0)
        heur_i = heuristic_slack(state)
    with fastcore.forced(True):
        exact_c = exact_slack(state, window_cap_periods=2.0)
        heur_c = heuristic_slack(state)
    assert exact_i == exact_c  # bitwise, not approx
    assert heur_i == heur_c


ARRIVALS = {
    "periodic": lambda seed: PeriodicArrival(),
    "jitter": lambda seed: UniformJitterArrival(jitter=0.5, seed=seed),
    "exponential": lambda seed: ExponentialGapArrival(mean_extra=0.5,
                                                      seed=seed),
    "bursty": lambda seed: BurstyArrival(seed=seed),
}


@needs_compiled
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n=st.integers(min_value=2, max_value=6),
       u=st.floats(min_value=0.2, max_value=0.95),
       seed=st.integers(min_value=0, max_value=2**31 - 1),
       bcwc=st.sampled_from((0.1, 0.5, 0.9)),
       constrained=st.booleans(),
       arrival=st.sampled_from(sorted(ARRIVALS)))
# Two exact speeds sharing one round(speed, 12) key, interleaved in
# time: speed_time must sum them in time order, as the dict update does.
@example(n=5, u=0.4, seed=6, bcwc=0.5, constrained=False,
         arrival="periodic")
def test_engines_identical_randomized(n, u, seed, bcwc, constrained,
                                      arrival):
    """Random task sets, implicit or constrained deadlines, periodic or
    sporadic arrivals: every default policy gives the same result on
    both engines."""
    taskset = generate_taskset(
        n, u, np.random.default_rng(seed),
        deadline_range=(0.5, 1.0) if constrained else None)
    for policy in DEFAULT_POLICIES:
        results = []
        for backend in (False, True):
            with fastcore.forced(backend):
                results.append(simulate(
                    taskset, ideal_processor(), make_policy(policy),
                    bcwc_model(bcwc, seed), horizon=300.0,
                    arrival_model=ARRIVALS[arrival](seed),
                    allow_misses=True))
        assert_results_identical(*results)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

def test_doctor_reports_backends(capsys):
    from repro.cli import main
    assert main(["doctor"]) == 0
    out = capsys.readouterr().out
    assert "numpy:" in out
    assert "batch engine:" not in out
    assert "compiled core:" in out
    assert "default workers:" in out
    if fastcore.compiled_available():
        assert "c-extension" in out
    else:
        assert "not built" in out


@needs_compiled
def test_simulate_no_compiled_flag(capsys):
    from repro.cli import main
    before = fastcore.RUN_COUNTS["compiled"]
    try:
        assert main(["simulate", "--policy", "static", "--tasks", "3",
                     "--horizon", "50", "--no-compiled"]) == 0
    finally:
        fastcore.set_compiled_default(None)
    assert fastcore.RUN_COUNTS["compiled"] == before
    assert "policy=static" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Loader: source-keyed cache, digest check, trust rules, opt-out
# ----------------------------------------------------------------------

#: A minimal extension with the loader's contract: it carries the
#: digest it was compiled with as SOURCE_SHA256.
STUB_SOURCE = """
#include <Python.h>
#ifndef REPRO_FASTCORE_SHA256
#define REPRO_FASTCORE_SHA256 ""
#endif
static struct PyModuleDef stub = {
    PyModuleDef_HEAD_INIT, "repro.sim._fastcore", NULL, -1, NULL};
PyMODINIT_FUNC
PyInit__fastcore(void)
{
    PyObject *m = PyModule_Create(&stub);
    if (m != NULL && PyModule_AddStringConstant(
            m, "SOURCE_SHA256", REPRO_FASTCORE_SHA256) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
"""


@pytest.fixture
def stub_source(tmp_path):
    source = tmp_path / "src" / "_fastcore.c"
    source.parent.mkdir()
    source.write_text(STUB_SOURCE)
    return source


@pytest.fixture(autouse=True)
def _no_env_opt_out(monkeypatch):
    monkeypatch.delenv("REPRO_COMPILED", raising=False)


def test_source_edit_changes_cache_path(stub_source, tmp_path):
    before = fastcore.cache_dir(fastcore.source_digest(stub_source),
                                tmp_path)
    stub_source.write_text(STUB_SOURCE + "/* edited */\n")
    after = fastcore.cache_dir(fastcore.source_digest(stub_source),
                               tmp_path)
    assert before != after
    assert before.parent == after.parent == tmp_path / "repro" / "fastcore"
    assert after.name.startswith(f"{sys.implementation.cache_tag}-")


@needs_compiler
def test_build_once_then_load_from_cache(stub_source, tmp_path,
                                         monkeypatch):
    root = tmp_path / "cache"
    published = sys.modules.get("repro.sim._fastcore")
    module, report = fastcore._resolve(stub_source, root)
    assert module is not None, report
    assert module.SOURCE_SHA256 == fastcore.source_digest(stub_source)
    assert report["reason"] is None and report["refused"] == []
    target = fastcore.cache_dir(module.SOURCE_SHA256, root)
    assert Path(report["origin"]).parent == target
    assert [p.name for p in target.parent.iterdir()] == [target.name]
    # The process-wide module stays the one this module published.
    assert sys.modules.get("repro.sim._fastcore") is published

    def no_compiler(*_args):
        raise AssertionError("a cached module must not be rebuilt")

    monkeypatch.setattr(fastcore, "_compile", no_compiler)
    again, report = fastcore._resolve(stub_source, root)
    assert again is not None and report["reason"] is None


@needs_compiler
def test_digest_mismatch_is_refused(stub_source, tmp_path):
    root = tmp_path / "cache"
    module, report = fastcore._resolve(stub_source, root)
    assert module is not None, report
    # Edit the source, then plant the old build where the new digest's
    # module belongs: the loader must refuse it, not import it.
    stub_source.write_text(STUB_SOURCE + "/* edited */\n")
    target = fastcore.cache_dir(fastcore.source_digest(stub_source), root)
    shutil.copytree(Path(report["origin"]).parent, target)
    module, report = fastcore._resolve(stub_source, root)
    assert module is None
    assert "refused" in report["reason"]
    assert report["refused"] == [report["reason"]]


@needs_compiler
def test_stale_in_tree_module_is_never_imported(stub_source, tmp_path,
                                               monkeypatch):
    root = tmp_path / "cache"
    module, report = fastcore._resolve(stub_source, root)
    assert module is not None, report
    stale = stub_source.with_name(Path(report["origin"]).name)
    shutil.copy(report["origin"], stale)
    stub_source.write_text(STUB_SOURCE + "/* edited */\n")
    loaded = []
    real_load = fastcore._load

    def recording_load(path, digest):
        loaded.append(path)
        return real_load(path, digest)

    monkeypatch.setattr(fastcore, "_load", recording_load)
    module, report = fastcore._resolve(stub_source, root)
    # Only the fresh cache build is imported; the neighbour is listed.
    assert module is not None, report
    assert module.SOURCE_SHA256 == fastcore.source_digest(stub_source)
    assert loaded == [Path(report["origin"])] and stale not in loaded
    assert report["refused"] == []
    assert fastcore.in_tree_leftovers(stub_source) == [stale]


@needs_compiler
def test_build_under_group_writable_umask_loads(stub_source, tmp_path):
    """A umask of 002 must not leave a module the trust check refuses."""
    root = tmp_path / "cache"
    previous = os.umask(0o002)
    try:
        module, report = fastcore._resolve(stub_source, root)
    finally:
        os.umask(previous)
    assert module is not None, report
    assert os.stat(report["origin"]).st_mode & 0o022 == 0
    again, report = fastcore._resolve(stub_source, root)
    assert again is not None, report


def test_failed_build_is_not_retried(stub_source, tmp_path, monkeypatch):
    calls = []

    def failing_compile(*_args):
        calls.append(_args)
        raise fastcore._Refused("cc failed (exit 1): Python.h missing")

    monkeypatch.setattr(fastcore, "_compile", failing_compile)
    root = tmp_path / "cache"
    module, report = fastcore._resolve(stub_source, root)
    assert module is None and len(calls) == 1
    assert report["reason"] == "cc failed (exit 1): Python.h missing"
    module, again = fastcore._resolve(stub_source, root)
    assert module is None and len(calls) == 1
    assert again["reason"].startswith(report["reason"])
    assert "remembered in" in again["reason"]
    # A source edit gets a new digest, so a new build attempt.
    stub_source.write_text(STUB_SOURCE + "/* edited */\n")
    fastcore._resolve(stub_source, root)
    assert len(calls) == 2


def test_missing_python_headers_refused_before_compiling(
        stub_source, tmp_path, monkeypatch):
    real = sysconfig.get_paths

    def without_headers(*args, **kwargs):
        return {**real(*args, **kwargs),
                "include": str(tmp_path / "no-include")}

    monkeypatch.setattr(sysconfig, "get_paths", without_headers)
    monkeypatch.setattr(shutil, "which", lambda _name: "/usr/bin/cc")
    import subprocess
    monkeypatch.setattr(subprocess, "run", _forbidden_compile)
    module, report = fastcore._resolve(stub_source, tmp_path)
    assert module is None
    assert report["reason"].startswith("no Python headers")


def test_unwritable_cache_falls_back(stub_source, tmp_path, monkeypatch):
    root = tmp_path / "not-a-dir"
    root.write_text("")  # mkdir under a regular file fails, even as root
    monkeypatch.setattr(fastcore, "_compile", _forbidden_compile)
    module, report = fastcore._resolve(stub_source, root)
    assert module is None
    assert report["reason"].startswith("cannot write")


def test_foreign_owned_cache_falls_back(stub_source, tmp_path,
                                       monkeypatch):
    root = tmp_path / "cache"
    (root / "repro" / "fastcore").mkdir(parents=True, mode=0o700)
    monkeypatch.setattr(fastcore, "_compile", _forbidden_compile)
    monkeypatch.setattr(os, "getuid", lambda: os.stat(root).st_uid + 1)
    module, report = fastcore._resolve(stub_source, root)
    assert module is None
    assert report["reason"].startswith("untrusted") \
        and "owned by uid" in report["reason"]


def test_group_writable_cache_falls_back(stub_source, tmp_path,
                                        monkeypatch):
    shared = tmp_path / "cache" / "repro" / "fastcore"
    shared.mkdir(parents=True)
    shared.chmod(0o777)
    monkeypatch.setattr(fastcore, "_compile", _forbidden_compile)
    module, report = fastcore._resolve(stub_source, tmp_path / "cache")
    assert module is None
    assert "writable by group or others" in report["reason"]


def test_no_compiler_falls_back(stub_source, tmp_path, monkeypatch):
    real = sysconfig.get_config_var

    def without_cc(name):
        return "no-such-cc-for-repro" if name == "CC" else real(name)

    monkeypatch.setattr(sysconfig, "get_config_var", without_cc)
    module, report = fastcore._resolve(stub_source, tmp_path)
    assert module is None
    assert report["reason"].startswith("no C compiler")


def test_opt_out_never_invokes_the_compiler(stub_source, tmp_path,
                                            monkeypatch):
    monkeypatch.setenv("REPRO_COMPILED", "0")
    monkeypatch.setattr(fastcore, "_compile", _forbidden_compile)
    module, report = fastcore._resolve(stub_source, tmp_path)
    assert module is None
    assert "REPRO_COMPILED=0" in report["reason"]
    assert not (tmp_path / "repro").exists()


def _forbidden_compile(*_args):
    raise AssertionError("the compiler must not be invoked")
