"""Compiled engine core: backend routing and byte identity (DESIGN.md §13).

The contract under test: the compiled core is purely an execution
strategy.  When the C extension is present and enabled, every eligible
run produces a :class:`SimulationResult` **bitwise identical** to the
interpreted engine's — including fault notes, governor interventions
and traces; anything the core cannot reproduce exactly (subclassed
simulators, non-EDF schedulers) falls through to the interpreted loop;
and a plain install (no extension, or ``REPRO_COMPILED=0`` /
``--no-compiled``) runs exactly as before with zero new dependencies.
``scripts/compiled_gate.py`` enforces the same contract on whole sweep
fingerprints in CI.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cpu.profiles import ideal_processor, xscale_processor
from repro.experiments.runner import bcwc_model, standard_taskset
from repro.faults import FaultPlan
from repro.faults.plan import OverrunFault, TransitionFault
from repro.policies.registry import make_policy
from repro.sim import fastcore
from repro.sim.engine import Simulator, simulate
from repro.sim.scheduler import EDFScheduler

pytestmark = pytest.mark.compiled

needs_compiled = pytest.mark.skipif(
    not fastcore.compiled_available(),
    reason="compiled core not built (REPRO_COMPILE=1 pip install -e .)")

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
    assert set(info) == {"available", "enabled", "backend", "runs"}
    assert set(info["runs"]) == {"compiled", "interpreted"}
    if info["available"]:
        assert info["backend"] == "c-extension"


# ----------------------------------------------------------------------
# Byte identity: compiled == interpreted
# ----------------------------------------------------------------------

@needs_compiled
@pytest.mark.parametrize("policy", ["none", "static", "ccEDF",
                                    "lpSTA", "lpSEH"])
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
