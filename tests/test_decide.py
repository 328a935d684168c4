"""The compiled decide and lazy jobs (DESIGN.md §13.4).

Every registry policy chooses its speed inside the compiled core; their
Python hooks stay the reference.  none, static, ccEDF, lppsEDF and
clairvoyant do so only under inline periodic arrivals, clairvoyant only
with the demands drawn in C (overrun faults included).  The safety governor
over any of them decides in C too, its floor a stage after the inner
decide.  The twin tests draw workloads and hold the C decide to the
Python ``select_speed`` decision by decision: with telemetry on, every
dispatch reports its desired (pre-quantization) speed through
``observe_decision``, on either path, so the two sequences must be
equal element for element —
and the results, the policies' after-run state and lpSTA/lpSEH's
``analysis_calls`` too.  The fallback tests pin which runs keep the
Python path; the lazy-job tests hold the slot-backed ``Job`` objects to
the interpreted engine's.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.profiles import ideal_processor, xscale_processor
from repro.errors import DeadlineMissError, SimulationError
from repro.experiments.probes import SlackProbePolicy
from repro.faults import FaultPlan
from repro.faults.plan import OverrunFault, TransitionFault
from repro.experiments.config import DEFAULT_POLICIES
from repro.experiments.runner import bcwc_model, run_suite, standard_taskset
from repro.policies import (
    CcEdfPolicy,
    ClairvoyantPolicy,
    CriticalSpeedPolicy,
    DraPolicy,
    FeedbackDvsPolicy,
    LaEdfPolicy,
    LppsEdfPolicy,
    LpSehPolicy,
    LpStaPolicy,
    NoDvsPolicy,
    OverheadAwarePolicy,
    StaticEdfPolicy,
)
from repro.policies.base import DvsPolicy
from repro.policies.governor import SafetyGovernor
from repro.sim import fastcore
from repro.sim.engine import simulate
from repro.tasks.arrivals import PeriodicArrival, UniformJitterArrival
from repro.tasks.execution import (
    ExecutionModel,
    UniformExecution,
    WorstCaseExecution,
)
from repro.tasks.generators import generate_taskset
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet
from repro.telemetry import TELEMETRY

pytestmark = [
    pytest.mark.compiled,
    pytest.mark.skipif(not fastcore.compiled_available(),
                       reason="compiled core unavailable "
                              "(see `repro doctor`)"),
]

TWIN = settings(max_examples=30, deadline=None, derandomize=True,
                database=None)
HORIZON = 300.0

#: Few, harmonic periods: releases and deadlines of different tasks
#: coincide often (the tie-breaking paths of every kernel).
PERIODS = (10.0, 20.0, 40.0, 80.0)


@st.composite
def workloads(draw, *, overruns: bool = True) -> dict:
    n = draw(st.integers(min_value=2, max_value=7))
    constrained = draw(st.booleans())
    taskset = generate_taskset(
        n, draw(st.floats(min_value=0.2, max_value=0.95)),
        np.random.default_rng(draw(st.integers(0, 2**31 - 1))),
        period_choices=PERIODS,
        deadline_range=(0.6, 0.95) if constrained else None)
    seed = draw(st.integers(0, 2**16))
    faults = None
    if overruns and draw(st.booleans()):
        # Overrunning jobs exhaust their budgets before they finish.
        faults = FaultPlan(seed=seed, overrun=OverrunFault(
            factor=draw(st.floats(min_value=1.05, max_value=1.5)),
            probability=draw(st.floats(min_value=0.1, max_value=1.0))))
    # Sporadic arrivals: the policies see pessimistic next releases.
    arrival = (UniformJitterArrival(jitter=0.5, seed=seed)
               if draw(st.booleans()) else PeriodicArrival())
    return dict(taskset=taskset, faults=faults, arrival=arrival,
                model=UniformExecution(
                    low=draw(st.floats(min_value=0.05, max_value=1.0)),
                    high=1.0, seed=seed),
                processor=draw(st.sampled_from(("ideal", "xscale"))))


def run(make_policy, workload: dict, *, python: bool, compiled=True,
        c_decides=True, horizon=HORIZON,
        **kwargs) -> tuple[list[float], object, DvsPolicy]:
    """One run; returns its desired speeds, result and policy.

    ``python=True`` shadows ``select_speed`` on the instance, which
    keeps the Python path (an instance hook is never assumed to be the
    class's own); ``compiled=False`` runs the interpreted engine.
    ``c_decides=False``: the workload keeps even the unshadowed policy
    on the Python path.
    """
    policy = make_policy()
    if python:
        policy.select_speed = policy.select_speed
    desired: list[float] = []
    observe = TELEMETRY.observe

    def record(name, value, bounds=None):
        if name.endswith(".speed"):
            desired.append(value)

    processor = (ideal_processor() if workload["processor"] == "ideal"
                 else xscale_processor())
    before = dict(fastcore.RUN_COUNTS["decided"])
    TELEMETRY.configure(enabled=True)
    TELEMETRY.observe = record
    try:
        with fastcore.forced(compiled):
            result = simulate(workload["taskset"], processor, policy,
                              workload["model"], horizon=horizon,
                              faults=workload["faults"],
                              arrival_model=workload.get("arrival"),
                              allow_misses=True, **kwargs)
    finally:
        del TELEMETRY.observe
        TELEMETRY.configure(enabled=False)
        TELEMETRY.reset()
    assert TELEMETRY.observe == observe
    decided = (fastcore.RUN_COUNTS["decided"].get(result.policy, 0)
               - before.get(result.policy, 0))
    assert decided == (0 if python or not compiled or not c_decides
                       else 1)
    return desired, result, policy


def assert_twins(make_policy, workload: dict, c_decides=True,
                 horizon=HORIZON) -> tuple:
    """The C decide against select_speed on the compiled engine, and
    against the interpreted engine (whose walks are Python too).

    The interpreted run goes first, while the model has no demand
    tables: ``work()`` reads a table once a compiled run has drawn one,
    so only then does the interpreted run draw with numpy and cross-check
    the C draws end to end.
    """
    assert not workload["model"].demand_tables
    interpreted = run(make_policy, workload, python=False, compiled=False,
                      horizon=horizon)
    c_speeds, c_result, c_policy = run(make_policy, workload, python=False,
                                       c_decides=c_decides, horizon=horizon)
    py_speeds, py_result, py_policy = run(make_policy, workload,
                                          python=True, horizon=horizon)
    assert c_speeds == py_speeds
    assert len(c_speeds) == c_result.dispatches > 0
    assert c_result == py_result
    assert interpreted[:2] == (c_speeds, c_result)
    return c_policy, py_policy


@TWIN
@given(workload=workloads(), greedy=st.booleans(),
       cap=st.sampled_from((None, 2.0, 0.5)))
def test_lpsta_decide_equals_select_speed(workload, greedy, cap):
    c_policy, py_policy = assert_twins(
        lambda: LpStaPolicy(window_cap_periods=cap,
                            baseline="full" if greedy else "static"),
        workload)
    assert c_policy.analysis_calls == py_policy.analysis_calls > 0


@TWIN
@given(workload=workloads())
def test_lpseh_decide_equals_select_speed(workload):
    c_policy, py_policy = assert_twins(LpSehPolicy, workload)
    assert c_policy.analysis_calls == py_policy.analysis_calls > 0


@TWIN
@given(workload=workloads(), safe=st.booleans())
def test_laedf_decide_equals_select_speed(workload, safe):
    assert_twins(lambda: LaEdfPolicy(safe=safe), workload)


@TWIN
@given(workload=workloads(),
       gains=st.tuples(st.floats(min_value=0.0, max_value=3.0),
                       st.floats(min_value=0.0, max_value=1.0),
                       st.floats(min_value=0.0, max_value=2.0)))
def test_feedback_decide_equals_select_speed(workload, gains):
    c_policy, py_policy = assert_twins(
        lambda: FeedbackDvsPolicy(*gains), workload)
    # The PID histories the C core kept are the hooks' own.
    assert c_policy._pid == py_policy._pid


@TWIN
@given(workload=workloads())
def test_dra_decide_equals_select_speed(workload):
    c_policy, py_policy = assert_twins(DraPolicy, workload)
    # The alpha queue (order, budgets, donor transfers) and the
    # canonical clock end where the hooks leave them.
    assert list(c_policy._entries.items()) == list(
        py_policy._entries.items())
    assert c_policy._canonical_now == py_policy._canonical_now


def _periodic(workload: dict) -> bool:
    return type(workload.get("arrival")) in (type(None), PeriodicArrival)


@TWIN
@given(workload=workloads(), policy=st.sampled_from(
    (NoDvsPolicy, StaticEdfPolicy)))
def test_constant_decide_equals_select_speed(workload, policy):
    assert_twins(policy, workload, c_decides=_periodic(workload))


@TWIN
@given(workload=workloads())
def test_ccedf_decide_equals_select_speed(workload):
    c_policy, py_policy = assert_twins(CcEdfPolicy, workload,
                                       c_decides=_periodic(workload))
    # The estimates end where the release and completion hooks leave
    # them, in the same order.
    assert list(c_policy._util.items()) == list(py_policy._util.items())


@TWIN
@given(workload=workloads())
def test_lppsedf_decide_equals_select_speed(workload):
    assert_twins(LppsEdfPolicy, workload, c_decides=_periodic(workload))


#: Window caps in periods of the longest task: a quarter period to
#: several horizons.  Over CLAIRVOYANT_HORIZON the shorter windows slide
#: many times, so the C core's future-job stream grows and drops
#: released jobs many times in one run.
CLAIRVOYANT_CAPS = (0.25, 1.0, 4.0, 16.0)
CLAIRVOYANT_HORIZON = 1000.0


@TWIN
@given(workload=workloads(), cap=st.sampled_from(CLAIRVOYANT_CAPS))
def test_clairvoyant_decide_equals_select_speed(workload, cap):
    # Overrun faults wrap the model; the core draws the faulted demands
    # (fault tables over the model's), so the oracle reads them in C.
    assert_twins(lambda: ClairvoyantPolicy(window_cap_periods=cap),
                 workload, c_decides=_periodic(workload),
                 horizon=CLAIRVOYANT_HORIZON)


@pytest.mark.parametrize("cap", CLAIRVOYANT_CAPS)
@pytest.mark.parametrize("deadline", (10.0, 7.0))
def test_clairvoyant_decide_across_tied_deadlines(cap, deadline):
    # One period for every task: each future deadline ties across all
    # of them, and with the active jobs' (the merge's tie rules).
    taskset = TaskSet([PeriodicTask(f"T{i}", wcet, 10.0, deadline=deadline)
                       for i, wcet in enumerate((1.0, 2.5, 0.5, 2.0))])
    workload = dict(taskset=taskset, faults=None, processor="ideal",
                    model=UniformExecution(low=0.1, high=1.0, seed=5))
    assert_twins(lambda: ClairvoyantPolicy(window_cap_periods=cap),
                 workload, horizon=CLAIRVOYANT_HORIZON)


def test_dra_reclaims_across_deadline_ties():
    # Equal periods release jobs with tied deadlines; early finishers
    # donate their canonical time to the tied job behind them.
    taskset = TaskSet([PeriodicTask(f"T{i}", 1.0 + i, 10.0)
                       for i in range(4)])
    workload = dict(taskset=taskset, faults=None, processor="ideal",
                    model=UniformExecution(low=0.1, high=0.6, seed=3))
    assert_twins(DraPolicy, workload)


# ----------------------------------------------------------------------
# The governor stage
# ----------------------------------------------------------------------

#: The inner policies the compiled core decides for, with the
#: governor's floor as a stage after them.
GOVERNED_INNER = {
    "none": NoDvsPolicy, "static": StaticEdfPolicy, "ccEDF": CcEdfPolicy,
    "lppsEDF": LppsEdfPolicy, "DRA": DraPolicy, "laEDF": LaEdfPolicy,
    "feedback": FeedbackDvsPolicy, "lpSEH": LpSehPolicy,
    "lpSTA": LpStaPolicy, "clairvoyant": ClairvoyantPolicy}


@st.composite
def governed_workloads(draw) -> dict:
    """A workload with overrun faults up to 1.5x, stuck speed switches
    or both (or neither), and the governor's margin."""
    workload = draw(workloads(overruns=False))
    seed = draw(st.integers(0, 2**16))
    overrun = (OverrunFault(
        factor=draw(st.floats(min_value=1.05, max_value=1.5)),
        probability=draw(st.floats(min_value=0.1, max_value=1.0)))
        if draw(st.booleans()) else None)
    transition = (TransitionFault(stuck_probability=draw(
        st.floats(min_value=0.05, max_value=0.3)))
        if draw(st.booleans()) else None)
    if overrun is not None or transition is not None:
        workload["faults"] = FaultPlan(seed=seed, overrun=overrun,
                                       transition=transition)
    workload["margin"] = draw(st.floats(min_value=1.0, max_value=1.4))
    return workload


def governed_run(inner: str, workload: dict, *, compiled: bool,
                 python: bool = False) -> tuple:
    """One governed run with telemetry on: its result, the governor's
    metrics, every observation and event in order, and the counters
    and histograms (the engine's own backend counters left out)."""
    policy = SafetyGovernor(GOVERNED_INNER[inner](),
                            margin=workload["margin"])
    if python:
        policy.select_speed = policy.select_speed
    observed: list[tuple] = []
    observe, emit = TELEMETRY.observe, TELEMETRY.emit

    def record_observe(name, value, **kwargs):
        observed.append((name, value))
        observe(name, value, **kwargs)

    def record_emit(kind, **fields):
        observed.append((kind, fields))
        emit(kind, **fields)

    processor = (ideal_processor() if workload["processor"] == "ideal"
                 else xscale_processor())
    before = dict(fastcore.RUN_COUNTS["decided"])
    TELEMETRY.configure(enabled=True)
    TELEMETRY.observe, TELEMETRY.emit = record_observe, record_emit
    try:
        with fastcore.forced(compiled):
            result = simulate(workload["taskset"], processor, policy,
                              workload["model"], horizon=HORIZON,
                              faults=workload["faults"],
                              arrival_model=workload["arrival"],
                              allow_misses=True)
        snapshot = TELEMETRY.snapshot()
    finally:
        del TELEMETRY.observe, TELEMETRY.emit
        TELEMETRY.configure(enabled=False)
        TELEMETRY.reset()
    decided = (fastcore.RUN_COUNTS["decided"].get(result.policy, 0)
               - before.get(result.policy, 0))
    counters = {name: value for name, value in snapshot["counters"].items()
                if not name.startswith("engine.compiled_")}
    return decided, (result, policy.metrics(), observed, counters,
                     snapshot["histograms"])


def _governed_decides(inner: str, workload: dict) -> bool:
    return inner not in fastcore._PERIODIC_KINDS or _periodic(workload)


@pytest.mark.parametrize("inner", tuple(GOVERNED_INNER))
@settings(TWIN, max_examples=12)
@given(workload=governed_workloads())
def test_governed_decide_equals_select_speed(workload, inner):
    # The interpreted run first: it draws with numpy (see assert_twins).
    assert not workload["model"].demand_tables
    decided, interpreted = governed_run(inner, workload, compiled=False)
    assert decided == 0
    decided, c_run = governed_run(inner, workload, compiled=True)
    assert decided == _governed_decides(inner, workload)
    decided, py_run = governed_run(inner, workload, compiled=True,
                                   python=True)
    assert decided == 0
    assert c_run == py_run == interpreted
    result, metrics, observed = c_run[:3]
    assert metrics["dispatches"] == result.dispatches > 0
    assert metrics["interventions"] == len(result.notes_of_kind("governor"))
    assert sum(kind == "governor.clamp" for kind, _ in observed) \
        == metrics["interventions"]


def test_governed_fault_matrix_cell_clamps_in_c():
    # An EXP-FM1 cell (U 0.65, overruns by 1.3 on every job, margin
    # 1.3): the floor binds, and each clamp reads as the hooks' own.
    taskset = standard_taskset(6, 0.65, 2002)
    workload = dict(taskset=taskset, processor="ideal",
                    arrival=PeriodicArrival(), margin=1.3,
                    model=bcwc_model(0.5, 2002),
                    faults=FaultPlan(seed=2002, overrun=OverrunFault(
                        factor=1.3, probability=1.0)))
    for inner in ("ccEDF", "DRA", "lpSEH", "lpSTA"):
        decided, c_run = governed_run(inner, workload, compiled=True)
        assert decided == 1
        assert governed_run(inner, workload, compiled=False)[1] == c_run
        result, metrics = c_run[:2]
        assert result.deadline_misses == []
        assert metrics["interventions"] > 0
        assert metrics["max_clamp"] > 0.0


# ----------------------------------------------------------------------
# Which runs keep the Python path
# ----------------------------------------------------------------------

def _workload(n=5, u=0.7, seed=11):
    return generate_taskset(n, u, np.random.default_rng(seed),
                            period_choices=PERIODS), \
        UniformExecution(low=0.2, high=1.0, seed=seed)


def _simulate(policy, *, compiled=True, **kwargs):
    taskset, model = _workload()
    with fastcore.forced(compiled):
        return simulate(taskset, ideal_processor(), policy, model,
                        horizon=HORIZON, **kwargs)


def _decided() -> int:
    return sum(fastcore.RUN_COUNTS["decided"].values())


def test_subclass_keeps_the_python_path():
    before = _decided()
    probed = _simulate(SlackProbePolicy())
    assert _decided() == before
    assert probed == _simulate(SlackProbePolicy(), compiled=False)
    assert dataclasses.replace(probed, policy="lpSTA") \
        == _simulate(LpStaPolicy())
    assert _decided() == before + 1


def test_governed_run_decides_in_c():
    before = _decided()
    governed = _simulate(SafetyGovernor(LpSehPolicy()))
    assert _decided() == before + 1
    assert governed == _simulate(SafetyGovernor(LpSehPolicy()),
                                 compiled=False)


class _Governor(SafetyGovernor):
    """A subclass: it may override anything the stage mirrors."""


@pytest.mark.parametrize("make_policy", [
    pytest.param(lambda: _Governor(LpSehPolicy()), id="subclass"),
    pytest.param(lambda: SafetyGovernor(SlackProbePolicy()),
                 id="python-inner"),
    pytest.param(lambda: SafetyGovernor(SafetyGovernor(LpSehPolicy()),
                                        margin=1.2),
                 id="governed-governor"),
    pytest.param(lambda: SafetyGovernor(OverheadAwarePolicy(LpStaPolicy())),
                 id="governed-overhead-aware"),
    pytest.param(lambda: SafetyGovernor(CriticalSpeedPolicy(DraPolicy())),
                 id="governed-critical-speed"),
    pytest.param(lambda: OverheadAwarePolicy(LpStaPolicy()),
                 id="overhead-aware"),
    pytest.param(lambda: CriticalSpeedPolicy(DraPolicy()),
                 id="critical-speed"),
])
def test_undecidable_wrappers_keep_the_python_path(make_policy):
    before = _decided()
    wrapped = _simulate(make_policy())
    assert _decided() == before
    assert wrapped == _simulate(make_policy(), compiled=False)


def test_patched_floor_keeps_the_python_path(monkeypatch):
    reference = _simulate(SafetyGovernor(LpStaPolicy(), margin=1.2))
    original = SafetyGovernor.feasibility_floor
    calls = []

    def counted(self, job, ctx):
        calls.append(job.name)
        return original(self, job, ctx)

    monkeypatch.setattr(SafetyGovernor, "feasibility_floor", counted)
    before = _decided()
    patched = _simulate(SafetyGovernor(LpStaPolicy(), margin=1.2))
    assert _decided() == before
    assert len(calls) == patched.dispatches
    assert patched == reference


def test_patched_hook_keeps_the_python_path(monkeypatch):
    reference = _simulate(LaEdfPolicy())
    original = LaEdfPolicy.select_speed
    calls = []

    def counted(self, job, ctx):
        calls.append(job.name)
        return original(self, job, ctx)

    monkeypatch.setattr(LaEdfPolicy, "select_speed", counted)
    before = _decided()
    patched = _simulate(LaEdfPolicy())
    assert _decided() == before
    assert len(calls) == patched.dispatches
    assert patched == reference


def test_opt_out_keeps_the_interpreted_engine(monkeypatch):
    reference = _simulate(FeedbackDvsPolicy())
    monkeypatch.setenv("REPRO_COMPILED", "0")
    before = dict(fastcore.RUN_COUNTS, decided=_decided())
    opted_out = _simulate(FeedbackDvsPolicy(), compiled=None)
    assert fastcore.RUN_COUNTS["interpreted"] == before["interpreted"] + 1
    assert _decided() == before["decided"]
    assert opted_out == reference


def test_telemetry_keeps_the_c_decide_and_its_observations():
    snapshots = []
    for python in (False, True):
        policy = LpStaPolicy()
        if python:
            policy.select_speed = policy.select_speed
        TELEMETRY.configure(enabled=True)
        try:
            result = _simulate(policy)
            snapshots.append((result, TELEMETRY.snapshot()))
        finally:
            TELEMETRY.configure(enabled=False)
            TELEMETRY.reset()
    (c_result, c_tele), (py_result, py_tele) = snapshots
    assert c_result == py_result
    assert c_tele["histograms"] == py_tele["histograms"]
    counters = {**py_tele["counters"], "engine.compiled_decides": 1}
    assert c_tele["counters"] == counters


def test_profiling_keeps_the_c_decide_and_its_regions():
    counts = []
    for python in (False, True):
        policy = FeedbackDvsPolicy()
        if python:
            policy.select_speed = policy.select_speed
        before = _decided()
        TELEMETRY.configure_timers(enabled=True)
        try:
            result = _simulate(policy)
            phases = TELEMETRY.snapshot()["phases"]
        finally:
            TELEMETRY.configure_timers(enabled=False)
            TELEMETRY.reset()
        assert _decided() == before + (0 if python else 1)
        counts.append((result, {name: rec["count"]
                                for name, rec in phases.items()}))
    (c_result, c_counts), (py_result, py_counts) = counts
    assert c_result == py_result
    assert c_counts == py_counts
    assert c_counts["slack.heuristic"] == 2 * c_counts[
        "policy.decide.feedback"]


def _count_callbacks(monkeypatch, names) -> tuple[dict, list]:
    """Count the calls the compiled core makes to the namespace
    callbacks *names*; also collects the simulators it ran."""
    calls = dict.fromkeys(names, 0)
    build = fastcore._build_namespace
    sims = []

    def counting(sim):
        sims.append(sim)
        namespace = build(sim)
        for name in calls:
            def counted(*args, _name=name, _call=getattr(namespace, name)):
                calls[_name] += 1
                return _call(*args)
            setattr(namespace, name, counted)
        return namespace

    monkeypatch.setattr(fastcore, "_build_namespace", counting)
    return calls, sims


def test_fig1_unit_runs_no_per_job_python(monkeypatch):
    """An EXP-F1 suite (8 tasks, U 0.9, bc/wc 0.5, every default policy)
    draws its demands and decides every speed in C: no ``work``,
    ``select_speed`` or ``Job`` construction reaches Python (tracing is
    off, and no run misses, so no note needs a job)."""
    calls, sims = _count_callbacks(monkeypatch,
                                   ("work", "select_speed", "mk_job"))
    before = dict(fastcore.RUN_COUNTS,
                  decided=dict(fastcore.RUN_COUNTS["decided"]))
    with fastcore.forced(True):
        suite = run_suite(standard_taskset(8, 0.9, 2002), DEFAULT_POLICIES,
                          ideal_processor(), bcwc_model(0.5, 2002), 600.0)
    assert calls == {"work": 0, "select_speed": 0, "mk_job": 0}
    assert len(sims) == len(suite.results) == len(DEFAULT_POLICIES)
    assert not any(result.notes for result in suite.results.values())
    assert fastcore.RUN_COUNTS["drawn"] - before["drawn"] \
        == len(DEFAULT_POLICIES)
    assert {name: fastcore.RUN_COUNTS["decided"][name]
            - before["decided"].get(name, 0)
            for name in DEFAULT_POLICIES} \
        == dict.fromkeys(DEFAULT_POLICIES, 1)


def test_governed_overrun_run_builds_no_job(monkeypatch):
    """A governed run whose every job overruns by 1.3 (margin 1.3, no
    miss) decides in C and writes every overrun and clamp note itself:
    no ``Job``, no note helper (there is none left), and with telemetry
    off no clamp callback."""
    calls, _sims = _count_callbacks(
        monkeypatch, ("select_speed", "mk_job", "miss", "gov_clamp"))
    taskset = standard_taskset(6, 0.65, 2002)
    plan = FaultPlan(seed=2002, overrun=OverrunFault(factor=1.3,
                                                     probability=1.0))
    results = []
    for compiled in (True, False):
        with fastcore.forced(compiled):
            results.append(simulate(
                taskset, ideal_processor(),
                SafetyGovernor(LpStaPolicy(), margin=1.3),
                bcwc_model(0.5, 2002), horizon=600.0, faults=plan))
    governed, interpreted = results
    assert governed == interpreted
    assert not governed.deadline_misses
    overruns = governed.notes_of_kind("overrun")
    assert len(overruns) == governed.overrun_jobs == governed.jobs_released
    assert governed.notes_of_kind("governor")
    assert calls == {"select_speed": 0, "mk_job": 0, "miss": 0,
                     "gov_clamp": 0}
    assert not any(hasattr(fastcore, f"_{kind}_note")
                   for kind in ("overrun", "stuck", "requant"))


def test_raw_overrun_run_with_misses_builds_no_job(monkeypatch):
    """A raw lpSTA run overrunning by 1.4 on every job, as in EXP-FM1,
    misses deadlines: the core writes every miss record, count and note
    from the job slots, with no ``Job`` and no call to ``_miss``."""
    calls, _sims = _count_callbacks(monkeypatch, ("mk_job", "miss"))
    taskset = standard_taskset(6, 0.65, 2002)
    plan = FaultPlan(seed=2002, overrun=OverrunFault(factor=1.4,
                                                     probability=1.0))
    results = []
    for compiled in (True, False):
        with fastcore.forced(compiled):
            results.append(simulate(
                taskset, ideal_processor(), LpStaPolicy(),
                bcwc_model(0.5, 2002), horizon=600.0, faults=plan,
                allow_misses=True))
    raw, interpreted = results
    assert raw == interpreted
    assert raw.notes == interpreted.notes
    assert raw.deadline_misses
    assert sum(stats.missed for stats in raw.task_stats.values()) \
        == len(raw.deadline_misses) \
        == len(raw.notes_of_kind("deadline-miss"))
    assert calls == {"mk_job": 0, "miss": 0}


# ----------------------------------------------------------------------
# Lazy jobs
# ----------------------------------------------------------------------

class _Watching(DvsPolicy):
    """Full speed; records the active jobs' state at every dispatch."""

    name = "watching"

    def __init__(self) -> None:
        super().__init__()
        self.seen: list[tuple] = []

    def select_speed(self, job, ctx):
        first = ctx.active_jobs
        again = ctx.active_jobs
        assert all(a is b for a, b in zip(first, again, strict=True))
        self.seen.append(tuple(
            (j.name, j.executed, j.first_dispatch_time, j.preemption_count)
            for j in first))
        return 0.5 if job.task.name == "T0" else 1.0


def test_active_jobs_are_stable_and_match_the_interpreter():
    taskset = TaskSet([PeriodicTask("T0", 3.0, 20.0),
                       PeriodicTask("T1", 1.0, 5.0),
                       PeriodicTask("T2", 2.0, 8.0)])
    watched = []
    for compiled in (True, False):
        policy = _Watching()
        with fastcore.forced(compiled):
            simulate(taskset, ideal_processor(), policy,
                     WorstCaseExecution(), horizon=200.0)
        watched.append(policy.seen)
    assert watched[0] == watched[1]
    assert any(count for seen in watched[0] for *_, count in seen)


def _failure(make_error, **kwargs) -> list[str]:
    messages = []
    for compiled in (True, False):
        with fastcore.forced(compiled), pytest.raises(make_error) as exc:
            simulate(horizon=200.0, **kwargs)
        messages.append(str(exc.value))
    return messages


def test_miss_in_a_c_decided_run_raises_the_same_error():
    overloaded = TaskSet([PeriodicTask("A", 6.0, 10.0),
                          PeriodicTask("B", 6.0, 10.0)])
    compiled, interpreted = _failure(
        DeadlineMissError, taskset=overloaded,
        processor=ideal_processor(), policy=LpSehPolicy(),
        execution_model=WorstCaseExecution(), check_feasibility=False)
    assert compiled == interpreted
    assert "missed its deadline" in compiled


class _TooLong(ExecutionModel):
    """Draws more work than the WCET for the third job of every task."""

    def ratio(self, task, index):
        return 0.5

    def work(self, task, index):
        return task.wcet * (2.0 if index == 2 else 0.5)


def test_invalid_work_draw_raises_the_same_error():
    taskset, _model = _workload()
    compiled, interpreted = _failure(
        SimulationError, taskset=taskset, processor=ideal_processor(),
        policy=DraPolicy(), execution_model=_TooLong())
    assert compiled == interpreted
    assert "actual work" in compiled
