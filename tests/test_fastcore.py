"""Compiled engine core: backend routing and byte identity (DESIGN.md §13).

The contract under test: the compiled core is purely an execution
strategy.  When the C extension is present and enabled, every eligible
run produces a :class:`SimulationResult` **bitwise identical** to the
interpreted engine's — including fault notes, governor interventions
and traces; anything the core cannot reproduce exactly (subclassed
simulators or processors) falls through to the interpreted loop;
and a host without a compiler (or ``REPRO_COMPILED=0`` /
``--no-compiled``) runs exactly as before with zero new dependencies.
``scripts/identity_gate.py`` enforces the same contract on whole sweep
fingerprints in CI.  Where it is built, the core must also run an
engine-bound workload at least twice as fast as the interpreted loop.
The loader tests build a stub extension into
temporary cache roots: the cache key, the digest check, the trust
rules and the ``REPRO_COMPILED=0`` short cut.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import math
import os
import pickle
import shutil
import sys
import sysconfig
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cpu.processor import Processor
from repro.cpu.profiles import ideal_processor, xscale_processor
from repro.cpu.speed import SpeedScale
from repro.errors import DeadlineMissError, PolicyError
from repro.experiments.config import DEFAULT_POLICIES
from repro.experiments.runner import bcwc_model, run_suite, standard_taskset
from repro.faults import FaultPlan
from repro.faults.plan import OverrunFault, TransitionFault
from repro.policies.base import DvsPolicy
from repro.policies.governor import SafetyGovernor
from repro.policies.registry import make_policy
from repro.policies.slack_sta import LpStaPolicy
from repro.sim import fastcore
from repro.sim.engine import Simulator, simulate
from repro.sim.results import DeadlineMiss
from repro.sim.tracing import TraceNote
from repro.tasks.arrivals import (
    BurstyArrival,
    ExponentialGapArrival,
    PeriodicArrival,
    UniformJitterArrival,
)
from repro.tasks.execution import UniformExecution
from repro.tasks.generators import generate_taskset
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet
from repro.telemetry import TELEMETRY

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
    assert set(info["runs"]) == {"compiled", "interpreted", "drawn",
                                 "decided"}
    assert all(isinstance(count, int)
               for count in info["runs"]["decided"].values())
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
# Per-job records: the core writes them, the engine's f-strings rule
# ----------------------------------------------------------------------

def _recorded_run(taskset, policy, plan, *, compiled, seed,
                  allow_misses=True):
    """One faulted run with telemetry on: the result, the policy's
    metrics, every observation and event in order, the counters (the
    engine's own backend counters left out) and the histograms."""
    observed: list[tuple] = []
    observe, emit = TELEMETRY.observe, TELEMETRY.emit

    def record_observe(name, value, **kwargs):
        observed.append((name, value))
        observe(name, value, **kwargs)

    def record_emit(kind, **fields):
        observed.append((kind, fields))
        emit(kind, **fields)

    before = fastcore.RUN_COUNTS["compiled"]
    TELEMETRY.configure(enabled=True)
    TELEMETRY.observe, TELEMETRY.emit = record_observe, record_emit
    try:
        with fastcore.forced(compiled):
            result = simulate(taskset, ideal_processor(), policy,
                              bcwc_model(0.5, seed), horizon=300.0,
                              faults=plan, allow_misses=allow_misses)
        snapshot = TELEMETRY.snapshot()
    finally:
        del TELEMETRY.observe, TELEMETRY.emit
        TELEMETRY.configure(enabled=False)
        TELEMETRY.reset()
    assert fastcore.RUN_COUNTS["compiled"] - before == int(compiled)
    counters = {name: value for name, value in snapshot["counters"].items()
                if not name.startswith("engine.compiled_")}
    return (result, policy.metrics(), observed, counters,
            snapshot["histograms"])


@needs_compiled
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(min_value=3, max_value=6),
       u=st.floats(min_value=0.5, max_value=0.7),
       seed=st.integers(min_value=0, max_value=2**16),
       factor=st.floats(min_value=1.1, max_value=1.4),
       probability=st.sampled_from((0.3, 1.0)),
       stuck=st.booleans(), governed=st.booleans(),
       policy=st.sampled_from(("lpSTA", "DRA", "ccEDF", "clairvoyant")))
def test_faulted_records_identical(n, u, seed, factor, probability, stuck,
                                   governed, policy):
    """Raw and governed faulted runs: the overrun, deadline-miss,
    governor and transition-fault notes the core writes equal the
    interpreted engine's element by element, and so do the miss
    records, the per-task counts, ``policy_metrics`` and, telemetry on,
    the governor's counters, observations and events."""
    taskset = standard_taskset(n, u, seed)
    plan = FaultPlan(seed=seed,
                     overrun=OverrunFault(factor=factor,
                                          probability=probability),
                     transition=(TransitionFault(stuck_probability=0.2)
                                 if stuck else None))
    runs = [_recorded_run(
        taskset, make_policy(policy, governed=governed,
                             governor_margin=factor),
        plan, compiled=compiled, seed=seed) for compiled in (False, True)]
    interpreted, compiled = runs
    assert compiled == interpreted
    result = compiled[0]
    assert list(result.notes) == list(interpreted[0].notes)
    assert result.deadline_misses == interpreted[0].deadline_misses
    assert result.notes_of_kind("overrun")
    assert len(result.notes_of_kind("deadline-miss")) \
        == len(result.deadline_misses) \
        == sum(stats.missed for stats in result.task_stats.values())
    if governed:
        assert len(result.notes_of_kind("governor")) \
            == compiled[1]["interventions"] \
            == sum(kind == "governor.clamp" for kind, _ in compiled[2])


@needs_compiled
def test_miss_abort_leaves_identical_records():
    """With misses fatal, the core writes the first miss's record, count
    and note, then ``fastcore._miss`` raises: the same error, message
    and attributes, and the same partial result, as the interpreted
    engine."""
    taskset = standard_taskset(6, 0.65, 2002)
    plan = FaultPlan(seed=2002, overrun=OverrunFault(factor=1.4))
    seen = []
    for compiled in (False, True):
        sim = Simulator(taskset, ideal_processor(), make_policy("lpSTA"),
                        bcwc_model(0.5, 2002), horizon=600.0, faults=plan)
        with fastcore.forced(compiled), \
                pytest.raises(DeadlineMissError) as exc:
            sim.run()
        error = exc.value
        seen.append((str(error), error.task, error.job_index,
                     error.deadline, error.completion,
                     list(sim._result.deadline_misses),
                     sim._result.task_stats, list(sim._trace.notes)))
    interpreted, compiled = seen
    assert compiled == interpreted
    message, *_rest, misses, stats, notes = compiled
    assert "missed its deadline" in message
    assert len(misses) == 1 == sum(s.missed for s in stats.values())
    assert notes[-1].kind == "deadline-miss"


# ----------------------------------------------------------------------
# Deferred records: built when read, never by the sweep's fold
# ----------------------------------------------------------------------

class _PythonLpSta(LpStaPolicy):
    """lpSTA subclassed: it, and a governor over it, decide in Python."""


def _live_records() -> int:
    return sum(isinstance(obj, (TraceNote, DeadlineMiss))
               for obj in gc.get_objects())


@needs_compiled
def test_python_notes_keep_their_order_among_the_cores():
    """A governor over a Python-deciding policy writes its notes with
    ``ctx.note`` while the core writes the overrun notes: the compiled
    run's notes interleave exactly as the interpreted run's."""
    taskset = standard_taskset(6, 0.65, 7)
    plan = FaultPlan(seed=7, overrun=OverrunFault(factor=1.3,
                                                  probability=0.5))
    results = []
    for backend in (False, True):
        before = dict(fastcore.RUN_COUNTS["decided"])
        with fastcore.forced(backend):
            results.append(simulate(
                taskset, ideal_processor(),
                SafetyGovernor(_PythonLpSta(), margin=1.3),
                bcwc_model(0.5, 7), horizon=HORIZON, faults=plan,
                allow_misses=True, record_trace=True))
        assert fastcore.RUN_COUNTS["decided"] == before
    interpreted, compiled = results
    kinds = [note.kind for note in compiled.notes]
    assert "governor" in kinds and "overrun" in kinds
    first_governor = kinds.index("governor")
    assert "overrun" in kinds[first_governor:]  # interleaved, not appended
    assert list(compiled.notes) == list(interpreted.notes)
    assert list(compiled.trace.notes) == list(interpreted.trace.notes)


@needs_compiled
def test_suite_fold_builds_no_records():
    """``policy_summaries`` of a faulted suite, raw and governed, reads
    only counts: no ``TraceNote`` or ``DeadlineMiss`` is built while
    the suite's results are alive, and the counts equal the
    interpreted suite's."""
    taskset, model = _workload(seed=2002)
    plan = FaultPlan(seed=2002, overrun=OverrunFault(factor=1.4))
    summaries = []
    for backend in (False, True):
        for governed in (False, True):
            gc.collect()
            before = _live_records()
            with fastcore.forced(backend):
                suite = run_suite(
                    taskset, ("ccEDF", "lpSTA"), ideal_processor(), model,
                    HORIZON, allow_misses=True, faults=plan,
                    policy_factory=lambda name: make_policy(
                        name, governed=governed, governor_margin=1.4))
                summaries.append(suite.policy_summaries())
            built = _live_records() - before
            assert (built == 0) == backend
            assert suite.miss_count("lpSTA") \
                == summaries[-1]["lpSTA"].misses
            del suite
    assert summaries[:2] == summaries[2:]
    assert summaries[0]["lpSTA"].misses > 0   # the raw suite misses


@needs_compiled
def test_unread_compiled_result_equals_its_twin():
    """An unread compiled result compares, ``replace``s, copies and
    pickles as the interpreted one: the pickles are the same bytes, and
    a deep or unpickled copy carries no store."""
    kwargs = dict(faults=_fault_plan(), governed=True)
    interpreted = _run("lpSEH", backend=False, **kwargs)
    fresh = [_run("lpSEH", backend=True, **kwargs) for _ in range(4)]
    assert fresh[0] == interpreted
    assert dataclasses.replace(fresh[1], policy="x") \
        == dataclasses.replace(interpreted, policy="x")
    assert pickle.dumps(fresh[2]) == pickle.dumps(interpreted)
    shallow = copy.copy(fresh[3])
    assert shallow == interpreted
    assert shallow.deadline_misses is fresh[3].deadline_misses
    traced = [_run("lpSEH", backend=backend, record_trace=True, **kwargs)
              for backend in (False, True, True)]
    for twin in (copy.deepcopy(traced[1]),
                 pickle.loads(pickle.dumps(traced[2]))):
        assert "_deferred" not in vars(twin)
        assert "_records" not in vars(twin.trace)
        assert_results_identical(twin, traced[0])


@needs_compiled
@pytest.mark.parametrize("processor", [ideal_processor, xscale_processor])
def test_mean_speed_same_bits_on_both_engines(processor):
    """``mean_speed`` of an unread compiled result sums the same products
    in the same order as the interpreted dict walk, and builds no
    ``speed_time``."""
    for policy in ("lpSTA", "ccEDF", "DRA"):
        interpreted = _run(policy, backend=False, processor=processor())
        compiled = _run(policy, backend=True, processor=processor())
        speed = compiled.mean_speed()
        assert "speed_time" not in vars(compiled)
        assert speed.hex() == interpreted.mean_speed().hex()
        assert compiled.speed_time == interpreted.speed_time


def test_records_pickle_round_trip():
    note = TraceNote(time=1.5, kind="overrun", detail="T0#1: work 2 > wcet 1")
    miss = DeadlineMiss(job="T0#1", task="T0", deadline=3.0,
                        detected_at=3.25)
    assert pickle.loads(pickle.dumps(note)) == note
    assert pickle.loads(pickle.dumps(miss)) == miss
    assert not hasattr(note, "__dict__") and not hasattr(miss, "__dict__")


# ----------------------------------------------------------------------
# Speed keys and release mirrors: what the core builds lazily
# ----------------------------------------------------------------------

class _ExactScale(SpeedScale):
    """Every positive speed up to 1 + 1e-9 attainable as asked: the
    desired speed reaches ``speed_time`` unquantized (a Python
    ``quantize``, so both engines call it)."""

    min_speed = 1e-15

    def quantize(self, speed):
        return speed

    def is_attainable(self, speed, tol=1e-9):
        return True


class _ScriptedSpeeds(DvsPolicy):
    """Returns its speeds in turn, one per dispatch, cycling."""

    name = "scripted"

    def __init__(self, speeds):
        super().__init__()
        self.speeds = speeds
        self.asked = []

    def reset(self):
        self.asked = []

    def select_speed(self, job, ctx):
        speed = self.speeds[len(self.asked) % len(self.speeds)]
        self.asked.append(speed)
        return speed


def _adversarial_speeds():
    """Speeds whose 12-decimal keys are easy to get wrong."""
    k = 123456789012 / 1e12
    speeds = [
        # exact binary ties at the 12th decimal: x * 1e12 = n + 1/2
        1 / 8192, 3 / 8192, 4095 / 8192,
        # decimal ties (near-ties in binary) at the 12th decimal; the
        # last three round the other way from nearbyint(x * 1e12)
        0.1234567890125, 0.5000000000005, 0.0000000000015,
        0.9999999999995, 0.6180339887495, 0.0000000000065,
        # k / 1e12 and its neighbours one ulp away
        k, math.nextafter(k, 0.0), math.nextafter(k, 2.0),
        0.7, math.nextafter(0.7, 0.0), math.nextafter(0.7, 2.0),
        # below 1e-12: keys 0.0 and 1e-12, and a near-tie between them
        4e-13, 6e-13, 5e-13, 1e-15,
        # above 1 (the formatter's range) and the top speed itself
        1.0 + 1e-10, math.nextafter(1.0, 2.0), 1.0,
    ]
    rng = np.random.default_rng(31)
    speeds += [float(x) for x in rng.uniform(0.05, 1.0, 40)]
    # 0.5 between two speeds keeps each from being held (SPEED_EPS)
    return [s for speed in speeds for s in (speed, 0.5)]


@needs_compiled
def test_speed_keys_are_round_12_on_both_engines():
    """``speed_time`` keys are ``round(speed, 12)`` in first-seen order,
    bit for bit, on both engines, for speeds at and around 12-decimal
    ties, one ulp off ``k / 1e12``, below ``1e-12`` (whose keys are
    ``+0.0`` and ``1e-12``) and above 1 (the compiled core's formatter
    fallback).  A desired ``-0.0`` never becomes a key: both engines
    reject it."""
    taskset = TaskSet([PeriodicTask(f"T{i}", 0.1 * period, period)
                       for i, period in enumerate((1.0, 1.5, 2.0, 3.0))])
    model = bcwc_model(0.5, SEED)
    processor = Processor(scale=_ExactScale())
    results, asked = [], []
    for backend in (False, True):
        policy = _ScriptedSpeeds(_adversarial_speeds())
        with fastcore.forced(backend):
            results.append(simulate(taskset, processor, policy, model,
                                    horizon=HORIZON, allow_misses=True))
        asked.append(policy.asked)
    interpreted, compiled = results
    assert_results_identical(interpreted, compiled)
    assert asked[0] == asked[1]
    assert len(asked[1]) > 2 * len(_adversarial_speeds())
    applied, current = [], 1.0
    for speed in asked[1]:
        if abs(speed - current) > 1e-12:   # Simulator._apply_speed
            current = speed
        applied.append(current)
    expected = dict.fromkeys(round(speed, 12) for speed in applied)
    assert list(compiled.speed_time) == list(expected)
    assert [math.copysign(1.0, key) for key in compiled.speed_time] \
        == [math.copysign(1.0, key) for key in expected]
    assert 0.0 in compiled.speed_time and 1e-12 in compiled.speed_time
    assert round(1 / 8192, 12) == 0.000122070312   # half to even

    errors = []
    for backend in (False, True):
        with fastcore.forced(backend), pytest.raises(PolicyError) as exc:
            simulate(taskset, processor, _ScriptedSpeeds([-0.0]), model,
                     horizon=HORIZON)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


class _MirrorReader(DvsPolicy):
    """Decides in Python and records every release view the context
    offers, at each dispatch and each release."""

    name = "mirror-reader"

    def __init__(self):
        super().__init__()
        self.reads = []

    def reset(self):
        self.reads = []

    def _read(self, where, job, ctx):
        name = job.task.name
        self.reads.append((where, ctx.time, dict(ctx.next_release_map()),
                           ctx.next_release_of(name),
                           ctx.next_job_index(name)))

    def on_release(self, job, ctx):
        self._read("release", job, ctx)

    def select_speed(self, job, ctx):
        self._read("dispatch", job, ctx)
        return 1.0


@needs_compiled
def test_release_mirrors_read_the_same_on_both_engines():
    """The core writes ``_next_release``/``_next_index`` only when
    Python can read them: a policy's reads through the context, at
    every release and dispatch, and the simulator's dicts after the
    run, equal the interpreted engine's."""
    taskset, model = _workload()
    seen = []
    for backend in (False, True):
        policy = _MirrorReader()
        sim = Simulator(taskset, ideal_processor(), policy, model,
                        horizon=HORIZON)
        with fastcore.forced(backend):
            result = sim.run()
        seen.append((result, policy.reads, sim._next_release,
                     sim._next_index))
    (interpreted, reads_i, *mirrors_i), (compiled, reads_c, *mirrors_c) \
        = seen
    assert_results_identical(interpreted, compiled)
    assert len(reads_c) > compiled.jobs_released
    assert reads_c == reads_i
    assert mirrors_c == mirrors_i
    assert sum(mirrors_c[1].values()) == compiled.jobs_released


class _PeekingModel(UniformExecution):
    """Draws in Python (a subclass never draws in C) and, once a policy
    handed it the context, records the release view at every draw."""

    def __init__(self, seed):
        super().__init__(low=0.5, high=1.0, seed=seed)
        self.ctx = None
        self.reads = []

    def work(self, task, index):
        if self.ctx is not None:
            self.reads.append((task.name, index,
                               dict(self.ctx.next_release_map()),
                               self.ctx.next_job_index(task.name)))
        return super().work(task, index)


class _HandsOverContext(DvsPolicy):
    """Gives the execution model the context at its first dispatch; no
    release or completion hook runs."""

    name = "hands-over-context"

    def __init__(self, model):
        super().__init__()
        self.model = model

    def select_speed(self, job, ctx):
        self.model.ctx = ctx
        return 1.0


@needs_compiled
def test_release_mirrors_current_between_hooks():
    """Python code reading the context between two hooks (here the
    execution model, at each draw of a release batch) sees the releases
    made since the last hook: the core brings the mirrors up to date
    when they are read."""
    taskset = TaskSet([PeriodicTask(f"T{i}", 0.2 * period, period)
                       for i, period in enumerate((1.0, 2.0, 2.0, 4.0))])
    reads = []
    for backend in (False, True):
        model = _PeekingModel(SEED)
        with fastcore.forced(backend):
            simulate(taskset, ideal_processor(), _HandsOverContext(model),
                     model, horizon=40.0)
        reads.append(model.reads)
    assert len(reads[1]) > 40
    assert reads[1] == reads[0]


@needs_compiled
def test_release_mirrors_after_a_miss_abort():
    """A run that raised ``DeadlineMissError`` (decided in C, so no
    Python hook wrote the mirrors on the way) leaves the simulator's
    ``_next_release``/``_next_index`` as the interpreted engine does."""
    taskset = standard_taskset(6, 0.65, 2002)
    plan = FaultPlan(seed=2002, overrun=OverrunFault(factor=1.4))
    seen = []
    for compiled in (False, True):
        sim = Simulator(taskset, ideal_processor(), make_policy("lpSTA"),
                        bcwc_model(0.5, 2002), horizon=600.0, faults=plan)
        with fastcore.forced(compiled), pytest.raises(DeadlineMissError):
            sim.run()
        seen.append((sim._next_release, sim._next_index))
    assert seen[1] == seen[0]
    assert any(index > 0 for index in seen[1][1].values())


# ----------------------------------------------------------------------
# Speed: the core must pay for itself
# ----------------------------------------------------------------------

def test_compiled_core_at_least_twice_as_fast():
    """One 8-task EXP-F1-shaped run under ``static`` (the engine's
    dispatch loop, hardly any policy work): the best of five compiled
    runs must take at most half the best of five interpreted ones."""
    if not fastcore.compiled_available():
        pytest.skip(f"compiled core unavailable: "
                    f"{fastcore.core_info()['reason']}")
    taskset = standard_taskset(8, 0.7, 20020311)
    model = bcwc_model(0.5, 20020311)

    def best_of_five(backend):
        times = []
        for _ in range(5):
            with fastcore.forced(backend):
                started = time.perf_counter()
                result = simulate(taskset, ideal_processor(),
                                  make_policy("static"), model,
                                  horizon=1200.0)
                times.append(time.perf_counter() - started)
            assert result.jobs_completed > 0
            assert not result.deadline_misses
        return min(times)

    interpreted = best_of_five(False)
    compiled = best_of_five(True)
    assert interpreted / compiled >= 2.0, (
        f"compiled core {interpreted / compiled:.2f}x the interpreted "
        f"loop ({compiled * 1e3:.2f} ms vs {interpreted * 1e3:.2f} ms)")


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

def test_doctor_reports_backends(capsys):
    from repro.cli import main
    before = dict(fastcore.RUN_COUNTS["decided"])
    drawn = fastcore.RUN_COUNTS["drawn"]
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
    if fastcore.compiled_enabled():
        # One probe run per policy, each decided in C.
        assert "decided in C: " + ", ".join(
            f"{name} {before.get(name, 0) + 1}"
            for name in fastcore.DECIDED_POLICIES) in out
        # The probes' uniform demands are drawn in C too.
        assert (f"demands drawn in C: "
                f"{drawn + len(fastcore.DECIDED_POLICIES)} runs") in out


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
