"""Bit-identity of the single-pass slack and intensity sweeps.

The interpreted exact and heuristic walks and the clairvoyant
intensity sweep fold their deadline groups in one ``for`` loop over
columnar snapshots.  Every experiment payload is float-accumulation-
order sensitive, so these tests hold them to ``==`` (never approx)
against reference copies of the indexed ``while``-loop sweeps they
replaced, and, where the extension is loaded, against the compiled
kernels of ``repro.sim._fastcore`` on the same arguments — as well as
the compiled core's slack snapshot columns against the ones the
interpreted context builds from the ``Job`` objects.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis import slack as slack_mod
from repro.analysis.slack import (
    ActiveJob,
    SystemState,
    exact_slack,
    heuristic_slack,
)
from repro.cpu.profiles import ideal_processor
from repro.faults import FaultPlan, OverrunFault
from repro.policies.base import DvsPolicy
from repro.policies.clairvoyant import intensity_sweep, peak_intensity
from repro.sim import fastcore
from repro.sim.engine import CoreContext, SimContext, simulate
from repro.tasks.execution import WorstCaseExecution
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet

try:
    from repro.sim import _fastcore
except ImportError:  # the interpreted engine is the contract
    _fastcore = None

needs_compiled = pytest.mark.skipif(
    _fastcore is None, reason="compiled core unavailable")

WALK_SETTINGS = settings(max_examples=300, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])

#: Offsets that put deadlines inside, on and just outside the 1e-12
#: grouping tolerance of each other.
NEAR = (0.0, 0.0, 1e-13, -1e-13, 5e-13, 1e-12, 1.5e-12, 3e-12)


# ----------------------------------------------------------------------
# Reference sweeps: the pre-columnar implementations, kept verbatim
# ----------------------------------------------------------------------

def reference_tail_guard(state: SystemState, window_end: float) -> float:
    # The original summed the active budgets with sum(), which on
    # CPython 3.11 is this sequential loop (3.12 made float sum()
    # compensated); the compiled kernel adds sequentially too.
    total = 0.0
    for job in state.active:
        total += job.remaining_wcet
    for task in state.tasks:
        release = state.next_release[task.name]
        total += task.utilization * max(0.0, window_end - release)
        if task.deadline < task.period:
            total += task.wcet * (task.period - task.deadline) / task.period
    return window_end - state.time - total


def reference_exact_slack(state: SystemState, window_cap_periods=None,
                          earliest_candidate=None) -> float:
    t = state.time
    d_first = (earliest_candidate if earliest_candidate is not None
               else state.earliest_deadline)
    latest_active = max(job.deadline for job in state.active)
    window_end = latest_active
    if window_cap_periods is not None:
        max_period = max(task.period for task in state.tasks)
        window_end = max(latest_active,
                         t + window_cap_periods * max_period)
    events = [(job.deadline, job.remaining_wcet) for job in state.active]
    next_release = state.next_release
    fence = window_end + 1e-12
    append = events.append
    for task in state.tasks:
        deadline = next_release[task.name] + task.deadline
        period = task.period
        wcet = task.wcet
        while deadline <= fence:
            append((deadline, wcet))
            deadline += period
    events.sort(key=lambda e: e[0])

    best = math.inf
    h = 0.0
    i = 0
    n = len(events)
    while i < n:
        d_k = events[i][0]
        while i < n and events[i][0] <= d_k + 1e-12:
            h += events[i][1]
            i += 1
        if d_k >= d_first - 1e-12:
            g = d_k - t - h
            if g < best:
                best = g
    best = min(best, reference_tail_guard(state, window_end))
    return max(0.0, best)


def reference_heuristic_slack(state: SystemState) -> float:
    t = state.time
    d_first = state.earliest_deadline
    actives = [(job.deadline, job.remaining_wcet) for job in state.active]
    next_release = state.next_release
    task_terms = []
    candidates = {deadline for deadline, _ in actives}
    candidates.add(d_first)
    for task in state.tasks:
        release = next_release[task.name]
        correction = (task.wcet * (task.period - task.deadline) / task.period
                      if task.deadline < task.period else 0.0)
        task_terms.append((release, task.utilization, correction))
        if release >= d_first:
            candidates.add(release)
    best = math.inf
    for d_k in candidates:
        if d_k < d_first - 1e-12:
            continue
        fence = d_k + 1e-12
        total = 0.0
        for deadline, remaining in actives:
            if deadline <= fence:
                total += remaining
        for release, utilization, correction in task_terms:
            headroom = d_k - release
            if headroom > 0:
                total += utilization * headroom + correction
        g = d_k - t - total
        if g < best:
            best = g
    return max(0.0, best)


def reference_peak_intensity(t: float, window_end: float,
                             events: list) -> float:
    events = sorted(events, key=lambda e: e[0])
    best = 0.0
    h = 0.0
    i = 0
    n = len(events)
    while i < n:
        d_k = events[i][0]
        while i < n and events[i][0] <= d_k + 1e-12:
            h += events[i][1]
            i += 1
        span = d_k - t
        if span > 1e-12 and d_k <= window_end + 1e-9:
            best = max(best, h / span)
    return best


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

@st.composite
def states(draw, max_utilization: float = 2.0) -> SystemState:
    """A snapshot with clustered deadlines, constrained-deadline tasks
    and (sometimes) no future release inside any analysis window."""
    n = draw(st.integers(min_value=1, max_value=5))
    budget = max_utilization
    tasks = []
    for i in range(n):
        period = draw(st.sampled_from((2.0, 3.0, 4.0, 5.0, 10.0))
                      | st.floats(min_value=1.0, max_value=40.0))
        u = min(draw(st.floats(min_value=0.01, max_value=0.9)), budget)
        budget = max(0.0, budget - u)
        wcet = max(u, 1e-3) * period
        deadline = period
        if draw(st.booleans()):
            deadline = min(period, wcet + draw(st.floats(0.0, 1.0))
                           * (period - wcet))
        tasks.append(PeriodicTask(f"T{i}", wcet=wcet, period=period,
                                  deadline=deadline))
    t = draw(st.sampled_from((0.0, 10.0))
             | st.floats(min_value=0.0, max_value=100.0))
    far = draw(st.booleans()) and draw(st.booleans())
    next_release = {
        task.name: (t + 1e4 if far else
                    t + draw(st.sampled_from((0.0, 1.0, 2.5))
                             | st.floats(0.0, task.period)))
        for task in tasks}
    # Active deadlines: free ones, and ones riding on (or within a few
    # ulps of) another active deadline or a future job's deadline.
    deadlines: list[float] = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        kind = draw(st.integers(0, 2)) if deadlines else 0
        if kind == 0:
            base = t + draw(st.sampled_from((1.0, 2.0, 5.0))
                            | st.floats(1e-6, 60.0))
        elif kind == 1:
            base = draw(st.sampled_from(deadlines))
        else:
            task = draw(st.sampled_from(tasks))
            k = draw(st.integers(0, 3))
            base = next_release[task.name] + task.deadline + k * task.period
        deadlines.append(base + draw(st.sampled_from(NEAR)))
    active = [ActiveJob(deadline=d,
                        remaining_wcet=draw(st.sampled_from((0.0, 1.0))
                                            | st.floats(0.0, 10.0)))
              for d in deadlines]
    return SystemState.build(time=t, active=active, tasks=tasks,
                             next_release=next_release)


@st.composite
def tied_states(draw) -> SystemState:
    """Exact cross-task deadline ties: every task's future deadlines,
    and the active deadlines, lie on one grid of binary fractions, so
    different tasks' jobs fall due at bit-identical times; WCETs and
    budgets are arbitrary floats, so the order a tied group's work is
    added in shows in the bits."""
    t = draw(st.sampled_from((0.0, 7.5, 10.0)))
    grid = draw(st.sampled_from((1.0, 2.0, 2.5)))
    tasks, next_release = [], {}
    for i in range(draw(st.integers(min_value=2, max_value=6))):
        period = grid * draw(st.sampled_from((1, 2, 4)))
        deadline = grid * draw(st.integers(1, int(period / grid)))
        wcet = deadline * draw(st.floats(min_value=0.01, max_value=0.3))
        tasks.append(PeriodicTask(f"T{i}", wcet=wcet, period=period,
                                  deadline=deadline))
        next_release[f"T{i}"] = t + grid * draw(st.integers(0, 3))
    active = [ActiveJob(deadline=t + grid * draw(st.integers(1, 8)),
                        remaining_wcet=draw(st.floats(0.0, 3.0)))
              for _ in range(draw(st.integers(min_value=1, max_value=5)))]
    return SystemState.build(time=t, active=active, tasks=tasks,
                             next_release=next_release)


window_caps = st.sampled_from((None, 0.5, 1.0, 2.0, 4.0))


@st.composite
def earliest_candidates(draw, state: SystemState):
    return draw(st.sampled_from(
        (None, state.time, state.earliest_deadline,
         state.earliest_deadline + 1e-13, max(state.active_deadlines))))


def exact_walk_args(state: SystemState, window_cap_periods,
                    earliest_candidate) -> tuple:
    """The flattened arguments ``_exact_slack`` hands a walk."""
    names, rdl, per, wcet, util, corr = slack_mod._flat_tasks(state.tasks)
    d_first = (earliest_candidate if earliest_candidate is not None
               else state.earliest_deadline)
    window_end = max(state.active_deadlines)
    if window_cap_periods is not None:
        window_end = max(window_end,
                         state.time + window_cap_periods * max(per))
    rel = tuple(state.next_release[name] for name in names)
    return (state.time, d_first, window_end, state.active_deadlines,
            state.active_budgets, rel, rdl, per, wcet, util, corr)


def heuristic_walk_args(state: SystemState) -> tuple:
    names, _rdl, _per, _wcet, util, corr = slack_mod._flat_tasks(state.tasks)
    rel = tuple(state.next_release[name] for name in names)
    return (state.time, state.earliest_deadline, state.active_deadlines,
            state.active_budgets, rel, util, corr)


# ----------------------------------------------------------------------
# The interpreted walks equal the references
# ----------------------------------------------------------------------

@WALK_SETTINGS
@given(data=st.data(), state=states(), cap=window_caps)
def test_exact_slack_equals_reference(data, state, cap):
    candidate = data.draw(earliest_candidates(state))
    with fastcore.forced(False):
        got = exact_slack(state, window_cap_periods=cap,
                          earliest_candidate=candidate)
    assert got == reference_exact_slack(state, cap, candidate)


@WALK_SETTINGS
@given(state=states())
def test_heuristic_slack_equals_reference(state):
    with fastcore.forced(False):
        got = heuristic_slack(state)
    assert got == reference_heuristic_slack(state)


@st.composite
def intensity_sweeps(draw):
    t = draw(st.sampled_from((0.0, 3.0)) | st.floats(0.0, 100.0))
    deadlines: list[float] = []
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        if deadlines and draw(st.booleans()):
            base = draw(st.sampled_from(deadlines))
        else:
            base = t + draw(st.sampled_from((0.0, 1e-12, 1.0, 4.0))
                            | st.floats(0.0, 50.0))
        deadlines.append(base + draw(st.sampled_from(NEAR)))
    events = [(d, draw(st.sampled_from((0.0, 0.5)) | st.floats(0.0, 5.0)))
              for d in deadlines]
    window_end = t + draw(st.floats(0.0, 60.0))
    return t, window_end, events


@WALK_SETTINGS
@given(sweep=intensity_sweeps())
def test_peak_intensity_equals_reference(sweep):
    t, window_end, events = sweep
    assert peak_intensity(t, window_end, list(events)) == \
        reference_peak_intensity(t, window_end, events)


def test_walks_on_empty_future_streams():
    """No future release inside the window: only active budgets count,
    and the two deadlines 1e-13 apart fold into one group."""
    task = PeriodicTask("T0", wcet=1.0, period=10.0)
    state = SystemState.build(
        time=0.0, active=[ActiveJob(4.0, 1.0), ActiveJob(4.0 + 1e-13, 0.5)],
        tasks=[task], next_release={"T0": 1e6})
    with fastcore.forced(False):
        assert exact_slack(state) == reference_exact_slack(state) == 2.5
        assert heuristic_slack(state) == reference_heuristic_slack(state)
    assert slack_mod._exact_walk(0.0, 1.0, 5.0, (), (), (), (), (), (),
                                 (), ()) == 5.0


# ----------------------------------------------------------------------
# ... and the compiled kernels, argument for argument
# ----------------------------------------------------------------------

@needs_compiled
@WALK_SETTINGS
@given(data=st.data(), state=states() | tied_states(), cap=window_caps)
def test_exact_walk_equals_compiled_kernel(data, state, cap):
    args = exact_walk_args(state, cap, data.draw(earliest_candidates(state)))
    assert slack_mod._exact_walk(*args) == _fastcore.exact_slack_walk(*args)


@needs_compiled
@WALK_SETTINGS
@given(state=states())
def test_heuristic_walk_equals_compiled_kernel(state):
    args = heuristic_walk_args(state)
    assert slack_mod._heuristic_walk(*args) == \
        _fastcore.heuristic_slack_walk(*args)


@st.composite
def intensity_inputs(draw) -> tuple:
    """Flat ``intensity_sweep`` arguments: deadlines tied within (and
    just outside) 1e-12 across actives and streams, empty and
    exhausted future streams, windows that cap some of them, and now
    and then a stream out of deadline order (the compiled kernel
    merges sorted streams and must fall back to a stable sort)."""
    t = draw(st.sampled_from((0.0, 3.0)) | st.floats(0.0, 100.0))
    pool: list[float] = []

    def deadline() -> float:
        if pool and draw(st.booleans()):
            base = draw(st.sampled_from(pool))
        else:
            base = t + draw(st.sampled_from((0.0, 1e-12, 1.0, 4.0))
                            | st.floats(0.0, 50.0))
        pool.append(base + draw(st.sampled_from(NEAR)))
        return pool[-1]

    works = st.sampled_from((0.0, 0.5)) | st.floats(0.0, 5.0)
    active_d = [deadline() for _ in range(draw(st.integers(0, 6)))]
    active_w = [draw(works) for _ in active_d]
    streams, k0s = [], []
    for _ in range(draw(st.integers(0, 5))):
        deadlines = sorted(deadline() for _ in range(draw(st.integers(0, 8))))
        if draw(st.integers(0, 9)) == 0:
            deadlines = draw(st.permutations(deadlines))
        streams.append((deadlines, [draw(works) for _ in deadlines]))
        k0s.append(draw(st.integers(0, len(deadlines) + 1)))
    window_end = t + draw(st.sampled_from((0.0, 1.0, 4.0))
                          | st.floats(0.0, 60.0))
    return t, window_end, active_d, active_w, streams, k0s


@needs_compiled
@WALK_SETTINGS
@given(args=intensity_inputs())
def test_intensity_sweep_equals_compiled_kernel(args):
    assert intensity_sweep(*args) == _fastcore.intensity_sweep(*args)


@needs_compiled
def test_intensity_sweep_edge_cases():
    """No events at all, only empty streams, a window that ends before
    every future deadline, and one deadline shared by an active job
    and two streams, whose works sum to different floats in different
    orders: 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1."""
    cases = [
        (0.0, 4.0, [], [], [], []),
        (1.0, 4.0, [3.0], [1.0], [([], []), ([], [])], [0, 0]),
        (0.0, 2.0, [2.0, 2.0 + 1e-13], [1.0, 0.5],
         [([5.0, 9.0], [1.0, 1.0])], [0]),
        (0.0, 8.0, [5.0], [0.1], [([5.0], [0.2]), ([5.0], [0.3])], [0, 0]),
    ]
    for args in cases:
        assert intensity_sweep(*args) == _fastcore.intensity_sweep(*args)
    assert intensity_sweep(*cases[2]) == 0.75
    assert intensity_sweep(*cases[3]) == (0.1 + 0.2 + 0.3) / 5.0 \
        != (0.3 + 0.2 + 0.1) / 5.0


# ----------------------------------------------------------------------
# Properties of the analysis itself
# ----------------------------------------------------------------------

@st.composite
def engine_states(draw) -> SystemState:
    """A snapshot an EDF engine can reach on implicit deadlines:
    utilization at most 1, each task's next release within one period,
    at most one active job per task, carrying part of its budget."""
    n = draw(st.integers(min_value=1, max_value=5))
    budget = 1.0
    tasks = []
    for i in range(n):
        period = draw(st.sampled_from((2.0, 3.0, 4.0, 5.0, 10.0))
                      | st.floats(min_value=1.0, max_value=40.0))
        u = min(draw(st.floats(min_value=0.01, max_value=0.9)), budget)
        budget -= u
        if u < 1e-3:
            break
        tasks.append(PeriodicTask(f"T{i}", wcet=u * period, period=period))
    t = draw(st.sampled_from((0.0, 10.0))
             | st.floats(min_value=0.0, max_value=100.0))
    active = []
    next_release = {}
    for task in tasks:
        release = t + draw(st.sampled_from((0.0, 0.5))
                           | st.floats(0.0, 1.0, exclude_max=True)) \
            * task.period
        next_release[task.name] = release
        deadline = release - task.period + task.deadline
        if deadline > t and draw(st.booleans()):
            active.append(ActiveJob(deadline, draw(st.floats(0.0, 1.0))
                                    * task.wcet))
    if not active:
        task = tasks[0]
        next_release[task.name] = t + task.period
        active.append(ActiveJob(t + task.deadline, task.wcet))
    return SystemState.build(time=t, active=active, tasks=tasks,
                             next_release=next_release)


@WALK_SETTINGS
@given(state=engine_states())
def test_heuristic_never_exceeds_exact(state):
    # The two sums round differently, hence the few-ulp allowance.
    # Implicit deadlines only: on a constrained-deadline task the exact
    # walk's tail guard charges the correction term even when the next
    # release lies past the window, so it can undercut the heuristic
    # (C=1, D=1.5, T=2 at t=0, budget 1 due at 1.5, next release at 2:
    # heuristic 0.5, exact 0.25).
    with fastcore.forced(False):
        assert heuristic_slack(state) <= exact_slack(state) + 1e-9


# The known constrained-deadline defect (ROADMAP.md): the exact
# walk's tail guard charges a constrained task's correction term even
# when its next release lies past the window.  One task C=1, D=1.5, T=2
# at t=0, its job's full budget due at 1.5, the next release at 2: the
# true slack is 0.5 (demand 1 by 1.5, 2 by the next deadline 3.5), the
# heuristic says 0.5, both exact walks 0.25.  These pin the defect
# until a fix flips them.

def _tail_guard_state() -> SystemState:
    task = PeriodicTask("T0", wcet=1.0, period=2.0, deadline=1.5)
    return SystemState.build(time=0.0, active=[ActiveJob(1.5, 1.0)],
                             tasks=[task], next_release={"T0": 2.0})


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="exact walk's constrained-deadline tail guard")
@pytest.mark.parametrize("compiled", [
    False, pytest.param(True, marks=needs_compiled)])
def test_exact_slack_is_exact_on_constrained_deadlines(compiled):
    with fastcore.forced(compiled):
        assert exact_slack(_tail_guard_state()) == 0.5


@st.composite
def constrained_engine_states(draw) -> SystemState:
    """:func:`engine_states` with each deadline drawn in [C, T]."""
    state = draw(engine_states())
    tasks, active = [], []
    for task in state.tasks:
        deadline = task.wcet + draw(st.floats(0.0, 1.0)) \
            * (task.period - task.wcet)
        tasks.append(PeriodicTask(task.name, wcet=task.wcet,
                                  period=task.period, deadline=deadline))
        release = state.next_release[task.name]
        if release - task.period + deadline > state.time:
            active.append(ActiveJob(release - task.period + deadline,
                                    draw(st.floats(0.0, 1.0)) * task.wcet))
    if not active:
        return _tail_guard_state()
    return SystemState.build(time=state.time, active=active, tasks=tasks,
                             next_release=state.next_release)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="exact walk's constrained-deadline tail guard")
@WALK_SETTINGS
@given(state=constrained_engine_states())
@example(state=_tail_guard_state())
def test_heuristic_never_exceeds_exact_on_constrained_deadlines(state):
    with fastcore.forced(False):
        assert heuristic_slack(state) <= exact_slack(state) + 1e-9


def test_active_view_round_trips_through_build():
    task = PeriodicTask("T0", wcet=1.0, period=4.0)
    active = (ActiveJob(3.0, 0.5), ActiveJob(7.0, 1.0))
    state = SystemState.build(time=1.0, active=iter(active), tasks=[task],
                              next_release={"T0": 4.0})
    assert state.active == active
    assert state.active_deadlines == (3.0, 7.0)
    assert state.active_budgets == (0.5, 1.0)
    assert state.earliest_deadline == 3.0
    assert state.pending_work == 1.5


class _SnapshotProbe(DvsPolicy):
    """Checks every engine snapshot against ``Job.remaining_wcet``."""

    name = "probe"

    def __init__(self) -> None:
        super().__init__()
        self.checked = 0
        self.overdrawn = 0

    def select_speed(self, job, ctx):
        jobs = ctx.active_jobs
        for baseline in (1.0, 0.7):
            state = ctx.slack_state(baseline_speed=baseline)
            assert state.active_deadlines == tuple(j.deadline for j in jobs)
            assert state.active_budgets == tuple(
                j.remaining_wcet / baseline for j in jobs)
        self.checked += 1
        self.overdrawn += any(j.executed > j.task.wcet for j in jobs)
        return 0.8


def test_engine_snapshot_budgets_equal_job_budgets():
    """Overruns drive ``executed`` past the WCET, so the inlined clamp
    is exercised as well as the plain difference."""
    taskset = TaskSet([PeriodicTask("A", wcet=1.0, period=4.0),
                       PeriodicTask("B", wcet=2.0, period=6.0, deadline=5.0)])
    probe = _SnapshotProbe()
    simulate(taskset, ideal_processor(), probe, WorstCaseExecution(),
             horizon=60.0, allow_misses=True,
             faults=FaultPlan(seed=3, overrun=OverrunFault(
                 factor=1.4, probability=1.0)))
    assert probe.checked > 10 and probe.overdrawn > 0


class _ColumnsProbe(DvsPolicy):
    """Compares the compiled core's slack snapshot with the one the
    interpreted context builds from the same engine's ``Job`` objects."""

    name = "columns-probe"

    def __init__(self) -> None:
        super().__init__()
        self.checked = 0
        self.overdrawn = 0

    def select_speed(self, job, ctx):
        assert type(ctx) is CoreContext
        reference = SimContext(ctx._engine)
        assert ctx.active_jobs == reference.active_jobs
        for baseline in (1.0, 0.7, 1.0 / 3.0):
            got = ctx.slack_state(baseline_speed=baseline)
            want = reference.slack_state(baseline_speed=baseline)
            assert got == want
        self.checked += 1
        self.overdrawn += any(j.executed > j.task.wcet
                              for j in ctx.active_jobs)
        return 0.8


@needs_compiled
def test_slack_columns_equal_interpreted_snapshot():
    taskset = TaskSet([PeriodicTask("A", wcet=1.0, period=4.0),
                       PeriodicTask("B", wcet=2.0, period=6.0, deadline=5.0),
                       PeriodicTask("C", wcet=0.7, period=3.0)])
    probe = _ColumnsProbe()
    with fastcore.forced(True):
        simulate(taskset, ideal_processor(), probe, WorstCaseExecution(),
                 horizon=60.0, allow_misses=True,
                 faults=FaultPlan(seed=3, overrun=OverrunFault(
                     factor=1.4, probability=0.5)))
    assert probe.checked > 10 and probe.overdrawn > 0
