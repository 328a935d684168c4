"""Hot-path microbenchmarks — the perf-trajectory anchors.

These benchmarks pin the layers of the performance stack (DESIGN.md §8):

* ``engine_step`` — one full simulation under the cheap ``static``
  policy, so the measured cost is dominated by the engine's dispatch
  loop (release processing, scheduling, energy integration) rather
  than by any slack analysis.
* ``exact_slack`` / ``heuristic_slack`` — the two slack evaluators on
  a representative mid-hyperperiod system state.
* ``exp1_cell`` — one seeded (workload, all-policies) suite, i.e. one
  cell of EXP-F1 at reduced horizon: the unit the sweep executor
  parallelises, and the "single-cell engine throughput" number the
  acceptance criteria track.
* ``cache_roundtrip`` — one fingerprint + hit on the persistent suite
  cache: the fixed cost a cache hit pays instead of the ``exp1_cell``
  simulation, so the hit-vs-simulate margin is tracked explicitly
  (a hit must stay orders of magnitude cheaper than the cell).

``scripts/bench_record.py`` runs these under pytest-benchmark and
folds the means into a ``BENCH_<date>.json`` so speedups (and
regressions) are visible PR-over-PR; ``scripts/ci_fast.sh`` fails when
``engine_step`` degrades more than 25% against the checked-in record
and when the mini-sweep ``parallel_speedup`` drops below 1.0.
"""

from __future__ import annotations

import pytest

from repro.analysis.slack import ActiveJob, SystemState, exact_slack, \
    heuristic_slack, scale_tasks
from repro.cpu.profiles import ideal_processor
from repro.experiments.config import DEFAULT_POLICIES
from repro.experiments.runner import bcwc_model, run_suite, standard_taskset
from repro.policies.registry import make_policy
from repro.sim import fastcore
from repro.sim.engine import simulate

#: Reduced horizon: long enough that per-dispatch costs dominate
#: setup, short enough for tight benchmark rounds.
BENCH_HORIZON = 1200.0
BENCH_SEED = 20020311


@pytest.fixture(scope="module")
def workload():
    taskset = standard_taskset(8, 0.7, BENCH_SEED)
    model = bcwc_model(0.5, BENCH_SEED)
    return taskset, model


@pytest.fixture(scope="module")
def slack_fixture(workload):
    """A representative mid-run SystemState in the static time base."""
    taskset, _ = workload
    baseline = max(taskset.utilization, 1e-9)
    tasks = scale_tasks(taskset.tasks, baseline)
    # Phase-shifted releases and partially executed budgets: the shape
    # the analysis sees at a typical scheduling point.
    time = 37.0
    next_release = {
        task.name: time + (idx * 3.1) % task.period + 0.25
        for idx, task in enumerate(tasks)}
    active = tuple(
        ActiveJob(deadline=time + task.deadline - (idx * 2.3) % 7.0,
                  remaining_wcet=task.wcet * (0.2 + 0.15 * (idx % 4)))
        for idx, task in enumerate(tasks[:4]))
    return SystemState.build(time=time, active=active, tasks=tasks,
                             next_release=next_release)


def test_engine_step(benchmark, workload):
    """Interpreted engine anchor.

    Pinned to the interpreted loop regardless of whether the compiled
    core is built, so the recorded trajectory (and ci_fast's 25%
    regression guard) keeps measuring the same code path on every
    host; ``engine_step_compiled`` tracks the compiled core.
    """
    taskset, model = workload

    def run():
        with fastcore.forced(False):
            return simulate(taskset, ideal_processor(),
                            make_policy("static"), model,
                            horizon=BENCH_HORIZON)

    result = benchmark(run)
    assert result.jobs_completed > 0
    assert not result.deadline_misses


def test_engine_step_compiled(benchmark, workload):
    """Compiled engine anchor (DESIGN.md §13); skipped when not built.

    Same workload, policy and horizon as ``engine_step`` — the ratio
    of the two recorded means is the compiled-core speedup the
    acceptance criteria track (>= 2x).
    """
    if not fastcore.compiled_available():
        pytest.skip("compiled core unavailable (see `repro doctor`)")
    taskset, model = workload

    def run():
        with fastcore.forced(True):
            return simulate(taskset, ideal_processor(),
                            make_policy("static"), model,
                            horizon=BENCH_HORIZON)

    result = benchmark(run)
    assert result.jobs_completed > 0
    assert not result.deadline_misses


def test_faultmatrix_cell(benchmark, workload):
    """One governed fault-matrix run: the instrumented path (faults +
    governor), i.e. the path the compiled core exists to accelerate.
    Runs on whichever backend is active by default, like the sweeps
    themselves."""
    from repro.faults import FaultPlan
    from repro.faults.plan import OverrunFault, TransitionFault

    taskset_fm = standard_taskset(6, 0.65, BENCH_SEED)
    model_fm = bcwc_model(0.5, BENCH_SEED)

    def run():
        return simulate(
            taskset_fm, ideal_processor(),
            make_policy("lpSEH", governed=True, governor_margin=1.3),
            model_fm, horizon=BENCH_HORIZON, allow_misses=True,
            faults=FaultPlan(
                seed=BENCH_SEED,
                overrun=OverrunFault(factor=1.3, probability=0.3),
                transition=TransitionFault(stuck_probability=0.2)))

    result = benchmark(run)
    assert result.jobs_completed > 0


def test_exact_slack(benchmark, slack_fixture):
    value = benchmark(exact_slack, slack_fixture, window_cap_periods=2.0)
    assert value >= 0.0


def test_heuristic_slack(benchmark, slack_fixture):
    value = benchmark(heuristic_slack, slack_fixture)
    assert value >= 0.0
    # The heuristic never exceeds the exact analysis.
    assert value <= exact_slack(slack_fixture, window_cap_periods=2.0) + 1e-9


def test_exp1_cell(benchmark, workload):
    taskset, model = workload

    def run():
        return run_suite(taskset, DEFAULT_POLICIES, ideal_processor(),
                         model, horizon=BENCH_HORIZON,
                         workload_seed=BENCH_SEED)

    suite = benchmark(run)
    assert set(suite.results) >= set(DEFAULT_POLICIES)
    for name in DEFAULT_POLICIES:
        assert suite.miss_count(name) == 0


def test_cache_roundtrip(benchmark, tmp_path):
    from repro.experiments.cache import (PolicySummary, SuiteCache,
                                         suite_fingerprint)

    cache = SuiteCache(tmp_path)
    summaries = {
        name: PolicySummary(normalized=0.5 + 0.01 * i, misses=0,
                            switches=40 + i, overruns=0, released=120,
                            interventions=0, dispatches=0)
        for i, name in enumerate(("none",) + tuple(DEFAULT_POLICIES))}
    key = dict(workload_id="bench:cache-roundtrip", x=0.7,
               seed=BENCH_SEED, policies=DEFAULT_POLICIES,
               horizon=BENCH_HORIZON)
    digest, payload = suite_fingerprint(**key)
    cache.put(digest, summaries, key_payload=payload)

    def hit():
        digest, _ = suite_fingerprint(**key)
        return cache.get(digest)

    assert benchmark(hit) == summaries
