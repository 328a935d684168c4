"""Property-based tests (hypothesis) for end-to-end simulations.

The headline property: for any feasible random task set, any demand
ratio pattern and any policy, the simulator never misses a deadline and
energy accounting stays consistent.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import audit_trace, render_violations
from repro.cpu.profiles import generic4_processor, ideal_processor
from repro.policies.registry import ALL_POLICY_NAMES, make_policy
from repro.sim import fastcore
from repro.sim.engine import simulate
from repro.tasks.execution import UniformExecution
from repro.tasks.generators import generate_taskset

#: Policies sampled by the engine properties (the full list is covered
#: by the deterministic sweeps in test_integration_safety.py; here we
#: sample the interesting ones under random workloads).
PROPERTY_POLICIES = ("static", "ccEDF", "DRA", "laEDF", "lpSEH", "lpSTA")

workload = st.fixed_dictionaries({
    "n": st.integers(min_value=2, max_value=6),
    "u": st.floats(min_value=0.2, max_value=1.0),
    "seed": st.integers(min_value=0, max_value=2**31 - 1),
    "low": st.floats(min_value=0.05, max_value=1.0),
    "policy": st.sampled_from(PROPERTY_POLICIES),
})


def _run(params, processor, horizon_cap=1500.0, record_trace=False):
    ts = generate_taskset(params["n"], params["u"],
                          np.random.default_rng(params["seed"]))
    model = UniformExecution(low=params["low"], high=1.0,
                             seed=params["seed"])
    horizon = min(ts.default_horizon(min_jobs_per_task=5), horizon_cap)
    result = simulate(ts, processor, make_policy(params["policy"]),
                      model, horizon=horizon, record_trace=record_trace)
    return result, ts, model


@settings(max_examples=25, deadline=None)
@given(params=workload)
def test_no_deadline_misses_continuous(params):
    result, *_ = _run(params, ideal_processor())
    assert not result.missed


@settings(max_examples=15, deadline=None)
@given(params=workload)
def test_no_deadline_misses_discrete(params):
    result, *_ = _run(params, generic4_processor())
    assert not result.missed


@settings(max_examples=15, deadline=None)
@given(params=workload)
def test_energy_and_time_accounting(params):
    result, *_ = _run(params, ideal_processor())
    assert result.total_energy == pytest.approx(
        result.busy_energy + result.idle_energy + result.switch_energy)
    covered = result.busy_time + result.idle_time + result.switch_time
    assert covered == pytest.approx(result.horizon, rel=1e-6)
    assert result.jobs_completed <= result.jobs_released


PROCESSORS = {"ideal": ideal_processor, "generic4": generic4_processor}


@settings(max_examples=10, deadline=None)
@given(params=workload, processor=st.sampled_from(sorted(PROCESSORS)))
def test_traces_validate(params, processor):
    """Every drawn run audits clean with no misses on both engines, and
    the interpreted and compiled engines agree on result and trace."""
    proc = PROCESSORS[processor]()
    runs = []
    for compiled in (False, True):
        with fastcore.forced(compiled):
            result, ts, model = _run(params, proc, horizon_cap=800.0,
                                     record_trace=True)
        violations = audit_trace(result, ts, proc, model)
        assert violations == [], render_violations(violations)
        assert not result.deadline_misses
        runs.append(result)
    interpreted, compiled = runs
    assert interpreted.trace.segments == compiled.trace.segments
    assert (dataclasses.replace(interpreted, trace=None)
            == dataclasses.replace(compiled, trace=None))


@settings(max_examples=10, deadline=None)
@given(params=workload)
def test_dvs_never_worse_than_no_dvs(params):
    result, ts, model = _run(params, ideal_processor())
    baseline = simulate(ts, ideal_processor(), make_policy("none"),
                        model, horizon=result.horizon)
    assert result.total_energy <= baseline.total_energy * (1 + 1e-9)
