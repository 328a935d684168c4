"""Demand draws in C (DESIGN.md §13.4).

The compiled core draws the demands of uniform and constant execution
models itself, into per-task tables on the model, and those of overrun
faults over them into per-run tables over the model's.  Each step of the
draw is held to its Python reference float bit for bit: BLAKE2b-64 to
``hashlib``, the ``SeedSequence``/PCG64/``uniform`` steps to numpy over
chosen entropies (one- and two-word ``SeedSequence`` entropy, the
edges included), and the whole table to ``ExecutionModel.work``.  A
one-bit difference anywhere fails here before it reaches a pinned
digest.
"""

from __future__ import annotations

import copy
import hashlib
import pickle
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cpu.profiles import ideal_processor
from repro.faults import FaultPlan
from repro.faults.injectors import FaultyExecution
from repro.faults.plan import OverrunFault
from repro.policies import LpStaPolicy
from repro.sim import fastcore
from repro.sim.engine import simulate
from repro.tasks import execution
from repro.tasks.execution import (
    ConstantExecution,
    TruncatedNormalExecution,
    UniformExecution,
    WorstCaseExecution,
)
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet

pytestmark = [
    pytest.mark.compiled,
    pytest.mark.skipif(not fastcore.compiled_available(),
                       reason="compiled core unavailable "
                              "(see `repro doctor`)"),
]

TWIN = settings(max_examples=200, deadline=None, derandomize=True,
                database=None)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def numpy_uniform(entropy: int, low: float, high: float) -> float:
    return float(np.random.default_rng(entropy).uniform(low, high))


ENTROPY_EDGES = (0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1)
ratios = st.floats(min_value=1e-6, max_value=1.0)


@TWIN
@given(entropy=st.one_of(st.sampled_from(ENTROPY_EDGES),
                         st.integers(0, 2**32 - 1),
                         st.integers(2**32, 2**64 - 1)),
       low=ratios, high=ratios)
def test_entropy_uniform_matches_numpy(entropy, low, high):
    low, high = min(low, high), max(low, high)
    assert bits(fastcore._EXT.entropy_uniform(entropy, low, high)) \
        == bits(numpy_uniform(entropy, low, high))


def test_entropy_outside_64_bits_is_refused():
    for entropy in (-1, 2**64):
        with pytest.raises(OverflowError):
            fastcore._EXT.entropy_uniform(entropy, 0.5, 1.0)


@TWIN
@given(data=st.one_of(
    st.binary(max_size=300),
    st.sampled_from([b"", b"x" * 127, b"x" * 128, b"x" * 129,
                     b"y" * 256, b"z" * 257])))
def test_blake2b64_matches_hashlib(data):
    digest = hashlib.blake2b(data, digest_size=8).digest()
    assert fastcore._EXT.blake2b64(data) == int.from_bytes(digest, "little")


def task(name: str, wcet: float, bcet: float = 0.0) -> PeriodicTask:
    return PeriodicTask(name, wcet, 10.0, bcet=bcet)


def table_for(model, t: PeriodicTask):
    (table,) = fastcore._demand_tables(model, (t,))
    return table


@TWIN
@given(seed=st.one_of(st.integers(-2**70, 2**70),
                      st.sampled_from((0, -1, 2**64, -2**63))),
       name=st.text(st.characters(blacklist_categories=("Cs",)),
                    min_size=1, max_size=40),
       low=st.floats(min_value=1e-5, max_value=1.0),
       high=st.floats(min_value=1e-5, max_value=1.0),
       same=st.booleans(),
       wcet=st.floats(min_value=1e-3, max_value=9.0),
       bcet_share=st.sampled_from((0.0, 0.0, 0.3, 0.9, 1.0)),
       indices=st.lists(st.integers(0, 3000), min_size=1, max_size=8))
@example(seed=7, name="T0", low=1e-5, high=2e-3, same=False, wcet=2.0,
         bcet_share=0.0, indices=[0, 1, 2, 3])   # the MIN_RATIO clamp
@example(seed=7, name="T0", low=0.1, high=0.6, same=False, wcet=2.0,
         bcet_share=0.9, indices=[0, 5])          # the bcet floor
def test_table_matches_work(seed, name, low, high, same, wcet, bcet_share,
                            indices):
    low, high = min(low, high), max(low, high)
    if same:
        high = low
    t = task(name, wcet, bcet_share * wcet)
    model = UniformExecution(low=low, high=high, seed=seed)
    table = table_for(model, t)
    reference = UniformExecution(low=low, high=high, seed=seed)
    # Out of index order: a table fills forward, work() is memoized.
    for index in indices:
        assert bits(table.work(index)) == bits(reference.work(t, index))
        assert bits(model.work(t, index)) == bits(reference.work(t, index))
    assert not reference.demand_tables


@TWIN
@given(ratio=st.floats(min_value=1e-5, max_value=1.0),
       wcet=st.floats(min_value=1e-3, max_value=9.0),
       bcet_share=st.sampled_from((0.0, 0.5, 1.0)))
def test_constant_tables_match_work(ratio, wcet, bcet_share):
    t = task("T", wcet, bcet_share * wcet)
    # A fresh reference without tables: work() on the tabled model
    # would read the table back.
    for make in (lambda: ConstantExecution(ratio, seed=3),
                 WorstCaseExecution):
        table = table_for(make(), t)
        reference = make()
        for index in (0, 1, 17):
            assert bits(table.work(index)) == bits(reference.work(t, index))
        assert not reference.demand_tables


def test_patched_hook_ignores_the_table(monkeypatch):
    t = task("T", 2.0)
    model = UniformExecution(low=0.2, seed=6)
    table = table_for(model, t)
    assert model.work(t, 0) == table.work(0)
    monkeypatch.setattr(UniformExecution, "ratio",
                        lambda self, task, index: 0.5)
    assert model.work(t, 1) == 1.0 != table.work(1)
    monkeypatch.undo()
    shadowed = UniformExecution(low=0.2, seed=6)
    table_for(shadowed, t)
    shadowed.ratio = lambda task, index: 0.25
    assert shadowed.work(t, 2) == 0.5 != table.work(2)


def test_table_path_never_draws_with_numpy(monkeypatch):
    calls = []
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        calls.append(args)
        return default_rng(*args, **kwargs)

    # _job_rng seeds every numpy draw through np.random.default_rng;
    # replacing _job_rng itself would disqualify the table.
    monkeypatch.setattr(np.random, "default_rng", counted)
    t = task("T", 1.5, 0.1)
    model = UniformExecution(low=0.3, seed=8)
    table = table_for(model, t)
    drawn = [model.work(t, index) for index in range(50)]
    assert calls == [] and drawn == [table.work(k) for k in range(50)]
    plain = UniformExecution(low=0.3, seed=8)
    assert [plain.work(t, index) for index in range(50)] == drawn
    assert len(calls) == 50


def test_tables_are_shared_per_task_shape():
    model = UniformExecution(low=0.5, seed=4)
    a, b = task("A", 1.0), task("B", 1.0)
    first = fastcore._demand_tables(model, (a, b))
    assert fastcore._demand_tables(model, (b, a)) == first[::-1]
    # Another WCET is another table: the key carries it, as work()'s.
    (scaled,) = fastcore._demand_tables(model, (task("A", 2.0),))
    assert scaled is not first[0]


def test_which_models_draw_in_c(monkeypatch):
    t = task("T", 1.0)

    class Sub(UniformExecution):
        pass

    assert fastcore._demand_tables(UniformExecution(seed=1), (t,))
    for model in (Sub(seed=1), TruncatedNormalExecution(seed=1),
                  FaultyExecution(UniformExecution(seed=1),
                                  FaultPlan(seed=1))):
        assert fastcore._demand_tables(model, (t,)) is None
    shadowed = UniformExecution(seed=1)
    shadowed.ratio = lambda task, index: 0.5
    assert fastcore._demand_tables(shadowed, (t,)) is None
    # Int WCETs: work() could return an int.
    assert fastcore._demand_tables(
        UniformExecution(seed=1), (PeriodicTask("I", 1, 10),)) is None
    monkeypatch.setattr(execution, "_job_rng", execution._job_rng)
    assert fastcore._demand_tables(UniformExecution(seed=1), (t,))
    monkeypatch.setattr(execution, "_job_rng",
                        lambda *args: np.random.default_rng(0))
    assert fastcore._demand_tables(UniformExecution(seed=1), (t,)) is None
    monkeypatch.undo()
    monkeypatch.setattr(UniformExecution, "ratio",
                        lambda self, task, index: 0.5)
    assert fastcore._demand_tables(UniformExecution(seed=1), (t,)) is None


def _taskset() -> TaskSet:
    return TaskSet([PeriodicTask("A", 2.0, 10.0), PeriodicTask("B", 3.0, 15.0),
                    PeriodicTask("C", 1.0, 6.0)])


def test_runs_draw_once_and_match_the_interpreter():
    model = UniformExecution(low=0.2, seed=9)
    results = []
    before = fastcore.RUN_COUNTS["drawn"]
    with fastcore.forced(True):
        for _ in range(2):
            results.append(simulate(_taskset(), ideal_processor(),
                                    LpStaPolicy(), model, horizon=300.0))
    assert fastcore.RUN_COUNTS["drawn"] == before + 2
    # Both runs read one table per task; work() never drew.
    assert len(model.demand_tables) == 3 and not model._work_cache
    with fastcore.forced(False):
        interpreted = simulate(_taskset(), ideal_processor(), LpStaPolicy(),
                               UniformExecution(low=0.2, seed=9),
                               horizon=300.0)
    assert results == [interpreted, interpreted]


def test_faulted_runs_draw_in_c(monkeypatch):
    """Overrun faults over a drawn model draw in C, equal to the
    interpreted run; a patched overrun draw keeps ``work()``."""
    plan = FaultPlan(seed=2, overrun=OverrunFault(factor=1.2,
                                                  probability=0.3))
    results = []
    for compiled in (False, True):
        before = fastcore.RUN_COUNTS["drawn"]
        with fastcore.forced(compiled):
            results.append(simulate(
                _taskset(), ideal_processor(), LpStaPolicy(),
                UniformExecution(seed=2), horizon=200.0, faults=plan,
                allow_misses=True))
        assert fastcore.RUN_COUNTS["drawn"] == before + compiled
    assert results[0] == results[1] and results[1].overrun_jobs > 0
    t = task("T", 1.0)
    assert fastcore._demand_tables(
        FaultyExecution(UniformExecution(seed=1), plan), (t,))
    shadowed = FaultyExecution(UniformExecution(seed=1), plan)
    shadowed.work = lambda task, index: 0.5
    assert fastcore._demand_tables(shadowed, (t,)) is None
    monkeypatch.setattr(FaultPlan, "overrun_factor",
                        lambda self, name, index: 2.0)
    assert fastcore._demand_tables(
        FaultyExecution(UniformExecution(seed=1), plan), (t,)) is None


@settings(TWIN, max_examples=60)
@given(seed=st.integers(-2**40, 2**40),
       factor=st.floats(min_value=1.01, max_value=3.0),
       probability=st.one_of(st.just(1.0),
                             st.floats(min_value=0.01, max_value=1.0)),
       wcet=st.floats(min_value=1e-3, max_value=9.0),
       indices=st.lists(st.integers(0, 2000), min_size=1, max_size=8))
def test_fault_table_matches_work(seed, factor, probability, wcet, indices):
    t = task("T1", wcet, 0.1 * wcet)
    plan = FaultPlan(seed=seed, overrun=OverrunFault(
        factor=factor, probability=probability))
    (table,) = fastcore._demand_tables(
        FaultyExecution(UniformExecution(low=0.2, seed=seed), plan), (t,))
    reference = FaultyExecution(UniformExecution(low=0.2, seed=seed), plan)
    for index in indices:
        assert bits(table.work(index)) == bits(reference.work(t, index))


def test_models_copy_without_their_tables():
    model = UniformExecution(low=0.3, seed=5)
    with fastcore.forced(True):
        simulate(_taskset(), ideal_processor(), LpStaPolicy(), model,
                 horizon=100.0)
    assert model.demand_tables
    for clone in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
        assert clone.demand_tables == {}
        first = _taskset()[0]
        assert clone.work(first, 3) == model.work(first, 3)
