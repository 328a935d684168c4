"""Tests for the engine's EDF priority order (``repro.sim.engine``) and
for the DRA alpha queue's copy of it."""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.dra import _AlphaEntry
from repro.sim.engine import EDF_KEY, SimContext, edf_pick
from repro.tasks.job import Job
from repro.tasks.task import PeriodicTask


def job(name, period, index=0, wcet=1.0, phase=0.0):
    task = PeriodicTask(name, wcet=wcet, period=period, phase=phase)
    return Job.from_task(task, index, work=wcet)


class TestEDF:
    def test_earliest_deadline_wins(self):
        a = job("A", period=10.0)        # deadline 10
        b = job("B", period=4.0)         # deadline 4
        assert edf_pick([a, b]) is b

    def test_tie_broken_by_release(self):
        early = job("A", period=10.0, index=0)            # d=10, r=0
        late = job("B", period=5.0, index=1)              # d=10, r=5
        assert edf_pick([early, late]) is early

    def test_tie_broken_by_name_for_identical_jobs(self):
        a = job("A", period=10.0)
        b = job("B", period=10.0)
        assert edf_pick([b, a]) is a

    def test_empty_ready_returns_none(self):
        assert edf_pick([]) is None

    def test_sorted_ready_full_order(self):
        jobs = [job("A", 10.0), job("B", 4.0), job("C", 7.0)]
        ctx = SimContext(SimpleNamespace(_active=jobs))
        assert [j.task.name for j in ctx.ready_sorted()] == \
            ["B", "C", "A"]
        assert ctx.ready_sorted() == sorted(jobs, key=EDF_KEY)


#: Few names, periods and release points, so deadlines, releases and
#: task names tie often.
_jobs = st.lists(
    st.tuples(st.sampled_from("ABC"), st.sampled_from([2.0, 3.0, 4.0]),
              st.sampled_from([0.5, 1.0]), st.integers(0, 3),
              st.none() | st.sampled_from([0.0, 1.0, 2.0, 4.0])),
    min_size=1, max_size=12, unique_by=lambda t: (t[0], t[3]))


@settings(max_examples=200, deadline=None)
@given(_jobs)
def test_dra_alpha_queue_orders_like_the_engine(drawn):
    # DRA drains its canonical schedule in _AlphaEntry.sort_key order;
    # a tie resolved differently from the dispatcher's steals budget.
    jobs = []
    for name, period, d_frac, index, release in drawn:
        task = PeriodicTask(name, wcet=0.5, period=period,
                            deadline=period * d_frac)
        jobs.append(Job.from_task(task, index, work=0.5, release=release))
    entries = {
        j.name: _AlphaEntry(job_name=j.name, deadline=j.deadline,
                            release=j.release, task_name=j.task.name,
                            index=j.index, budget=1.0)
        for j in jobs}
    for j in jobs:
        assert entries[j.name].sort_key() == EDF_KEY(j)
    assert [j.name for j in sorted(jobs, key=EDF_KEY)] == \
        [e.job_name for e in sorted(entries.values(),
                                    key=_AlphaEntry.sort_key)]
