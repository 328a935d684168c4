"""Parallel sweep executor: byte-identical to serial, same failures.

The contract under test (DESIGN.md §8): ``sweep(..., workers=N)``
produces cells whose ``to_payload()`` JSON is **byte-identical** to the
serial run — for every chunk size, including under fault injection and
when resuming from a partially-filled checkpoint directory — the warm
pool is reused across sweeps of the same spec and invalidated on
change, and failures surface as the *lowest-ordered* failing unit even
under out-of-order chunk completion, exactly as the serial loop would.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.errors import SuiteExecutionError
from repro.experiments import parallel
from repro.experiments.parallel import (
    default_workers,
    fork_available,
    map_forked,
    plan_chunks,
)
from repro.experiments.runner import bcwc_model, standard_taskset, sweep
from repro.faults import FaultPlan, OverrunFault

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="parallel executor needs fork()")

HORIZON = 600.0
POLICIES = ("static", "ccEDF", "lpSTA")


def workload(u: float, seed: int):
    return standard_taskset(5, u, seed), bcwc_model(0.5, seed)


def payloads(cells) -> list[str]:
    return [json.dumps(cell.to_payload()) for cell in cells]


class TestByteIdentical:
    def test_matches_serial(self):
        xs = (0.4, 0.7, 0.9)
        serial = sweep(xs, workload, POLICIES, n_tasksets=2,
                       horizon=HORIZON)
        parallel = sweep(xs, workload, POLICIES, n_tasksets=2,
                         horizon=HORIZON, workers=4)
        assert payloads(parallel) == payloads(serial)

    @pytest.mark.parametrize("chunk_size", (1, 2, 5, 100))
    def test_matches_serial_for_every_chunk_size(self, chunk_size):
        xs = (0.4, 0.7, 0.9)
        serial = sweep(xs, workload, POLICIES, n_tasksets=2,
                       horizon=HORIZON)
        chunked = sweep(xs, workload, POLICIES, n_tasksets=2,
                        horizon=HORIZON, workers=3,
                        chunk_size=chunk_size)
        assert payloads(chunked) == payloads(serial)

    def test_matches_serial_under_faults(self):
        # x is the overrun factor here (as in EXP-FM1), not the
        # utilization: the workload stays fixed at U=0.6.
        xs = (1.1, 1.3)

        def fm_workload(x: float, seed: int):
            return workload(0.6, seed)

        def plan_for(x: float, seed: int) -> FaultPlan:
            return FaultPlan(seed=seed, overrun=OverrunFault(
                factor=x, probability=1.0))

        kwargs = dict(n_tasksets=2, horizon=HORIZON, allow_misses=True,
                      faults_factory=plan_for)
        serial = sweep(xs, fm_workload, POLICIES, **kwargs)
        parallel = sweep(xs, fm_workload, POLICIES, workers=4, **kwargs)
        assert payloads(parallel) == payloads(serial)
        # The injector bit (so the faulted path really ran in workers).
        assert any(sum(c.overruns.values()) > 0 for c in parallel)

    def test_resume_from_partial_checkpoints(self, tmp_path):
        xs = (0.4, 0.6, 0.8)
        kwargs = dict(n_tasksets=2, horizon=HORIZON)
        reference = sweep(xs, workload, POLICIES, **kwargs)

        first = sweep(xs, workload, POLICIES,
                      checkpoint_dir=tmp_path, **kwargs)
        assert payloads(first) == payloads(reference)
        # Simulate a sweep killed after two of three cells.
        (tmp_path / "cell_0001.json").unlink()
        resumed = sweep(xs, workload, POLICIES, workers=4,
                        checkpoint_dir=tmp_path, resume=True, **kwargs)
        assert payloads(resumed) == payloads(reference)
        # The recomputed checkpoint is byte-identical to the original.
        assert (tmp_path / "cell_0001.json").exists()
        second = sweep(xs, workload, POLICIES, workers=4,
                       checkpoint_dir=tmp_path, resume=True, **kwargs)
        assert payloads(second) == payloads(reference)

    def test_parallel_checkpoints_match_serial(self, tmp_path):
        xs = (0.4, 0.8)
        kwargs = dict(n_tasksets=2, horizon=HORIZON)
        sweep(xs, workload, POLICIES,
              checkpoint_dir=tmp_path / "serial", **kwargs)
        sweep(xs, workload, POLICIES, workers=4,
              checkpoint_dir=tmp_path / "parallel", **kwargs)
        for name in ("cell_0000.json", "cell_0001.json"):
            assert ((tmp_path / "serial" / name).read_bytes()
                    == (tmp_path / "parallel" / name).read_bytes())


class TestFailures:
    def test_suite_error_carries_cell_context(self):
        # An overrun beyond the schedulability limit misses deadlines
        # even at full speed; with misses disallowed the engine aborts
        # and run_suite must wrap it — in the worker as in the parent.
        def plan_for(x: float, seed: int) -> FaultPlan:
            return FaultPlan(seed=seed, overrun=OverrunFault(
                factor=2.0, probability=1.0))

        kwargs = dict(n_tasksets=2, horizon=HORIZON,
                      faults_factory=plan_for)
        with pytest.raises(SuiteExecutionError) as serial_exc:
            sweep((0.9,), workload, POLICIES, **kwargs)
        with pytest.raises(SuiteExecutionError) as parallel_exc:
            sweep((0.9,), workload, POLICIES, workers=4, **kwargs)
        for exc in (serial_exc.value, parallel_exc.value):
            assert exc.policy is not None
            assert exc.workload_seed is not None
            assert exc.horizon == HORIZON
        # In-order consumption surfaces the same first failure.
        assert str(parallel_exc.value) == str(serial_exc.value)

    def test_lowest_ordered_failure_wins_out_of_order(self):
        # Every unit fails: the first cell's units fail *slowly*, the
        # second cell's fail instantly.  With chunk_size=1 on 4 workers
        # the later-ordered failures land first — the executor must
        # still surface the failure of the lowest-ordered unit, i.e.
        # exactly the one the serial loop dies on.
        def doomed_workload(u: float, seed: int):
            if u < 0.5:
                time.sleep(0.2)
            raise ValueError(f"boom u={u:g} seed={seed}")

        xs = (0.4, 0.7)
        kwargs = dict(n_tasksets=2, horizon=HORIZON)
        with pytest.raises(ValueError) as serial_exc:
            sweep(xs, doomed_workload, POLICIES, **kwargs)
        with pytest.raises(ValueError) as parallel_exc:
            sweep(xs, doomed_workload, POLICIES, workers=4,
                  chunk_size=1, **kwargs)
        assert str(parallel_exc.value) == str(serial_exc.value)
        assert "u=0.4" in str(parallel_exc.value)

    def test_failure_shuts_down_the_warm_pool(self):
        def doomed_workload(u: float, seed: int):
            raise ValueError("dead on arrival")

        with pytest.raises(ValueError):
            sweep((0.5,), doomed_workload, POLICIES, n_tasksets=2,
                  horizon=HORIZON, workers=2)
        # No stale worker outlives a failed sweep.
        assert parallel.WorkerPool.current() is None

    def test_worker_retry_cures_transient_failure(self):
        xs = (0.5, 0.7)
        reference = sweep(xs, workload, POLICIES, n_tasksets=2,
                          horizon=HORIZON)
        failed_once: set[tuple[float, int]] = set()

        def flaky_workload(u: float, seed: int):
            if (u, seed) not in failed_once:
                failed_once.add((u, seed))
                raise OSError("transient hiccup")
            return workload(u, seed)

        cells = sweep(xs, flaky_workload, POLICIES, n_tasksets=2,
                      horizon=HORIZON, workers=4, max_retries=1,
                      retry_backoff=0.01)
        assert payloads(cells) == payloads(reference)


class TestWarmPool:
    def test_pool_reused_across_consecutive_sweeps(self):
        parallel.shutdown_pool()
        xs = (0.4, 0.7)
        kwargs = dict(n_tasksets=2, horizon=HORIZON, workers=2)
        first = sweep(xs, workload, POLICIES, **kwargs)
        pool = parallel.WorkerPool.current()
        assert pool is not None
        second = sweep(xs, workload, POLICIES, **kwargs)
        # Same spec → same pool instance (and the same executor).
        assert parallel.WorkerPool.current() is pool
        assert parallel.WorkerPool.current().executor is pool.executor
        assert payloads(second) == payloads(first)
        parallel.shutdown_pool()

    def test_pool_invalidated_when_spec_changes(self):
        parallel.shutdown_pool()
        kwargs = dict(n_tasksets=2, workers=2)
        sweep((0.5,), workload, POLICIES, horizon=HORIZON, **kwargs)
        pool = parallel.WorkerPool.current()
        assert pool is not None
        # A different horizon is a different published spec: the stale
        # pool (whose forked children inherited the old one) must go.
        sweep((0.5,), workload, POLICIES, horizon=HORIZON / 2, **kwargs)
        fresh = parallel.WorkerPool.current()
        assert fresh is not None and fresh is not pool
        parallel.shutdown_pool()

    def test_pool_invalidated_when_workers_change(self):
        parallel.shutdown_pool()
        kwargs = dict(n_tasksets=2, horizon=HORIZON)
        sweep((0.5,), workload, POLICIES, workers=2, **kwargs)
        pool = parallel.WorkerPool.current()
        sweep((0.5,), workload, POLICIES, workers=3, **kwargs)
        assert parallel.WorkerPool.current() is not pool
        parallel.shutdown_pool()


    def test_serial_sweep_leaves_the_warm_pool_alone(self):
        parallel.shutdown_pool()
        kwargs = dict(n_tasksets=2, horizon=HORIZON)
        sweep((0.5,), workload, POLICIES, workers=2, **kwargs)
        pool = parallel.WorkerPool.current()
        assert pool is not None
        sweep((0.4, 0.7), workload, POLICIES, **kwargs)
        assert parallel.WorkerPool.current() is pool

        def doomed_workload(u: float, seed: int):
            raise ValueError("dead on arrival")

        with pytest.raises(ValueError):
            sweep((0.5,), doomed_workload, POLICIES, **kwargs)
        assert parallel.WorkerPool.current() is pool
        parallel.shutdown_pool()


class TestChunkPlanning:
    def test_contiguous_cover(self):
        chunks = plan_chunks(10, workers=3)
        assert chunks[0][0] == 0 and chunks[-1][1] == 10
        for (_, stop), (start, _) in zip(chunks, chunks[1:]):
            assert stop == start

    def test_auto_size_targets_chunks_per_worker(self):
        # 24 units on 4 workers → ceil(24 / (4*2)) = 3 per chunk.
        chunks = plan_chunks(24, workers=4)
        assert all(stop - start <= 3 for start, stop in chunks)
        assert len(chunks) == 8

    def test_explicit_chunk_size(self):
        assert plan_chunks(5, workers=4, chunk_size=2) == [
            (0, 2), (2, 4), (4, 5)]
        assert plan_chunks(3, workers=4, chunk_size=100) == [(0, 3)]

    def test_chunk_size_validation(self):
        from repro.errors import ExperimentError
        with pytest.raises(ExperimentError):
            sweep((0.5,), workload, POLICIES, n_tasksets=1,
                  horizon=HORIZON, workers=2, chunk_size=0)


class TestDefaultWorkers:
    def test_respects_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        assert default_workers() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert default_workers() == 7


class TestMapForked:
    def test_preserves_order(self):
        results = map_forked(
            [lambda i=i: i * i for i in range(5)], workers=3)
        assert results == [0, 1, 4, 9, 16]

    def test_serial_fallback(self):
        assert map_forked([lambda: "x"], workers=1) == ["x"]

    def test_propagates_exception(self):
        def boom():
            raise ValueError("worker boom")

        with pytest.raises(ValueError, match="worker boom"):
            map_forked([lambda: 1, boom], workers=2)


def test_workers_validation():
    from repro.errors import ExperimentError
    with pytest.raises(ExperimentError):
        sweep((0.5,), workload, POLICIES, n_tasksets=1,
              horizon=HORIZON, workers=0)
