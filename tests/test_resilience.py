"""Resilience layer: classification, deadlines, quarantine, chaos.

The contract under test (DESIGN.md §11): the sweep stack survives its
own faults.  Deterministic failures skip the retry ladder; hung units
are interrupted by their wall-clock deadline; poison units quarantine
into structured records while the sweep completes partial; injected
worker crashes and hangs (the :mod:`repro.experiments.chaos` harness)
are supervised away with results **byte-identical** to a clean run;
and artifact-write failures degrade caching/checkpointing instead of
killing the sweep.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineMissError,
    ExperimentError,
    PolicyError,
    SuiteExecutionError,
    SweepInterrupted,
    UnitTimeoutError,
    WorkerCrashError,
)
from repro.experiments import chaos, parallel
from repro.experiments.cache import SuiteCache
from repro.experiments.chaos import (
    ChaosPlan,
    CrashChaos,
    HangChaos,
    WriteChaos,
)
from repro.experiments.resilience import (
    EXECUTION_DEFAULTS,
    GracefulShutdown,
    QuarantinedCell,
    QuarantineStore,
    classify,
    is_transient,
    quarantine_report,
    retry_budget,
    set_execution_defaults,
    unit_deadline,
)
from repro.experiments.runner import bcwc_model, standard_taskset, sweep
from repro.telemetry import TELEMETRY
from repro.telemetry.progress import read_progress

pytestmark = pytest.mark.chaos

HORIZON = 400.0
POLICIES = ("static", "lpSTA")

needs_fork = pytest.mark.skipif(
    not parallel.fork_available(),
    reason="parallel executor needs fork()")


def workload(u: float, seed: int):
    return standard_taskset(4, u, seed), bcwc_model(0.5, seed)


def payloads(cells) -> list[str]:
    return [json.dumps(cell.to_payload()) for cell in cells]


@pytest.fixture(autouse=True)
def _pristine_process_state():
    """No chaos plan, default execution knobs, cold pool around tests."""
    yield
    chaos.uninstall()
    EXECUTION_DEFAULTS.unit_timeout = None
    EXECUTION_DEFAULTS.on_failure = "raise"
    parallel.shutdown_pool()


class TestClassification:
    def test_transient_types(self):
        assert is_transient(OSError("disk hiccup"))
        assert is_transient(MemoryError())
        assert is_transient(UnitTimeoutError("slow", timeout=1.0))
        assert is_transient(WorkerCrashError("dead", crashes=2))

    def test_library_errors_are_deterministic(self):
        assert not is_transient(PolicyError("bad speed"))
        assert not is_transient(DeadlineMissError("missed"))
        assert classify(SuiteExecutionError("wrapped")) == "deterministic"

    def test_wrapped_transient_cause_stays_transient(self):
        try:
            try:
                raise OSError("underneath")
            except OSError as inner:
                raise SuiteExecutionError("on top") from inner
        except SuiteExecutionError as exc:
            assert is_transient(exc)
            assert classify(exc) == "transient"

    def test_unknown_types_default_to_transient(self):
        # Retrying an unknown failure is wasteful at worst; failing
        # fast on a curable one loses results.
        assert is_transient(ValueError("who knows"))

    def test_retry_budget(self):
        assert retry_budget(OSError(), 3) == 3
        assert retry_budget(PolicyError("x"), 3) == 0

    def test_deterministic_failure_skips_the_backoff_ladder(self):
        calls = []

        def doomed(u: float, seed: int):
            calls.append((u, seed))
            raise DeadlineMissError("deterministic boom")

        with pytest.raises(DeadlineMissError):
            sweep((0.5,), doomed, POLICIES, n_tasksets=1,
                  horizon=HORIZON, max_retries=5, retry_backoff=0.01)
        # One attempt, not six: the failure is a pure function of the
        # seed, so retries cannot cure it.
        assert len(calls) == 1

    def test_transient_failure_still_burns_retries(self):
        calls = []

        def flaky(u: float, seed: int):
            calls.append((u, seed))
            raise OSError("transient boom")

        with pytest.raises(OSError):
            sweep((0.5,), flaky, POLICIES, n_tasksets=1,
                  horizon=HORIZON, max_retries=2, retry_backoff=0.01)
        assert len(calls) == 3


class TestUnitDeadline:
    def test_interrupts_a_hung_unit(self):
        started = time.monotonic()
        with pytest.raises(UnitTimeoutError) as exc:
            with unit_deadline(0.2, x=0.7, seed=42):
                time.sleep(30.0)
        assert time.monotonic() - started < 5.0
        assert exc.value.x == 0.7
        assert exc.value.workload_seed == 42
        assert exc.value.timeout == 0.2

    def test_noop_without_timeout(self):
        with unit_deadline(None):
            pass
        with unit_deadline(0.0):
            pass

    def test_disarms_after_the_unit(self):
        with unit_deadline(0.1, x=0.5, seed=1):
            pass
        time.sleep(0.15)  # an un-disarmed alarm would fire here

    def test_sweep_validates_unit_timeout(self):
        with pytest.raises(ExperimentError):
            sweep((0.5,), workload, POLICIES, n_tasksets=1,
                  horizon=HORIZON, unit_timeout=-1.0)

    def test_sweep_times_out_hung_unit_serially(self):
        def hung(u: float, seed: int):
            time.sleep(30.0)
            return workload(u, seed)

        started = time.monotonic()
        with pytest.raises(UnitTimeoutError):
            sweep((0.5,), hung, POLICIES, n_tasksets=1,
                  horizon=HORIZON, unit_timeout=0.2)
        assert time.monotonic() - started < 5.0


class TestExecutionDefaults:
    def test_sweep_consults_process_defaults(self):
        def hung(u: float, seed: int):
            time.sleep(30.0)
            return workload(u, seed)

        set_execution_defaults(unit_timeout=0.2)
        with pytest.raises(UnitTimeoutError):
            sweep((0.5,), hung, POLICIES, n_tasksets=1, horizon=HORIZON)

    def test_rejects_unknown_failure_policy(self):
        with pytest.raises(ExperimentError):
            set_execution_defaults(on_failure="shrug")
        with pytest.raises(ExperimentError):
            sweep((0.5,), workload, POLICIES, n_tasksets=1,
                  horizon=HORIZON, on_failure="shrug")


class TestQuarantine:
    def test_sweep_completes_past_a_poison_unit(self, tmp_path):
        def poisoned(u: float, seed: int):
            if u > 0.6:
                raise DeadlineMissError(f"poison u={u:g}")
            return workload(u, seed)

        reference = sweep((0.4,), workload, POLICIES, n_tasksets=2,
                          horizon=HORIZON)
        cells = sweep((0.4, 0.8), poisoned, POLICIES, n_tasksets=2,
                      horizon=HORIZON, checkpoint_dir=tmp_path,
                      on_failure="quarantine")
        # The clean cell is untouched (and byte-identical to a sweep
        # that never saw the poison).
        assert json.dumps(cells[0].to_payload()) == payloads(reference)[0]
        assert not cells[0].is_partial
        # The poisoned cell completes partial and declares its losses.
        assert cells[1].is_partial
        assert len(cells[1].quarantined) == 2
        record = QuarantinedCell.from_payload(cells[1].quarantined[0])
        assert record.error_type == "DeadlineMissError"
        assert record.classification == "deterministic"
        assert record.attempts == 1
        # Records are persisted for post-mortem and re-arming.
        store = QuarantineStore(tmp_path)
        persisted = store.load_all()
        assert len(persisted) == 2
        assert persisted[0].artifact is not None
        assert "poison" in quarantine_report(tmp_path)
        # A partial cell is never checkpointed as complete; the clean
        # cell is.
        assert (tmp_path / "cell_0000.json").exists()
        assert not (tmp_path / "cell_0001.json").exists()

    @needs_fork
    def test_parallel_quarantine_matches_serial_shape(self, tmp_path):
        def poisoned(u: float, seed: int):
            if u > 0.6:
                raise DeadlineMissError(f"poison u={u:g}")
            return workload(u, seed)

        def make_flaky_then_poisoned():
            # A transient failure, then a deterministic one: two
            # attempts run, and both modes must record both.  The
            # per-process memory is enough, because a unit's retries
            # run where its first attempt ran.
            failed: set[tuple[float, int]] = set()

            def flaky_then_poisoned(u: float, seed: int):
                if u <= 0.6:
                    return workload(u, seed)
                if (u, seed) not in failed:
                    failed.add((u, seed))
                    raise OSError("transient hiccup")
                raise DeadlineMissError(f"poison u={u:g}")

            return flaky_then_poisoned

        def shape(cell):
            return [(r["index"], r["seed_pos"], r["error_type"],
                     r["classification"], r["attempts"])
                    for r in cell.quarantined]

        kwargs = dict(n_tasksets=2, horizon=HORIZON, max_retries=2,
                      retry_backoff=0.01, on_failure="quarantine")
        for make_workload, attempts in (
                (lambda: poisoned, 1), (make_flaky_then_poisoned, 2)):
            serial = sweep((0.4, 0.8), make_workload(), POLICIES,
                           **kwargs)
            para = sweep((0.4, 0.8), make_workload(), POLICIES,
                         workers=2, **kwargs)
            # Aggregates fold byte-identically; quarantine records
            # carry the same units (timestamps differ, so compare
            # structure).
            assert (json.dumps(serial[0].to_payload())
                    == json.dumps(para[0].to_payload()))
            assert para[1].is_partial and serial[1].is_partial
            assert shape(para[1]) == shape(serial[1])
            assert {r["attempts"] for r in serial[1].quarantined} \
                == {attempts}
            assert (serial[1].normalized == para[1].normalized)

    @needs_fork
    def test_worker_timeout_record_keeps_its_classification(self):
        # The deadline fires inside a policy run, so the worker sees a
        # SuiteExecutionError wrapping the UnitTimeoutError and retries
        # it as transient; the record must say so, with the real
        # attempt count, although the cause chain does not survive the
        # trip back to the parent.
        from repro.policies.registry import make_policy

        class Stalling(type(make_policy("static"))):
            def select_speed(self, job, ctx):
                time.sleep(30.0)
                return 1.0

        def policies(_x):
            return lambda name: (Stalling() if name == "static"
                                 else make_policy(name))

        cells = sweep((0.5,), workload, POLICIES, n_tasksets=1,
                      horizon=HORIZON, workers=2, unit_timeout=0.3,
                      max_retries=1, retry_backoff=0.01,
                      policy_factory=policies, on_failure="quarantine")
        [record] = cells[0].quarantined
        assert record["error_type"] == "SuiteExecutionError"
        assert record["classification"] == "transient"
        assert record["attempts"] == 2

    def test_quarantined_cell_round_trip(self):
        record = QuarantinedCell(
            index=3, x=0.7, seed=123, seed_pos=1, attempts=2,
            error_type="OSError", error_message="boom",
            classification="transient", fingerprint="abc")
        again = QuarantinedCell.from_payload(record.to_payload())
        assert again == record
        assert "cell 3" in record.describe()


class TestRetryNarration:
    @pytest.mark.parametrize(
        "workers", [1, pytest.param(2, marks=needs_fork)])
    def test_every_retry_reaches_both_event_streams(
            self, tmp_path, monkeypatch, workers):
        from repro.telemetry import TELEMETRY

        # Two CPUs as far as dispatch can tell, so the pool really
        # forks: a worker cannot write to the parent's event sinks.
        monkeypatch.setattr(parallel, "default_workers", lambda: 2)
        failed_once: set[tuple[float, int]] = set()

        def flaky(u: float, seed: int):
            if (u, seed) not in failed_once:
                failed_once.add((u, seed))
                raise OSError("transient hiccup")
            return workload(u, seed)

        events = tmp_path / "events.jsonl"
        TELEMETRY.reset()
        TELEMETRY.configure(enabled=True, events_path=events,
                            manifest_dir=tmp_path)
        try:
            sweep((0.5, 0.7), flaky, POLICIES, n_tasksets=2,
                  horizon=HORIZON, workers=workers, max_retries=1,
                  retry_backoff=0.01)
            counted = TELEMETRY.counter("sweep.retries")
        finally:
            TELEMETRY.configure(enabled=False)
            TELEMETRY.reset()
        retries = [event for event in map(
            json.loads, events.read_text().splitlines())
            if event["kind"] == "unit.retry"]
        assert counted == 4
        assert len(retries) == 4
        assert read_progress(tmp_path).retries == 4
        assert sorted((e["index"], e["seed_pos"]) for e in retries) \
            == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for event in retries:
            assert event["attempt"] == 0
            assert event["error_type"] == "OSError"
            assert {"x", "seed"} <= set(event)


class TestChaosPlans:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CrashChaos(probability=0.0)
        with pytest.raises(ConfigurationError):
            HangChaos(duration=-1.0)
        with pytest.raises(ConfigurationError):
            WriteChaos(probability=2.0)

    def test_describe_and_scoped_install(self):
        plan = ChaosPlan(seed=7, crash=CrashChaos(),
                         hang=HangChaos(duration=5.0, block_alarm=True),
                         write_error=WriteChaos(), marker_dir="/tmp/m")
        assert chaos.current() is None
        with chaos.active(plan) as installed:
            assert chaos.current() is installed
            text = plan.describe()
            assert "crash" in text and "blocking" in text
            assert "once" in text
        assert chaos.current() is None

    def test_at_most_once_markers(self, tmp_path):
        plan = ChaosPlan(seed=1, write_error=WriteChaos(),
                         marker_dir=str(tmp_path))
        with chaos.active(plan):
            with pytest.raises(OSError):
                chaos.on_artifact_write("cache", "entry.json")
            # The marker is spent: the same write now succeeds.
            chaos.on_artifact_write("cache", "entry.json")

    def test_no_plan_is_a_noop(self):
        chaos.on_unit_start(0.5, 1)
        chaos.on_artifact_write("cache", "whatever.json")


@needs_fork
class TestChaosCrashRecovery:
    def test_byte_identical_despite_worker_crashes(self, tmp_path):
        xs = (0.4, 0.7)
        reference = sweep(xs, workload, POLICIES, n_tasksets=2,
                          horizon=HORIZON)
        # Every unit's first run kills its worker (exit 137, an OOM
        # kill's signature); the at-most-once markers make every
        # re-dispatch run clean, so supervision must recover all of
        # them with byte-identical results.
        plan = ChaosPlan(seed=11, crash=CrashChaos(probability=1.0),
                         marker_dir=str(tmp_path))
        with chaos.active(plan):
            # max_retries=1: a unit whose first-ever dispatch lands in
            # solo mode spends one crash there before running clean.
            cells = sweep(xs, workload, POLICIES, n_tasksets=2,
                          horizon=HORIZON, workers=2, max_retries=1,
                          retry_backoff=0.01)
        assert payloads(cells) == payloads(reference)
        # The markers prove the crashes actually fired.
        assert list(tmp_path.glob("fired_crash_*"))

    def test_unrecoverable_crasher_is_quarantined(self):
        # No marker dir: the crash re-fires on every dispatch, so the
        # escalation ladder must converge on solo dispatch, attribute
        # the crash, and quarantine the unit as a WorkerCrashError —
        # completing the sweep with everything else intact.
        xs = (0.4, 0.7)
        plan_seed, doomed = _chaos_seed_firing_on_some_units(
            xs, probability=0.3)
        plan = ChaosPlan(seed=plan_seed,
                         crash=CrashChaos(probability=0.3))
        with chaos.active(plan):
            cells = sweep(xs, workload, POLICIES, n_tasksets=2,
                          horizon=HORIZON, workers=2, max_retries=0,
                          on_failure="quarantine")
        quarantined = [r for cell in cells for r in cell.quarantined]
        assert quarantined
        assert all(r["error_type"] == "WorkerCrashError"
                   for r in quarantined)
        assert {(r["x"], r["seed"]) for r in quarantined} == doomed
        # Every non-poisoned unit still folded.
        total = sum(len(c.normalized.get("static", [])) for c in cells)
        assert total == 4 - len(quarantined)

    def test_supervision_facts_are_narrated_once(
            self, tmp_path, monkeypatch):
        # The crash-and-quarantine sweep above, narrated to the event
        # log: every supervision fact is emitted once, and the watcher
        # counts exactly what the registry counted.
        monkeypatch.setattr(parallel, "default_workers", lambda: 2)
        xs = (0.4, 0.7)
        plan_seed, _ = _chaos_seed_firing_on_some_units(
            xs, probability=0.3)
        plan = ChaosPlan(seed=plan_seed,
                         crash=CrashChaos(probability=0.3))
        events_path = tmp_path / "events.jsonl"
        TELEMETRY.reset()
        TELEMETRY.configure(enabled=True, events_path=events_path,
                            manifest_dir=tmp_path)
        try:
            with chaos.active(plan):
                sweep(xs, workload, POLICIES, n_tasksets=2,
                      horizon=HORIZON, workers=2, max_retries=0,
                      on_failure="quarantine",
                      checkpoint_dir=tmp_path / "ckpt")
            rebuilds = TELEMETRY.counter("resilience.pool_rebuilds")
            quarantined = TELEMETRY.counter("resilience.quarantined")
        finally:
            TELEMETRY.configure(enabled=False)
            TELEMETRY.reset()

        kinds = [json.loads(line)["kind"]
                 for line in events_path.read_text().splitlines()]
        assert rebuilds > 0 and quarantined > 0
        assert kinds.count("resilience.pool_rebuild") == rebuilds
        assert kinds.count("resilience.quarantine") == quarantined
        snap = read_progress(tmp_path)
        assert snap.resilience["pool_rebuild"] == rebuilds
        assert snap.resilience["quarantine"] == quarantined
        assert snap.quarantined == quarantined

    def test_broken_pool_leaves_no_worker_behind(self):
        """A worker still busy when its pool breaks is killed with it,
        even if it ignores SIGTERM (as a forked worker running the
        sweep's drain handler does) and its result outgrows a pipe
        buffer: otherwise it blocks forever sending a result nobody
        reads, and the interpreter waits on it at exit."""
        from concurrent.futures.process import BrokenProcessPool
        from multiprocessing.connection import wait
        from types import SimpleNamespace

        executor = parallel._fork_executor(2)
        busy = executor.submit(_big_result_ignoring_sigterm, 0.5)
        crash = executor.submit(_crash_after, 0.1)
        with pytest.raises(BrokenProcessPool):
            crash.result(timeout=30)
        workers = list(executor._processes.values())
        pool = SimpleNamespace(
            executor=executor,
            shutdown=lambda cancel_futures: executor.shutdown(
                wait=False, cancel_futures=cancel_futures))
        try:
            parallel._drop_broken_pool(pool)
            # A sentinel reads ready once its worker has exited; unlike
            # is_alive() it does not race the executor's own thread
            # reaping the worker.
            exited: set = set()
            deadline = time.monotonic() + 10
            while len(exited) < len(workers) and time.monotonic() < deadline:
                exited.update(wait([w.sentinel for w in workers],
                                   timeout=deadline - time.monotonic()))
            assert len(exited) == len(workers)
        finally:
            for worker in workers:
                if worker.is_alive():
                    worker.kill()
        with pytest.raises(BrokenProcessPool):
            busy.result(timeout=1)


def _big_result_ignoring_sigterm(delay: float) -> bytes:
    signal.signal(signal.SIGTERM, lambda signum, frame: None)
    time.sleep(delay)
    return b"x" * (1 << 20)


def _crash_after(delay: float) -> None:
    time.sleep(delay)
    os._exit(137)


def _chaos_seed_firing_on_some_units(
        xs, *, probability: float) -> tuple[int, set]:
    """A chaos plan seed whose crash fires on 1..len-1 of the units.

    The draw is a pure hash, so the doomed set is computable up front;
    scanning seeds keeps the test independent of hash details.
    """
    from repro.experiments.chaos import _CRASH_SALT, _draw
    from repro.experiments.runner import taskset_seeds
    units = [(float(x), seed)
             for x in xs for seed in taskset_seeds(2002, 2)]
    for plan_seed in range(1000):
        doomed = {(x, seed) for x, seed in units
                  if _draw(plan_seed, _CRASH_SALT,
                           f"{x!r}:{seed}") < probability}
        if 0 < len(doomed) < len(units):
            return plan_seed, doomed
    raise AssertionError("no suitable chaos seed in 0..999")


@needs_fork
class TestChaosHangRecovery:
    def test_alarm_interruptible_hang_recovers(self, tmp_path):
        xs = (0.4, 0.7)
        reference = sweep(xs, workload, POLICIES, n_tasksets=2,
                          horizon=HORIZON)
        # Every unit hangs once; the in-worker SIGALRM deadline
        # interrupts it, the (transient) retry re-runs it clean.
        plan = ChaosPlan(seed=3,
                         hang=HangChaos(probability=1.0, duration=30.0),
                         marker_dir=str(tmp_path))
        started = time.monotonic()
        with chaos.active(plan):
            cells = sweep(xs, workload, POLICIES, n_tasksets=2,
                          horizon=HORIZON, workers=2, max_retries=1,
                          retry_backoff=0.01, unit_timeout=0.5)
        assert payloads(cells) == payloads(reference)
        # Recovery came from the deadline, not from waiting out 30 s
        # hangs.
        assert time.monotonic() - started < 25.0

    @pytest.mark.slow
    def test_watchdog_recovers_alarm_immune_hang(self, tmp_path):
        xs = (0.5,)
        reference = sweep(xs, workload, POLICIES, n_tasksets=1,
                          horizon=HORIZON)
        # block_alarm masks SIGALRM during the injected sleep — the
        # shape of a hang in non-Python code — so only the parent-side
        # stall watchdog can recover, by killing the wedged worker.
        plan = ChaosPlan(
            seed=9,
            hang=HangChaos(probability=1.0, duration=120.0,
                           block_alarm=True),
            marker_dir=str(tmp_path))
        started = time.monotonic()
        with chaos.active(plan):
            cells = sweep(xs, workload, POLICIES, n_tasksets=1,
                          horizon=HORIZON, workers=2, max_retries=1,
                          retry_backoff=0.01, unit_timeout=0.5)
        assert payloads(cells) == payloads(reference)
        assert time.monotonic() - started < 60.0


class TestDegradedWrites:
    def test_cache_write_failure_degrades_not_dies(self, tmp_path, capsys):
        plan = ChaosPlan(seed=2, write_error=WriteChaos(probability=1.0))
        reference = sweep((0.5,), workload, POLICIES, n_tasksets=2,
                          horizon=HORIZON)
        with chaos.active(plan):
            cells = sweep((0.5,), workload, POLICIES, n_tasksets=2,
                          horizon=HORIZON,
                          cache_dir=tmp_path / "cache",
                          workload_id="chaos-test")
        assert payloads(cells) == payloads(reference)
        assert "degraded" in capsys.readouterr().err
        assert not list((tmp_path / "cache").glob("*/*.json"))

    def test_checkpoint_write_failure_degrades_not_dies(
            self, tmp_path, capsys):
        plan = ChaosPlan(seed=2, write_error=WriteChaos(probability=1.0))
        reference = sweep((0.5,), workload, POLICIES, n_tasksets=2,
                          horizon=HORIZON)
        with chaos.active(plan):
            cells = sweep((0.5,), workload, POLICIES, n_tasksets=2,
                          horizon=HORIZON, checkpoint_dir=tmp_path / "ck")
        assert payloads(cells) == payloads(reference)
        assert "degraded" in capsys.readouterr().err
        assert not list((tmp_path / "ck").glob("cell_*.json"))

    @pytest.mark.parametrize(
        "workers", [1, pytest.param(2, marks=needs_fork)])
    def test_unusable_manifest_dir_keeps_the_cells(
            self, tmp_path, capsys, monkeypatch, workers):
        """A telemetry manifest dir that is a regular file costs the
        sweep its manifest (one warning), never its cells."""
        monkeypatch.setattr(parallel, "default_workers", lambda: 2)
        reference = sweep((0.5,), workload, POLICIES, n_tasksets=2,
                          horizon=HORIZON)
        capsys.readouterr()
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        TELEMETRY.reset()
        TELEMETRY.configure(enabled=True, manifest_dir=blocker)
        try:
            cells = sweep((0.5,), workload, POLICIES, n_tasksets=2,
                          horizon=HORIZON, workers=workers)
        finally:
            TELEMETRY.configure(enabled=False)
            TELEMETRY.reset()
        assert payloads(cells) == payloads(reference)
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning: manifest dir")]
        assert len(warnings) == 1 and str(blocker) in warnings[0]
        assert blocker.read_text() == ""

    def test_unusable_manifest_dir_warns_once(self, tmp_path, capsys):
        """Every sweep of one process (``repro run all``) into the same
        unusable manifest dir keeps its cells; only the first warns."""
        reference = sweep((0.5,), workload, POLICIES, n_tasksets=2,
                          horizon=HORIZON)
        capsys.readouterr()
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        TELEMETRY.reset()
        TELEMETRY.configure(enabled=True, manifest_dir=blocker)
        try:
            runs = [sweep((0.5,), workload, POLICIES, n_tasksets=2,
                          horizon=HORIZON) for _ in range(2)]
        finally:
            TELEMETRY.configure(enabled=False)
            TELEMETRY.reset()
        assert [payloads(cells) for cells in runs] == [
            payloads(reference)] * 2
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning: manifest dir")]
        assert len(warnings) == 1 and str(blocker) in warnings[0]

    @pytest.mark.parametrize(
        "workers", [1, pytest.param(2, marks=needs_fork)])
    def test_manifest_counts_a_degraded_cache(
            self, tmp_path, capsys, monkeypatch, workers):
        """An unusable cache dir degrades when the sweep opens it, and
        the sweep's manifest counts that write among its degraded
        ones."""
        monkeypatch.setattr(parallel, "default_workers", lambda: 2)
        reference = sweep((0.5,), workload, POLICIES, n_tasksets=2,
                          horizon=HORIZON)
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        manifests = tmp_path / "manifests"
        TELEMETRY.reset()
        TELEMETRY.configure(enabled=True, manifest_dir=manifests)
        try:
            cells = sweep((0.5,), workload, POLICIES, n_tasksets=2,
                          horizon=HORIZON, workers=workers,
                          cache_dir=blocker, workload_id="w")
        finally:
            TELEMETRY.configure(enabled=False)
            TELEMETRY.reset()
        assert payloads(cells) == payloads(reference)
        assert "cache dir" in capsys.readouterr().err
        (path,) = manifests.glob("manifest_*.json")
        manifest = json.loads(path.read_text())
        assert manifest["resilience"]["degraded_writes"] == 1
        assert manifest["counters"]["resilience.cache_degraded"] == 1

    @pytest.mark.parametrize(
        "workers", [1, pytest.param(2, marks=needs_fork)])
    def test_unusable_checkpoint_dir_keeps_the_cells(
            self, tmp_path, capsys, monkeypatch, workers):
        """A checkpoint dir that is a regular file costs the sweep its
        checkpoints (one warning, one degraded write), never its
        cells."""
        monkeypatch.setattr(parallel, "default_workers", lambda: 2)
        reference = sweep((0.5,), workload, POLICIES, n_tasksets=2,
                          horizon=HORIZON)
        capsys.readouterr()
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        manifests = tmp_path / "manifests"
        TELEMETRY.reset()
        TELEMETRY.configure(enabled=True, manifest_dir=manifests)
        try:
            cells = sweep((0.5,), workload, POLICIES, n_tasksets=2,
                          horizon=HORIZON, workers=workers,
                          checkpoint_dir=blocker)
        finally:
            TELEMETRY.configure(enabled=False)
            TELEMETRY.reset()
        assert payloads(cells) == payloads(reference)
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1
        assert warnings[0].startswith(f"warning: checkpoint dir {blocker}")
        assert blocker.read_text() == ""
        (path,) = manifests.glob("manifest_*.json")
        manifest = json.loads(path.read_text())
        assert manifest["resilience"]["degraded_writes"] == 1
        assert manifest["counters"]["resilience.checkpoint_degraded"] == 1

    @pytest.mark.parametrize(
        "workers", [1, pytest.param(2, marks=needs_fork)])
    def test_unusable_events_path_keeps_the_cells(
            self, tmp_path, capsys, monkeypatch, workers):
        """An events path under a regular file costs the run its event
        log (one warning, counted), never its cells or its manifest;
        the sweep does not open a log of its own instead."""
        monkeypatch.setattr(parallel, "default_workers", lambda: 2)
        reference = sweep((0.5,), workload, POLICIES, n_tasksets=2,
                          horizon=HORIZON)
        capsys.readouterr()
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        manifests = tmp_path / "manifests"
        TELEMETRY.reset()
        try:
            TELEMETRY.configure(enabled=True,
                                events_path=blocker / "events.jsonl",
                                manifest_dir=manifests)
            cells = sweep((0.5,), workload, POLICIES, n_tasksets=2,
                          horizon=HORIZON, workers=workers)
            degraded = TELEMETRY.counter("progress.degraded")
            sink = TELEMETRY.sink
        finally:
            TELEMETRY.configure(enabled=False)
            TELEMETRY.reset()
        assert payloads(cells) == payloads(reference)
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1
        assert warnings[0].startswith(f"warning: event log dir {blocker}")
        assert degraded == 1 and sink is None
        assert blocker.read_text() == ""
        (path,) = manifests.glob("manifest_*.json")
        manifest = json.loads(path.read_text())
        assert manifest["resilience"]["degraded_writes"] == 1
        assert not (manifests / "events.jsonl").exists()

    def test_corrupt_cache_shard_is_self_healed(self, tmp_path):
        from repro.experiments.cache import PolicySummary
        cache = SuiteCache(tmp_path)
        summary = PolicySummary(normalized=0.5, misses=0, switches=3,
                                overruns=0, released=7, interventions=0,
                                dispatches=7)
        digest = "ab" + "0" * 62
        cache.put(digest, {"static": summary})
        path = tmp_path / "ab" / f"{digest}.json"
        assert path.exists()
        path.write_text("{not json")
        assert cache.get(digest) is None
        # The torn shard is unlinked, not left to re-corrupt every run.
        assert not path.exists()
        assert cache.self_healed == 1
        assert cache.corrupt == 1


class TestGracefulShutdown:
    def test_signal_handler_only_sets_flags(self, tmp_path):
        # Writing from a signal handler into a locked sink can
        # deadlock: the handler sets flags and bumps a counter, and
        # writes no event.
        events_path = tmp_path / "events.jsonl"
        TELEMETRY.reset()
        TELEMETRY.configure(enabled=True, events_path=events_path)
        try:
            with pytest.raises(SweepInterrupted):
                with GracefulShutdown() as shutdown:
                    shutdown._handle(signal.SIGTERM, None)
                    written = events_path.read_text()
                    drains = TELEMETRY.counter(
                        "resilience.drain_requests")
                    shutdown.raise_if_requested(completed_cells=0,
                                                checkpoint_dir=None)
        finally:
            TELEMETRY.configure(enabled=False)
            TELEMETRY.reset()
        assert written == ""
        assert drains == 1
        assert shutdown.requested
        assert shutdown.signal_number == signal.SIGTERM

    def test_drain_is_narrated_once(self, tmp_path):
        def slow_workload(u: float, seed: int):
            time.sleep(0.15)
            return workload(u, seed)

        events_path = tmp_path / "events.jsonl"
        TELEMETRY.reset()
        TELEMETRY.configure(enabled=True, events_path=events_path,
                            manifest_dir=tmp_path)
        timer = threading.Timer(
            0.3, os.kill, (os.getpid(), signal.SIGINT))
        timer.start()
        try:
            with pytest.raises(SweepInterrupted):
                sweep((0.4, 0.5, 0.6, 0.7), slow_workload, POLICIES,
                      n_tasksets=2, horizon=HORIZON,
                      checkpoint_dir=tmp_path / "ckpt")
        finally:
            timer.cancel()
            TELEMETRY.configure(enabled=False)
            TELEMETRY.reset()
        kinds = [json.loads(line)["kind"]
                 for line in events_path.read_text().splitlines()]
        assert kinds.count("resilience.drain") == 1
        assert kinds.index("resilience.drain") < kinds.index("sweep.done")
        assert read_progress(tmp_path).status == "interrupted"

    def test_sigint_drains_and_resumes_byte_identically(self, tmp_path):
        xs = (0.4, 0.5, 0.6, 0.7)
        kwargs = dict(n_tasksets=2, horizon=HORIZON)
        reference = sweep(xs, workload, POLICIES, **kwargs)

        def slow_workload(u: float, seed: int):
            time.sleep(0.15)
            return workload(u, seed)

        before = signal.getsignal(signal.SIGINT)
        timer = threading.Timer(
            0.3, os.kill, (os.getpid(), signal.SIGINT))
        timer.start()
        try:
            with pytest.raises(SweepInterrupted) as exc:
                sweep(xs, slow_workload, POLICIES,
                      checkpoint_dir=tmp_path, **kwargs)
        finally:
            timer.cancel()
        assert exc.value.signal_number == signal.SIGINT
        assert exc.value.checkpoint_dir == str(tmp_path)
        done = sorted(tmp_path.glob("cell_*.json"))
        assert len(done) < len(xs)
        # The pre-sweep SIGINT disposition is restored on exit.
        assert signal.getsignal(signal.SIGINT) is before
        resumed = sweep(xs, workload, POLICIES, checkpoint_dir=tmp_path,
                        resume=True, **kwargs)
        assert payloads(resumed) == payloads(reference)
