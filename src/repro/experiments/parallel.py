"""Sweep execution: one unit runner, one cell fold, two drivers.

:func:`repro.experiments.runner.sweep` plans a sweep and hands its
pending cells to a driver here.  Both drivers run every **(cell,
seed) unit** through one unit runner, :func:`_run_unit` (deadline,
chaos hook, sampler, spot-audit pick, classified retry ladder), and
settle every outcome through one fold, :class:`_CellFold` (cache
lookup and put, quarantine record, progress narration, seed-order
aggregation, checkpoint store) — so serial and parallel cells,
checkpoints, quarantine records and events agree.

:func:`run_serial` (``workers=1``, or no ``fork``) goes cell by cell
in this process and never touches the worker pool.
:func:`run_cells` (``workers > 1``) dispatches units in **chunks**
(contiguous runs of units, auto-sized so each worker sees a few
chunks; ``chunk_size=`` overrides) so one pool submit amortises the
pickle/IPC and scheduling cost over many ~70 ms suites instead of
paying it per suite.  Workers return compact
:class:`~repro.experiments.cache.PolicySummary` maps rather than full
simulation results, keeping the return pickle small.  The parent
consumes chunks **out of order** (``as_completed`` semantics) and
folds each cell the moment its last seed lands — always in seed order
*within* the cell — so a slow unit no longer head-of-line-blocks
folding and checkpointing of everything behind it.

Why ``fork`` and a module global instead of pickling the workload:
experiment drivers pass *closures* (``make_workload``,
``processor_factory``, ``policy_factory``, ``faults_factory``) that
capture figure parameters and cannot be pickled.  Forked children
inherit the parent's address space, so the parent publishes the sweep
spec in :data:`_SPEC` before the pool forks and the workers read it
for free.  On platforms without ``fork`` (Windows, macOS spawn
default) :func:`fork_available` returns ``False`` and the sweep runs
serially — results are identical either way.

The pool itself is **warm**: a process-wide :class:`WorkerPool`
created on first use and reused across the multiple ``sweep()`` calls
a figure driver makes, instead of forking a fresh pool per sweep.
Reuse is only sound while the published spec is unchanged — forked
workers snapshot :data:`_SPEC` at fork time — so :meth:`WorkerPool.
acquire` compares a value token of the requested spec against the one
the pool was forked with and explicitly invalidates (shuts down and
re-forks) on any mismatch.

Failure semantics are the serial driver's even under out-of-order
consumption: the unit runner reports a failure as a value (a chunk
stops at its first one), the parent keeps draining chunks that could
still contain a **lower-ordered** failure, cancels the rest, and
finally shuts the pool down (``cancel_futures=True``) and re-raises
the failure of the lowest-ordered failing unit — the exact unit the
serial driver raises at once, wrapped by
:func:`~repro.experiments.runner.run_suite` in a
:class:`~repro.errors.SuiteExecutionError` that names the policy,
workload seed and horizon and survives the process boundary.  Cells
fully folded before the failure is surfaced are already checkpointed.
Retries run where the unit runs; the unit runner returns them with
the outcome and the parent narrates them as it settles the unit,
because a worker cannot write to the parent's pid-pinned sinks.
Every event goes through ``TELEMETRY.emit`` once, into the sweep's
one event log.

On top of that sits **supervision** (DESIGN.md §11): a worker *death*
(not a reported failure — an OOM kill, segfault or injected chaos
crash, which breaks the whole ``ProcessPoolExecutor``) triggers a
pool rebuild and re-dispatch of only the unresolved units, with the
dispatch shape escalating chunked → isolated → solo until the crash
is attributable to one unit; a ``unit_timeout`` in the spec arms both
an in-worker SIGALRM deadline and a parent-side stall watchdog that
kills wedged workers.  Under ``on_failure="quarantine"`` exhausted
units become structured quarantine records and the sweep completes
partial instead of dying.
"""

from __future__ import annotations

# multiprocessing and concurrent.futures (with logging, socket and
# about twenty more stdlib modules) are imported where a pool is built:
# a serial sweep never pays for them.
import atexit
import math
import os
import time as _time
from typing import TYPE_CHECKING, Any, Callable

from repro.cpu.profiles import ideal_processor
from repro.errors import UnitTimeoutError, WorkerCrashError
from repro.experiments import chaos as _chaos
from repro.experiments.resilience import (
    QuarantinedCell,
    classify,
    retry_budget,
    unit_deadline,
)
from repro.telemetry import TELEMETRY as _TELEMETRY

if TYPE_CHECKING:
    from collections import Counter

    from repro.experiments.cache import PolicySummary, SuiteCache
    from repro.experiments.resilience import (
        GracefulShutdown,
        QuarantineStore,
    )
    from repro.experiments.runner import SweepCell, SweepCheckpointer

#: Sweep spec published by the parent before the pool forks; inherited
#: read-only by the workers.  Holds the (unpicklable) workload closures
#: plus the scalar run parameters.  Stays published for the lifetime of
#: the warm pool: the executor forks workers lazily on submit, so a
#: late-forked worker must still see the spec its pool was built for.
_SPEC: dict[str, Any] | None = None

#: Auto-sizing target: chunks per worker.  2 balances amortisation (few
#: submits) against straggler rebalancing (a worker that finishes its
#: first chunk early picks up another instead of idling).
_CHUNKS_PER_WORKER = 2


def fork_available() -> bool:
    """Whether this platform can fork workers (required for closures)."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def default_workers() -> int:
    """Default worker count: one per CPU *this process may run on*.

    Containerised CI typically pins the process to a subset of the
    host's CPUs; ``os.cpu_count()`` reports the host and oversubscribes
    the cgroup, so the scheduling affinity mask is consulted first.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic kernels only
            pass
    return os.cpu_count() or 1


def plan_chunks(n_units: int, workers: int,
                chunk_size: int | None = None) -> list[tuple[int, int]]:
    """Split ``range(n_units)`` into contiguous ``(start, stop)`` chunks.

    Auto-sizing aims for :data:`_CHUNKS_PER_WORKER` chunks per worker;
    an explicit *chunk_size* overrides it.  Chunks are contiguous in
    unit order, which the failure path relies on: a chunk whose
    ``start`` lies beyond the lowest known failing unit cannot contain
    a lower-ordered failure and is safe to cancel.
    """
    if chunk_size is None:
        chunk_size = max(1, math.ceil(
            n_units / max(1, workers * _CHUNKS_PER_WORKER)))
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [(start, min(n_units, start + chunk_size))
            for start in range(0, n_units, chunk_size)]


def _spec_token(spec: dict[str, Any]) -> tuple:
    """A comparable value token of a sweep spec.

    Scalars compare by value; closures and other rich objects compare
    by identity — the pool keeps a strong reference to its spec, so a
    matching ``id`` genuinely means the same live object, never a
    recycled address.
    """
    def token(value: Any) -> tuple:
        if value is None or isinstance(value, (bool, int, float, str)):
            return ("value", value)
        if isinstance(value, (list, tuple)):
            return ("seq", tuple(token(item) for item in value))
        return ("object", id(value))

    return tuple(sorted((key, token(value)) for key, value in spec.items()))


class WorkerPool:
    """The process-wide warm pool of forked sweep workers.

    Created on first :meth:`acquire` and reused across ``sweep()``
    calls whose spec token and worker count match; any mismatch — a
    different workload closure, policy list, horizon, worker count —
    explicitly invalidates the pool (shutdown + fresh fork), because
    already-forked workers hold a stale snapshot of :data:`_SPEC`.
    """

    _instance: "WorkerPool | None" = None

    def __init__(self, workers: int, token: tuple,
                 spec: dict[str, Any]) -> None:
        global _SPEC
        # Publish before constructing the executor: workers fork lazily
        # on submit, but never before this point.
        _SPEC = spec
        self.workers = workers
        self.token = token
        self.spec = spec  # strong ref keeps the token's ids unambiguous
        #: True until the pool has completed its first dispatch: a
        #: fresh pool still has to fork and warm its workers, so the
        #: first generation runs its first chunk inline in the parent
        #: (see run_cells) instead of idling behind the fork latency.
        self.fresh = True
        self.executor = _fork_executor(workers)

    @classmethod
    def acquire(cls, workers: int, spec: dict[str, Any]) -> "WorkerPool":
        token = _spec_token(spec)
        pool = cls._instance
        if (pool is not None and pool.workers == workers
                and pool.token == token):
            _TELEMETRY.inc("parallel.pool_reuse")
            return pool
        if pool is not None:
            pool.shutdown()
        pool = cls(workers, token, spec)
        cls._instance = pool
        _TELEMETRY.inc("parallel.pool_forks")
        return pool

    @classmethod
    def current(cls) -> "WorkerPool | None":
        return cls._instance

    def shutdown(self, *, cancel_futures: bool = False) -> None:
        global _SPEC
        if WorkerPool._instance is self:
            WorkerPool._instance = None
            _SPEC = None
        self.executor.shutdown(wait=False, cancel_futures=cancel_futures)


def _fork_executor(workers: int):
    """A ``ProcessPoolExecutor`` of *workers* forked processes."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers,
                               mp_context=multiprocessing.get_context("fork"))


def shutdown_pool() -> None:
    """Explicitly invalidate the warm pool (tests, benchmarks, atexit)."""
    pool = WorkerPool._instance
    if pool is not None:
        pool.shutdown()


atexit.register(shutdown_pool)


def _run_unit(spec: dict[str, Any],
              unit: tuple[int, int, float, int, int]) -> tuple:
    """Run one ``(pos, index, x, seed_pos, seed)`` unit under *spec*.

    The one unit runner: :func:`run_serial` calls it directly and
    :func:`_run_chunk` calls it for every unit of a chunk.  It picks
    the spot-audited units (every ``audit_every``-th in index-major
    seed order, so both drivers audit the same units), narrates
    ``unit.start`` (a no-op in a forked worker: the sinks it inherited
    are pinned to the parent's pid), fires the chaos hook inside the
    per-unit SIGALRM deadline (when ``unit_timeout`` is set; pool
    workers run tasks on their main thread, so the alarm is armable)
    and retries *classified* failures: deterministic failures get a
    zero budget and fail fast.

    Returns the outcome ``(pos, summaries, error, failure, retries)``
    that :meth:`_CellFold.resolve` settles.  ``failure`` is a failed
    unit's ``(classification, attempts)``, classified here because the
    error's cause chain (a ``SuiteExecutionError`` wrapping a
    ``UnitTimeoutError``) does not survive pickling back to the
    parent; ``retries`` lists ``(attempt, error_type)`` per retried
    attempt, for the parent to narrate.
    """
    from repro.experiments.runner import run_suite

    pos, index, x, seed_pos, seed = unit
    audit_every = spec["audit_every"]
    audit = (audit_every is not None
             and (index * spec["n_seeds"] + seed_pos) % audit_every == 0)
    _TELEMETRY.emit("unit.start", index=index, x=float(x),
                    seed_pos=seed_pos, seed=seed)
    processor_factory = spec["processor_factory"]
    policy_factory = spec["policy_factory"]
    faults_factory = spec["faults_factory"]
    retries: list[tuple[int, str]] = []
    while True:
        try:
            with unit_deadline(spec["unit_timeout"], x=float(x), seed=seed):
                # Inside the deadline, so an injected hang is
                # interruptible exactly like a real one.
                _chaos.on_unit_start(float(x), seed)
                with _TELEMETRY.phase("unit.workload"):
                    taskset, model = spec["make_workload"](x, seed)
                processor = (processor_factory(x) if processor_factory
                             else ideal_processor())
                with _TELEMETRY.sample_unit():
                    suite = run_suite(
                        taskset, spec["policy_names"], processor, model,
                        horizon=spec["horizon"],
                        overhead_aware=spec["overhead_aware"],
                        allow_misses=spec["allow_misses"],
                        policy_factory=(policy_factory(x)
                                        if policy_factory else None),
                        faults=(faults_factory(x, seed)
                                if faults_factory else None),
                        workload_seed=seed,
                        audit=audit)
            return pos, suite.policy_summaries(), None, None, retries
        except Exception as exc:
            if isinstance(exc, UnitTimeoutError):
                _TELEMETRY.inc("resilience.unit_timeouts")
            attempt = len(retries)
            if attempt >= retry_budget(exc, spec["max_retries"]):
                return (pos, None, exc, (classify(exc), attempt + 1),
                        retries)
            retries.append((attempt, type(exc).__name__))
            _time.sleep(spec["retry_backoff"] * (2.0 ** attempt))


def _run_chunk(
    chunk: list[tuple[int, int, float, int, int]],
) -> tuple[list[tuple], dict | None]:
    """Run one chunk of ``(pos, index, x, seed_pos, seed)`` units.

    Executed inside a forked worker (or inline in the parent while a
    fresh pool warms).  Returns ``(outcomes, meta)``: the
    :func:`_run_unit` outcomes in unit order — a unit that still fails
    after its retries ends the chunk, as the serial driver would not
    have run anything after its first failure either (unless the sweep
    quarantines) — plus, when telemetry or the timers are on (workers
    inherit the parent's registry state at fork time), a meta dict
    carrying the worker pid, the chunk's wall time, and the worker's
    registry *delta* for this chunk, which the parent merges in its
    fold loop so parallel counts and phase attributions equal serial
    ones.
    """
    spec = _SPEC
    if spec is None:  # pragma: no cover - guards misuse, not a code path
        raise RuntimeError("worker forked before the sweep spec was set")
    tele = _TELEMETRY
    before = tele.snapshot() if tele.enabled or tele.timers else None
    if tele.timers:
        # The chunk envelope is this worker's root frame: everything
        # the worker does nests inside it, and its *self* time (spec
        # lookup, outcome packing) is the chunk's IPC overhead.  For
        # an inline chunk (run in the parent) the frame nests under
        # the parent's ``sweep.compute`` instead and the delta below
        # is skipped by ``merge_meta(inline=True)``.
        tele.push("worker.chunk")
    started = _time.perf_counter()
    t0 = _time.time()
    quarantining = spec["on_failure"] == "quarantine"
    outcomes: list[tuple] = []
    for unit in chunk:
        outcome = _run_unit(spec, unit)
        outcomes.append(outcome)
        if outcome[2] is not None and not quarantining:
            break
    if tele.timers:
        tele.pop()
    if before is None:
        return outcomes, None
    return outcomes, {
        "pid": os.getpid(),
        "units": len(outcomes),
        "wall_s": _time.perf_counter() - started,
        "t0": t0,
        "t1": _time.time(),
        "delta": tele.delta_since(before),
    }


#: Thunk table for :func:`map_forked`, inherited by forked workers.
_CALLS: list[Any] | None = None


def _call_indexed(index: int) -> Any:
    calls = _CALLS
    if calls is None:  # pragma: no cover - guards misuse, not a code path
        raise RuntimeError("worker forked before the call table was set")
    return calls[index]()


def map_forked(calls: "list[Any]", workers: int) -> list[Any]:
    """Evaluate zero-argument callables on forked workers, in order.

    The generic sibling of :func:`run_cells` for callers (e.g. the
    ``simulate`` CLI running several policies) that just want N
    independent computations fanned out.  Results come back in call
    order; the first failing call's exception propagates.  Falls back
    to a serial loop when forking is unavailable or ``workers <= 1``.
    The call table is published and cleared in a shape that cannot
    leak :data:`_CALLS` even when constructing the pool itself raises
    (e.g. fork failure under memory pressure).
    """
    if workers <= 1 or len(calls) <= 1 or not fork_available():
        return [call() for call in calls]
    global _CALLS
    _CALLS = calls
    try:
        pool = _fork_executor(workers)
    except BaseException:
        _CALLS = None
        raise
    try:
        with pool:
            futures = [pool.submit(_call_indexed, i)
                       for i in range(len(calls))]
            return [future.result() for future in futures]
    finally:
        _CALLS = None


def pool_pids() -> list[int]:
    """The parent pid plus every live pool worker pid — what a sweep's
    heartbeat liveness-probes while it dispatches."""
    pids = [os.getpid()]
    pool = WorkerPool.current()
    if pool is not None:
        processes = getattr(pool.executor, "_processes", None) or {}
        pids.extend(int(pid) for pid in processes.keys())
    return pids


def _drop_broken_pool(pool: "WorkerPool") -> None:
    """Shut a broken pool down and SIGKILL the workers it left.

    The executor has already failed their futures and stopped reading
    their results, so a survivor blocked sending one larger than a pipe
    buffer (a chunk delta full of stack samples) would never exit, and
    the interpreter would wait on it at exit.  Its ``terminate()`` does
    not stop them: a forked worker inherits the sweep's drain handler
    for SIGTERM.
    """
    _kill_pool_workers(pool)
    pool.shutdown(cancel_futures=True)


def _kill_pool_workers(pool: "WorkerPool") -> int:
    """SIGKILL every live worker of *pool* — the watchdog's hammer.

    Reaches into the executor's process table (there is no public kill
    API); the dead workers surface as ``BrokenProcessPool`` on every
    in-flight future, which routes recovery through the same
    supervision path as a genuine worker crash.
    """
    processes = getattr(pool.executor, "_processes", None)
    killed = 0
    for process in list((processes or {}).values()):
        try:
            process.kill()
            killed += 1
        except Exception:  # pragma: no cover - racing an exiting worker
            pass
    return killed


class _CellFold:
    """Settles unit outcomes into cells — the fold both drivers share.

    :meth:`lookup` replays one cell's cached seeds and numbers the
    units still to compute, in index-major seed order (the order the
    serial driver runs them); :meth:`resolve` settles one computed
    outcome; :meth:`fold` aggregates a complete cell in seed order,
    checkpoints it and narrates ``cell.done``.  Every per-unit event is
    emitted here in the parent, which is what keeps the serial and
    parallel event logs equivalent; *tally* counts what it narrates
    (``unit.done`` per status, ``cells_done``) for the sweep's
    terminal summary.
    """

    def __init__(self, seeds: list[int], *, spec: dict[str, Any],
                 checkpointer: "SweepCheckpointer | None",
                 cache: "SuiteCache | None",
                 unit_key: "Callable[[float, int], str] | None",
                 quarantine_store: "QuarantineStore | None",
                 tally: "Counter[str]") -> None:
        self.seeds = seeds
        self.tally = tally
        self.checkpointer = checkpointer
        self.cache = cache
        self.unit_key = unit_key
        self.quarantine_store = quarantine_store
        self.quarantining = spec["on_failure"] == "quarantine"
        self.xs: dict[int, float] = {}
        self.suites: dict[int, dict[int, Any]] = {}
        self.quarantined: dict[int, dict[int, dict]] = {}
        self.cells: dict[int, SweepCell] = {}
        self.units: list[tuple[int, int, float, int, int]] = []
        self.keys: list[str | None] = []
        self.remaining: set[int] = set()
        #: ``(pos, error)`` of the lowest-ordered failing unit, the one
        #: the sweep raises (never set while quarantining).
        self.best_err: tuple[int, BaseException] | None = None

    def lookup(self, index: int, x: float) -> list[int]:
        """Replay cell *index*'s cache hits; return the positions of
        its units still to compute (a fully cached cell folds here)."""
        self.xs[index] = x
        self.suites[index] = {}
        self.quarantined[index] = {}
        todo = []
        for seed_pos, seed in enumerate(self.seeds):
            key = summaries = None
            if self.cache is not None:
                key = self.unit_key(x, seed)
                summaries = self.cache.get(key)
            if summaries is not None:
                self.suites[index][seed_pos] = summaries
                self._unit_done(index, seed_pos, "cached")
                continue
            pos = len(self.units)
            self.units.append((pos, index, x, seed_pos, seed))
            self.keys.append(key)
            self.remaining.add(pos)
            todo.append(pos)
        if not todo:
            self.fold(index)
        return todo

    def _unit_done(self, index: int, seed_pos: int, status: str,
                   **fields: Any) -> None:
        self.tally[status] += 1
        _TELEMETRY.emit("unit.done", index=index, x=float(self.xs[index]),
                        seed_pos=seed_pos, seed=self.seeds[seed_pos],
                        status=status, **fields)

    def resolve(self, pos: int, summaries: Any, err: BaseException | None,
                failure: tuple[str | None, int] | None,
                retries: list[tuple[int, str]]) -> None:
        """Settle one :func:`_run_unit` outcome: narrate its retries,
        then fold it, quarantine it, or note the failure."""
        if pos not in self.remaining:
            return  # stale duplicate from a superseded generation
        _, index, x, seed_pos, seed = self.units[pos]
        for attempt, error_type in retries:
            _TELEMETRY.inc("sweep.retries")
            _TELEMETRY.emit("unit.retry", index=index, x=x,
                            seed_pos=seed_pos, seed=seed,
                            attempt=attempt, error_type=error_type)
        if err is not None:
            if not self.quarantining:
                # Stays unresolved: the sweep dies on the lowest-
                # ordered failure, exactly as the serial driver does.
                if self.best_err is None or pos < self.best_err[0]:
                    self.best_err = (pos, err)
                return
            self.remaining.discard(pos)
            classification, attempts = failure
            record = QuarantinedCell.from_failure(
                err, index=index, x=x, seed=seed, seed_pos=seed_pos,
                attempts=attempts, classification=classification,
                fingerprint=self.keys[pos])
            if self.quarantine_store is not None:
                self.quarantine_store.record(record)
            _TELEMETRY.inc("resilience.quarantined")
            _TELEMETRY.emit("resilience.quarantine", index=index, x=x,
                            seed=seed, error_type=record.error_type,
                            classification=record.classification,
                            path=record.artifact)
            self.quarantined[index][seed_pos] = record.to_payload()
            self._unit_done(index, seed_pos, "quarantined",
                            error_type=record.error_type,
                            classification=record.classification)
        else:
            if self.best_err is not None and pos > self.best_err[0]:
                # Beyond the failure point: the serial driver would
                # never have run this unit; drop the result.
                return
            self.remaining.discard(pos)
            if self.cache is not None:
                self.cache.put(self.keys[pos], summaries)
            self.suites[index][seed_pos] = summaries
            self._unit_done(index, seed_pos, "computed")
        if (len(self.suites[index]) + len(self.quarantined[index])
                == len(self.seeds)):
            self.fold(index)

    def fold(self, index: int) -> None:
        from repro.experiments.runner import SweepCell

        per_cell = self.suites.pop(index)
        quarantined = self.quarantined.pop(index)
        cell = SweepCell(x=self.xs[index])
        # Seed order interleaves successes and quarantine records the
        # same way whichever order the units settled in, so partial
        # cells fold byte-identically too.
        for seed_pos in range(len(self.seeds)):
            if seed_pos in per_cell:
                cell.record_summaries(per_cell[seed_pos])
            else:
                cell.quarantined.append(quarantined[seed_pos])
        if self.checkpointer is not None:
            self.checkpointer.store(index, cell)
        self.cells[index] = cell
        self.tally["cells_done"] += 1
        _TELEMETRY.emit("cell.done", index=index, x=float(cell.x),
                        seeds=len(self.seeds),
                        quarantined=len(cell.quarantined))

    def raise_if_draining(self,
                          shutdown: "GracefulShutdown | None") -> None:
        if shutdown is not None:
            shutdown.raise_if_requested(
                completed_cells=len(self.cells),
                checkpoint_dir=(self.checkpointer.directory
                                if self.checkpointer is not None
                                else None))


def run_serial(
    pending: list[tuple[int, float]],
    seeds: list[int],
    *,
    spec: dict[str, Any],
    checkpointer: "SweepCheckpointer | None" = None,
    cache: "SuiteCache | None" = None,
    unit_key: "Callable[[float, int], str] | None" = None,
    quarantine_store: "QuarantineStore | None" = None,
    shutdown: "GracefulShutdown | None" = None,
    tally: "Counter[str]",
) -> "dict[int, SweepCell]":
    """Compute the *pending* (index, x) cells in this process.

    Cell by cell: a drain request is honoured between cells, the cache
    is consulted for the cell's seeds, the rest run in seed order
    through :func:`_run_unit`, and the first failure (outside
    quarantine) raises at once.  Never touches the worker pool.
    """
    fold = _CellFold(seeds, spec=spec, checkpointer=checkpointer,
                     cache=cache, unit_key=unit_key,
                     quarantine_store=quarantine_store,
                     tally=tally)
    for index, x in pending:
        fold.raise_if_draining(shutdown)
        for pos in fold.lookup(index, x):
            fold.resolve(*_run_unit(spec, fold.units[pos]))
            if fold.best_err is not None:
                raise fold.best_err[1]
    return fold.cells


def run_cells(
    pending: list[tuple[int, float]],
    seeds: list[int],
    *,
    spec: dict[str, Any],
    workers: int,
    checkpointer: "SweepCheckpointer | None" = None,
    cache: "SuiteCache | None" = None,
    unit_key: "Callable[[float, int], str] | None" = None,
    chunk_size: int | None = None,
    quarantine_store: "QuarantineStore | None" = None,
    shutdown: "GracefulShutdown | None" = None,
    tally: "Counter[str]",
) -> "dict[int, SweepCell]":
    """Compute the *pending* (index, x) cells on the warm worker pool.

    Returns ``{index: SweepCell}`` folded by the same :class:`_CellFold`
    as :func:`run_serial`, so cells come out in seed order and each is
    checkpointed through *checkpointer* as soon as its last seed lands,
    regardless of what order chunks complete in.

    With *cache* (and its *unit_key* fingerprint function) set, every
    unit is looked up before dispatch — hits fold directly in the
    parent, only misses are chunked out to workers, and every computed
    summary is persisted the moment it lands.  A fully cached sweep
    never touches the pool at all.

    The dispatch loop is **supervised**.  A worker death (OOM kill,
    segfault, chaos crash) breaks the whole pool — every in-flight
    future raises ``BrokenProcessPool`` and completed results of the
    dying chunks are lost — so the parent rebuilds the pool and
    re-dispatches only the unresolved units, escalating the dispatch
    shape to attribute the crash:

    1. **chunked** (normal) — re-dispatch lost units in fresh chunks;
    2. **isolated** — one unit per chunk, still parallel: the next
       break narrows the suspects to single units;
    3. **solo** — one unit in flight at a time: a break now names the
       poison unit definitively, and after ``max_retries`` solo
       crashes it fails as :class:`~repro.errors.WorkerCrashError`
       (quarantined under ``on_failure="quarantine"``).

    When the spec carries a ``unit_timeout``, a parent-side watchdog
    backs up the in-worker SIGALRM deadline: if *nothing* completes
    within a stall budget sized to the largest in-flight chunk, the
    workers are presumed wedged beyond the alarm's reach (hung in
    non-Python code) and killed, which routes recovery through the
    same escalation.  Units are pure functions of their seeds, so
    re-dispatched work folds byte-identically.

    *shutdown* (when draining) cancels chunks that have not started,
    finishes the ones in flight, and leaves the rest for a resumed
    run; the caller raises :class:`~repro.errors.SweepInterrupted`.
    """
    from concurrent.futures import (
        FIRST_COMPLETED,
        TimeoutError as _FuturesTimeout,
        wait,
    )
    from concurrent.futures.process import BrokenProcessPool

    fold = _CellFold(seeds, spec=spec, checkpointer=checkpointer,
                     cache=cache, unit_key=unit_key,
                     quarantine_store=quarantine_store,
                     tally=tally)
    for index, x in pending:
        fold.lookup(index, x)
    if not fold.remaining:
        return fold.cells
    units, remaining = fold.units, fold.remaining
    max_retries = spec["max_retries"]
    retry_backoff = spec["retry_backoff"]
    unit_timeout = spec["unit_timeout"]
    # Effective parallelism.  On a one-CPU host (pinned CI containers)
    # forked workers only timeshare against the parent while still
    # paying fork, pickling and IPC — pure overhead — so dispatch
    # degrades to running every chunk inline in the parent.  A chaos
    # plan forces real dispatch regardless: injected crashes and hangs
    # must land in expendable workers, and the supervision path they
    # exercise is exactly what chaos runs exist to test.
    inline_only = default_workers() <= 1 and spec.get("chaos") is None
    crash_counts: dict[int, int] = {}

    def stall_budget(max_units: int) -> float | None:
        """How long zero completions can mean 'working' not 'wedged'.

        Worst case for one honest in-flight chunk: every unit burns
        its full deadline on every attempt plus the full backoff
        ladder — beyond that, nothing finishing means no alarm is
        firing, i.e. a worker is hung outside SIGALRM's reach.
        """
        if not unit_timeout:
            return None
        backoff = sum(retry_backoff * 2.0 ** a for a in range(max_retries))
        return (max_units * ((1 + max_retries) * unit_timeout + backoff)
                + 5.0)

    def merge_meta(meta: dict, *, inline: bool = False) -> None:
        # Fold the worker's chunk delta into the parent registry the
        # moment the chunk lands — the telemetry sibling of the
        # in-seed-order cell folding.  An *inline* chunk ran in the
        # parent process, so its counters and phase frames already
        # landed in the parent registry directly; merging its delta
        # again would double count — only the chunk bookkeeping folds.
        if not inline:
            _TELEMETRY.merge_snapshot(meta["delta"])
        if not _TELEMETRY.enabled:
            return
        _TELEMETRY.record_worker(meta["pid"], chunks=1,
                                 units=meta["units"],
                                 busy_s=meta["wall_s"])
        _TELEMETRY.inc("parallel.chunks_completed")
        _TELEMETRY.inc("parallel.units_computed", meta["units"])
        _TELEMETRY.observe("parallel.chunk_latency_s", meta["wall_s"])
        # The chunk's wall-clock window, for the sweep timeline's
        # worker lanes (repro.trace.timeline).
        _TELEMETRY.emit("parallel.chunk", pid=meta["pid"],
                        units=meta["units"], wall_s=meta["wall_s"],
                        t0=meta.get("t0"), t1=meta.get("t1"),
                        inline=inline)

    def consume(pool: WorkerPool,
                chunk_futures: "dict[Any, int]",
                budget: float | None) -> bool:
        """Drain one generation's futures; True if the pool broke."""
        broke = False
        not_done = set(chunk_futures)
        while not_done:
            if _TELEMETRY.timers:
                # Parent-side blocking on worker results is the
                # sweep's idle budget — kept distinct from the fold
                # work below so "waiting on the pool" never masquerades
                # as orchestration cost.
                _TELEMETRY.push("pool.idle")
                try:
                    done, not_done = wait(not_done, timeout=budget,
                                          return_when=FIRST_COMPLETED)
                finally:
                    _TELEMETRY.pop()
            else:
                done, not_done = wait(not_done, timeout=budget,
                                      return_when=FIRST_COMPLETED)
            if not done:
                # Watchdog: nothing landed inside the stall budget
                # even though every unit carries a deadline — a worker
                # is wedged beyond SIGALRM's reach.  Kill the workers;
                # the dead pool surfaces as BrokenProcessPool on the
                # next wait and recovery escalates like any crash.
                killed = _kill_pool_workers(pool)
                _TELEMETRY.inc("resilience.watchdog_kills")
                _TELEMETRY.emit("resilience.watchdog_kill",
                                killed=killed, budget=budget, mode=mode)
                continue
            with _TELEMETRY.phase("ipc.fold"):
                for future in done:
                    try:
                        outcomes, meta = future.result()
                    except BaseException as exc:
                        # Worker death: the chunk's results are gone;
                        # its units stay unresolved for the next
                        # generation.
                        broke = True
                        _TELEMETRY.emit("resilience.worker_crash",
                                        mode=mode,
                                        error_type=type(exc).__name__)
                        continue
                    if meta is not None:
                        merge_meta(meta)
                    for outcome in outcomes:
                        fold.resolve(*outcome)
            if shutdown is not None and shutdown.requested:
                # Draining: drop whatever has not started (their units
                # stay unresolved, for the resumed run) but finish
                # what is in flight.
                for future in list(not_done):
                    if future.cancel():
                        not_done.discard(future)
            if fold.best_err is not None:
                # Chunks starting beyond the lowest known failure
                # cannot lower it: cancel what has not started, keep
                # draining the rest (a still-running earlier chunk may
                # fail lower).
                for future in list(not_done):
                    if (chunk_futures[future] > fold.best_err[0]
                            and future.cancel()):
                        not_done.discard(future)
        return broke

    mode = "chunked"
    while remaining:
        fold.raise_if_draining(shutdown)
        todo = sorted(remaining)
        if fold.best_err is not None:
            # Only units below the failure point can still matter (a
            # lower-ordered unit may fail lower); everything else is
            # moot — the sweep is going to raise.
            todo = [pos for pos in todo if pos < fold.best_err[0]]
        if not todo:
            break

        pool = WorkerPool.acquire(workers, spec)
        broke = False
        if mode == "solo":
            # One unit in flight at a time: a pool break now names the
            # poison unit definitively, so crashes are counted against
            # its (transient) retry budget and then given up on.
            budget = stall_budget(1)
            for pos in todo:
                if pos not in remaining:
                    continue
                if shutdown is not None and shutdown.requested:
                    break
                if fold.best_err is not None and pos > fold.best_err[0]:
                    break
                pool = WorkerPool.acquire(workers, spec)
                try:
                    with _TELEMETRY.phase("ipc.dispatch"):
                        future = pool.executor.submit(_run_chunk,
                                                      [units[pos]])
                    with _TELEMETRY.phase("pool.idle"):
                        outcomes, meta = future.result(timeout=budget)
                except _FuturesTimeout:
                    killed = _kill_pool_workers(pool)
                    _TELEMETRY.inc("resilience.watchdog_kills")
                    _TELEMETRY.emit("resilience.watchdog_kill",
                                    killed=killed, budget=budget,
                                    mode="solo")
                    crashed = True
                except BaseException as exc:
                    crashed = True
                    _TELEMETRY.emit("resilience.worker_crash",
                                    mode="solo",
                                    error_type=type(exc).__name__)
                else:
                    crashed = False
                    if meta is not None:
                        merge_meta(meta)
                    for outcome in outcomes:
                        fold.resolve(*outcome)
                if crashed:
                    _drop_broken_pool(pool)
                    _TELEMETRY.inc("resilience.pool_rebuilds")
                    _TELEMETRY.emit("resilience.pool_rebuild",
                                    mode="solo",
                                    unresolved=len(remaining))
                    crash_counts[pos] = crash_counts.get(pos, 0) + 1
                    crashes = crash_counts[pos]
                    if crashes > max_retries:
                        _, index, x, seed_pos, seed = units[pos]
                        fold.resolve(pos, None, WorkerCrashError(
                            f"unit x={float(x):g} seed={seed} took its "
                            f"worker down {crashes} time(s) "
                            f"in solo dispatch",
                            x=float(x), workload_seed=seed,
                            crashes=crashes), (None, crashes), [])
                    # Under budget: the unit stays in `remaining` and
                    # the outer loop re-dispatches it (chaos-injected
                    # crashes are at-most-once, so the re-run is the
                    # recovery).
            continue

        size = 1 if mode == "isolated" else chunk_size
        plans = plan_chunks(len(todo), workers, size)
        inline_plans: list[list[int]] = []
        if inline_only:
            # Serial-first crossover, degenerate case: with one
            # schedulable CPU the crossover point is never reached —
            # forked workers would only timeshare against the parent —
            # so every chunk runs inline and the pool never forks.
            inline_plans = [todo[start:stop] for start, stop in plans]
            plans = []
        elif (pool.fresh and len(plans) > 1
                and spec.get("chaos") is None):
            # Cold pool: the workers still have to fork and warm up
            # (interpreter pages, first-submit latency), time a serial
            # sweep would already spend computing.  The parent runs the
            # first chunk itself while the pool warms behind it, so a
            # cold parallel sweep is never slower than the serial driver.
            # Skipped under an installed chaos plan — injected crashes
            # must land in (expendable) workers, never in the parent.
            inline_plans = [todo[plans[0][0]:plans[0][1]]]
            plans = plans[1:]
        pool.fresh = False
        chunk_futures: dict[Any, int] = {}
        try:
            with _TELEMETRY.phase("ipc.dispatch"):
                for start, stop in plans:
                    positions = todo[start:stop]
                    chunk_futures[pool.executor.submit(
                        _run_chunk,
                        [units[p] for p in positions])] = positions[0]
        except BrokenProcessPool:
            broke = True  # pool died mid-submit; drain what went out
        _TELEMETRY.inc("parallel.chunks_submitted", len(chunk_futures))
        _TELEMETRY.emit("chunk.dispatch", chunks=len(chunk_futures),
                        units=len(todo), workers=workers, mode=mode,
                        inline_units=sum(map(len, inline_plans)))
        for positions in inline_plans:
            # _SPEC is published (the pool was just acquired), so the
            # worker entry point runs unchanged in the parent process;
            # its telemetry delta merges like any worker chunk's.
            # Chunk granularity keeps drain and lowest-failure
            # semantics: a requested shutdown or a known lower-ordered
            # failure stops the inline stream between chunks, exactly
            # where the serial driver would stop.
            if shutdown is not None and shutdown.requested:
                break
            if (fold.best_err is not None
                    and positions[0] > fold.best_err[0]):
                break
            outcomes, meta = _run_chunk([units[p] for p in positions])
            if meta is not None:
                merge_meta(meta, inline=True)
            for outcome in outcomes:
                fold.resolve(*outcome)
        max_units = max((len(todo[start:stop]) for start, stop in plans),
                        default=1)
        broke = consume(pool, chunk_futures, stall_budget(max_units)) or broke
        if broke:
            # The broken executor is unusable; drop it (a fresh pool
            # forks on the next acquire) and tighten the dispatch
            # shape so repeated breaks converge on the culprit.
            _drop_broken_pool(pool)
            _TELEMETRY.inc("resilience.pool_rebuilds")
            _TELEMETRY.emit("resilience.pool_rebuild", mode=mode,
                            unresolved=len(remaining))
            next_mode = "isolated" if mode == "chunked" else "solo"
            _TELEMETRY.emit("resilience.escalation", from_mode=mode,
                            to_mode=next_mode, unresolved=len(remaining))
            mode = next_mode

    if fold.best_err is not None:
        # Cancelling futures never stops already-running workers; the
        # pool itself is shut down (and the warm singleton dropped) so
        # no stale worker outlives the failed sweep.
        pool = WorkerPool.current()
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        raise fold.best_err[1]
    return fold.cells
