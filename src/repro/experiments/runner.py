"""Seeded experiment execution: one workload, many policies.

Every experiment in :mod:`repro.experiments.figures` reduces to the
same inner loop — generate (or load) a task set, run the same seeded
workload under every policy, normalise to the no-DVS baseline, and
aggregate across task sets.  The suite (:func:`run_suite`), the cell
it folds into (:class:`SweepCell`) and the sweep's plan live here:
:func:`sweep` validates its options, loads checkpoints, opens the
event log and the run manifest, then hands the pending cells to
one of the two drivers in :mod:`repro.experiments.parallel`, which
share one unit runner and one cell fold.

Long sweeps are additionally *robust*: :func:`sweep` can checkpoint
each completed cell to disk (atomically), retry transiently failing
cells with exponential backoff, and resume a killed sweep from its
checkpoints — producing results identical to an uninterrupted run,
because every cell is a pure function of its seeds.

On top of that sits the resilience layer (DESIGN.md §11,
:mod:`repro.experiments.resilience`): per-unit wall-clock deadlines
(``unit_timeout=``), transient-vs-deterministic retry classification
(deterministic failures skip the backoff ladder entirely),
poison-unit quarantine (``on_failure="quarantine"`` completes the
sweep with structured :class:`~repro.experiments.resilience.
QuarantinedCell` records instead of dying), graceful SIGINT/SIGTERM
drain (checkpoints and manifests flushed, then
:class:`~repro.errors.SweepInterrupted`), and degraded I/O — a full
disk turns checkpointing/caching off with a warning, never crashes
the sweep.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.cpu.processor import Processor
from repro.errors import (
    ExperimentError,
    SuiteExecutionError,
    SweepInterrupted,
)
from repro.experiments import chaos as _chaos
from repro.experiments.cache import (
    PolicySummary,
    SuiteCache,
    suite_fingerprint,
)
from repro.experiments.resilience import (
    EXECUTION_DEFAULTS,
    GracefulShutdown,
    QuarantineStore,
)
from repro.experiments.config import EXPERIMENT_PERIOD_CHOICES
from repro.faults import FaultPlan
from repro.policies.base import DvsPolicy
from repro.policies.registry import make_policy
from repro.sim.engine import simulate
from repro.sim.results import SimulationResult
from repro.telemetry import EVENTS_FILENAME, TELEMETRY
from repro.telemetry.manifest import (
    RunManifest,
    git_revision,
    next_manifest_path,
)
from repro.telemetry.progress import (
    DEFAULT_HEARTBEAT_INTERVAL,
    PROGRESS_SCHEMA,
    Heartbeat,
)
from repro.tasks.execution import ExecutionModel, model_for_bcwc_ratio
from repro.tasks.generators import generate_taskset
from repro.tasks.taskset import TaskSet
from repro.types import Time


@dataclass
class SuiteResult:
    """Per-policy results for one workload, with the no-DVS baseline."""

    results: dict[str, SimulationResult]
    baseline: SimulationResult

    def _lookup(self, policy: str) -> SimulationResult:
        try:
            return self.results[policy]
        except KeyError:
            known = ", ".join(sorted(self.results))
            raise ExperimentError(
                f"no results for policy {policy!r}; suite ran: {known}"
            ) from None

    def normalized(self, policy: str) -> float:
        return self._lookup(policy).normalized_energy(self.baseline)

    def miss_count(self, policy: str) -> int:
        return self._lookup(policy).miss_count

    def policy_summaries(self) -> dict[str, PolicySummary]:
        """The per-policy aggregates a sweep folds (and caches).

        Exactly the projection :meth:`SweepCell.record_summaries`
        consumes, in the suite's policy order — compact enough to ship
        over worker IPC and persist in the suite cache, rich enough
        that folding it is byte-identical to folding the full suite.
        """
        summaries: dict[str, PolicySummary] = {}
        for name, result in self.results.items():
            metrics = result.policy_metrics
            summaries[name] = PolicySummary(
                normalized=result.normalized_energy(self.baseline),
                misses=result.miss_count,
                switches=result.switch_count,
                overruns=result.overrun_jobs,
                released=result.jobs_released,
                interventions=int(metrics.get("interventions", 0)),
                dispatches=int(metrics.get("dispatches", 0)))
        return summaries


def run_suite(
    taskset: TaskSet,
    policy_names: Sequence[str],
    processor: Processor,
    execution_model: ExecutionModel,
    horizon: Time,
    *,
    overhead_aware: bool = False,
    allow_misses: bool = False,
    policy_factory: Callable[[str], DvsPolicy] | None = None,
    faults: FaultPlan | None = None,
    workload_seed: int | None = None,
    audit: bool = False,
) -> SuiteResult:
    """Run one workload under every policy (plus the no-DVS baseline).

    Any failure inside :func:`~repro.sim.engine.simulate` is re-raised
    as :class:`~repro.errors.SuiteExecutionError` carrying the policy
    name, the workload seed and the horizon, so one bad cell in a long
    sweep names its own reproduction instead of surfacing a bare
    engine exception with no context.

    ``audit=True`` records a trace for every run and puts it through
    :func:`repro.analysis.audit_trace`; any violation raises a
    :class:`~repro.errors.SuiteExecutionError` naming the broken
    invariants.  Per-policy summaries are unaffected by tracing, so an
    audited suite folds byte-identically to an unaudited one.
    """
    factory = policy_factory or (
        lambda name: make_policy(name, overhead_aware=overhead_aware))

    def run_one(name: str, policy: DvsPolicy) -> SimulationResult:
        try:
            if audit:
                return _audited_run(
                    taskset, processor, policy, execution_model,
                    horizon=horizon, allow_misses=allow_misses,
                    faults=faults, policy_name=name,
                    workload_seed=workload_seed)
            return simulate(taskset, processor, policy,
                            execution_model, horizon=horizon,
                            allow_misses=allow_misses, faults=faults)
        except SuiteExecutionError:
            raise
        except Exception as exc:
            raise SuiteExecutionError(
                f"policy {name!r} failed on workload seed={workload_seed} "
                f"horizon={horizon:g}: {exc}",
                policy=name, workload_seed=workload_seed,
                horizon=float(horizon)) from exc

    results: dict[str, SimulationResult] = {}
    baseline = run_one("none", make_policy("none"))
    results["none"] = baseline
    for name in policy_names:
        if name == "none":
            continue
        results[name] = run_one(name, factory(name))
    if audit:
        TELEMETRY.inc("audit.units")
    return SuiteResult(results=results, baseline=baseline)


def _audited_run(
    taskset: TaskSet,
    processor: Processor,
    policy: DvsPolicy,
    execution_model: ExecutionModel,
    *,
    horizon: Time,
    allow_misses: bool,
    faults: FaultPlan | None,
    policy_name: str,
    workload_seed: int | None,
) -> SimulationResult:
    """One traced run put through the schedule invariant auditor.

    The audit consumes the simulator's own (possibly fault-wrapped)
    workload models, so demands and arrivals are exactly what the
    engine sampled.  On violation the offending trace is dumped as a
    JSONL artifact next to the telemetry manifests (when a manifest
    directory is configured) before the error propagates.
    """
    from repro.analysis.audit import render_violations, run_and_audit
    from repro.sim.engine import Simulator

    result, violations = run_and_audit(Simulator(
        taskset, processor, policy, execution_model, horizon=horizon,
        record_trace=True, allow_misses=allow_misses, faults=faults))
    TELEMETRY.inc("audit.runs")
    if violations:
        TELEMETRY.inc("audit.violations", len(violations))
        artifact = ""
        if TELEMETRY.manifest_dir is not None:
            from repro.trace.jsonl import write_trace_jsonl
            path = (TELEMETRY.manifest_dir / "traces" /
                    f"violation_{policy_name}_seed{workload_seed}.jsonl")
            write_trace_jsonl(result, path,
                              label=f"{policy_name} seed={workload_seed}")
            TELEMETRY.emit("audit.violation_trace", path=str(path),
                           policy=policy_name)
            artifact = f" (trace dumped to {path})"
        raise SuiteExecutionError(
            f"schedule audit failed for policy {policy_name!r} "
            f"seed={workload_seed}: "
            f"{render_violations(violations)}{artifact}",
            policy=policy_name, workload_seed=workload_seed,
            horizon=float(horizon))
    return result


@dataclass
class SweepCell:
    """Aggregated normalised energies for one parameter value."""

    x: float
    normalized: dict[str, list[float]] = field(default_factory=dict)
    misses: dict[str, int] = field(default_factory=dict)
    switches: dict[str, list[int]] = field(default_factory=dict)
    overruns: dict[str, int] = field(default_factory=dict)
    interventions: dict[str, int] = field(default_factory=dict)
    dispatches: dict[str, int] = field(default_factory=dict)
    released: dict[str, int] = field(default_factory=dict)
    #: Structured records of (cell, seed) units given up on under
    #: ``on_failure="quarantine"`` — the cell's aggregates then cover
    #: only the surviving seeds, and the missing ones are *declared*
    #: here instead of silently absent.  Empty on a clean run.
    quarantined: list[dict] = field(default_factory=list)

    @property
    def is_partial(self) -> bool:
        """Whether any of this cell's seeds were quarantined."""
        return bool(self.quarantined)

    def record(self, suite: SuiteResult) -> None:
        self.record_summaries(suite.policy_summaries())

    def record_summaries(
            self, summaries: dict[str, PolicySummary]) -> None:
        """Fold one suite's per-policy summaries into the cell.

        The single aggregation path: the sweep's cell fold calls it
        for computed and cache-replayed suites alike, in seed order,
        in both drivers — which is what makes them byte-identical.
        """
        for name, summary in summaries.items():
            self.normalized.setdefault(name, []).append(
                summary.normalized)
            self.misses[name] = (self.misses.get(name, 0)
                                 + summary.misses)
            self.switches.setdefault(name, []).append(summary.switches)
            self.overruns[name] = (self.overruns.get(name, 0)
                                   + summary.overruns)
            self.released[name] = (self.released.get(name, 0)
                                   + summary.released)
            self.interventions[name] = (
                self.interventions.get(name, 0) + summary.interventions)
            self.dispatches[name] = (
                self.dispatches.get(name, 0) + summary.dispatches)

    # -- checkpoint (de)serialisation ----------------------------------

    def to_payload(self) -> dict:
        payload = {
            "x": self.x,
            "normalized": self.normalized,
            "misses": self.misses,
            "switches": self.switches,
            "overruns": self.overruns,
            "interventions": self.interventions,
            "dispatches": self.dispatches,
            "released": self.released,
        }
        if self.quarantined:
            # Only present on partial cells, so clean-run payloads
            # stay byte-identical across versions.
            payload["quarantined"] = self.quarantined
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "SweepCell":
        return cls(
            x=float(payload["x"]),
            normalized={k: [float(v) for v in vs]
                        for k, vs in payload["normalized"].items()},
            misses={k: int(v) for k, v in payload["misses"].items()},
            switches={k: [int(v) for v in vs]
                      for k, vs in payload["switches"].items()},
            overruns={k: int(v)
                      for k, v in payload.get("overruns", {}).items()},
            interventions={k: int(v)
                           for k, v in payload.get("interventions",
                                                   {}).items()},
            dispatches={k: int(v)
                        for k, v in payload.get("dispatches", {}).items()},
            released={k: int(v)
                      for k, v in payload.get("released", {}).items()},
            quarantined=[dict(record)
                         for record in payload.get("quarantined", [])],
        )


def taskset_seeds(master_seed: int, count: int) -> list[int]:
    """Derive *count* independent task-set seeds from one master seed."""
    rng = np.random.default_rng(master_seed)
    return [int(s) for s in rng.integers(0, 2**62, size=count)]


def standard_taskset(n_tasks: int, utilization: float, seed: int) -> TaskSet:
    """The experiment workload generator: UUniFast on the period grid."""
    return generate_taskset(
        n_tasks, utilization, np.random.default_rng(seed),
        period_choices=EXPERIMENT_PERIOD_CHOICES)


class SweepCheckpointer:
    """Atomic per-cell checkpoints for resumable sweeps.

    One JSON file per cell, written to a temporary name and renamed
    into place, so a kill mid-write never leaves a readable-but-corrupt
    checkpoint.  A fingerprint of the sweep parameters is embedded in
    every file; resuming against checkpoints from a *different* sweep
    fails loudly instead of silently mixing results.

    A failing checkpoint write (ENOSPC, permissions) *degrades* the
    checkpointer — one warning, further stores skipped — instead of
    crashing a sweep that can still compute its results in memory.
    """

    def __init__(self, directory: str | Path, fingerprint: dict,
                 resume: bool) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fingerprint = fingerprint
        self.degraded = False
        if not resume:
            for stale in self.directory.glob("cell_*.json"):
                stale.unlink()

    def _path(self, index: int) -> Path:
        return self.directory / f"cell_{index:04d}.json"

    def load(self, index: int, x: float) -> SweepCell | None:
        path = self._path(index)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None  # unreadable checkpoint: recompute the cell
        if payload.get("fingerprint") != self.fingerprint:
            raise ExperimentError(
                f"checkpoint {path} belongs to a different sweep "
                f"(fingerprint {payload.get('fingerprint')!r} != "
                f"{self.fingerprint!r}); refusing to resume")
        if abs(float(payload["cell"]["x"]) - x) > 1e-9:
            raise ExperimentError(
                f"checkpoint {path} is for x={payload['cell']['x']}, "
                f"expected x={x}; refusing to resume")
        return SweepCell.from_payload(payload["cell"])

    def store(self, index: int, cell: SweepCell) -> None:
        with TELEMETRY.phase("supervision.checkpoint"):
            self._store(index, cell)

    def _store(self, index: int, cell: SweepCell) -> None:
        if self.degraded:
            return
        if cell.is_partial:
            # A quarantined cell is incomplete by construction; never
            # checkpoint it as done — a resume (after the operator
            # clears the quarantine records) recomputes it.
            return
        path = self._path(index)
        tmp = path.with_suffix(".json.tmp")
        try:
            _chaos.on_artifact_write("checkpoint", path)
            # No sort_keys: the per-policy dicts keep their run order,
            # so a resumed sweep renders policies in exactly the same
            # order as the uninterrupted run.
            tmp.write_text(json.dumps(
                {"fingerprint": self.fingerprint,
                 "cell": cell.to_payload()}))
            tmp.replace(path)
        except OSError as exc:
            self.degraded = True
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            TELEMETRY.inc("resilience.checkpoint_degraded")
            TELEMETRY.emit("resilience.checkpoint_degraded",
                           path=str(path), error=str(exc))
            print(f"warning: checkpointing degraded to off ({exc}); "
                  f"the sweep continues but is no longer resumable",
                  file=sys.stderr)
            return
        TELEMETRY.inc("sweep.checkpoint_writes")
        TELEMETRY.emit("sweep.checkpoint", index=index, x=cell.x)


def sweep(
    xs: Sequence[float],
    make_workload: Callable[[float, int], tuple[TaskSet, ExecutionModel]],
    policy_names: Sequence[str],
    *,
    n_tasksets: int = 10,
    master_seed: int = 2002,
    horizon: Time,
    processor_factory: Callable[[float], Processor] | None = None,
    overhead_aware: bool = False,
    allow_misses: bool = False,
    policy_factory: Callable[[float], Callable[[str], DvsPolicy]] | None = None,
    faults_factory: Callable[[float, int], FaultPlan | None] | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    max_retries: int = 0,
    retry_backoff: float = 0.25,
    workers: int = 1,
    chunk_size: int | None = None,
    cache_dir: str | Path | None = None,
    workload_id: str | None = None,
    audit_every: int | None = None,
    unit_timeout: float | None = None,
    on_failure: str | None = None,
) -> list[SweepCell]:
    """The generic experiment sweep.

    For each value in *xs*, *make_workload(x, seed)* builds a seeded
    (task set, execution model) pair; the same pair runs under every
    policy; aggregation across ``n_tasksets`` seeds fills one
    :class:`SweepCell`.  *processor_factory* may vary the processor
    with ``x`` (used by the discrete-levels and overhead figures);
    *policy_factory(x)* may vary how policies are instantiated with
    ``x`` (used by the fault matrix to set the governor margin);
    *faults_factory(x, seed)* injects a per-cell fault plan.

    With *checkpoint_dir* set, every completed cell is persisted
    atomically; ``resume=True`` loads existing checkpoints and skips
    their cells, so a killed sweep continues where it stopped and —
    cells being pure functions of their seeds — produces results
    identical to an uninterrupted run.  Cells that fail are retried up
    to *max_retries* times with exponential backoff before the failure
    propagates.

    ``workers=1`` runs the (cell, seed) units in this process, cell by
    cell; ``workers > 1`` fans them out in chunks over a warm pool of
    that many forked worker processes; *chunk_size* overrides the
    auto-sized units-per-submit.  Both drivers run every unit through
    one unit runner and settle it through one fold (see
    :mod:`repro.experiments.parallel`), so the cells — and any
    checkpoints, quarantine records and progress events written —
    match a ``workers=1`` run byte for byte.  On platforms without
    ``fork`` the sweep silently runs serially.

    With *cache_dir* set, every completed (cell, seed) suite is also
    persisted in a content-addressed
    :class:`~repro.experiments.cache.SuiteCache` and consulted before
    any simulation runs — cell by cell serially, before dispatch in
    parallel — so re-runs (and other sweeps sharing cells)
    replay hits instead of re-simulating, byte-identically.  The
    mandatory *workload_id* names the workload closure in the cache
    fingerprint: it MUST encode every parameter that changes
    *make_workload*, *processor_factory* or *policy_factory* beyond
    the keyed scalars (x, seed, policies, horizon, flags, faults),
    because closures themselves cannot be fingerprinted.

    *audit_every* turns on spot-auditing: every N-th **(cell, seed)
    unit** — counted in index-major seed order, picked by the one unit
    runner — runs with tracing enabled and its
    schedule is checked by :func:`repro.analysis.audit_trace`; any
    violation aborts the sweep with a
    :class:`~repro.errors.SuiteExecutionError` naming the invariant.
    Cache hits replay without re-auditing (their suites never re-run),
    and audited summaries are byte-identical to unaudited ones.

    *unit_timeout* puts a wall-clock deadline (seconds) on every
    (cell, seed) unit: a hung unit is interrupted with
    :class:`~repro.errors.UnitTimeoutError`, retried like any
    transient failure, and — in the parallel path — a worker wedged
    beyond the in-worker alarm is killed and replaced by the parent
    watchdog.  *on_failure* selects what happens when a unit exhausts
    its retries: ``"raise"`` (default) propagates the failure as
    before; ``"quarantine"`` records a structured
    :class:`~repro.experiments.resilience.QuarantinedCell` (persisted
    under ``<checkpoint_dir>/quarantine/`` when checkpointing) and
    **completes the sweep**, returning partial cells whose
    ``quarantined`` payloads declare exactly which seeds are missing.
    Both default to the process-wide
    :data:`~repro.experiments.resilience.EXECUTION_DEFAULTS` set by
    the CLI's ``--unit-timeout`` / ``--quarantine`` flags.

    Deterministic failures (engine/policy errors: pure functions of
    the seed) skip the retry ladder entirely — retries with backoff
    are reserved for transient ones (I/O hiccups, OOM kills,
    timeouts) that a retry genuinely can cure.  Every retry is
    counted (``sweep.retries``) and narrated (``unit.retry``) by the
    parent when the unit settles, in either mode.

    SIGINT/SIGTERM no longer kill a sweep mid-checkpoint: in-flight
    units drain, completed cells are checkpointed, the run manifest
    is flushed, and :class:`~repro.errors.SweepInterrupted` reports
    the sweep resumable.

    The sweep narrates itself into its run directory's event log,
    ``events.jsonl`` (DESIGN.md §14): the sink the CLI configured when
    telemetry is on, else one opened for the sweep's length in the
    telemetry manifest directory (telemetry on) or *checkpoint_dir*,
    so every checkpointed sweep is ``repro watch``-able with no extra
    flags.  With no directory at all the sweep runs unnarrated — the
    log never touches the compute path, so summaries, cells and
    checkpoints are byte-identical with it on or off.
    """
    if not xs:
        raise ExperimentError("sweep needs at least one x value")
    if audit_every is not None and audit_every < 1:
        raise ExperimentError(
            f"audit_every must be >= 1, got {audit_every}")
    if max_retries < 0:
        raise ExperimentError(
            f"max_retries must be >= 0, got {max_retries}")
    if workers < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers}")
    if chunk_size is not None and chunk_size < 1:
        raise ExperimentError(
            f"chunk_size must be >= 1, got {chunk_size}")
    if unit_timeout is None:
        unit_timeout = EXECUTION_DEFAULTS.unit_timeout
    if unit_timeout is not None and unit_timeout <= 0:
        raise ExperimentError(
            f"unit_timeout must be > 0, got {unit_timeout}")
    if on_failure is None:
        on_failure = EXECUTION_DEFAULTS.on_failure
    if on_failure not in ("raise", "quarantine"):
        raise ExperimentError(
            f"on_failure must be 'raise' or 'quarantine', "
            f"got {on_failure!r}")
    # With telemetry on, cut this sweep's metrics as a delta against
    # the registry (other sweeps in the same process keep their
    # counts), taken before the cache and the checkpointer open so the
    # manifest counts their degradations.
    before = TELEMETRY.snapshot() if TELEMETRY.enabled else None
    cache = None
    unit_key = None
    if cache_dir is not None:
        if workload_id is None:
            raise ExperimentError(
                "cache_dir needs a workload_id naming the workload "
                "closure (and any parameterisation beyond the keyed "
                "scalars); refusing to cache unidentifiable suites")
        try:
            cache = SuiteCache(cache_dir)
        except OSError as exc:
            # Degraded I/O: an unusable cache directory turns the
            # cache off for this run, never kills it.
            TELEMETRY.inc("resilience.cache_degraded")
            print(f"warning: cache dir {cache_dir} unusable ({exc}); "
                  f"running without the suite cache", file=sys.stderr)

    if cache is not None:

        def unit_key(x: float, seed: int) -> str:
            digest, _ = suite_fingerprint(
                workload_id=workload_id, x=float(x), seed=seed,
                policies=list(policy_names), horizon=float(horizon),
                overhead_aware=overhead_aware,
                allow_misses=allow_misses,
                faults=(faults_factory(float(x), seed)
                        if faults_factory else None))
            return digest

    checkpointer = None
    quarantine_store = None
    if checkpoint_dir is not None:
        fingerprint = {
            "xs": [float(x) for x in xs],
            "policies": list(policy_names),
            "n_tasksets": n_tasksets,
            "master_seed": master_seed,
            "horizon": float(horizon),
        }
        try:
            checkpointer = SweepCheckpointer(checkpoint_dir, fingerprint,
                                             resume=resume)
        except OSError as exc:
            TELEMETRY.inc("resilience.checkpoint_degraded")
            print(f"warning: checkpoint dir {checkpoint_dir} unusable "
                  f"({exc}); running without checkpoints",
                  file=sys.stderr)
        if on_failure == "quarantine":
            quarantine_store = QuarantineStore(checkpoint_dir)

    shutdown = GracefulShutdown()

    seeds = taskset_seeds(master_seed, n_tasksets)
    spec = {
        "make_workload": make_workload,
        "policy_names": list(policy_names),
        "horizon": horizon,
        "processor_factory": processor_factory,
        "overhead_aware": overhead_aware,
        "allow_misses": allow_misses,
        "policy_factory": policy_factory,
        "faults_factory": faults_factory,
        "max_retries": max_retries,
        "retry_backoff": retry_backoff,
        "audit_every": audit_every,
        "n_seeds": n_tasksets,
        "unit_timeout": unit_timeout,
        "on_failure": on_failure,
        # Workers snapshot the installed chaos plan at fork time; a
        # plan change must invalidate the warm pool like any other
        # spec change.
        "chaos": _chaos.current(),
    }

    # Where the events land: the plan step counts ``cell.resumed``, the
    # drivers' cell fold ``unit.done`` and ``cell.done``; ``sweep.done``
    # and the manifest's ``progress`` block repeat the tallies.
    tally: Counter[str] = Counter()

    def execute() -> list[SweepCell]:
        from repro.experiments import parallel

        by_index: dict[int, SweepCell] = {}
        pending: list[tuple[int, float]] = []
        with TELEMETRY.span("sweep.plan"):
            for index, x in enumerate(xs):
                cell = (checkpointer.load(index, float(x))
                        if checkpointer is not None else None)
                if cell is None:
                    pending.append((index, float(x)))
                    continue
                TELEMETRY.inc("sweep.cells_resumed")
                TELEMETRY.emit("cell.resumed", index=index, x=float(x),
                               seeds=n_tasksets)
                tally["resumed"] += n_tasksets
                tally["cells_done"] += 1
                by_index[index] = cell
        if pending:
            options = dict(spec=spec, checkpointer=checkpointer,
                           cache=cache, unit_key=unit_key,
                           quarantine_store=quarantine_store,
                           shutdown=shutdown, tally=tally)
            if workers > 1 and parallel.fork_available():
                if heartbeat is not None:
                    heartbeat.pids = parallel.pool_pids
                by_index.update(parallel.run_cells(
                    pending, seeds, workers=workers,
                    chunk_size=chunk_size, **options))
            else:
                by_index.update(parallel.run_serial(
                    pending, seeds, **options))
        return [by_index[index] for index in range(len(xs))]

    def summary() -> dict:
        counts = {key: tally[key] for key in
                  ("computed", "cached", "resumed", "quarantined")}
        return {"units": len(xs) * n_tasksets, "done": sum(counts.values()),
                **counts, "cells": len(xs),
                "cells_done": tally["cells_done"]}

    heartbeat = None

    def finish(status: str = "completed",
               error: BaseException | None = None) -> None:
        if status == "interrupted" and shutdown.signal_number is not None:
            # The drain fact itself, emitted here in normal context:
            # the signal handler only sets flags, because a handler
            # that writes into a locked sink can deadlock.
            TELEMETRY.emit("resilience.drain",
                           signal=shutdown.signal_number)
        if log is None:
            return  # unnarrated: no log to end
        if heartbeat is not None:
            heartbeat.stop()  # no beat after the terminal event
        fields = {} if error is None else {"error": str(error)}
        TELEMETRY.emit("sweep.done", **summary(), status=status, **fields)

    # With telemetry on, drop a run manifest next to the checkpoints
    # (or into the configured manifest directory).  ``sweep.compute``
    # is the root frame: every timer region this sweep opens — engine
    # runs, slack walks, cache I/O, dispatch, idle — nests under it,
    # and its self time is the orchestration residual.
    TELEMETRY.inc("sweep.runs")
    TELEMETRY.inc("sweep.cells", len(xs))

    def write_manifest() -> None:
        if before is None:
            return
        _write_sweep_manifest(
            before=before,
            fingerprint={
                "xs": [float(x) for x in xs],
                "policies": list(policy_names),
                "n_tasksets": n_tasksets,
                "master_seed": master_seed,
                "horizon": float(horizon),
                "workload_id": workload_id,
                "workers": workers,
                "overhead_aware": overhead_aware,
                "allow_misses": allow_misses,
            },
            workers=workers,
            faults_injected=faults_factory is not None,
            audit_every=audit_every,
            checkpoint_dir=(checkpointer.directory
                            if checkpointer is not None else None),
            workload_id=workload_id,
            unit_timeout=unit_timeout,
            on_failure=on_failure,
            progress=({**summary(), "stream": log} if log is not None
                      else None))

    # The event log (DESIGN.md §14): the sink the CLI configured, else
    # ``events.jsonl`` in the telemetry manifest dir or the checkpoint
    # dir, open for this sweep's length.  No directory means no log —
    # and no overhead; an unusable one, one warning and no log.
    own_sink = None
    run_dir = TELEMETRY.manifest_dir if TELEMETRY.enabled else None
    if run_dir is None:
        run_dir = checkpoint_dir
    if (TELEMETRY.sink is None and TELEMETRY.events_path is None
            and run_dir is not None):
        own_sink = TELEMETRY.sink = TELEMETRY.open_events(
            Path(run_dir) / EVENTS_FILENAME)
    log = str(TELEMETRY.sink.path) if TELEMETRY.sink is not None else None
    try:
        TELEMETRY.emit("sweep.start", schema=PROGRESS_SCHEMA,
                       cells=len(xs), seeds=n_tasksets,
                       units=len(xs) * n_tasksets, workers=workers,
                       workload_id=workload_id, pid=os.getpid(),
                       heartbeat_interval=(DEFAULT_HEARTBEAT_INTERVAL
                                           if log is not None else None))
        if log is not None:
            heartbeat = Heartbeat(DEFAULT_HEARTBEAT_INTERVAL)
        with shutdown, TELEMETRY.span("sweep.compute"):
            cells = execute()
    except SweepInterrupted as exc:
        # The drain already checkpointed everything complete; narrate
        # the end and flush the manifest too, so the interrupted run
        # leaves a full record before the interrupt propagates.
        finish("interrupted", exc)
        write_manifest()
        raise
    except BaseException as exc:
        finish("failed", exc)
        raise
    else:
        # ``sweep.done`` first, so the manifest's ``progress`` block
        # repeats exactly the terminal summary — the equality
        # scripts/identity_gate.py enforces.
        finish()
    finally:
        if own_sink is not None:
            own_sink.close()
            TELEMETRY.sink = None
    write_manifest()
    return cells


#: Manifest directories this process found unusable and warned about
#: once; later sweeps into one skip their manifests silently.
_UNUSABLE_MANIFEST_DIRS: set[Path] = set()


def _write_sweep_manifest(
    *,
    before: dict,
    fingerprint: dict,
    workers: int,
    faults_injected: bool,
    audit_every: int | None,
    checkpoint_dir: str | Path | None,
    workload_id: str | None,
    unit_timeout: float | None = None,
    on_failure: str = "raise",
    progress: dict | None = None,
) -> Path | None:
    """Write one run manifest for a completed sweep (telemetry on).

    The manifest lands in ``TELEMETRY.manifest_dir`` when configured
    (``repro run --telemetry-dir``), else next to the sweep's
    checkpoints; with neither destination it is skipped, and with an
    unusable one it is skipped with a warning, once per directory and
    process: the sweep's cells are computed by then, and a side
    artifact never costs them.  Its numbers are the sweep's *delta* —
    counters, the ``sweep.*`` spans, per-worker chunk accounting, and
    with timers on the ``profile`` time budget — so
    concurrent-in-process sweeps never bleed into each other's
    manifests.
    """
    directory = TELEMETRY.manifest_dir or (
        Path(checkpoint_dir) if checkpoint_dir is not None else None)
    if directory is None:
        return None
    delta = TELEMETRY.delta_since(before)
    counters = delta["counters"]
    label = workload_id or "sweep"
    profile = None
    if TELEMETRY.timers:
        from repro.profiling import report as _profile_report
        profile = _profile_report.profile_block(
            delta, timeline_dropped=TELEMETRY.timeline_dropped)
    manifest = RunManifest(
        label=label,
        fingerprint=fingerprint,
        phases={name: {"count": rec["count"],
                       "wall_s": rec["total_ns"] / 1e9,
                       "cpu_s": rec["cpu_ns"] / 1e9}
                for name, rec in delta["phases"].items()
                if name.startswith("sweep.")},
        counters=counters,
        histograms=delta["histograms"],
        cache={
            "hits": counters.get("cache.hits", 0),
            "misses": counters.get("cache.misses", 0),
            "writes": counters.get("cache.writes", 0),
            "corrupt": counters.get("cache.corrupt", 0),
        },
        workers={"pool_workers": workers,
                 "per_worker": delta["workers"]},
        faults={"injected": faults_injected},
        resilience={
            "unit_timeout": unit_timeout,
            "on_failure": on_failure,
            "pool_rebuilds": counters.get("resilience.pool_rebuilds", 0),
            "watchdog_kills": counters.get(
                "resilience.watchdog_kills", 0),
            "unit_timeouts": counters.get("resilience.unit_timeouts", 0),
            "quarantined": counters.get("resilience.quarantined", 0),
            "cache_self_healed": counters.get("cache.self_healed", 0),
            # A configured event log is opened (or found unusable)
            # before the sweep's snapshot, so the delta misses its
            # degradation; the missing sink shows it.
            "degraded_writes": (
                counters.get("resilience.cache_degraded", 0)
                + counters.get("resilience.checkpoint_degraded", 0)
                + int(TELEMETRY.events_path is not None
                      and TELEMETRY.sink is None)),
            "drain_requests": counters.get(
                "resilience.drain_requests", 0),
        },
        audit=(None if audit_every is None else {
            "every": audit_every,
            "units": counters.get("audit.units", 0),
            "runs": counters.get("audit.runs", 0),
            "violations": counters.get("audit.violations", 0),
        }),
        progress=progress,
        profile=profile,
        git_rev=git_revision(),
    )
    try:
        path = manifest.write(next_manifest_path(directory, label))
    except OSError as exc:
        if directory not in _UNUSABLE_MANIFEST_DIRS:
            _UNUSABLE_MANIFEST_DIRS.add(directory)
            print(f"warning: manifest dir {directory} unusable ({exc}); "
                  f"sweep runs without a manifest", file=sys.stderr)
        return None
    TELEMETRY.emit("sweep.manifest", path=str(path))
    return path


def bcwc_model(bcwc: float, seed: int) -> ExecutionModel:
    """The canonical execution model for a bc/wc ratio and seed."""
    return model_for_bcwc_ratio(bcwc, seed=seed)
