"""Resilience layer for the sweep execution stack.

The paper's premise — a hard real-time system must keep its guarantees
when runtime behaviour deviates from the worst case — applied to our
own harness: an hours-long sweep must survive its *own* faults.  This
module collects the primitives the runner and the parallel executor
build that survival from:

* **failure classification** (:func:`classify`, :func:`is_transient`)
  — deterministic failures (a policy bug, an infeasible cell: pure
  functions of the seed) fail identically every time, so burning
  ``max_retries`` exponential-backoff attempts on them is pure waste;
  only transient failures (I/O hiccups, OOM kills, timeouts) are worth
  retrying.  Retry loops consult :func:`retry_budget` and fail
  deterministic units fast — straight to quarantine when enabled.
* **per-unit deadlines** (:func:`unit_deadline`) — a SIGALRM-based
  wall-clock budget around one (cell, seed) unit, raising
  :class:`~repro.errors.UnitTimeoutError` the moment it expires, so a
  hung cell is killed and retried instead of stalling the sweep
  forever.
* **poison-cell quarantine** (:class:`QuarantinedCell`,
  :class:`QuarantineStore`) — a unit that still fails after its retry
  budget becomes a structured record (exception, attempts,
  fingerprint, artifact path) persisted next to the checkpoints, and
  the sweep *completes* with a partial result that declares exactly
  what is missing, instead of dying at 95%.  Bounded, declared
  degradation — the (m,k)-firm idea applied to the harness itself.
* **graceful shutdown** (:class:`GracefulShutdown`) — SIGINT/SIGTERM
  request a drain instead of killing the process mid-checkpoint: in-
  flight units finish, completed cells are checkpointed, the manifest
  is flushed, and :class:`~repro.errors.SweepInterrupted` tells the
  caller the run is resumable.

Everything surfaces through ``resilience.*`` telemetry counters and
the MANIFEST_SCHEMA 3 ``resilience`` block, and is exercised end to
end by the deterministic chaos harness
(:mod:`repro.experiments.chaos`).
"""

from __future__ import annotations

import datetime as _dt
import json
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.errors import (
    ExperimentError,
    ReproError,
    SweepInterrupted,
    UnitTimeoutError,
    WorkerCrashError,
)
from repro.telemetry import TELEMETRY

#: Exception types a retry (with backoff) can genuinely cure: external
#: conditions, not properties of the unit itself.  ``OSError`` covers
#: disk/network hiccups, ``MemoryError`` pressure-induced allocation
#: failure, ``UnitTimeoutError`` load-induced slowness and
#: ``WorkerCrashError`` OOM-killed workers.
_TRANSIENT_TYPES = (OSError, MemoryError, UnitTimeoutError,
                    WorkerCrashError)


def is_transient(exc: BaseException) -> bool:
    """Whether a retry could plausibly cure *exc*.

    Walks the cause/context chain: a
    :class:`~repro.errors.SuiteExecutionError` *wrapping* an
    ``OSError`` is as transient as the ``OSError`` itself.
    Library errors (:class:`~repro.errors.ReproError`) without a
    transient cause are deterministic — a sweep unit is a pure
    function of its seed, so an engine/policy failure reproduces
    identically on every attempt.  Unknown exception types default to
    transient (retrying an unknown failure is wasteful at worst;
    failing fast on a curable one loses results).
    """
    seen: set[int] = set()
    node: BaseException | None = exc
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        if isinstance(node, _TRANSIENT_TYPES):
            return True
        if isinstance(node, ReproError):
            node = node.__cause__ or node.__context__
            continue
        # Non-library, non-transient-listed: assume the environment
        # could be at fault.
        return True
    return False


def classify(exc: BaseException) -> str:
    """``"transient"`` or ``"deterministic"`` — for records and logs."""
    return "transient" if is_transient(exc) else "deterministic"


def retry_budget(exc: BaseException, max_retries: int) -> int:
    """How many retries *exc* deserves: 0 when deterministic."""
    return max_retries if is_transient(exc) else 0


# -- per-unit deadlines ------------------------------------------------


@contextmanager
def unit_deadline(timeout: float | None, *, x: float | None = None,
                  seed: int | None = None) -> Iterator[None]:
    """A wall-clock budget around one (cell, seed) unit.

    Arms ``ITIMER_REAL`` for *timeout* seconds; expiry raises
    :class:`~repro.errors.UnitTimeoutError` inside the running unit.
    A no-op when *timeout* is falsy or when not on the main thread
    (signal handlers can only be installed there — the parallel
    executor's parent-side watchdog covers that case instead).
    """
    if not timeout or threading.current_thread() is not threading.main_thread():
        yield
        return

    def _expired(signum, frame):  # pragma: no cover - exercised via sweep
        raise UnitTimeoutError(
            f"unit x={x} seed={seed} exceeded its {timeout:g}s "
            f"wall-clock deadline", x=x, workload_seed=seed,
            timeout=timeout)

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# -- quarantine --------------------------------------------------------


@dataclass
class QuarantinedCell:
    """Structured record of one (cell, seed) unit given up on.

    Everything needed to reproduce and triage the failure offline: the
    cell position and parameter value, the seed, how many attempts
    were burned, the failure class and message, the unit's cache
    fingerprint (when the sweep was caching) and the path the record
    itself was persisted to.
    """

    index: int
    x: float
    seed: int
    seed_pos: int
    attempts: int
    error_type: str
    error_message: str
    classification: str = "deterministic"
    policy: str | None = None
    fingerprint: str | None = None
    artifact: str | None = None
    created: str = ""

    def __post_init__(self) -> None:
        if not self.created:
            self.created = _dt.datetime.now().isoformat(timespec="seconds")

    @classmethod
    def from_failure(cls, exc: BaseException, *, index: int, x: float,
                     seed: int, seed_pos: int, attempts: int,
                     classification: str | None = None,
                     fingerprint: str | None = None) -> "QuarantinedCell":
        """The record of *exc*; *classification* defaults to
        :func:`classify` of *exc* (pass the one made where the cause
        chain was still intact)."""
        return cls(
            index=index, x=float(x), seed=int(seed), seed_pos=seed_pos,
            attempts=attempts, error_type=type(exc).__name__,
            error_message=str(exc),
            classification=classification or classify(exc),
            policy=getattr(exc, "policy", None),
            fingerprint=fingerprint)

    def to_payload(self) -> dict:
        return {
            "index": self.index,
            "x": self.x,
            "seed": self.seed,
            "seed_pos": self.seed_pos,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "error_message": self.error_message,
            "classification": self.classification,
            "policy": self.policy,
            "fingerprint": self.fingerprint,
            "artifact": self.artifact,
            "created": self.created,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "QuarantinedCell":
        return cls(
            index=int(payload["index"]), x=float(payload["x"]),
            seed=int(payload["seed"]),
            seed_pos=int(payload["seed_pos"]),
            attempts=int(payload["attempts"]),
            error_type=str(payload["error_type"]),
            error_message=str(payload["error_message"]),
            classification=str(payload.get("classification",
                                           "deterministic")),
            policy=payload.get("policy"),
            fingerprint=payload.get("fingerprint"),
            artifact=payload.get("artifact"),
            created=str(payload.get("created", "")))

    def describe(self) -> str:
        return (f"cell {self.index} (x={self.x:g}) seed={self.seed}: "
                f"{self.error_type} after {self.attempts} attempt(s) "
                f"[{self.classification}]: {self.error_message}")


class QuarantineStore:
    """Per-sweep directory of quarantine records.

    One JSON file per quarantined unit under
    ``<checkpoint_dir>/quarantine/``, written atomically like every
    other sweep artifact.  Records survive the run, so a resumed sweep
    (and a human) can see exactly which units were given up on;
    deleting a record re-arms the unit for recomputation (quarantined
    cells are never checkpointed as complete).
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory) / "quarantine"

    def record(self, cell: QuarantinedCell) -> Path | None:
        path = (self.directory /
                f"unit_{cell.index:04d}_{cell.seed_pos:04d}.json")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".json.tmp")
            cell.artifact = str(path)
            tmp.write_text(json.dumps(cell.to_payload(), indent=2))
            tmp.replace(path)
        except OSError:
            # Degraded I/O: the in-memory record still reaches the
            # sweep result; losing the artifact must not kill the run.
            cell.artifact = None
            TELEMETRY.inc("resilience.quarantine_write_errors")
            return None
        return path

    def load_all(self) -> list[QuarantinedCell]:
        records = []
        for path in sorted(self.directory.glob("unit_*.json")):
            try:
                records.append(QuarantinedCell.from_payload(
                    json.loads(path.read_text())))
            except (OSError, ValueError, KeyError):
                continue  # a torn record is not worth dying over
        return records


def quarantine_report(checkpoint_dir: str | Path) -> str:
    """Human rendering of a sweep's quarantine records (may be empty)."""
    records = QuarantineStore(checkpoint_dir).load_all()
    if not records:
        return "no quarantined units"
    lines = [f"{len(records)} quarantined unit(s):"]
    lines += [f"  {record.describe()}" for record in records]
    return "\n".join(lines)


# -- graceful shutdown -------------------------------------------------


class GracefulShutdown:
    """Drain-on-signal: SIGINT/SIGTERM request a stop, not a kill.

    Installed (main thread only) around a sweep's execution phase.
    The first signal sets :attr:`requested`; execution loops check it
    between units/chunks, finish what is in flight, flush checkpoints
    and manifests, and raise :class:`~repro.errors.SweepInterrupted`.
    A second signal of the same kind falls through to the previous
    handler — an impatient operator can still kill a stuck drain.
    """

    _SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self) -> None:
        self.requested = False
        self.signal_number: int | None = None
        self._previous: dict[int, object] = {}
        self._installed = False

    def _handle(self, signum, frame) -> None:
        if self.requested:
            # Second signal: restore and re-deliver to the old handler.
            self._restore()
            signal.raise_signal(signum)
            return
        # Flags and a counter only: a handler that writes into a
        # locked sink can deadlock, so ``sweep()`` emits
        # ``resilience.drain`` once the drain has unwound.
        self.requested = True
        self.signal_number = signum
        TELEMETRY.inc("resilience.drain_requests")

    def __enter__(self) -> "GracefulShutdown":
        if threading.current_thread() is threading.main_thread():
            for signum in self._SIGNALS:
                self._previous[signum] = signal.signal(signum,
                                                       self._handle)
            self._installed = True
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        installed = self._installed
        self._restore()
        if (installed and self.requested and exc_type is None
                and self.signal_number is not None):
            # The request landed after the last between-units check, so
            # this sweep completed anyway.  Re-deliver to the restored
            # handler rather than swallowing the interrupt: a
            # multi-sweep driver must still stop.
            signal.raise_signal(self.signal_number)

    def _restore(self) -> None:
        if self._installed:
            for signum, previous in self._previous.items():
                signal.signal(signum, previous)
            self._installed = False

    def raise_if_requested(self, *, completed_cells: int,
                           checkpoint_dir: str | Path | None) -> None:
        if not self.requested:
            return
        name = (signal.Signals(self.signal_number).name
                if self.signal_number is not None else "signal")
        where = (f"; resume with resume=True against {checkpoint_dir}"
                 if checkpoint_dir is not None
                 else " (no checkpoint dir: completed cells are lost)")
        raise SweepInterrupted(
            f"sweep drained after {name}: {completed_cells} cell(s) "
            f"completed and checkpointed{where}",
            signal_number=self.signal_number,
            completed_cells=completed_cells,
            checkpoint_dir=(str(checkpoint_dir)
                            if checkpoint_dir is not None else None))


# -- sweep-wide execution defaults -------------------------------------


@dataclass
class ExecutionDefaults:
    """Process-wide defaults for sweep resilience knobs.

    Figure drivers call :func:`~repro.experiments.runner.sweep` with
    their own explicit arguments; the CLI's ``--unit-timeout`` and
    ``--quarantine`` flags apply to *every* sweep a command runs, so
    they are set here once instead of being threaded through every
    driver signature.  Explicit ``sweep()`` arguments always win.
    """

    unit_timeout: float | None = None
    on_failure: str = "raise"


EXECUTION_DEFAULTS = ExecutionDefaults()


def set_execution_defaults(*, unit_timeout: float | None = None,
                           on_failure: str | None = None) -> None:
    """Set the process-wide sweep resilience defaults (CLI entry)."""
    if unit_timeout is not None:
        EXECUTION_DEFAULTS.unit_timeout = unit_timeout
    if on_failure is not None:
        if on_failure not in ("raise", "quarantine"):
            raise ExperimentError(
                f"on_failure must be 'raise' or 'quarantine', "
                f"got {on_failure!r}")
        EXECUTION_DEFAULTS.on_failure = on_failure
