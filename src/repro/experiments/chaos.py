"""Deterministic chaos injection into the sweep executor itself.

:mod:`repro.faults` injects faults into the *simulated* system (WCET
overruns, jitter, transition faults); this module is its mirror for
the *execution harness*: seeded injection of worker crashes, hangs and
artifact-write failures into the runner / parallel executor / cache
stack, so the resilience layer (supervision, deadlines, quarantine,
degraded I/O) is proven by tests and the CI chaos gate rather than
trusted.

A :class:`ChaosPlan` is installed process-wide (:func:`install` /
:func:`active`); forked sweep workers inherit it for free, exactly
like the sweep spec.  Every stochastic decision derives from a stable
hash of ``(plan seed, salt, unit key)`` — the same counter-based
scheme the execution models and fault plans use — so a chaos run is
reproducible event for event.

**At-most-once semantics:** a crash or hang that re-fires on every
retry would turn recovery tests into livelocks.  With ``marker_dir``
set, each triggered injection first claims a marker file with an
atomic exclusive create; the retried (or re-dispatched) unit then
runs clean, which is what lets the chaos gate demand byte-identical
results to an uninjected run.  Without a marker dir, injections fire
on every evaluation — the shape quarantine tests want.

Injection points (all no-ops while no plan is installed — one module
attribute check):

* :func:`on_unit_start` — in the unit runner (worker or parent), before
  a unit's suite runs: may ``os._exit`` the process (crash) or sleep
  (hang; optionally with SIGALRM blocked, to exercise the parent-side
  watchdog rather than the in-worker deadline).
* :func:`on_artifact_write` — in :meth:`SuiteCache.put` and
  :meth:`SweepCheckpointer.store`, before the write: may raise an
  ``OSError`` (default ``ENOSPC``), to exercise degraded I/O.
"""

from __future__ import annotations

import errno
import hashlib
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.errors import ConfigurationError

_CRASH_SALT = 0xC0A1
_HANG_SALT = 0xC0A2
_WRITE_SALT = 0xC0A3


def _draw(seed: int, salt: int, key: str) -> float:
    """Deterministic uniform [0, 1) draw for one (salt, key) decision."""
    digest = hashlib.blake2b(f"{seed}:{salt}:{key}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2.0 ** 64


@dataclass(frozen=True)
class CrashChaos:
    """Kill the worker process mid-unit with ``os._exit``.

    The hard failure mode: no exception, no cleanup — exactly what an
    OOM kill or segfault looks like from the parent, which sees a
    ``BrokenProcessPool``.
    """

    probability: float = 1.0
    exit_code: int = 137  # what the kernel's OOM killer leaves behind

    def __post_init__(self) -> None:
        if not (0.0 < self.probability <= 1.0):
            raise ConfigurationError(
                f"crash probability must be in (0, 1], got "
                f"{self.probability}")


@dataclass(frozen=True)
class HangChaos:
    """Stall the worker mid-unit for *duration* seconds.

    With ``block_alarm=True`` the sleep runs with SIGALRM masked, so
    the in-worker unit deadline cannot fire — the shape of a hang in
    non-Python code — and only the parent-side watchdog can recover.
    """

    probability: float = 1.0
    duration: float = 3600.0
    block_alarm: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.probability <= 1.0):
            raise ConfigurationError(
                f"hang probability must be in (0, 1], got "
                f"{self.probability}")
        if self.duration <= 0.0:
            raise ConfigurationError(
                f"hang duration must be > 0, got {self.duration}")


@dataclass(frozen=True)
class WriteChaos:
    """Fail artifact writes (cache entries, checkpoints) with OSError."""

    probability: float = 1.0
    errno_code: int = errno.ENOSPC

    def __post_init__(self) -> None:
        if not (0.0 < self.probability <= 1.0):
            raise ConfigurationError(
                f"write-failure probability must be in (0, 1], got "
                f"{self.probability}")


@dataclass(frozen=True)
class ChaosPlan:
    """Seeded executor-fault configuration, installed process-wide."""

    seed: int
    crash: CrashChaos | None = None
    hang: HangChaos | None = None
    write_error: WriteChaos | None = None
    #: With a directory set, each triggered injection fires at most
    #: once across the whole run (all processes), via atomic marker
    #: files — retried units recover.
    marker_dir: str | None = None

    def describe(self) -> str:
        parts = []
        if self.crash is not None:
            parts.append(f"crash(p={self.crash.probability:g})")
        if self.hang is not None:
            parts.append(f"hang(p={self.hang.probability:g}, "
                         f"{self.hang.duration:g}s"
                         + (", blocking" if self.hang.block_alarm else "")
                         + ")")
        if self.write_error is not None:
            parts.append(f"write_error(p={self.write_error.probability:g})")
        inside = ", ".join(parts) or "no-op"
        once = ", once" if self.marker_dir else ""
        return f"chaos(seed={self.seed}, {inside}{once})"


#: The installed plan; inherited by forked workers.  ``None`` keeps
#: every injection point a single attribute check.
_PLAN: ChaosPlan | None = None


def install(plan: ChaosPlan) -> None:
    """Install *plan* process-wide (call before the pool forks)."""
    global _PLAN
    _PLAN = plan


def uninstall() -> None:
    global _PLAN
    _PLAN = None


def current() -> ChaosPlan | None:
    return _PLAN


@contextmanager
def active(plan: ChaosPlan) -> Iterator[ChaosPlan]:
    """Scoped installation, restoring the previous plan on exit."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = previous


def _claim_once(plan: ChaosPlan, kind: str, key: str) -> bool:
    """Whether this injection may fire (claims the at-most-once marker).

    Without a marker dir every evaluation fires.  With one, the first
    process to atomically create the marker wins; everyone else (and
    every retry) sees the injection as already spent.
    """
    if plan.marker_dir is None:
        return True
    token = hashlib.blake2b(f"{kind}:{key}".encode(),
                            digest_size=8).hexdigest()
    marker = Path(plan.marker_dir) / f"fired_{kind}_{token}"
    try:
        marker.parent.mkdir(parents=True, exist_ok=True)
        with open(marker, "x"):
            return True
    except FileExistsError:
        return False
    except OSError:
        return False  # degraded marker I/O: do not fire, do not crash


def on_unit_start(x: float, seed: int) -> None:
    """Chaos hook before one (cell, seed) unit's suite runs."""
    plan = _PLAN
    if plan is None:
        return
    key = f"{x!r}:{seed}"
    if (plan.crash is not None
            and _draw(plan.seed, _CRASH_SALT, key) < plan.crash.probability
            and _claim_once(plan, "crash", key)):
        os._exit(plan.crash.exit_code)
    if (plan.hang is not None
            and _draw(plan.seed, _HANG_SALT, key) < plan.hang.probability
            and _claim_once(plan, "hang", key)):
        if plan.hang.block_alarm:
            previous = signal.pthread_sigmask(
                signal.SIG_BLOCK, {signal.SIGALRM})
            try:
                time.sleep(plan.hang.duration)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, previous)
        else:
            time.sleep(plan.hang.duration)


def on_artifact_write(kind: str, path: str | Path) -> None:
    """Chaos hook before an artifact write (cache entry, checkpoint)."""
    plan = _PLAN
    if plan is None or plan.write_error is None:
        return
    key = f"{kind}:{Path(path).name}"
    if (_draw(plan.seed, _WRITE_SALT, key) < plan.write_error.probability
            and _claim_once(plan, "write", key)):
        code = plan.write_error.errno_code
        raise OSError(code, f"chaos: injected {os.strerror(code)} "
                            f"writing {kind} {path}")
