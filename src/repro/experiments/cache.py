"""Persistent content-addressed cache of completed suite results.

A sweep is a pure function of its seeds: one **(cell, seed) suite** is
fully determined by the workload, the parameter value ``x``, the seed,
the policy set, the run scalars and the fault plan.  This module gives
that purity teeth — every completed suite is summarised into the exact
aggregate :class:`~repro.experiments.runner.SweepCell` consumes
(:class:`PolicySummary` per policy) and persisted under a SHA-256
fingerprint of everything that determines it, so re-running a sweep —
or a *different* sweep sharing cells, or the same sweep after a crash
on another machine — replays cache hits instead of re-simulating.

The fingerprint (:func:`suite_fingerprint`) covers:

* a caller-supplied **workload id** naming the workload closure and any
  parameterisation not captured by the keyed scalars (figure drivers
  pass e.g. ``"EXP-F1:u:n=8:bcwc=0.5"``; anything that changes the
  workload, the processor factory or the policy factory MUST change
  the id — closures cannot be hashed, so this is the caller's contract);
* the sweep scalars: ``x``, ``seed``, the policy name list, ``horizon``,
  ``overhead_aware``, ``allow_misses``;
* the full fault plan for the unit (``dataclasses.asdict`` of the
  seeded :class:`~repro.faults.FaultPlan`, or ``None``);
* a **code epoch** — by default :func:`default_code_epoch`, the package
  version, a SHA-256 over the sources that determine results and the
  numpy version — so any edit to the simulator, a policy, the analysis,
  the processor or task models, the fault layer, the shared epsilons
  or the experiment layer, or a numpy upgrade, invalidates every entry
  at once.

Entries are one JSON file each, sharded by the first two hex digits,
written atomically (temp file + rename) so a killed run never leaves a
readable-but-corrupt entry; unreadable entries read as misses and are
recomputed.  Because :class:`PolicySummary` floats round-trip exactly
through JSON, a cache-hit replay folds into byte-identical cells —
``tests/test_cell_cache.py`` pins that against serial cold runs.

The cache also degrades instead of dying (DESIGN.md §11): a *corrupt*
entry is unlinked on detection (self-healed — it would otherwise
re-hit, and re-count ``cache.corrupt``, on every subsequent run), and
a *failing write* (ENOSPC, permissions) switches the cache to
read-only with a single warning rather than crashing the sweep —
results are recomputed, never lost.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.experiments import chaos as _chaos
from repro.telemetry import TELEMETRY as _TELEMETRY

if TYPE_CHECKING:
    from repro.faults import FaultPlan

#: Bumped whenever the entry layout or fingerprint payload changes;
#: part of the fingerprint, so old caches read as misses, not errors.
CACHE_SCHEMA = 1

#: The ``repro`` package directory, whose result-determining
#: sources the code epoch hashes.
PACKAGE_ROOT = Path(__file__).resolve().parents[1]

#: Modules and subpackages whose sources decide a suite's result: the
#: engine's epsilons (``types.py``), the engine, policies and models
#: (the compiled core's C source lives in ``sim/``), and the
#: experiment layer that builds and normalizes each summary.
EPOCH_SOURCES = ("types.py", "sim", "policies", "analysis", "cpu",
                 "tasks", "faults", "experiments")


@cache
def source_digest(root: Path) -> str:
    """SHA-256 over the ``.py`` and ``.c`` sources of
    :data:`EPOCH_SOURCES` under *root*, paths included.

    Memoized per root, so a process hashes its sources once, and only
    when a cache is consulted: a few milliseconds.
    """
    digest = hashlib.sha256()
    for entry in EPOCH_SOURCES:
        top = root / entry
        paths = [top] if top.is_file() else sorted(
            path for path in top.rglob("*")
            if path.suffix in (".py", ".c") and path.is_file())
        for path in paths:
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()


def default_code_epoch() -> str:
    """``"<version>+<digest prefix>"``, the digest covering the running
    sources and the numpy version, whose ``default_rng`` draws every
    task set."""
    from repro import __version__
    digest = hashlib.sha256(
        f"{source_digest(PACKAGE_ROOT)}\0numpy {np.__version__}".encode())
    return f"{__version__}+{digest.hexdigest()[:16]}"


@dataclass(frozen=True)
class PolicySummary:
    """Everything a sweep aggregates from one policy's simulation.

    The serialisable projection of one
    :class:`~repro.sim.results.SimulationResult` that
    :meth:`~repro.experiments.runner.SweepCell.record_summaries`
    consumes — and the unit of both the persistent cache and the
    worker→parent IPC of the parallel executor (returning summaries
    instead of full results keeps the per-chunk pickle tiny).
    """

    normalized: float
    misses: int
    switches: int
    overruns: int
    released: int
    interventions: int
    dispatches: int

    def to_payload(self) -> dict:
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: Mapping) -> "PolicySummary":
        return cls(
            normalized=float(payload["normalized"]),
            misses=int(payload["misses"]),
            switches=int(payload["switches"]),
            overruns=int(payload["overruns"]),
            released=int(payload["released"]),
            interventions=int(payload["interventions"]),
            dispatches=int(payload["dispatches"]),
        )


def fault_plan_payload(plan: "FaultPlan | None") -> dict | None:
    """A stable, JSON-safe rendering of a fault plan (or ``None``)."""
    return None if plan is None else asdict(plan)


def suite_fingerprint(
    *,
    workload_id: str,
    x: float,
    seed: int,
    policies: Sequence[str],
    horizon: float,
    overhead_aware: bool = False,
    allow_misses: bool = False,
    faults: "FaultPlan | None" = None,
    code_epoch: str | None = None,
) -> tuple[str, dict]:
    """Content address of one (cell, seed) suite.

    Returns ``(digest, payload)``: the SHA-256 hex digest used as the
    cache key, and the canonical payload it hashes (embedded in the
    entry for post-mortem inspection).
    """
    payload = {
        "schema": CACHE_SCHEMA,
        "code_epoch": str(code_epoch if code_epoch is not None
                          else default_code_epoch()),
        "workload_id": str(workload_id),
        "x": float(x),
        "seed": int(seed),
        "policies": [str(name) for name in policies],
        "horizon": float(horizon),
        "overhead_aware": bool(overhead_aware),
        "allow_misses": bool(allow_misses),
        "faults": fault_plan_payload(faults),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return digest, payload


class SuiteCache:
    """Directory of content-addressed suite summaries.

    ``get``/``put`` are the whole interface the sweep paths use; both
    are safe under concurrent sweeps sharing a directory (entries are
    immutable once written, writes are atomic renames, and two writers
    racing on one key write identical bytes by construction).  The
    ``hits``/``misses``/``writes`` counters make cache behaviour
    assertable in tests and visible in benchmarks.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0
        self.self_healed = 0
        self.write_errors = 0
        #: Set after the first failed write: the cache keeps serving
        #: hits but stops persisting — degraded, not dead.
        self.read_only = False

    def _path(self, digest: str) -> Path:
        return self.directory / digest[:2] / f"{digest}.json"

    def get(self, digest: str) -> dict[str, PolicySummary] | None:
        """The cached suite summaries for *digest*, or ``None``."""
        tele = _TELEMETRY
        if not tele.timers:
            return self._get(digest)
        tele.push("cache.lookup")
        try:
            return self._get(digest)
        finally:
            tele.pop()

    def _get(self, digest: str) -> dict[str, PolicySummary] | None:
        path = self._path(digest)
        try:
            text = path.read_text()
        except OSError:
            # Simply absent (or unreadable): the ordinary miss.
            self.misses += 1
            _TELEMETRY.inc("cache.misses")
            return None
        try:
            payload = json.loads(text)
            suite = payload["suite"]
            summaries = {
                str(name): PolicySummary.from_payload(fields)
                for name, fields in suite}
        except (ValueError, KeyError, TypeError):
            # Present but torn or foreign: still a miss, never an
            # error — the suite is recomputed (and rewritten) — but
            # counted separately so a corrupted cache is visible.
            # The shard itself is unlinked (self-healed): left on
            # disk it would re-hit, and re-count as corrupt, on every
            # subsequent run.
            self.misses += 1
            self.corrupt += 1
            _TELEMETRY.inc("cache.misses")
            _TELEMETRY.inc("cache.corrupt")
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass  # read-only cache dir: stay a per-run miss
            else:
                self.self_healed += 1
                _TELEMETRY.inc("cache.self_healed")
                _TELEMETRY.emit("cache.self_heal", path=str(path))
            return None
        self.hits += 1
        _TELEMETRY.inc("cache.hits")
        return summaries

    def put(self, digest: str,
            summaries: Mapping[str, PolicySummary],
            key_payload: Mapping | None = None) -> None:
        """Persist *summaries* under *digest*, atomically.

        The policy order is stored as an explicit list of pairs — it is
        the fold order :meth:`SweepCell.record_summaries` replays, so
        it must survive serialisation exactly.

        A failing write (full disk, permissions) degrades the cache to
        read-only — one warning, one ``resilience.cache_degraded``
        count — instead of killing the sweep: a cache is an
        accelerator, never a correctness dependency.
        """
        tele = _TELEMETRY
        if not tele.timers:
            return self._put(digest, summaries, key_payload)
        tele.push("cache.write")
        try:
            return self._put(digest, summaries, key_payload)
        finally:
            tele.pop()

    def _put(self, digest: str,
             summaries: Mapping[str, PolicySummary],
             key_payload: Mapping | None = None) -> None:
        if self.read_only:
            return
        path = self._path(digest)
        entry = {
            "schema": CACHE_SCHEMA,
            "key": dict(key_payload) if key_payload is not None else None,
            "suite": [[name, summary.to_payload()]
                      for name, summary in summaries.items()],
        }
        tmp = path.with_name(path.name + ".tmp")
        try:
            _chaos.on_artifact_write("cache", path)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(entry))
            tmp.replace(path)
        except OSError as exc:
            self.write_errors += 1
            self.read_only = True
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            _TELEMETRY.inc("resilience.cache_degraded")
            _TELEMETRY.emit("resilience.cache_degraded", path=str(path),
                            error=str(exc))
            print(f"warning: suite cache degraded to read-only "
                  f"({exc}); results are recomputed, not lost",
                  file=sys.stderr)
            return
        self.writes += 1
        _TELEMETRY.inc("cache.writes")

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for entry in self.directory.glob("*/*.json"):
            entry.unlink(missing_ok=True)
            removed += 1
        return removed
