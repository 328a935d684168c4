"""Per-sweep run manifests: how a result was actually produced.

A :class:`RunManifest` is one JSON file written next to a sweep's
checkpoints (or into ``repro run --telemetry-dir``) recording the
sweep's **spec fingerprint** (the same parameter dict the checkpointer
embeds, plus the workload id and worker count), per-phase wall/CPU
times, the telemetry counters and histograms the sweep produced
(cache hits/misses/corrupt entries, retries, checkpoint writes, engine
totals), per-worker chunk accounting and the derived worker
utilization, a fault-plan summary, and the code epoch / git revision —
so every figure in ``results/`` traces back to exactly how it was
computed.

Loading is strict where it matters: a manifest with an unknown schema,
or one whose fingerprint does not match the sweep you claim it
describes (:meth:`RunManifest.check_fingerprint`), raises
:class:`~repro.errors.ExperimentError` instead of silently narrating
the wrong run.  ``repro stats <manifest>`` renders the file for
humans (:func:`render_manifest`).
"""

from __future__ import annotations

import datetime as _dt
import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ExperimentError

#: Bumped when the manifest layout changes; loaders refuse newer files.
#: 2: added the ``audit`` block (spot-audit coverage and violations).
#: 3: added the ``resilience`` block (configured timeout/failure
#:    policy, pool rebuilds, watchdog kills, unit timeouts,
#:    quarantined units, self-healed cache shards, degraded writes,
#:    drain requests).
#: 4: added the ``progress`` block — the live progress stream's
#:    terminal summary (units/computed/cached/resumed/quarantined/
#:    cells, DESIGN.md §14), equal by construction to the stream's
#:    ``sweep.done`` event.
#: 5: added the ``profile`` block — the phase timers' time budget
#:    (compute/slack/policy/cache/ipc/idle/supervision attribution
#:    summing to attributed wall time, per-phase self/total times,
#:    sampling summary; DESIGN.md §9), present when the sweep ran
#:    with the timers on, ``null`` otherwise.
MANIFEST_SCHEMA = 5


def git_revision(repo_dir: str | Path | None = None) -> str:
    """Short git revision of *repo_dir* (or cwd); "unknown" off-tree."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_dir, capture_output=True, text=True,
            check=True, timeout=5).stdout.strip()
    except Exception:
        return "unknown"


@dataclass
class RunManifest:
    """Everything needed to audit one sweep run."""

    label: str
    fingerprint: dict
    phases: dict[str, dict] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    histograms: dict[str, dict] = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    workers: dict = field(default_factory=dict)
    faults: dict | None = None
    audit: dict | None = None
    resilience: dict | None = None
    progress: dict | None = None
    profile: dict | None = None
    code_epoch: str = ""
    git_rev: str = ""
    created: str = ""
    schema: int = MANIFEST_SCHEMA

    def __post_init__(self) -> None:
        if not self.created:
            self.created = _dt.datetime.now().isoformat(timespec="seconds")
        if not self.code_epoch:
            from repro import __version__
            self.code_epoch = __version__

    # -- derived -------------------------------------------------------

    def cache_hit_rate(self) -> float | None:
        hits = self.cache.get("hits", 0)
        misses = self.cache.get("misses", 0)
        if hits + misses == 0:
            return None
        return hits / (hits + misses)

    def worker_utilization(self) -> float | None:
        """Fraction of the pool's capacity spent running suites.

        ``sum(worker busy) / (pool size * compute-phase wall)`` — the
        denominator is parent wall clock, so a fully-cached sweep (no
        dispatch at all) reports ``None`` rather than 0/0.
        """
        stats = self.workers.get("per_worker", {})
        pool = self.workers.get("pool_workers", 0)
        wall = (self.phases.get("sweep.compute") or {}).get("wall_s", 0.0)
        if not stats or not pool or wall <= 0:
            return None
        busy = sum(w.get("busy_s", 0.0) for w in stats.values())
        return busy / (pool * wall)

    # -- (de)serialisation ---------------------------------------------

    def to_payload(self) -> dict:
        return {
            "kind": "run-manifest",
            "schema": self.schema,
            "label": self.label,
            "created": self.created,
            "code_epoch": self.code_epoch,
            "git_rev": self.git_rev,
            "fingerprint": self.fingerprint,
            "phases": self.phases,
            "counters": self.counters,
            "histograms": self.histograms,
            "cache": self.cache,
            "workers": self.workers,
            "faults": self.faults,
            "audit": self.audit,
            "resilience": self.resilience,
            "progress": self.progress,
            "profile": self.profile,
        }

    def write(self, path: str | Path) -> Path:
        """Atomic write (temp + rename), like every sweep artifact."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(self.to_payload(), indent=2,
                                  sort_keys=True) + "\n")
        tmp.replace(path)
        return path

    @classmethod
    def from_payload(cls, payload: Mapping) -> "RunManifest":
        kind = payload.get("kind") if isinstance(payload, Mapping) else None
        if kind != "run-manifest":
            raise ExperimentError(f"not a run manifest (kind={kind!r})")
        try:
            schema = int(payload.get("schema", -1))
        except (TypeError, ValueError) as exc:
            raise ExperimentError(
                f"manifest schema {payload.get('schema')!r} is not an "
                f"integer") from exc
        if schema > MANIFEST_SCHEMA:
            raise ExperimentError(
                f"manifest schema {schema} is newer than this build "
                f"understands ({MANIFEST_SCHEMA})")
        blocks = {name: _block(payload, name, {})
                  for name in _MAPPING_BLOCKS}
        blocks.update({name: _block(payload, name, None)
                       for name in _OPTIONAL_BLOCKS})
        for name, value in blocks["counters"].items():
            if type(value) is not int:
                raise ExperimentError(
                    f"manifest counter {name!r} is {value!r}, not an "
                    f"integer")
        return cls(
            label=str(payload.get("label", "")),
            code_epoch=str(payload.get("code_epoch", "")),
            git_rev=str(payload.get("git_rev", "")),
            created=str(payload.get("created", "")),
            schema=schema,
            **blocks,
        )

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise ExperimentError(f"cannot read manifest {path}: {exc}") \
                from exc
        except json.JSONDecodeError as exc:
            raise ExperimentError(f"manifest {path} is not valid JSON: "
                                  f"{exc}") from exc
        return cls.from_payload(payload)

    def check_fingerprint(self, expected: Mapping) -> None:
        """Refuse to describe a sweep this manifest was not cut from."""
        mismatched = fingerprint_drift(self.fingerprint, expected)
        if mismatched:
            raise ExperimentError(
                f"manifest fingerprint mismatch on "
                f"{', '.join(mismatched)}: manifest was produced by a "
                f"different sweep (have {self.fingerprint!r}, expected "
                f"{dict(expected)!r})")


#: Blocks a manifest always has (an absent one loads empty), and blocks
#: that may be ``null``.
_MAPPING_BLOCKS = ("fingerprint", "phases", "counters", "histograms",
                   "cache", "workers")
_OPTIONAL_BLOCKS = ("faults", "audit", "resilience", "progress", "profile")


def _block(payload: Mapping, name: str, default: dict | None) -> dict | None:
    """A copy of block *name* of a manifest payload, *default* when it is
    absent, ``None`` when it is ``null`` and may be."""
    value = payload.get(name, default)
    if value is None and default is None:
        return None
    if not isinstance(value, Mapping):
        raise ExperimentError(
            f"manifest block {name!r} is {type(value).__name__}, not an "
            f"object")
    return dict(value)


def fingerprint_drift(a: Mapping, b: Mapping) -> list[str]:
    """The spec keys whose values differ between two fingerprints."""
    return sorted(key for key in set(a) | set(b) if a.get(key) != b.get(key))


def next_manifest_path(directory: str | Path, label: str) -> Path:
    """The next free ``manifest_<label>_<n>.json`` in *directory*."""
    directory = Path(directory)
    safe = "".join(c if c.isalnum() or c in "._-" else "-"
                   for c in label) or "sweep"
    n = 1
    while True:
        path = directory / f"manifest_{safe}_{n:03d}.json"
        if not path.exists():
            return path
        n += 1


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def render_manifest(manifest: RunManifest) -> str:
    """ASCII rendering for ``repro stats``."""
    lines = [
        f"run manifest: {manifest.label}",
        f"  created {manifest.created}  code-epoch {manifest.code_epoch}"
        f"  rev {manifest.git_rev or 'unknown'}",
        "  fingerprint:",
    ]
    for key in sorted(manifest.fingerprint):
        lines.append(f"    {key:<14} {_fmt(manifest.fingerprint[key])}")
    if manifest.phases:
        lines.append("  phases:")
        for name in sorted(manifest.phases):
            phase = manifest.phases[name]
            lines.append(
                f"    {name:<16} wall {phase.get('wall_s', 0.0):8.3f}s  "
                f"cpu {phase.get('cpu_s', 0.0):8.3f}s  "
                f"x{phase.get('count', 0)}")
    if manifest.cache:
        rate = manifest.cache_hit_rate()
        lines.append(
            f"  cache: hits={manifest.cache.get('hits', 0)} "
            f"misses={manifest.cache.get('misses', 0)} "
            f"writes={manifest.cache.get('writes', 0)} "
            f"corrupt={manifest.cache.get('corrupt', 0)}"
            + (f"  hit-rate {rate:.1%}" if rate is not None else ""))
    per_worker = manifest.workers.get("per_worker", {})
    if per_worker:
        util = manifest.worker_utilization()
        lines.append(
            f"  workers: pool={manifest.workers.get('pool_workers')} "
            f"used={len(per_worker)}"
            + (f"  utilization {util:.1%}" if util is not None else ""))
        for pid in sorted(per_worker, key=int):
            w = per_worker[pid]
            lines.append(f"    pid {pid:<8} chunks={w.get('chunks', 0):<4} "
                         f"units={w.get('units', 0):<5} "
                         f"busy={w.get('busy_s', 0.0):.3f}s")
    if manifest.faults:
        rendered = ", ".join(f"{k}={_fmt(v)}"
                             for k, v in sorted(manifest.faults.items()))
        lines.append(f"  faults: {rendered}")
    if manifest.audit:
        rendered = ", ".join(f"{k}={_fmt(v)}"
                             for k, v in sorted(manifest.audit.items()))
        lines.append(f"  audit: {rendered}")
    if manifest.resilience:
        lines.append("  resilience:")
        for key in sorted(manifest.resilience):
            value = manifest.resilience[key]
            lines.append(f"    {key:<18} "
                         f"{_fmt(value) if value is not None else '-'}")
    if manifest.progress:
        p = manifest.progress
        lines.append(
            f"  progress: {p.get('done', 0)}/{p.get('units', 0)} units "
            f"(computed={p.get('computed', 0)} "
            f"cached={p.get('cached', 0)} "
            f"resumed={p.get('resumed', 0)} "
            f"quarantined={p.get('quarantined', 0)})  "
            f"cells {p.get('cells_done', 0)}/{p.get('cells', 0)}")
        if p.get("stream"):
            lines.append(f"    stream {p['stream']}")
    if manifest.profile:
        from repro.profiling.report import render_budget
        lines.append("  profile:")
        lines.extend(f"    {line}"
                     for line in render_budget(manifest.profile).splitlines())
    if manifest.counters:
        lines.append("  counters:")
        for name in sorted(manifest.counters):
            lines.append(f"    {name:<32} {manifest.counters[name]}")
    if manifest.histograms:
        lines.append("  histograms:")
        for name in sorted(manifest.histograms):
            h = manifest.histograms[name]
            count = h.get("count", 0)
            mean = h.get("total", 0.0) / count if count else 0.0
            lines.append(
                f"    {name:<32} n={count} mean={mean:g} "
                f"min={_fmt(h.get('min'))} max={_fmt(h.get('max'))}")
    return "\n".join(lines)
