"""Cross-run registry: a sharded on-disk index of completed runs.

Run manifests answer "how was *this* result produced"; nothing so far
answers "what runs exist, and how does today's compare to last
week's".  The :class:`RunRegistry` closes that gap: every completed
sweep manifest is folded into one compact **run record** — identity,
fingerprint digest, timing, cache and progress summaries, energy/miss
proxies — and persisted under a two-level sharded layout::

    <registry>/runs/<shard>/<run_id>.json

where ``run_id = <created-compact>-<fingerprint-digest-prefix>`` and
``shard`` is the digest prefix's first two hex chars, so a registry
with thousands of runs never puts them all in one directory and two
ingests of the same run land on the same path (idempotent by
construction).

Ingest happens two ways: explicitly (``repro runs ingest``) and
automatically — :meth:`RunManifest.write
<repro.telemetry.manifest.RunManifest.write>` offers every manifest it
writes to :func:`ingest_written_manifest`, which is a no-op unless a
registry is configured via ``repro run --registry-dir`` /
``REPRO_REGISTRY_DIR`` (:func:`set_registry_dir`).  The hook is
best-effort: a broken registry never fails a sweep.

Queries (``repro runs list|show|compare|gc``) filter by workload,
policy, fingerprint-digest prefix and date; :func:`compare_records`
diffs two runs' energy/miss/timing summaries and flags **fingerprint
drift** — keys whose values differ between the two runs' sweep specs —
so "why is this run slower/hungrier" starts from what actually
changed.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import ExperimentError
from repro.telemetry.manifest import RunManifest

#: Bumped when the record layout changes; loaders skip newer records.
REGISTRY_SCHEMA = 1

#: Engine counters a run record keeps for cross-run comparison — the
#: behavioural fingerprint of a sweep, small enough to store per run.
_KEPT_COUNTERS = (
    "engine.runs", "engine.steps", "engine.dispatches",
    "engine.misses", "engine.overruns", "engine.speed_switches",
    "sweep.retries", "resilience.quarantined",
    "resilience.pool_rebuilds", "resilience.watchdog_kills",
)

#: How many digest hex chars the run id carries.
_DIGEST_PREFIX = 10


def fingerprint_digest(fingerprint: Mapping | None) -> str:
    """Stable digest of a sweep's spec fingerprint."""
    payload = json.dumps(fingerprint or {}, sort_keys=True,
                         default=str)
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


def _compact_ts(created: str) -> str:
    """``2026-08-08T12:15:30`` → ``20260808T121530`` (sortable id part).

    Falls back to the raw string stripped to id-safe chars when the
    timestamp does not parse — ids must be constructible from any
    manifest we can load.
    """
    try:
        ts = _dt.datetime.fromisoformat(created)
        return ts.strftime("%Y%m%dT%H%M%S")
    except ValueError:
        return re.sub(r"[^0-9A-Za-z]", "", created) or "unknown"


@dataclass
class RunRecord:
    """One registry entry: the comparable summary of one run."""

    run_id: str
    #: "sweep"; a registry may also hold records of kinds older
    #: versions wrote ("bench"), which load, list and gc like any other.
    kind: str
    label: str
    created: str
    fingerprint_digest: str
    fingerprint: dict = field(default_factory=dict)
    workload_id: str | None = None
    policies: list[str] = field(default_factory=list)
    git_rev: str = ""
    code_epoch: str = ""
    wall_s: float | None = None
    cache: dict = field(default_factory=dict)
    progress: dict | None = None
    counters: dict[str, int] = field(default_factory=dict)
    #: Mean dispatch speed per policy (from the ``policy.<p>.speed``
    #: histograms) — the energy proxy manifests actually carry: lower
    #: mean speed at equal misses means more slack reclaimed.
    mean_speed: dict[str, float] = field(default_factory=dict)
    misses: dict[str, Any] = field(default_factory=dict)
    #: Projected ``profile`` block (schema-5 manifests): attributed
    #: wall and the category budget, so ``repro runs compare`` can
    #: show attribution deltas.  Additive — absent in older records.
    profile: dict | None = None
    source: str = ""
    schema: int = REGISTRY_SCHEMA

    def to_payload(self) -> dict:
        return {
            "kind": "run-record",
            "schema": self.schema,
            "run_id": self.run_id,
            "run_kind": self.kind,
            "label": self.label,
            "created": self.created,
            "fingerprint_digest": self.fingerprint_digest,
            "fingerprint": self.fingerprint,
            "workload_id": self.workload_id,
            "policies": self.policies,
            "git_rev": self.git_rev,
            "code_epoch": self.code_epoch,
            "wall_s": self.wall_s,
            "cache": self.cache,
            "progress": self.progress,
            "counters": self.counters,
            "mean_speed": self.mean_speed,
            "misses": self.misses,
            "profile": self.profile,
            "source": self.source,
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "RunRecord":
        if payload.get("kind") != "run-record":
            raise ExperimentError(
                f"not a run record (kind={payload.get('kind')!r})")
        schema = int(payload.get("schema", -1))
        if schema > REGISTRY_SCHEMA:
            raise ExperimentError(
                f"run record schema {schema} is newer than this build "
                f"understands ({REGISTRY_SCHEMA})")
        return cls(
            run_id=str(payload["run_id"]),
            kind=str(payload.get("run_kind", "sweep")),
            label=str(payload.get("label", "")),
            created=str(payload.get("created", "")),
            fingerprint_digest=str(payload.get("fingerprint_digest", "")),
            fingerprint=dict(payload.get("fingerprint", {})),
            workload_id=payload.get("workload_id"),
            policies=list(payload.get("policies", [])),
            git_rev=str(payload.get("git_rev", "")),
            code_epoch=str(payload.get("code_epoch", "")),
            wall_s=payload.get("wall_s"),
            cache=dict(payload.get("cache", {})),
            progress=payload.get("progress"),
            counters={k: int(v)
                      for k, v in payload.get("counters", {}).items()},
            mean_speed={k: float(v)
                        for k, v in payload.get("mean_speed",
                                                {}).items()},
            misses=dict(payload.get("misses", {})),
            profile=payload.get("profile"),
            source=str(payload.get("source", "")),
            schema=schema,
        )

    def cache_hit_rate(self) -> float | None:
        hits = self.cache.get("hits", 0)
        misses = self.cache.get("misses", 0)
        if hits + misses == 0:
            return None
        return hits / (hits + misses)


def record_from_manifest(manifest: RunManifest,
                         path: str | Path | None = None) -> RunRecord:
    """Project one run manifest into its registry record."""
    digest = fingerprint_digest(manifest.fingerprint)
    run_id = (f"{_compact_ts(manifest.created)}-"
              f"{digest[:_DIGEST_PREFIX]}")
    mean_speed: dict[str, float] = {}
    for name, histogram in manifest.histograms.items():
        match = re.fullmatch(r"policy\.(.+)\.speed", name)
        if match and histogram.get("count"):
            mean_speed[match.group(1)] = (histogram["total"]
                                          / histogram["count"])
    policies = [str(p) for p in
                manifest.fingerprint.get("policies") or []]
    return RunRecord(
        run_id=run_id,
        kind="sweep",
        label=manifest.label,
        created=manifest.created,
        fingerprint_digest=digest,
        fingerprint=dict(manifest.fingerprint),
        workload_id=manifest.fingerprint.get("workload_id"),
        policies=policies,
        git_rev=manifest.git_rev,
        code_epoch=manifest.code_epoch,
        wall_s=(manifest.phases.get("sweep.compute")
                or {}).get("wall_s"),
        cache=dict(manifest.cache),
        progress=(dict(manifest.progress)
                  if manifest.progress else None),
        counters={name: manifest.counters[name]
                  for name in _KEPT_COUNTERS
                  if name in manifest.counters},
        mean_speed=mean_speed,
        misses={"engine.misses": manifest.counters.get(
            "engine.misses", 0)},
        profile=({"wall_s": manifest.profile.get("wall_s"),
                  "parent_wall_s": manifest.profile.get("parent_wall_s"),
                  "budget": dict(manifest.profile.get("budget", {}))}
                 if manifest.profile else None),
        source=str(path) if path is not None else "",
    )


class RunRegistry:
    """The sharded on-disk index of run records."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.runs_dir = self.directory / "runs"
        self.runs_dir.mkdir(parents=True, exist_ok=True)

    def _path(self, record: RunRecord) -> Path:
        shard = record.fingerprint_digest[:2] or "00"
        return self.runs_dir / shard / f"{record.run_id}.json"

    # -- ingest --------------------------------------------------------

    def add(self, record: RunRecord) -> Path:
        """Persist one record (atomic, idempotent by run id)."""
        path = self._path(record)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(record.to_payload(), indent=2,
                                  sort_keys=True) + "\n")
        tmp.replace(path)
        return path

    def ingest_manifest(self, path: str | Path) -> RunRecord:
        manifest = RunManifest.load(path)
        record = record_from_manifest(manifest, path)
        self.add(record)
        return record

    def ingest_path(self, path: str | Path) -> list[RunRecord]:
        """Ingest a manifest, or every manifest under a directory."""
        path = Path(path)
        if path.is_dir():
            return [self.ingest_manifest(candidate) for candidate
                    in sorted(path.glob("**/manifest_*.json"))]
        return [self.ingest_manifest(path)]

    # -- query ---------------------------------------------------------

    def records(self) -> Iterable[RunRecord]:
        for path in sorted(self.runs_dir.glob("*/*.json")):
            try:
                yield RunRecord.from_payload(
                    json.loads(path.read_text()))
            except (OSError, ValueError, KeyError, ExperimentError):
                continue  # a torn or foreign file is not worth dying over

    def list(self, *, workload: str | None = None,
             policy: str | None = None,
             fingerprint: str | None = None,
             since: str | None = None) -> list[RunRecord]:
        """Query records, newest first."""
        results = []
        for record in self.records():
            if workload is not None and workload not in (
                    record.workload_id or record.label):
                continue
            if policy is not None and policy not in record.policies:
                continue
            if fingerprint is not None and \
                    not record.fingerprint_digest.startswith(fingerprint):
                continue
            if since is not None and record.created < since:
                continue
            results.append(record)
        results.sort(key=lambda r: (r.created, r.run_id), reverse=True)
        return results

    def get(self, run_id: str) -> RunRecord:
        """Resolve a full or unambiguous-prefix run id."""
        matches = [record for record in self.records()
                   if record.run_id.startswith(run_id)]
        if not matches:
            raise ExperimentError(
                f"no run {run_id!r} in registry {self.directory}")
        if len(matches) > 1:
            ids = ", ".join(sorted(r.run_id for r in matches)[:5])
            raise ExperimentError(
                f"run id {run_id!r} is ambiguous: {ids}")
        return matches[0]

    def gc(self, *, keep: int) -> int:
        """Drop all but the newest *keep* records; returns removed count."""
        if keep < 0:
            raise ExperimentError(f"keep must be >= 0, got {keep}")
        records = self.list()
        removed = 0
        for record in records[keep:]:
            try:
                self._path(record).unlink()
                removed += 1
            except OSError:
                continue
        # Sweep up emptied shards so gc leaves no husk directories.
        for shard in self.runs_dir.glob("*"):
            try:
                shard.rmdir()
            except OSError:
                pass
        return removed


# -- compare -----------------------------------------------------------


def compare_records(a: RunRecord, b: RunRecord) -> dict:
    """Structured diff of two run records (a = baseline, b = candidate).

    Flags fingerprint drift (keys whose spec values differ), and diffs
    wall time, cache hit rate, progress counts, kept engine counters
    and per-policy mean dispatch speed.  The rendering lives in
    :func:`render_compare`.
    """
    drift = sorted(
        key for key in set(a.fingerprint) | set(b.fingerprint)
        if a.fingerprint.get(key) != b.fingerprint.get(key))

    def delta(x: float | None, y: float | None) -> dict | None:
        if x is None or y is None:
            return None
        out = {"a": x, "b": y, "delta": y - x}
        if x:
            out["ratio"] = y / x
        return out

    counters = {}
    for name in sorted(set(a.counters) | set(b.counters)):
        va, vb = a.counters.get(name, 0), b.counters.get(name, 0)
        if va != vb:
            counters[name] = {"a": va, "b": vb, "delta": vb - va}
    speeds = {}
    for name in sorted(set(a.mean_speed) | set(b.mean_speed)):
        entry = delta(a.mean_speed.get(name), b.mean_speed.get(name))
        if entry is not None:
            speeds[name] = entry
    progress = {}
    for name in ("units", "done", "computed", "cached", "resumed",
                 "quarantined"):
        va = (a.progress or {}).get(name)
        vb = (b.progress or {}).get(name)
        if va is not None or vb is not None:
            progress[name] = {"a": va, "b": vb}
    profile = {}
    budget_a = (a.profile or {}).get("budget", {})
    budget_b = (b.profile or {}).get("budget", {})
    for name in sorted(set(budget_a) | set(budget_b)):
        entry = delta(budget_a.get(name), budget_b.get(name))
        if entry is not None and (entry["a"] or entry["b"]):
            profile[name] = entry
    if a.profile or b.profile:
        entry = delta((a.profile or {}).get("wall_s"),
                      (b.profile or {}).get("wall_s"))
        if entry is not None:
            profile["attributed_wall_s"] = entry
    return {
        "a": a.run_id,
        "b": b.run_id,
        "same_fingerprint": a.fingerprint_digest == b.fingerprint_digest,
        "fingerprint_drift": drift,
        "wall_s": delta(a.wall_s, b.wall_s),
        "cache_hit_rate": delta(a.cache_hit_rate(),
                                b.cache_hit_rate()),
        "progress": progress,
        "counters": counters,
        "mean_speed": speeds,
        "profile": profile,
    }


# -- rendering ---------------------------------------------------------


def render_records(records: list[RunRecord]) -> str:
    if not records:
        return "no runs in the registry"
    lines = [f"{'run id':<28} {'kind':<6} {'label':<22} "
             f"{'rev':<9} {'wall':>8}  notes"]
    for record in records:
        wall = (f"{record.wall_s:.2f}s"
                if record.wall_s is not None else "-")
        notes = []
        rate = record.cache_hit_rate()
        if rate is not None:
            notes.append(f"hit-rate {rate:.0%}")
        if record.progress:
            p = record.progress
            notes.append(f"{p.get('done', 0)}/{p.get('units', 0)} units")
            if p.get("quarantined"):
                notes.append(f"{p['quarantined']} quarantined")
        lines.append(
            f"{record.run_id:<28} {record.kind:<6} "
            f"{record.label[:22]:<22} {record.git_rev[:9]:<9} "
            f"{wall:>8}  {', '.join(notes)}")
    return "\n".join(lines)


def render_record(record: RunRecord) -> str:
    lines = [
        f"run {record.run_id} ({record.kind})",
        f"  label      {record.label}",
        f"  created    {record.created}   rev {record.git_rev or '-'}"
        f"   epoch {record.code_epoch or '-'}",
        f"  digest     {record.fingerprint_digest}",
        f"  source     {record.source or '-'}",
    ]
    if record.fingerprint:
        lines.append("  fingerprint:")
        for key in sorted(record.fingerprint):
            lines.append(f"    {key:<14} {record.fingerprint[key]}")
    if record.wall_s is not None:
        lines.append(f"  wall       {record.wall_s:.3f}s")
    rate = record.cache_hit_rate()
    if rate is not None:
        lines.append(f"  cache      hit-rate {rate:.1%} "
                     f"({record.cache.get('hits', 0)} hits / "
                     f"{record.cache.get('misses', 0)} misses)")
    if record.progress:
        p = record.progress
        lines.append(
            f"  progress   {p.get('done', 0)}/{p.get('units', 0)} units"
            f" (computed={p.get('computed', 0)}"
            f" cached={p.get('cached', 0)}"
            f" resumed={p.get('resumed', 0)}"
            f" quarantined={p.get('quarantined', 0)})")
    if record.mean_speed:
        rendered = "  ".join(f"{name}={value:.4f}" for name, value
                             in sorted(record.mean_speed.items()))
        lines.append(f"  mean dispatch speed: {rendered}")
    if record.profile:
        budget = record.profile.get("budget", {})
        top = [f"{name}={sec:.2f}s" for name, sec
               in sorted(budget.items(), key=lambda kv: -kv[1])[:3]
               if sec]
        lines.append(
            f"  profile    attributed "
            f"{record.profile.get('wall_s') or 0.0:.3f}s"
            + (f"  ({'  '.join(top)})" if top else ""))
    if record.counters:
        lines.append("  counters:")
        for name in sorted(record.counters):
            lines.append(f"    {name:<32} {record.counters[name]}")
    return "\n".join(lines)


def render_compare(diff: Mapping) -> str:
    lines = [f"compare {diff['a']} (a) -> {diff['b']} (b)"]
    if diff["same_fingerprint"]:
        lines.append("  fingerprint: identical")
    elif diff["fingerprint_drift"]:
        lines.append("  FINGERPRINT DRIFT: "
                     + ", ".join(diff["fingerprint_drift"]))
    else:
        lines.append("  fingerprint: digests differ")

    def show(name: str, entry: Mapping | None,
             fmt: str = "{:.3f}") -> None:
        if entry is None:
            return
        ratio = entry.get("ratio")
        lines.append(
            f"  {name:<18} a={fmt.format(entry['a'])} "
            f"b={fmt.format(entry['b'])} "
            f"delta={fmt.format(entry['delta'])}"
            + (f" ({ratio:.2f}x)" if ratio is not None else ""))

    show("wall_s", diff["wall_s"])
    show("cache_hit_rate", diff["cache_hit_rate"])
    for name, entry in diff["progress"].items():
        if entry["a"] != entry["b"]:
            lines.append(f"  progress.{name:<10} a={entry['a']} "
                         f"b={entry['b']}")
    for name, entry in diff["counters"].items():
        lines.append(f"  {name:<28} a={entry['a']} b={entry['b']} "
                     f"delta={entry['delta']:+d}")
    for name, entry in diff["mean_speed"].items():
        show(f"speed.{name}", entry, "{:.4f}")
    for name, entry in diff.get("profile", {}).items():
        show(f"profile.{name}", entry)
    if len(lines) == 2:
        lines.append("  no differences in the compared summaries")
    return "\n".join(lines)


# -- the configured default registry -----------------------------------

_DEFAULT_DIR: Path | None = None


def set_registry_dir(directory: str | Path | None) -> None:
    """Set the process-wide registry (``repro run --registry-dir``)."""
    global _DEFAULT_DIR
    _DEFAULT_DIR = Path(directory) if directory is not None else None


def default_registry_dir() -> Path | None:
    """The configured registry dir: CLI flag, else REPRO_REGISTRY_DIR."""
    if _DEFAULT_DIR is not None:
        return _DEFAULT_DIR
    env = os.environ.get("REPRO_REGISTRY_DIR")
    return Path(env) if env else None


def ingest_written_manifest(manifest: RunManifest,
                            path: Path) -> None:
    """Auto-ingest hook called by :meth:`RunManifest.write`.

    A no-op unless a registry is configured; never raises (the caller
    already swallows, but a registry problem should not even log) —
    writing the manifest is the contract, the registry is a bonus.
    """
    directory = default_registry_dir()
    if directory is None:
        return
    try:
        RunRegistry(directory).add(record_from_manifest(manifest, path))
    except Exception:
        pass
