"""Time-budget reports, flamegraph export, and the profile trace.

Turns a :class:`~repro.telemetry.core.Telemetry` delta (its phase
timers and samples) into the artifacts the profiling layer promises:

* :func:`profile_block` — the schema-bumped ``profile`` block attached
  to run manifests: a structural budget (compute / slack / policy /
  cache / ipc / idle / supervision) that **sums to attributed wall
  time by construction**, because each category is built from exact
  phase *self* times and self times telescope (registry docstring).
* :func:`render_budget` / :func:`render_budget_diff` /
  :func:`render_engine_run_diff` — ASCII renderings for ``repro
  stats`` and ``repro profile diff``, with per-policy tables of the
  ``engine.run.<policy>`` regions.
* :func:`write_collapsed` / :func:`render_flame` — collapsed-stack
  flamegraph output (the ``frame;frame count`` format every
  flamegraph tool ingests) and a terminal flame tree.
* :func:`chrome_profile_trace` — the phase timeline as a Chrome Trace
  Event Format document, reusing :mod:`repro.trace.chrome`'s
  conventions (microsecond ``ts``, ``X`` complete events, ``M``
  process/thread naming) but on its own pid so profile lanes sit next
  to — not on top of — schedule lanes when both are loaded.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

#: Prefix of each engine run's region, ``engine.run.<policy>``.
ENGINE_RUN_PREFIX = "engine.run."

#: Budget categories, in render order.  ``other`` catches any phase
#: name no prefix claims, so the budget always accounts for every
#: attributed nanosecond.
CATEGORY_ORDER = ("compute", "slack", "policy", "cache", "ipc",
                  "idle", "supervision", "other")

#: Longest-prefix-wins mapping from phase names to budget categories.
#: ``worker.chunk`` *self* time is chunk envelope work (spec lookup,
#: outcome packing, meta serialisation) — IPC, not compute; the
#: engine/slack work inside the chunk carries its own phases.
#: ``sweep.compute`` self time is orchestration residual (planning,
#: checkpoint loads, result folding glue) and lands in supervision.
_PREFIX_CATEGORIES = (
    ("engine.", "compute"),
    ("unit.", "compute"),
    ("slack.", "slack"),
    ("policy.", "policy"),
    ("cache.", "cache"),
    ("ipc.", "ipc"),
    ("worker.", "ipc"),
    ("pool.idle", "idle"),
    ("supervision.", "supervision"),
    ("sweep.", "supervision"),
)


def category_of(name: str) -> str:
    for prefix, category in _PREFIX_CATEGORIES:
        if name.startswith(prefix):
            return category
    return "other"


def profile_block(delta: Mapping, *, timeline_dropped: int = 0) -> dict:
    """Build the manifest ``profile`` block from a registry delta.

    ``wall_s`` is the total attributed time — the sum of every
    phase's self time, which equals the sum of root-frame totals
    across all participating processes (the parent's ``sweep.compute``
    plus each worker's ``worker.chunk``).  For a serial sweep that is
    one process and one root, so ``wall_s`` tracks the measured wall
    clock of the sweep to within instrumentation epsilon; in parallel
    it is aggregate busy time across processes, with the parent's own
    wall kept separately as ``parent_wall_s``.
    """
    phases = delta.get("phases", {})
    budget = {category: 0.0 for category in CATEGORY_ORDER}
    for name, rec in phases.items():
        budget[category_of(name)] += rec.get("self_ns", 0) / 1e9
    wall_s = sum(budget.values())
    parent = phases.get("sweep.compute") or {}
    samples = delta.get("samples", {})
    block = {
        "wall_s": wall_s,
        "parent_wall_s": parent.get("total_ns", 0) / 1e9,
        "budget": budget,
        "phases": {
            name: {"count": rec.get("count", 0),
                   "total_s": rec.get("total_ns", 0) / 1e9,
                   "self_s": rec.get("self_ns", 0) / 1e9}
            for name, rec in sorted(phases.items())
        },
        "sampling": ({"samples": sum(samples.values()),
                      "stacks": len(samples)} if samples else None),
        "timeline_dropped": timeline_dropped,
    }
    return block


def render_budget(block: Mapping, *,
                  measured_wall_s: float | None = None,
                  top: int = 8) -> str:
    """ASCII time-budget report for one profile block."""
    wall = float(block.get("wall_s", 0.0))
    budget = block.get("budget", {})
    lines = [f"time budget (attributed {wall:.3f}s"
             + (f", parent wall {block['parent_wall_s']:.3f}s"
                if block.get("parent_wall_s") else "") + "):"]
    for category in CATEGORY_ORDER:
        sec = float(budget.get(category, 0.0))
        if sec <= 0.0 and category == "other":
            continue
        share = sec / wall if wall > 0 else 0.0
        bar = "#" * int(round(share * 30))
        lines.append(f"  {category:<12} {sec:9.3f}s  {share:6.1%}  {bar}")
    if measured_wall_s is not None and measured_wall_s > 0:
        drift = abs(wall - measured_wall_s) / measured_wall_s
        lines.append(f"  measured wall {measured_wall_s:.3f}s  "
                     f"(attribution drift {drift:.1%})")
    phases = block.get("phases", {})
    if phases:
        lines.append("top phases by self time:")
        ranked = sorted(phases.items(),
                        key=lambda kv: kv[1].get("self_s", 0.0),
                        reverse=True)[:top]
        for name, rec in ranked:
            lines.append(
                f"  {name:<22} x{rec.get('count', 0):<7} "
                f"total {rec.get('total_s', 0.0):9.3f}s  "
                f"self {rec.get('self_s', 0.0):9.3f}s")
    runs = {name: rec for name, rec in phases.items()
            if name.startswith(ENGINE_RUN_PREFIX)}
    engine_s = sum(rec.get("total_s", 0.0) for rec in runs.values())
    if runs:
        lines.append("engine time per policy:")
        for name, rec in sorted(runs.items(),
                                key=lambda kv: -kv[1].get("total_s", 0.0)):
            sec = rec.get("total_s", 0.0)
            share = sec / engine_s if engine_s > 0 else 0.0
            lines.append(f"  {name:<27} x{rec.get('count', 0):<7} "
                         f"total {sec:9.3f}s  {share:6.1%}")
    sampling = block.get("sampling")
    if sampling:
        lines.append(f"sampling: {sampling.get('samples', 0)} samples "
                     f"over {sampling.get('stacks', 0)} distinct stacks")
    if block.get("timeline_dropped"):
        lines.append(f"timeline: {block['timeline_dropped']} events "
                     f"dropped past the cap")
    return "\n".join(lines)


def _engine_runs(block: Mapping) -> dict[str, float]:
    """Total seconds of each policy's ``engine.run.<policy>`` region."""
    return {name[len(ENGINE_RUN_PREFIX):]: float(rec.get("total_s", 0.0))
            for name, rec in block.get("phases", {}).items()
            if name.startswith(ENGINE_RUN_PREFIX)}


def _deltas(a: Mapping[str, float], b: Mapping[str, float],
            keys) -> dict:
    out: dict[str, dict] = {}
    for key in keys:
        va, vb = float(a.get(key, 0.0)), float(b.get(key, 0.0))
        if va == 0.0 and vb == 0.0:
            continue
        out[key] = {"a": va, "b": vb, "delta": vb - va,
                    "ratio": (vb / va) if va else None}
    return out


def diff_budgets(a: Mapping, b: Mapping) -> dict:
    """Per-category attribution deltas between two profile blocks."""
    totals_a = {**a.get("budget", {}), "wall_s": a.get("wall_s", 0.0)}
    totals_b = {**b.get("budget", {}), "wall_s": b.get("wall_s", 0.0)}
    return _deltas(totals_a, totals_b, CATEGORY_ORDER + ("wall_s",))


def diff_engine_runs(a: Mapping, b: Mapping) -> dict:
    """Per-policy ``engine.run.<policy>`` total deltas between two
    profile blocks."""
    runs_a, runs_b = _engine_runs(a), _engine_runs(b)
    return _deltas(runs_a, runs_b, sorted(runs_a.keys() | runs_b.keys()))


def _render_deltas(title: str, diff: Mapping) -> str:
    lines = [title]
    for key, entry in diff.items():
        ratio = entry.get("ratio")
        lines.append(
            f"  {key:<16} {entry['a']:9.3f}s -> {entry['b']:9.3f}s  "
            f"delta {entry['delta']:+9.3f}s"
            + (f"  x{ratio:.2f}" if ratio is not None else ""))
    return "\n".join(lines)


def render_budget_diff(diff: Mapping) -> str:
    return _render_deltas("profile attribution deltas (a -> b):", diff)


def render_engine_run_diff(diff: Mapping) -> str:
    return _render_deltas("engine time per policy (a -> b):", diff)


# -- flamegraphs -------------------------------------------------------

def write_collapsed(samples: Mapping[str, int], path: str | Path) -> Path:
    """Write collapsed-stack lines (``frame;frame;frame count``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{stack} {count}"
             for stack, count in sorted(samples.items())]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


def read_collapsed(path: str | Path) -> dict[str, int]:
    samples: dict[str, int] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, count = line.rpartition(" ")
        if not stack or not count.isdigit():
            continue
        samples[stack] = samples.get(stack, 0) + int(count)
    return samples


def render_flame(samples: Mapping[str, int], *, min_share: float = 0.01,
                 max_depth: int = 20) -> str:
    """Terminal flame tree from collapsed-stack counts."""
    total = sum(samples.values())
    if total == 0:
        return "no samples"
    root: dict = {}
    for stack, count in samples.items():
        node = root
        for frame in stack.split(";")[:max_depth]:
            node = node.setdefault(frame, {"__count__": 0})
            node["__count__"] += count

    lines = [f"flame tree ({total} samples, hiding < {min_share:.0%}):"]

    def walk(node: dict, depth: int) -> None:
        children = [(name, sub) for name, sub in node.items()
                    if name != "__count__"]
        children.sort(key=lambda kv: kv[1]["__count__"], reverse=True)
        for name, sub in children:
            share = sub["__count__"] / total
            if share < min_share:
                continue
            bar = "#" * max(1, int(round(share * 40)))
            lines.append(f"  {'  ' * depth}{share:6.1%} {name}  {bar}")
            walk(sub, depth + 1)

    walk(root, 0)
    return "\n".join(lines)


# -- Chrome trace (repro.trace.chrome conventions) ---------------------

#: Microsecond timestamps, matching ``repro.trace.chrome.TIME_SCALE``'s
#: convention that ``ts``/``dur`` are in trace microseconds.
_PROFILE_PID = 1


def chrome_profile_trace(timeline, *, origin_ns: int) -> dict:
    """Phase timeline as a Chrome Trace Event Format document.

    Same shape :mod:`repro.trace.chrome` emits (``M`` naming metadata,
    ``X`` complete events sorted by ``ts``, a ``traceEvents``
    wrapper), but on pid 1 so a profile trace merged with a schedule
    trace (pid 0) renders as adjacent lanes in Perfetto.
    """
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": _PROFILE_PID, "tid": 0,
         "args": {"name": "repro profile"}},
        {"name": "thread_name", "ph": "M", "pid": _PROFILE_PID, "tid": 0,
         "args": {"name": "phases"}},
        {"name": "thread_sort_index", "ph": "M", "pid": _PROFILE_PID,
         "tid": 0, "args": {"sort_index": 0}},
    ]
    for name, start_ns, end_ns, depth in timeline:
        events.append({
            "name": name,
            "cat": "profile",
            "ph": "X",
            "ts": (start_ns - origin_ns) / 1e3,
            "dur": max(end_ns - start_ns, 0) / 1e3,
            "pid": _PROFILE_PID,
            "tid": 0,
            "args": {"depth": depth},
        })
    events.sort(key=lambda event: event.get("ts", 0.0))
    return {"traceEvents": events}


def export_chrome_profile(registry, path: str | Path) -> Path:
    """Write *registry*'s phase timeline as a Chrome trace; its
    ``otherData.timeline_dropped`` counts the events past the cap."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = chrome_profile_trace(registry.timeline_events(),
                                   origin_ns=registry.origin_ns)
    payload["otherData"] = {"timeline_dropped": registry.timeline_dropped}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
    return path
