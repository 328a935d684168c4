"""`repro watch`: render a sweep's live progress for humans.

A sweep narrates itself into its run directory's event log,
``events.jsonl`` (:mod:`repro.telemetry.progress`); this module is the
attachable read side — a separate process pointing `repro watch <dir>`
at the run directory gets a refreshing status view (overall and per-cell progress bars,
live throughput, an ETA, recent failures and quarantines, supervision
activity, and a loud stall banner when heartbeats go silent or the
writer pid dies), without touching the sweep process in any way.

Everything here is a pure function of a
:class:`~repro.telemetry.progress.ProgressSnapshot`, so the same
rendering serves `repro watch`, `repro stats --follow`, and the tests;
the ``--json`` one-shot mode skips rendering entirely and prints
:meth:`ProgressSnapshot.to_payload`.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Callable, TextIO

from repro.errors import ExperimentError
from repro.telemetry.progress import (
    ProgressSnapshot,
    read_progress,
)

#: Width of the overall progress bar; per-cell bars are narrower.
_BAR_WIDTH = 40
_CELL_BAR_WIDTH = 24

#: At most this many per-cell rows are rendered (widest sweeps first
#: collapse to the cells still in flight).
_MAX_CELL_ROWS = 12


def _bar(done: int, total: int, width: int) -> str:
    if total <= 0:
        return "-" * width
    filled = int(round(width * min(1.0, done / total)))
    return "#" * filled + "." * (width - filled)


def _fmt_duration(seconds: float | None) -> str:
    if seconds is None:
        return "?"
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def render_snapshot(snap: ProgressSnapshot) -> str:
    """One full status view of *snap*, as plain ASCII lines."""
    lines: list[str] = []
    label = snap.workload_id or "sweep"
    lines.append(
        f"{label}  [{snap.status}]  pid {snap.writer_pid}  "
        f"workers {snap.workers}")
    pct = (100.0 * snap.done / snap.units) if snap.units else 0.0
    lines.append(
        f"  [{_bar(snap.done, snap.units, _BAR_WIDTH)}] "
        f"{snap.done}/{snap.units} units ({pct:.0f}%)")
    parts = [f"computed={snap.computed}", f"cached={snap.cached}"]
    if snap.resumed:
        parts.append(f"resumed={snap.resumed}")
    if snap.quarantined:
        parts.append(f"quarantined={snap.quarantined}")
    if snap.retries:
        parts.append(f"retries={snap.retries}")
    if snap.corrupt_lines:
        parts.append(f"corrupt-lines={snap.corrupt_lines}")
    hits = snap.cached + snap.resumed
    if snap.done:
        parts.append(f"hit-rate={hits / snap.done:.0%}")
    lines.append("  " + "  ".join(parts))
    rate = (f"{snap.throughput:.1f} units/s"
            if snap.throughput else "n/a")
    if snap.finished:
        wall = (snap.updated - snap.started
                if snap.updated is not None and snap.started is not None
                else None)
        lines.append(f"  throughput {rate}  "
                     f"took {_fmt_duration(wall)}")
    else:
        lines.append(f"  throughput {rate}  "
                     f"eta {_fmt_duration(snap.eta_s)}  "
                     f"idle {_fmt_duration(snap.idle_s)}")
    if snap.heartbeat_pids:
        dead = sorted(set(snap.heartbeat_pids)
                      - set(snap.heartbeat_alive))
        beat = (f"  heartbeat: {len(snap.heartbeat_alive)}/"
                f"{len(snap.heartbeat_pids)} pids alive")
        if dead and not snap.finished:
            beat += f" (dead: {', '.join(map(str, dead))})"
        lines.append(beat)
    if snap.stalled:
        lines.append(
            f"  ** STALLED: no events for {_fmt_duration(snap.idle_s)}"
            + (" and the writer process is gone"
               if snap.writer_pid is not None
               and snap.status == "stalled" else "") + " **")
    if snap.error:
        lines.append(f"  error: {snap.error}")

    cells = snap.per_cell
    if cells:
        lines.append(f"  cells ({snap.cells_done}/{snap.cells} done):")
        rows = cells
        if len(rows) > _MAX_CELL_ROWS:
            # Prefer the cells still in flight; pad with the tail.
            in_flight = [c for c in rows if c.done < c.total]
            rows = (in_flight + [c for c in rows
                                 if c.done >= c.total])[:_MAX_CELL_ROWS]
            rows.sort(key=lambda c: c.index)
        for cell in rows:
            x = f"x={cell.x:g}" if cell.x is not None else f"#{cell.index}"
            flags = ""
            if cell.resumed:
                flags = "  (resumed)"
            elif cell.quarantined:
                flags = f"  ({cell.quarantined} quarantined)"
            lines.append(
                f"    {x:<10} "
                f"[{_bar(cell.done, cell.total, _CELL_BAR_WIDTH)}] "
                f"{cell.done}/{cell.total}{flags}")
        if len(cells) > len(rows):
            lines.append(f"    ... {len(cells) - len(rows)} more")

    if snap.resilience:
        rendered = "  ".join(f"{k}={v}" for k, v
                             in sorted(snap.resilience.items()))
        lines.append(f"  supervision: {rendered}")
    if snap.recent_failures:
        lines.append("  recent failures:")
        for failure in snap.recent_failures:
            what = failure.get("error_type") or failure.get("error") \
                or failure.get("kind")
            where = []
            if failure.get("x") is not None:
                where.append(f"x={failure['x']:g}")
            if failure.get("seed") is not None:
                where.append(f"seed={failure['seed']}")
            lines.append(f"    {failure.get('kind')}: {what}"
                         + (f" ({', '.join(where)})" if where else ""))
    return "\n".join(lines)


def watch(target: str | Path, *, interval: float = 1.0,
          once: bool = False, stall_after: float | None = None,
          out: TextIO | None = None,
          clock: Callable[[], float] = time.monotonic,
          sleep: Callable[[float], None] = time.sleep,
          max_wait: float | None = None) -> int:
    """Follow *target*'s newest sweep until it finishes (or stalls).

    Re-reads and re-renders every *interval* seconds.  On a terminal
    the view refreshes in place (ANSI home+clear); on a pipe each
    refresh is a separate block.  Returns a process exit code: 0 for a
    completed sweep, 1 when the final state is failed or stalled, 2
    when there is no readable event log.  *once* renders a single frame
    and returns.  *max_wait* (mostly for tests) bounds the total wait.
    """
    out = out if out is not None else sys.stdout
    is_tty = getattr(out, "isatty", lambda: False)()
    deadline = None if max_wait is None else clock() + max_wait
    while True:
        try:
            snap = read_progress(target, stall_after=stall_after)
        except ExperimentError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        frame = render_snapshot(snap)
        if is_tty and not once:
            out.write("\x1b[H\x1b[2J" + frame + "\n")
        else:
            out.write(frame + "\n")
        out.flush()
        if once or snap.finished:
            return 0 if snap.status == "completed" or once else 1
        if snap.stalled:
            return 1
        if deadline is not None and clock() >= deadline:
            return 1
        sleep(interval)
        if not is_tty:
            out.write("\n")
