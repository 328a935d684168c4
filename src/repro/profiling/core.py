"""Phase profiler: where a sweep's wall time actually goes.

The perf work (compiled core, warm pool) is guarded by
*ratios* — BENCH anchors say how fast, not *why*.  This module is the
"why": a disabled-by-default phase profiler with the same single-check
fast-path discipline as :mod:`repro.telemetry.core`.  Hot-path callers
guard every region with ``if PROFILER.enabled`` — one attribute load
when off — so the profiler costs nothing unless a run opts in
(``repro profile run``, ``repro run --profile``, or
``PROFILER.configure(enabled=True)`` in a script).

Two instruments live here:

* **Phase timers** — ``perf_counter_ns`` regions pushed/popped around
  the hot-path seams (engine runs, slack walks, policy decide, cache
  I/O, chunk IPC, pool idle, supervision).  Frames form a stack, and
  each pop folds *exact self time* (elapsed minus time attributed to
  child frames) into a per-name registry.  Because every nanosecond of
  a frame is either its own self time or a child's, self times
  telescope: the sum of all ``self_ns`` equals the root frames' total
  to the nanosecond, which is what lets the time-budget report
  (:mod:`repro.profiling.report`) sum to wall time by construction.
* **A stack sampler** — an opt-in daemon thread reading
  ``sys._current_frames()`` for the unit-running thread at a fixed
  interval and folding collapsed call stacks into counts, the input
  format of every flamegraph tool.

Both are fork-safe the same way telemetry is: ``snapshot()`` /
``delta_since()`` / ``merge_snapshot()`` move plain dicts across the
process boundary, workers cut a delta per chunk and ship it in the
chunk's meta envelope, and the parent folds it in — so serial and
parallel attributions are directly comparable.

Nothing here imports from the rest of repro; like the telemetry core
this module stays leaf-level so the simulator, the slack walks, and
the cache can all guard regions without import cycles.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Iterator

#: Declared overhead contract, enforced by ``scripts/profile_gate.py``:
#: with phase timers *on*, the engine anchor workload may take at most
#: this multiple of its timers-off time (min-of-N, plus a small
#: absolute noise floor the gate adds).  Timers *off* must be free —
#: that side is pinned by the existing ``engine_step`` regression
#: guard in ``bench_record.py --check``, which always runs with
#: profiling disabled against the checked-in baseline.
OVERHEAD_BUDGET = 1.5

#: Default sampling period.  5 ms keeps the sampler thread invisible
#: next to unit compute times (tens of ms) while still collecting
#: hundreds of stacks over a mini sweep.
DEFAULT_SAMPLE_INTERVAL_S = 0.005

#: Cap on recorded timeline events (Chrome trace export).  A mini
#: profiling run stays far under this; a huge sweep drops the tail and
#: counts the drops rather than growing without bound.
TIMELINE_CAP = 200_000

#: Deepest Python stack the sampler will record per sample.
_SAMPLE_MAX_DEPTH = 64


def decide_label(policy_name: str) -> str:
    """The phase name of one policy's speed decisions.

    Engines build it once per run, so profiling off costs nothing per
    dispatch; the ``policy.`` prefix keeps every policy's decisions in
    the budget's ``policy`` category.
    """
    return f"policy.decide.{policy_name}"


class StackSampler:
    """Daemon thread sampling one thread's Python stack.

    Created lazily from the thread it is meant to observe (the thread
    that runs (cell, seed) units — the main thread in the parent and
    in each forked worker), so ``threading.get_ident()`` at
    construction pins the right target.  The thread itself never
    survives a fork; :class:`PhaseProfiler` re-creates a sampler when
    the pid changes.

    Sampling only happens while at least one ``activate()`` is
    outstanding, so stacks are attributed to unit compute and not to
    pool idle or IPC plumbing.
    """

    def __init__(self, interval_s: float = DEFAULT_SAMPLE_INTERVAL_S):
        self.interval_s = max(float(interval_s), 0.0005)
        self.counts: dict[str, int] = {}
        self.samples = 0
        self._active = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._target = threading.get_ident()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profile-sampler", daemon=True)
        self._thread.start()

    def activate(self) -> None:
        with self._lock:
            self._active += 1

    def deactivate(self) -> None:
        with self._lock:
            self._active -= 1

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            if self._active > 0:
                self._sample()

    def _sample(self) -> None:
        frame = sys._current_frames().get(self._target)
        if frame is None:
            return
        parts: list[str] = []
        depth = 0
        while frame is not None and depth < _SAMPLE_MAX_DEPTH:
            code = frame.f_code
            name = getattr(code, "co_qualname", code.co_name)
            parts.append(f"{os.path.basename(code.co_filename)}:{name}")
            frame = frame.f_back
            depth += 1
        # Collapsed-stack convention: root first, frames joined by ';'.
        key = ";".join(reversed(parts))
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + 1
            self.samples += 1

    def drain(self) -> dict[str, int]:
        """Copy the folded counts (thread-safe)."""
        with self._lock:
            return dict(self.counts)


class PhaseProfiler:
    """Process-local phase-timer registry with exact self-time folding.

    The fast path is the contract: ``enabled`` is a plain attribute,
    ``False`` by default, and every instrumented seam checks it before
    doing anything else.  When enabled, a region is two
    ``perf_counter_ns`` calls and a handful of list/dict operations.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.sampling = False
        self.sample_interval_s = DEFAULT_SAMPLE_INTERVAL_S
        # name -> [count, total_ns, self_ns]
        self._phases: dict[str, list[int]] = {}
        # open frames: [name, start_ns, child_ns]
        self._stack: list[list] = []
        # merged-from-workers collapsed-stack counts
        self._samples: dict[str, int] = {}
        self._sampler: StackSampler | None = None
        self._sampler_pid: int | None = None
        self._timeline: list[tuple] | None = None
        self.timeline_dropped = 0
        self.origin_ns = perf_counter_ns()

    # -- lifecycle -----------------------------------------------------

    def configure(self, *, enabled: bool = True, timeline: bool = False,
                  sample: bool = False,
                  sample_interval_s: float = DEFAULT_SAMPLE_INTERVAL_S,
                  ) -> None:
        self.enabled = bool(enabled)
        self.sampling = bool(enabled and sample)
        self.sample_interval_s = float(sample_interval_s)
        if enabled and timeline:
            if self._timeline is None:
                self._timeline = []
                self.origin_ns = perf_counter_ns()
        elif not enabled:
            self._close_sampler()

    def reset(self) -> None:
        self._phases.clear()
        self._stack.clear()
        self._samples.clear()
        self._timeline = [] if self._timeline is not None else None
        self.timeline_dropped = 0
        self.origin_ns = perf_counter_ns()
        self._close_sampler()

    def _close_sampler(self) -> None:
        # Joining is safe even for a sampler inherited across fork():
        # the thread did not survive and threading marks it stopped.
        sampler = self._sampler
        self._sampler = None
        self._sampler_pid = None
        if sampler is not None:
            sampler.close()

    # -- phase timers --------------------------------------------------

    def push(self, name: str) -> None:
        """Open a region.  Callers must guard with ``if prof.enabled``."""
        self._stack.append([name, perf_counter_ns(), 0])

    def pop(self) -> None:
        """Close the innermost region and fold its exact self time."""
        end = perf_counter_ns()
        name, start, child_ns = self._stack.pop()
        elapsed = end - start
        rec = self._phases.get(name)
        if rec is None:
            rec = self._phases[name] = [0, 0, 0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - child_ns
        stack = self._stack
        if stack:
            stack[-1][2] += elapsed
        timeline = self._timeline
        if timeline is not None:
            if len(timeline) < TIMELINE_CAP:
                timeline.append((name, start, end, len(stack)))
            else:
                self.timeline_dropped += 1

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Region context manager for coarse (non-hot) seams."""
        if not self.enabled:
            yield
            return
        self.push(name)
        try:
            yield
        finally:
            self.pop()

    # -- sampling ------------------------------------------------------

    def _live_sampler(self) -> StackSampler:
        pid = os.getpid()
        if self._sampler is None or self._sampler_pid != pid:
            self._sampler = StackSampler(self.sample_interval_s)
            self._sampler_pid = pid
        return self._sampler

    @contextmanager
    def sample_unit(self) -> Iterator[None]:
        """Sample Python stacks while one (cell, seed) unit computes."""
        if not (self.enabled and self.sampling):
            yield
            return
        sampler = self._live_sampler()
        sampler.activate()
        try:
            yield
        finally:
            sampler.deactivate()

    # -- fork-safe folding (mirrors repro.telemetry.core) --------------

    def snapshot(self) -> dict:
        phases = {name: {"count": rec[0], "total_ns": rec[1],
                         "self_ns": rec[2]}
                  for name, rec in self._phases.items()}
        samples = dict(self._samples)
        sampler = self._sampler
        if sampler is not None and self._sampler_pid == os.getpid():
            for key, n in sampler.drain().items():
                samples[key] = samples.get(key, 0) + n
        return {"phases": phases, "samples": samples}

    def delta_since(self, before: dict) -> dict:
        now = self.snapshot()
        old_phases = before.get("phases", {})
        phases = {}
        for name, rec in now["phases"].items():
            old = old_phases.get(name, {})
            count = rec["count"] - old.get("count", 0)
            total = rec["total_ns"] - old.get("total_ns", 0)
            self_ns = rec["self_ns"] - old.get("self_ns", 0)
            if count or total:
                phases[name] = {"count": count, "total_ns": total,
                                "self_ns": self_ns}
        old_samples = before.get("samples", {})
        samples = {}
        for key, n in now["samples"].items():
            d = n - old_samples.get(key, 0)
            if d > 0:
                samples[key] = d
        return {"phases": phases, "samples": samples}

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a worker's chunk delta into this process's registry."""
        if not self.enabled:
            return
        for name, rec in snap.get("phases", {}).items():
            mine = self._phases.get(name)
            if mine is None:
                mine = self._phases[name] = [0, 0, 0]
            mine[0] += int(rec.get("count", 0))
            mine[1] += int(rec.get("total_ns", 0))
            mine[2] += int(rec.get("self_ns", 0))
        for key, n in snap.get("samples", {}).items():
            self._samples[key] = self._samples.get(key, 0) + int(n)

    # -- timeline (Chrome trace export) --------------------------------

    def timeline_events(self) -> list[tuple]:
        return list(self._timeline or ())


#: Process-global profiler.  Hot-path callers import this and guard
#: every region with ``if PROFILER.enabled`` — one attribute load when
#: profiling is off.
PROFILER = PhaseProfiler()
