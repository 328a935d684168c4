"""Outside-in tracer for the end-to-end benchmark.

Wraps the public entry points of each layer of ``repro`` from outside
the program, so the traced process runs exactly the code users run:
nothing under ``src/`` knows it is being measured, and the program's
own ``TELEMETRY`` and ``PROFILER`` stay off (turning telemetry on would
route sweeps away from the batch engine and measure another program).

Every traced call opens a frame on a stack.  When it closes, its
duration is added to the enclosing frame's child time, and its self
time (duration minus child time) is folded into per-layer totals.
Because every duration is an integer count of nanoseconds, the self
times of all frames in a process add up exactly to the durations of
its root frames.  Coarse layers (drivers, sweeps, suites, engine runs,
batch cells, executor calls) also keep each span as
``(name, start_ns, end_ns, parent_index)``; the hot layers (policy
hooks, slack walks, state snapshots, cache I/O, workload generation)
are only folded, so memory stays bounded on million-call runs.

A call into a layer from inside the same layer (``standard_taskset``
calling ``generate_taskset``) is not a boundary and opens no frame.

Forked sweep workers inherit the wrappers.  An at-fork hook clears the
inherited parent stack, and a worker appends its spans and totals to
``spans_<pid>.jsonl`` in the trace directory each time its stack
empties, i.e. on return from every top-level ``run_suite``, because
pool workers exit through ``os._exit`` and never run exit hooks.
:meth:`Tracer.finish` merges those files into ``trace.json``.

A target that does not exist (a module or function a later version
of the program removed) is recorded as absent and its layer reads as
zero calls, so the same benchmark runs against every version.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

#: (layer, "module:attribute[.method]") — the boundaries the tracer
#: wraps.  Functions are re-bound in every ``repro.*`` module holding
#: the same object (``from x import f`` copies the binding).
TARGETS: tuple[tuple[str, str], ...] = (
    ("sim.run", "repro.sim.engine:Simulator.run"),
    ("sim.batch", "repro.sim.batch:run_batch_suites"),
    ("slack.exact", "repro.analysis.slack:exact_slack"),
    ("slack.heuristic", "repro.analysis.slack:heuristic_slack"),
    ("slack.state", "repro.analysis.slack:SystemState.build"),
    ("slack.state", "repro.sim.engine:SimContext.slack_state"),
    ("runner.suite", "repro.experiments.runner:run_suite"),
    ("runner.sweep", "repro.experiments.runner:sweep"),
    ("cache.fingerprint", "repro.experiments.cache:suite_fingerprint"),
    ("cache.get", "repro.experiments.cache:SuiteCache.get"),
    ("cache.put", "repro.experiments.cache:SuiteCache.put"),
    ("executor.run_cells", "repro.experiments.parallel:run_cells"),
    ("tasks.workload", "repro.experiments.runner:standard_taskset"),
    ("tasks.workload", "repro.experiments.runner:bcwc_model"),
    ("tasks.workload", "repro.tasks.execution:model_for_bcwc_ratio"),
    ("tasks.workload", "repro.tasks.generators:generate_taskset"),
)

#: Where the policy classes are registered, and the hooks traced on
#: each; the governor wraps another policy and is traced on its own.
POLICY_REGISTRY = "repro.policies.registry:POLICY_FACTORIES"
POLICY_EXTRA = (("governor", "repro.policies.governor:SafetyGovernor"),)
POLICY_HOOKS = ("select_speed", "on_release", "on_completion")

#: Names the per-layer metrics are declared for (BENCHMARK.json).
POLICY_NAMES = ("none", "static", "lppsEDF", "ccEDF", "DRA", "laEDF",
                "feedback", "lpSEH", "lpSTA", "clairvoyant", "governor")
DRIVER_NAMES = ("table1", "table2", "table3", "fig1", "fig2", "fig3",
                "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                "fig11", "fig12", "faultmatrix")

#: Layers whose every span is kept; the rest are only folded.
SPAN_LAYERS = frozenset({"runner.sweep", "runner.suite", "sim.run",
                         "sim.batch", "executor.run_cells"})


def _on_sim_run(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.count("sim.run.jobs", getattr(result, "jobs_released", 0))


def _on_batch(tracer: "Tracer", args, kwargs, result) -> None:
    seeds = args[1] if len(args) > 1 else kwargs["seeds"]
    tracer.count("sim.batch.rows", len(seeds))
    fallback = (len(seeds) if result is None
                else sum(1 for row in result if row is None))
    tracer.count("sim.batch.fallback_rows", fallback)


def _on_cache_get(tracer: "Tracer", args, kwargs, result) -> None:
    if result is not None:
        tracer.count("cache.hits", 1)


def _on_run_cells(tracer: "Tracer", args, kwargs, result) -> None:
    pending = args[0] if args else kwargs["pending"]
    seeds = args[1] if len(args) > 1 else kwargs["seeds"]
    tracer.count("executor.units", len(pending) * len(seeds))
    workers = kwargs.get("workers", 1)
    tracer.counters["executor.workers"] = max(
        workers, tracer.counters.get("executor.workers", 0))


RESULT_HOOKS: dict[str, Callable] = {
    "sim.run": _on_sim_run,
    "sim.batch": _on_batch,
    "cache.get": _on_cache_get,
    "executor.run_cells": _on_run_cells,
}


def _resolve(spec: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, value)`` for ``module:name[.attr]``.

    Raises ``ImportError`` or ``AttributeError`` when the target does
    not exist in this version of the program.
    """
    module_name, _, path = spec.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if isinstance(owner, type):
        # The raw class attribute, so a classmethod stays a descriptor.
        for klass in owner.__mro__:
            if attr in vars(klass):
                return owner, attr, vars(klass)[attr]
        raise AttributeError(f"{spec} not found")
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Per-process span stack, folded layer totals and counters."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        #: Open frames: ``[name, start_ns, child_ns, span_index,
        #: parent_span_index]`` (span indices are -1 for folded layers).
        self.stack: list[list] = []
        #: Kept spans: ``(name, start_ns, end_ns, parent_index)``.
        self.spans: list[tuple | None] = []
        #: layer -> ``[calls, total_ns, self_ns]``.
        self.agg: dict[str, list[int]] = {}
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self.installed: list[tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -------------------------------------------------------

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable,
             on_result: Callable | None = None) -> Callable:
        """*fn* recording one frame of layer *name* per outermost call."""
        stack = self.stack
        spans = self.spans
        agg = self.agg
        clock = time.perf_counter_ns
        keep = name in SPAN_LAYERS or name.startswith("driver.")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0, 0, -1, -1]
            if keep:
                frame[4] = next((f[3] for f in reversed(stack)
                                 if f[3] >= 0), -1)
                frame[3] = len(spans)
                spans.append(None)
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                totals = agg.get(name)
                if totals is None:
                    totals = agg[name] = [0, 0, 0]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[2]
                if keep:
                    spans[frame[3]] = (name, frame[1], end, frame[4])
                if stack:
                    stack[-1][2] += duration
                else:
                    tracer._root_closed(duration)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return traced

    def _root_closed(self, duration: int) -> None:
        if self.pid == self.root_pid:
            return
        self.count("worker.busy_ns", duration)
        self._flush()

    def _flush(self) -> None:
        line = json.dumps({"pid": self.pid, "spans": self.spans,
                           "agg": self.agg, "counters": self.counters})
        with open(self.directory / f"spans_{self.pid}.jsonl", "a") as fh:
            fh.write(line + "\n")
        self.spans.clear()
        self.agg.clear()
        self.counters.clear()

    def _after_fork(self) -> None:
        if not self.installed:
            return
        # The child inherits the parent's open frames (the pool forks
        # from inside run_cells); none of them close in this process.
        self.pid = os.getpid()
        self.stack.clear()
        self.spans.clear()
        self.agg.clear()
        self.counters.clear()

    # -- installing ------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the rest as absent."""
        for layer, spec in targets:
            try:
                owner, attr, original = _resolve(spec)
            except (ImportError, AttributeError):
                self.absent.append(spec)
                continue
            on_result = RESULT_HOOKS.get(layer)
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(layer, original.__func__,
                                                on_result))
            else:
                wrapped = self.wrap(layer, original, on_result)
            self._patch(owner, attr, original, wrapped)
        self._install_policies()

    def _install_policies(self) -> None:
        classes: list[tuple[str, type]] = []
        try:
            _owner, _attr, registry = _resolve(POLICY_REGISTRY)
            classes.extend((name, cls) for name, cls in registry.items()
                           if isinstance(cls, type))
        except (ImportError, AttributeError):
            self.absent.append(POLICY_REGISTRY)
        for name, spec in POLICY_EXTRA:
            try:
                classes.append((name, _resolve(spec)[2]))
            except (ImportError, AttributeError):
                self.absent.append(spec)
        # Resolve every hook before patching any, so a class inheriting
        # a hook from another traced class wraps the original function.
        plan = []
        for name, cls in classes:
            for hook in POLICY_HOOKS:
                original = getattr(cls, hook, None)
                if original is None:
                    self.absent.append(f"{cls.__qualname__}.{hook}")
                    continue
                plan.append((cls, hook, original, f"policy.{name}"))
        for cls, hook, original, layer in plan:
            self._patch(cls, hook, original, self.wrap(layer, original))

    def _patch(self, owner: Any, attr: str, original: Any,
               wrapped: Any) -> None:
        if isinstance(owner, type):
            self.installed.append((owner, attr, vars(owner).get(attr)))
            setattr(owner, attr, wrapped)
            return
        # A module-level function: every repro module bound to it.
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self.installed.append((module, key, original))
                    setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.installed):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self.installed.clear()

    # -- output ----------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as a root span named *name*."""
        return self.wrap(name, fn)(*args, **kwargs)

    def finish(self) -> Path:
        """Merge worker files and write ``trace.json``; returns its path."""
        workers = []
        for path in sorted(self.directory.glob("spans_*.jsonl")):
            workers.append(_merge_lines(path.read_text().splitlines()))
            path.unlink()
        payload = {
            "root": {"pid": self.root_pid, "spans": self.spans,
                     "agg": self.agg, "counters": self.counters},
            "workers": workers,
            "absent": self.absent,
        }
        out = self.directory / "trace.json"
        out.write_text(json.dumps(payload))
        return out


def _merge_lines(lines: list[str]) -> dict:
    """One worker's flushed batches as a single process record."""
    merged: dict = {"pid": None, "spans": [], "agg": {}, "counters": {}}
    for line in lines:
        batch = json.loads(line)
        merged["pid"] = batch["pid"]
        offset = len(merged["spans"])
        merged["spans"].extend(
            [name, start, end, parent + offset if parent >= 0 else -1]
            for name, start, end, parent in batch["spans"])
        for name, (calls, total, self_ns) in batch["agg"].items():
            acc = merged["agg"].setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_ns
        for name, value in batch["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
    return merged


# -- per-layer metrics ----------------------------------------------------

def layer_names() -> list[str]:
    """Every per-layer metric :func:`layer_metrics` emits, in order."""
    names = ["sim.run.calls", "sim.run.self_s", "sim.run.jobs",
             "sim.run.ns_per_job", "sim.batch.calls", "sim.batch.s",
             "sim.batch.rows", "sim.batch.fallback_rows"]
    for policy in POLICY_NAMES:
        names += [f"policy.{policy}.calls", f"policy.{policy}.self_s"]
    for walk in ("exact", "heuristic", "state"):
        names += [f"slack.{walk}.calls", f"slack.{walk}.s"]
    names += ["runner.suite.calls", "runner.suite.s", "runner.suite.p50_ms",
              "runner.suite.p90_ms", "runner.sweep.self_s"]
    for op in ("fingerprint", "get", "put"):
        names += [f"cache.{op}.calls", f"cache.{op}.s"]
    names += ["cache.hits", "executor.run_cells_s", "executor.units",
              "executor.cpu_util", "tasks.workload.calls",
              "tasks.workload.s"]
    names += [f"driver.{name}.s" for name in DRIVER_NAMES]
    names += ["trace.overhead_frac", "trace.unattributed_s"]
    return names


def layer_unit(name: str) -> str:
    """The unit of per-layer metric *name*."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ns_per_job"):
        return "ns"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("cpu_util", "overhead_frac")):
        return "fraction"
    return "count"


def layer_metrics(trace: dict, overhead_frac: float) -> dict[str, float]:
    """The declared per-layer metrics of one merged ``trace.json``.

    Counts and times add up over the traced process and its workers;
    ``trace.unattributed_s`` is the drivers' own self time, so it plus
    every layer's self time in the traced process equals the drivers'
    wall time.
    """
    processes = [trace["root"], *trace["workers"]]
    agg: dict[str, list[int]] = {}
    counters: dict[str, int] = {}
    for proc in processes:
        for name, values in proc["agg"].items():
            acc = agg.setdefault(name, [0, 0, 0])
            for i in range(3):
                acc[i] += values[i]
        for name, value in proc["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def calls(layer: str) -> int:
        return agg.get(layer, [0, 0, 0])[0]

    def total_s(layer: str) -> float:
        return agg.get(layer, [0, 0, 0])[1] / 1e9

    def self_s(layer: str) -> float:
        return agg.get(layer, [0, 0, 0])[2] / 1e9

    m: dict[str, float] = {}
    jobs = counters.get("sim.run.jobs", 0)
    m["sim.run.calls"] = calls("sim.run")
    m["sim.run.self_s"] = self_s("sim.run")
    m["sim.run.jobs"] = jobs
    m["sim.run.ns_per_job"] = (agg["sim.run"][2] / jobs if jobs else 0.0)
    m["sim.batch.calls"] = calls("sim.batch")
    m["sim.batch.s"] = total_s("sim.batch")
    m["sim.batch.rows"] = counters.get("sim.batch.rows", 0)
    m["sim.batch.fallback_rows"] = counters.get("sim.batch.fallback_rows", 0)
    for policy in POLICY_NAMES:
        m[f"policy.{policy}.calls"] = calls(f"policy.{policy}")
        m[f"policy.{policy}.self_s"] = self_s(f"policy.{policy}")
    for walk in ("exact", "heuristic", "state"):
        m[f"slack.{walk}.calls"] = calls(f"slack.{walk}")
        m[f"slack.{walk}.s"] = total_s(f"slack.{walk}")
    suites = sorted((end - start) / 1e6 for proc in processes
                    for name, start, end, _p in proc["spans"]
                    if name == "runner.suite")
    m["runner.suite.calls"] = calls("runner.suite")
    m["runner.suite.s"] = total_s("runner.suite")
    m["runner.suite.p50_ms"] = statistics.median(suites) if suites else 0.0
    m["runner.suite.p90_ms"] = (statistics.quantiles(suites, n=10)[8]
                                if len(suites) > 1 else float(sum(suites)))
    m["runner.sweep.self_s"] = self_s("runner.sweep")
    for op in ("fingerprint", "get", "put"):
        m[f"cache.{op}.calls"] = calls(f"cache.{op}")
        m[f"cache.{op}.s"] = total_s(f"cache.{op}")
    m["cache.hits"] = counters.get("cache.hits", 0)
    run_cells_ns = agg.get("executor.run_cells", [0, 0, 0])[1]
    slots_ns = run_cells_ns * counters.get("executor.workers", 0)
    m["executor.run_cells_s"] = run_cells_ns / 1e9
    m["executor.units"] = counters.get("executor.units", 0)
    m["executor.cpu_util"] = (counters.get("worker.busy_ns", 0) / slots_ns
                              if slots_ns else 0.0)
    m["tasks.workload.calls"] = calls("tasks.workload")
    m["tasks.workload.s"] = total_s("tasks.workload")
    for name in DRIVER_NAMES:
        m[f"driver.{name}.s"] = total_s(f"driver.{name}")
    m["trace.overhead_frac"] = overhead_frac
    m["trace.unattributed_s"] = sum(
        values[2] for name, values in trace["root"]["agg"].items()
        if name.startswith("driver.")) / 1e9
    return m
