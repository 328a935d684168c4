"""Command-line interface: ``repro <command>`` (or ``python -m repro``).

Commands
--------
``list``
    Show available policies, processor profiles, benchmarks and
    experiments.
``run``
    Run one experiment (``table1`` .. ``table3``, ``fig1`` .. ``fig12``
    or ``all``), print the ASCII rendering and optionally export
    CSV/JSON.
``simulate``
    One ad-hoc simulation: a benchmark or generated task set under one
    policy, with arrival/idle/wrapper knobs, a summary and an optional
    Gantt strip.
``report``
    Fold a directory of exported JSON results into one markdown report.
``diff``
    Compare two exported result sets cell by cell (regression check;
    exits non-zero when anything drifted).
``stats``
    Render a telemetry run manifest (written by ``run
    --telemetry-dir``) as an ASCII audit report; ``--follow`` first
    watches the sweep's live event log until the sweep finishes.
``watch``
    Attach to a running (or finished) sweep's event log
    (``events.jsonl`` in its checkpoint or telemetry directory) and
    render a refreshing status view of its newest sweep — per-cell
    bars, throughput, ETA, recent failures, stall detection;
    ``--json`` prints one snapshot.
``trace``
    Schedule traces: ``export`` one run as a Perfetto-loadable Chrome
    trace (or compact JSONL), ``audit`` a run against the schedule
    invariants, ``diff`` two JSONL traces (first divergent segment),
    ``timeline`` a sweep's telemetry events as a worker-lane trace.
``doctor``
    Report the execution backends this install will actually use:
    numpy, the compiled engine core (DESIGN.md §13) and, from one short
    probe run each, which policies decide their speeds in C, the
    parallel executor's default worker count, and the profiling layer's
    availability and measured per-region overhead.
``profile``
    The phase timers (DESIGN.md §9): ``run`` an instrumented EXP-F1
    mini sweep and print its time budget (writing the manifest with a
    ``profile`` block, a collapsed-stack flamegraph input, and a
    Perfetto-loadable phase trace), ``report`` a manifest's budget,
    ``flame`` a collapsed-stack file as a terminal flame tree,
    ``diff`` two manifests' attribution (naming the fingerprint keys
    that differ first).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import signal
import sys
import time
from pathlib import Path

import numpy as np

from repro.cpu.profiles import PROCESSOR_PROFILES, load_profile
from repro.errors import ConfigurationError, SweepInterrupted
from repro.experiments.figures import FIGURES
from repro.experiments.io import write_csv, write_json
from repro.experiments.tables import TABLES
from repro.policies.registry import ALL_POLICY_NAMES, make_policy
from repro.sim.engine import simulate
from repro.tasks.benchmarks import BENCHMARK_TASKSETS, load_benchmark
from repro.tasks.execution import model_for_bcwc_ratio
from repro.tasks.generators import generate_taskset


def _cmd_list(args: argparse.Namespace) -> int:
    print("policies:      ", ", ".join(ALL_POLICY_NAMES))
    print("processors:    ", ", ".join(PROCESSOR_PROFILES))
    print("benchmarks:    ", ", ".join(BENCHMARK_TASKSETS))
    print("experiments:   ", ", ".join(list(TABLES) + list(FIGURES)))
    return 0


def _export(data, out_dir: str | None) -> None:
    if out_dir is None:
        return
    base = Path(out_dir) / data.experiment_id.lower().replace("-", "_")
    csv_path = write_csv(data, base.with_suffix(".csv"))
    json_path = write_json(data, base.with_suffix(".json"))
    print(f"  exported {csv_path} and {json_path}")


def _call_driver(driver, args: argparse.Namespace):
    """Invoke an experiment driver with only the options it accepts."""
    offered = {"quick": args.quick}
    if getattr(args, "checkpoint_dir", None):
        offered["checkpoint_dir"] = args.checkpoint_dir
        offered["resume"] = args.resume
    if getattr(args, "workers", 1) != 1:
        offered["workers"] = args.workers
    if (getattr(args, "cache_dir", None)
            and not getattr(args, "no_cache", False)):
        offered["cache_dir"] = args.cache_dir
    if getattr(args, "policies", None):
        offered["policies"] = args.policies
    params = inspect.signature(driver).parameters
    accepted = {k: v for k, v in offered.items() if k in params}
    dropped = set(offered) - set(accepted) - {"quick"}
    if dropped:
        print(f"  note: {driver.__name__} does not support "
              f"{', '.join(sorted(dropped))}; ignored", file=sys.stderr)
    return driver(**accepted)


def _parse_policy_list(spec: str | None) -> tuple[str, ...] | None:
    """Validate a ``--policy`` list against the registry, up front.

    Raises :class:`ConfigurationError` naming the unknown entries and
    the known policies, so ``repro run`` fails before any simulation
    rather than mid-sweep.
    """
    if spec is None:
        return None
    names = [name.strip() for name in spec.split(",") if name.strip()]
    unknown = [name for name in names if name not in ALL_POLICY_NAMES]
    if not names or unknown:
        raise ConfigurationError(
            f"unknown policy {', '.join(unknown) or spec!r}; "
            f"known: {', '.join(ALL_POLICY_NAMES)}")
    return tuple(names)


def _cmd_run(args: argparse.Namespace) -> int:
    names = list(TABLES) + list(FIGURES) if args.experiment == "all" \
        else [args.experiment]
    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.profile and not args.telemetry_dir:
        print("--profile requires --telemetry-dir (the time budget is "
              "written into the run manifests there)", file=sys.stderr)
        return 2
    try:
        args.policies = _parse_policy_list(args.policy)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.unit_timeout is not None and args.unit_timeout <= 0:
        print("--unit-timeout must be > 0", file=sys.stderr)
        return 2
    if args.unit_timeout is not None or args.quarantine:
        # Process-wide defaults consulted by every sweep() the drivers
        # run — the knobs apply without threading new parameters
        # through every figure-driver signature.
        from repro.experiments.resilience import set_execution_defaults
        set_execution_defaults(
            unit_timeout=args.unit_timeout,
            on_failure="quarantine" if args.quarantine else None)
    if args.no_compiled:
        from repro.sim import fastcore
        fastcore.set_compiled_default(False)
    if args.telemetry_dir or args.metrics_json:
        from repro.telemetry import EVENTS_FILENAME, TELEMETRY
        events = (Path(args.telemetry_dir) / EVENTS_FILENAME
                  if args.telemetry_dir else None)
        TELEMETRY.configure(enabled=True, events_path=events,
                            manifest_dir=args.telemetry_dir)
    if args.profile:
        from repro.telemetry import TELEMETRY
        TELEMETRY.configure_timers(enabled=True)
    for name in names:
        started = time.time()
        if name in TABLES:
            driver = TABLES[name]
        elif name in FIGURES:
            driver = FIGURES[name]
        else:
            known = ", ".join(list(TABLES) + list(FIGURES) + ["all"])
            print(f"unknown experiment {name!r}; known: {known}",
                  file=sys.stderr)
            return 2
        try:
            data = _call_driver(driver, args)
        except SweepInterrupted as exc:
            print(f"interrupted: {exc}", file=sys.stderr)
            if args.checkpoint_dir:
                print(f"resume with: repro run {name} --checkpoint-dir "
                      f"{args.checkpoint_dir} --resume", file=sys.stderr)
            return 130
        except KeyboardInterrupt:
            # A drain request that landed in a sweep's final moments is
            # re-delivered on exit and surfaces here between sweeps.
            print("interrupted: stopped between sweeps (completed "
                  "sweeps are checkpointed)", file=sys.stderr)
            if args.checkpoint_dir:
                print(f"resume with: repro run {name} --checkpoint-dir "
                      f"{args.checkpoint_dir} --resume", file=sys.stderr)
            return 130
        print(data.render())
        if args.chart and hasattr(data, "render_chart"):
            print(data.render_chart())
        print(f"  ({time.time() - started:.1f}s)")
        _export(data, args.out)
        if args.quarantine and args.checkpoint_dir:
            from repro.experiments.resilience import quarantine_report
            report = quarantine_report(args.checkpoint_dir)
            if report != "no quarantined units":
                print(report, file=sys.stderr)
        print()
    if args.metrics_json:
        from repro.telemetry import TELEMETRY
        snap = TELEMETRY.snapshot()
        path = Path(args.metrics_json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(snap, indent=2, sort_keys=True))
        print(f"  wrote metrics {path}")
    return 0


def _make_arrival_model(args: argparse.Namespace):
    from repro.tasks.arrivals import (
        BurstyArrival,
        ExponentialGapArrival,
        PeriodicArrival,
        UniformJitterArrival,
    )
    if args.arrivals == "periodic":
        return PeriodicArrival()
    if args.arrivals == "jitter":
        return UniformJitterArrival(jitter=args.jitter, seed=args.seed)
    if args.arrivals == "exponential":
        return ExponentialGapArrival(mean_extra=args.jitter,
                                     seed=args.seed)
    return BurstyArrival(seed=args.seed)


def _make_idle_policy(args: argparse.Namespace):
    from repro.policies.procrastination import (
        ProcrastinationIdlePolicy,
        SleepOnIdlePolicy,
    )
    if args.idle == "default":
        return None
    if args.idle == "sleep":
        return SleepOnIdlePolicy()
    return ProcrastinationIdlePolicy()


def _resolve_workload(args: argparse.Namespace):
    """The (taskset, processor, model, faults, horizon, margin) an
    ad-hoc command's workload flags describe.

    Shared by ``repro simulate`` and ``repro trace export/audit`` so a
    trace always reproduces exactly what a simulate with the same
    flags ran.  Raises :class:`ConfigurationError` on a bad fault
    spec.
    """
    from repro.faults import parse_fault_plan
    if args.benchmark:
        taskset = load_benchmark(args.benchmark)
    else:
        taskset = generate_taskset(
            args.tasks, args.utilization, np.random.default_rng(args.seed))
    processor = load_profile(args.processor)
    model = model_for_bcwc_ratio(args.bcwc, seed=args.seed)
    faults = (parse_fault_plan(args.faults, seed=args.seed)
              if args.faults else None)
    margin = args.governor_margin
    if margin is None:
        # Default the margin to the provisioned overrun severity.
        margin = (faults.overrun.factor
                  if faults is not None and faults.overrun is not None
                  else 1.0)
    horizon = args.horizon or taskset.default_horizon(
        min_jobs_per_task=10, max_hyperperiods=1)
    return taskset, processor, model, faults, horizon, margin


def _build_policy(args: argparse.Namespace, name: str, margin: float):
    return make_policy(name,
                       overhead_aware=args.overhead_aware,
                       critical_speed_floor=args.critical_speed,
                       governed=args.governed,
                       governor_margin=margin)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.experiments.parallel import map_forked
    if args.no_compiled:
        from repro.sim import fastcore
        fastcore.set_compiled_default(False)
    policy_names = [name.strip() for name in args.policy.split(",")
                    if name.strip()]
    unknown = [name for name in policy_names
               if name not in ALL_POLICY_NAMES]
    if not policy_names or unknown:
        print(f"unknown policy {', '.join(unknown) or args.policy!r}; "
              f"known: {', '.join(ALL_POLICY_NAMES)}", file=sys.stderr)
        return 2
    try:
        (taskset, processor, model, faults,
         horizon, margin) = _resolve_workload(args)
    except ConfigurationError as exc:
        print(f"bad --faults spec: {exc}", file=sys.stderr)
        return 2

    def run_one(name: str):
        policy = _build_policy(args, name, margin)
        return simulate(taskset, processor, policy, model,
                        arrival_model=_make_arrival_model(args),
                        idle_policy=_make_idle_policy(args),
                        horizon=horizon, record_trace=args.gantt,
                        allow_misses=args.allow_misses, faults=faults)

    results = map_forked(
        [lambda name=name: run_one(name) for name in policy_names],
        workers=args.workers)
    print(taskset.describe())
    print(processor.describe())
    if faults is not None:
        print(faults.describe())
    for name, result in zip(policy_names, results):
        if len(policy_names) > 1:
            print(f"--- {name} ---")
        print(result.summary())
        if args.gantt and result.trace is not None:
            print("gantt:",
                  result.trace.render_gantt(width=100, end=horizon))
    return 0


def _decide_probe(policy_names) -> None:
    """One short compiled run per policy, so ``doctor`` can show which
    of them decide their speeds in C on this install."""
    from repro.cpu.profiles import ideal_processor
    from repro.experiments.runner import bcwc_model, standard_taskset
    from repro.policies.registry import make_policy
    from repro.sim.engine import simulate

    taskset = standard_taskset(4, 0.6, 2002)
    for name in policy_names:
        simulate(taskset, ideal_processor(), make_policy(name),
                 bcwc_model(0.5, 2002), horizon=200.0)


def _cmd_doctor(args: argparse.Namespace) -> int:
    """Report which execution backends this install will actually use."""
    from repro.experiments.parallel import default_workers, fork_available
    from repro.sim import fastcore

    print(f"python:         {sys.version.split()[0]} "
          f"({sys.platform})")
    print(f"numpy:          {np.__version__}")

    info = fastcore.core_info()
    if info["available"]:
        state = "enabled" if info["enabled"] else \
            "present but disabled (REPRO_COMPILED=0 / --no-compiled)"
        print(f"compiled core:  {info['backend']} — {state}")
        print(f"                loaded from {info['origin']}")
        if info["enabled"]:
            _decide_probe(fastcore.DECIDED_POLICIES)
            info = fastcore.core_info()
        print(f"                runs this process: "
              f"{info['runs']['compiled']} compiled, "
              f"{info['runs']['interpreted']} interpreted")
        print(f"                demands drawn in C: "
              f"{info['runs']['drawn']} runs")
        decided = info["runs"]["decided"]
        print("                decided in C: " + ", ".join(
            f"{name} {decided.get(name, 0)}"
            for name in fastcore.DECIDED_POLICIES))
    else:
        print("compiled core:  not built — interpreted engine only")
        print(f"                ({info['reason']})")
    for refused in info["refused"]:
        print(f"                {refused}")

    workers = default_workers()
    fork = "fork available" if fork_available() else \
        "no fork: sweeps run inline"
    print(f"parallel:       default workers: {workers} ({fork})")

    from repro.telemetry import OVERHEAD_BUDGET, TELEMETRY, Telemetry
    probe = Telemetry()
    probe.configure_timers(enabled=True)
    t0 = time.perf_counter_ns()
    for _ in range(10_000):
        probe.push("doctor.probe")
        probe.pop()
    per_region_ns = (time.perf_counter_ns() - t0) / 10_000
    state = "enabled" if TELEMETRY.timers else "off by default"
    print(f"profiling:      phase timers available ({state}; "
          f"~{per_region_ns:.0f}ns per region when on, "
          f"budget {OVERHEAD_BUDGET:g}x)")
    sampler = ("sys._current_frames available"
               if hasattr(sys, "_current_frames")
               else "sys._current_frames MISSING - sampling disabled")
    print(f"                sampling backend: {sampler}")
    return 0


def _manifest_paths(target: str, *, every: bool = False) -> list[Path]:
    """The manifest *target* names: the file itself, or a directory's
    newest ``manifest_*.json`` by write time (*every*: all of them,
    oldest first).  Empty, with the reason printed, when there is none.
    """
    path = Path(target)
    if not path.is_dir():
        return [path]
    candidates = sorted(path.glob("manifest_*.json"),
                        key=lambda p: (p.stat().st_mtime_ns, p.name))
    if not candidates:
        print(f"no manifest_*.json in {path}", file=sys.stderr)
    return candidates if every else candidates[-1:]


def _load_manifest(path: Path):
    """The manifest at *path*, or ``None`` with a one-line reason."""
    from repro.errors import ExperimentError
    from repro.telemetry.manifest import RunManifest
    try:
        return RunManifest.load(path)
    except (OSError, ValueError, ExperimentError) as exc:
        message = str(exc)
        if str(path) not in message:
            message = f"cannot read manifest {path}: {message}"
        print(message, file=sys.stderr)
        return None


def _load_profiled(target: str):
    """The newest manifest *target* names, if it has a profile block."""
    paths = _manifest_paths(target)
    manifest = _load_manifest(paths[0]) if paths else None
    if manifest is not None and not manifest.profile:
        print(f"{paths[0]} has no profile block (re-run the same "
              f"experiment with profiling: repro run EXP --profile "
              f"--telemetry-dir DIR)", file=sys.stderr)
        return None
    return manifest


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.profiling import report as prep

    if args.profile_cmd == "report":
        manifest = _load_profiled(args.manifest)
        if manifest is None:
            return 2
        print(prep.render_budget(manifest.profile))
        return 0

    if args.profile_cmd == "flame":
        try:
            samples = prep.read_collapsed(args.folded)
        except OSError as exc:
            print(f"cannot read {args.folded}: {exc}", file=sys.stderr)
            return 2
        print(prep.render_flame(samples, min_share=args.min_share))
        return 0

    if args.profile_cmd == "diff":
        from repro.telemetry.manifest import fingerprint_drift
        a = _load_profiled(args.a)
        b = _load_profiled(args.b) if a is not None else None
        if b is None:
            return 2
        drift = fingerprint_drift(a.fingerprint, b.fingerprint)
        if drift:
            print(f"FINGERPRINT DRIFT: {', '.join(drift)} (the two runs "
                  f"swept different specs)")
        print(prep.render_budget_diff(prep.diff_budgets(a.profile,
                                                        b.profile)))
        return 0

    # profile run: an instrumented EXP-F1 mini sweep.
    from repro.experiments.parallel import shutdown_pool
    from repro.experiments.runner import (bcwc_model, standard_taskset,
                                          sweep)
    from repro.telemetry import TELEMETRY

    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    try:
        for name in policies:
            if name != "none":
                make_policy(name)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    n = max(1, args.cells)
    xs = ([0.5] if n == 1
          else [0.3 + i * (0.8 - 0.3) / (n - 1) for i in range(n)])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def workload(u: float, seed: int):
        return (standard_taskset(args.tasks, u, seed),
                bcwc_model(args.bcwc, seed))

    TELEMETRY.configure(enabled=True, manifest_dir=out)
    TELEMETRY.configure_timers(enabled=True, timeline=True,
                               sample=not args.no_sample,
                               sample_interval_s=args.sample_interval)
    before = TELEMETRY.snapshot()
    started = time.perf_counter()
    try:
        cells = sweep(xs, workload, policies, n_tasksets=args.seeds,
                      horizon=args.horizon, workers=args.workers,
                      workload_id=args.label)
    finally:
        if args.workers > 1:
            shutdown_pool()
    wall = time.perf_counter() - started
    delta = TELEMETRY.delta_since(before)
    block = prep.profile_block(
        delta, timeline_dropped=TELEMETRY.timeline_dropped)
    trace = prep.export_chrome_profile(
        TELEMETRY.timeline_events(), out / "profile_trace.json",
        origin_ns=TELEMETRY.origin_ns)
    folded = None
    if delta["samples"]:
        folded = prep.write_collapsed(delta["samples"],
                                      out / "profile.folded")
    TELEMETRY.configure_timers(enabled=False)

    print(prep.render_budget(block, measured_wall_s=wall))
    print(f"cells: {len(cells)}  "
          f"units: {len(xs) * args.seeds}  workers: {args.workers}")
    print(f"manifest dir:     {out} (profile block in the newest "
          f"manifest; render with: repro profile report {out})")
    print(f"chrome trace:     {trace}")
    if folded is not None:
        print(f"flamegraph input: {folded} (render with: repro "
              f"profile flame {folded})")
    else:
        print("flamegraph input: no samples collected "
              "(sweep too short, or --no-sample)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import build_report, write_report
    if args.out:
        path = write_report(args.results, args.out, title=args.title)
        print(f"wrote {path}")
    else:
        print(build_report(args.results, title=args.title))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.experiments.regression import diff_results, render_drifts
    drifts = diff_results(args.before, args.after, rel_tol=args.rel_tol)
    print(render_drifts(drifts))
    return 1 if drifts else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.telemetry.manifest import render_manifest
    target = Path(args.manifest)
    if args.follow:
        # Reuse the watch plumbing: follow the event log until the
        # sweep finishes, then fall through to rendering the manifest
        # it wrote.
        from repro.telemetry.watch import watch
        if not target.is_dir():
            print("--follow needs a sweep directory (the event log "
                  "lives next to the manifests)", file=sys.stderr)
            return 2
        code = watch(target, interval=args.interval)
        if code != 0:
            return code
    paths = _manifest_paths(args.manifest, every=args.all)
    if not paths:
        return 2
    for index, path in enumerate(paths):
        manifest = _load_manifest(path)
        if manifest is None:
            return 2
        if index:
            print()
        print(f"[{path}]")
        print(render_manifest(manifest))
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.errors import ExperimentError
    from repro.telemetry.watch import watch
    if args.json:
        from repro.telemetry.progress import read_progress
        try:
            snap = read_progress(args.target,
                                 stall_after=args.stall_after)
        except ExperimentError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(json.dumps(snap.to_payload(), indent=2, sort_keys=True))
        return 0
    return watch(args.target, interval=args.interval, once=args.once,
                 stall_after=args.stall_after)


def _trace_simulator(args: argparse.Namespace):
    """A tracing simulator for ``repro trace export/audit``."""
    from repro.sim.engine import Simulator
    (taskset, processor, model, faults,
     horizon, margin) = _resolve_workload(args)
    policy = _build_policy(args, args.policy, margin)
    return Simulator(taskset, processor, policy, model,
                     arrival_model=_make_arrival_model(args),
                     idle_policy=_make_idle_policy(args),
                     horizon=horizon, record_trace=True,
                     allow_misses=args.allow_misses, faults=faults)


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command in ("export", "audit"):
        if args.policy not in ALL_POLICY_NAMES:
            print(f"unknown policy {args.policy!r}; known: "
                  f"{', '.join(ALL_POLICY_NAMES)}", file=sys.stderr)
            return 2
        try:
            sim = _trace_simulator(args)
        except ConfigurationError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    if args.trace_command == "export":
        from repro.trace import export_chrome_trace, write_trace_jsonl
        result = sim.run()
        out = Path(args.out)
        if args.format == "jsonl" or (args.format == "auto"
                                      and out.suffix == ".jsonl"):
            path = write_trace_jsonl(result, out)
        else:
            path = export_chrome_trace(result, out)
        print(f"wrote {path}")
        if args.ledger:
            print(result.energy_ledger().render())
        return 0

    if args.trace_command == "audit":
        from repro.analysis import render_violations, run_and_audit
        result, violations = run_and_audit(sim)
        print(result.summary())
        print(render_violations(violations))
        if violations and args.out:
            from repro.trace import write_trace_jsonl
            path = write_trace_jsonl(result, args.out)
            print(f"wrote violating trace {path}")
        return 1 if violations else 0

    if args.trace_command == "diff":
        from repro.errors import TraceValidationError
        from repro.trace import diff_docs, read_trace_jsonl
        try:
            doc_a = read_trace_jsonl(args.a)
            doc_b = read_trace_jsonl(args.b)
        except TraceValidationError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        divergence = diff_docs(doc_a, doc_b)
        if divergence is None:
            print(f"traces identical ({len(doc_a.segments)} segments, "
                  f"{len(doc_a.notes)} notes)")
            return 0
        print(divergence.render())
        return 1

    # timeline
    from repro.errors import ExperimentError
    from repro.trace import export_sweep_timeline
    try:
        path = export_sweep_timeline(args.events, args.out)
    except ExperimentError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(f"wrote {path}")
    return 0


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    """The ad-hoc workload flags shared by ``simulate`` and ``trace``."""
    parser.add_argument("--benchmark", default=None,
                        choices=sorted(BENCHMARK_TASKSETS))
    parser.add_argument("--tasks", type=int, default=5)
    parser.add_argument("--utilization", type=float, default=0.8)
    parser.add_argument("--bcwc", type=float, default=0.5,
                        help="best-case/worst-case execution ratio")
    parser.add_argument("--processor", default="ideal",
                        choices=sorted(PROCESSOR_PROFILES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--horizon", type=float, default=None)
    parser.add_argument("--overhead-aware", action="store_true")
    parser.add_argument("--critical-speed", action="store_true",
                        help="clamp to the leakage-aware critical speed")
    parser.add_argument("--arrivals", default="periodic",
                        choices=("periodic", "jitter", "exponential",
                                 "bursty"),
                        help="arrival process (sporadic variants respect "
                             "the minimum separation)")
    parser.add_argument("--jitter", type=float, default=0.5,
                        help="jitter/extra-gap parameter for sporadic "
                             "arrival processes")
    parser.add_argument("--idle", default="default",
                        choices=("default", "sleep", "procrastinate"),
                        help="idle-time management")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="inject faults, e.g. 'overrun:1.5' or "
                             "'overrun:1.4:0.3,jitter:0.2,stuck:0.1' "
                             "(kinds: overrun, jitter, burst, drift, "
                             "stuck, delay, quantize)")
    parser.add_argument("--governed", action="store_true",
                        help="wrap the policy in the runtime safety "
                             "governor (slack-based feasibility floor)")
    parser.add_argument("--governor-margin", type=float, default=None,
                        help="WCET margin the governor provisions for "
                             "(default: the overrun factor of --faults, "
                             "else 1.0)")
    parser.add_argument("--allow-misses", action="store_true",
                        help="record deadline misses instead of aborting")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DVS-EDF slack-time-analysis simulator (DATE 2002 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show available components")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run a reproduced experiment")
    p_run.add_argument("experiment",
                       help="table1..table3, fig1..fig12, or all")
    p_run.add_argument("--quick", action="store_true",
                       help="shrunken sweeps for a fast smoke run")
    p_run.add_argument("--out", default=None,
                       help="directory for CSV/JSON export")
    p_run.add_argument("--chart", action="store_true",
                       help="also draw an ASCII chart for figures")
    p_run.add_argument("--checkpoint-dir", default=None,
                       help="persist per-cell sweep checkpoints here "
                            "(experiments that support it)")
    p_run.add_argument("--resume", action="store_true",
                       help="resume a killed sweep from its checkpoints")
    p_run.add_argument("--unit-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock deadline per (cell, seed) unit: "
                            "hung units are interrupted and retried, "
                            "wedged workers killed and replaced")
    p_run.add_argument("--quarantine", action="store_true",
                       help="survive poison units: a unit that still "
                            "fails after its retries is recorded under "
                            "<checkpoint-dir>/quarantine/ and the sweep "
                            "completes with a declared-partial result "
                            "instead of dying")
    p_run.add_argument("--workers", type=int, default=1, metavar="N",
                       help="fan sweep cells out over N worker "
                            "processes (results are byte-identical to "
                            "a serial run; experiments that sweep)")
    p_run.add_argument("--no-compiled", action="store_true",
                       help="force the interpreted engine even when the "
                            "compiled core extension is built (results "
                            "are byte-identical either way; equivalent "
                            "to REPRO_COMPILED=0)")
    p_run.add_argument("--cache-dir", metavar="DIR",
                       default=os.environ.get("REPRO_CACHE_DIR"),
                       help="persistent content-addressed suite cache: "
                            "completed (cell, seed) suites are reused "
                            "across runs, byte-identically (default: "
                            "$REPRO_CACHE_DIR; experiments that sweep)")
    p_run.add_argument("--no-cache", action="store_true",
                       help="ignore --cache-dir/$REPRO_CACHE_DIR and "
                            "recompute every suite")
    p_run.add_argument("--policy", default=None, metavar="LIST",
                       help="comma-separated policy subset to sweep "
                            "(validated against the registry before "
                            "anything runs; experiments that accept a "
                            "policy list)")
    p_run.add_argument("--telemetry-dir", default=None, metavar="DIR",
                       help="enable telemetry: structured JSONL events "
                            "and per-sweep run manifests land here "
                            "(inspect with 'repro stats DIR')")
    p_run.add_argument("--metrics-json", default=None, metavar="FILE",
                       help="enable telemetry and dump the final "
                            "counter/histogram snapshot to FILE")
    p_run.add_argument("--profile", action="store_true",
                       help="enable the phase timers: every run "
                            "manifest written to --telemetry-dir "
                            "(required) carries a 'profile' time-budget "
                            "block (results stay byte-identical; "
                            "DESIGN.md §9)")
    p_run.set_defaults(func=_cmd_run)

    p_sim = sub.add_parser("simulate", help="one ad-hoc simulation")
    p_sim.add_argument("--policy", default="lpSTA",
                       help="policy name, or a comma-separated list to "
                            "run several on the same workload (see "
                            "'repro list')")
    p_sim.add_argument("--workers", type=int, default=1, metavar="N",
                       help="with a multi-policy --policy list, run up "
                            "to N policies in parallel worker processes")
    _add_workload_args(p_sim)
    p_sim.add_argument("--gantt", action="store_true",
                       help="print an ASCII Gantt strip")
    p_sim.add_argument("--no-compiled", action="store_true",
                       help="force the interpreted engine even when the "
                            "compiled core extension is built "
                            "(equivalent to REPRO_COMPILED=0)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_trace = sub.add_parser(
        "trace", help="export, audit and compare schedule traces")
    trace_sub = p_trace.add_subparsers(dest="trace_command",
                                       required=True)

    p_texp = trace_sub.add_parser(
        "export", help="run one traced simulation and export the "
                       "schedule (Chrome trace JSON for Perfetto, or "
                       "compact JSONL)")
    p_texp.add_argument("--policy", default="lpSTA",
                        help="policy name (see 'repro list')")
    _add_workload_args(p_texp)
    p_texp.add_argument("--out", required=True, metavar="FILE",
                        help="output path (load .json in "
                             "https://ui.perfetto.dev)")
    p_texp.add_argument("--format", default="auto",
                        choices=("auto", "chrome", "jsonl"),
                        help="auto picks jsonl for .jsonl paths, "
                             "chrome otherwise")
    p_texp.add_argument("--ledger", action="store_true",
                        help="also print the per-task energy ledger")
    p_texp.set_defaults(func=_cmd_trace)

    p_taud = trace_sub.add_parser(
        "audit", help="run one traced simulation and check the "
                      "schedule invariants (exit 1 on violations)")
    p_taud.add_argument("--policy", default="lpSTA",
                        help="policy name (see 'repro list')")
    _add_workload_args(p_taud)
    p_taud.add_argument("--out", default=None, metavar="FILE",
                        help="dump the trace as JSONL when violations "
                             "are found")
    p_taud.set_defaults(func=_cmd_trace)

    p_tdiff = trace_sub.add_parser(
        "diff", help="first divergent segment between two JSONL traces "
                     "(exit 1 when they differ)")
    p_tdiff.add_argument("a", help="baseline trace (.jsonl)")
    p_tdiff.add_argument("b", help="candidate trace (.jsonl)")
    p_tdiff.set_defaults(func=_cmd_trace)

    p_ttl = trace_sub.add_parser(
        "timeline", help="fold a sweep's telemetry events.jsonl into "
                         "a worker-lane Chrome trace")
    p_ttl.add_argument("events", help="telemetry events.jsonl of a run")
    p_ttl.add_argument("--out", required=True, metavar="FILE",
                       help="output Chrome trace JSON path")
    p_ttl.set_defaults(func=_cmd_trace)

    p_rep = sub.add_parser("report",
                           help="build a markdown report from exported "
                                "results")
    p_rep.add_argument("results", help="directory of JSON exports")
    p_rep.add_argument("--out", default=None,
                       help="write to this file instead of stdout")
    p_rep.add_argument("--title", default=None)
    p_rep.set_defaults(func=_cmd_report)

    p_diff = sub.add_parser("diff",
                            help="compare two exported result sets")
    p_diff.add_argument("before", help="baseline results directory")
    p_diff.add_argument("after", help="candidate results directory")
    p_diff.add_argument("--rel-tol", type=float, default=1e-6)
    p_diff.set_defaults(func=_cmd_diff)

    p_stats = sub.add_parser("stats",
                             help="render a telemetry run manifest")
    p_stats.add_argument("manifest",
                         help="a manifest_*.json file, or a directory "
                              "(renders the newest manifest in it)")
    p_stats.add_argument("--all", action="store_true",
                         help="with a directory, render every manifest "
                              "instead of only the newest")
    p_stats.add_argument("--follow", action="store_true",
                         help="with a directory, watch its "
                              "events.jsonl until the newest sweep "
                              "finishes, then render its manifest")
    p_stats.add_argument("--interval", type=float, default=1.0,
                         metavar="SECONDS",
                         help="--follow refresh interval")
    p_stats.set_defaults(func=_cmd_stats)

    p_watch = sub.add_parser(
        "watch", help="attach to a sweep's live event log "
                      "(events.jsonl next to its checkpoints / "
                      "telemetry)")
    p_watch.add_argument("target",
                         help="a sweep directory (checkpoint or "
                              "telemetry dir), or an events.jsonl")
    p_watch.add_argument("--json", action="store_true",
                         help="print one machine-readable snapshot "
                              "and exit")
    p_watch.add_argument("--once", action="store_true",
                         help="render one frame and exit")
    p_watch.add_argument("--interval", type=float, default=1.0,
                         metavar="SECONDS",
                         help="refresh interval (default 1s)")
    p_watch.add_argument("--stall-after", type=float, default=None,
                         metavar="SECONDS",
                         help="declare a silent sweep stalled after "
                              "this long (default: 5x the writer's "
                              "heartbeat interval, at least 10s)")
    p_watch.set_defaults(func=_cmd_watch)

    p_prof = sub.add_parser(
        "profile",
        help="phase profiling: where a sweep's wall time goes "
             "(time budget, flamegraph, attribution diff)")
    prof_sub = p_prof.add_subparsers(dest="profile_cmd", required=True)
    p_prun = prof_sub.add_parser(
        "run",
        help="run an instrumented EXP-F1 mini sweep: prints the time "
             "budget, writes a manifest with a profile block, a "
             "collapsed-stack flamegraph input and a Perfetto-loadable "
             "phase trace")
    p_prun.add_argument("--out", default="profile_out", metavar="DIR",
                        help="output directory (manifest, "
                             "profile.folded, profile_trace.json)")
    p_prun.add_argument("--cells", type=int, default=2,
                        help="utilization cells, spread over "
                             "[0.3, 0.8] (default 2)")
    p_prun.add_argument("--seeds", type=int, default=3,
                        help="task sets per cell (default 3)")
    p_prun.add_argument("--tasks", type=int, default=6,
                        help="tasks per generated set (default 6)")
    p_prun.add_argument("--bcwc", type=float, default=0.5,
                        help="bc/wc execution ratio (default 0.5)")
    p_prun.add_argument("--policies", default="none,static,lpSTA",
                        metavar="LIST",
                        help="comma-separated policies "
                             "(default none,static,lpSTA)")
    p_prun.add_argument("--horizon", type=float, default=2000.0,
                        help="simulation horizon; long enough that the "
                             "stack sampler lands a useful number of "
                             "samples (default 2000)")
    p_prun.add_argument("--workers", type=int, default=1,
                        help="parallel workers; >1 exercises the "
                             "fork-safe profile fold (default 1)")
    p_prun.add_argument("--label", default="profile",
                        help="workload id / manifest label")
    p_prun.add_argument("--no-sample", action="store_true",
                        help="phase timers only: skip the stack "
                             "sampler (no flamegraph output)")
    p_prun.add_argument("--sample-interval", type=float, default=0.001,
                        dest="sample_interval", metavar="S",
                        help="stack sampling period in seconds "
                             "(default 0.001)")
    p_prun.set_defaults(func=_cmd_profile)
    p_prep = prof_sub.add_parser(
        "report", help="render the profile block of a run manifest")
    p_prep.add_argument("manifest",
                        help="manifest file, or a directory holding "
                             "manifest_*.json (newest wins)")
    p_prep.set_defaults(func=_cmd_profile)
    p_pflame = prof_sub.add_parser(
        "flame", help="render a collapsed-stack file (profile.folded) "
                      "as a terminal flame tree")
    p_pflame.add_argument("folded", help="collapsed-stack file")
    p_pflame.add_argument("--min-share", type=float, default=0.01,
                          dest="min_share", metavar="FRAC",
                          help="hide frames below this sample share "
                               "(default 0.01)")
    p_pflame.set_defaults(func=_cmd_profile)
    p_pdiff = prof_sub.add_parser(
        "diff", help="attribution deltas between two profiled "
                     "manifests, after any fingerprint drift")
    p_pdiff.add_argument("a", help="baseline manifest file or dir")
    p_pdiff.add_argument("b", help="comparison manifest file or dir")
    p_pdiff.set_defaults(func=_cmd_profile)

    p_doc = sub.add_parser("doctor",
                           help="report the execution backends this "
                                "install will use (numpy, compiled "
                                "core, workers, profiling)")
    p_doc.set_defaults(func=_cmd_doctor)
    return parser


#: The commands that stream what they read to stdout.  A reader that
#: closes early (``repro stats --follow | head -5``) stops them quietly,
#: as it stops a Unix filter: no traceback, and the status a shell
#: reports for a filter killed by SIGPIPE.
_STREAMING_COMMANDS = frozenset({"stats", "watch", "trace", "report"})


def _stdout_closed() -> int:
    # Python flushes stdout once more at exit: point it at /dev/null so
    # that flush cannot fail again.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return 128 + signal.SIGPIPE


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command not in _STREAMING_COMMANDS:
        return args.func(args)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        return _stdout_closed()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
