#!/usr/bin/env python
"""Record the repo's performance trajectory into ``BENCH_<date>.json``.

Runs the hot-path microbenchmarks (``benchmarks/bench_hotpath.py``
under pytest-benchmark) plus wall-clock timings of a miniature EXP-F1
sweep, and writes one JSON record so speedups are tracked PR-over-PR::

    python scripts/bench_record.py                    # BENCH_<today>.json
    python scripts/bench_record.py --label baseline   # BENCH_<today>.baseline.json
    python scripts/bench_record.py --compare BENCH_old.json
    python scripts/bench_record.py --check BENCH_old.json  # CI guard
    python scripts/bench_record.py --check   # vs newest BENCH_*.json

``--compare`` and ``--check`` given without a value resolve the
baseline themselves: the newest ``BENCH_*.json`` by the date embedded
in the *filename* (ties broken by full name), never by directory
enumeration order, and both print which baseline was used.

The ``sweep_exp1_mini`` block times the executor the way a figure
driver uses it — repeated ``sweep()`` calls against the warm worker
pool and the persistent suite cache:

* ``serial_s`` — one cold serial sweep, no cache (the reference).
* ``workers_cold_s`` — best cold ``workers=N`` call: chunked dispatch
  on a freshly forked pool, cache cold (every suite simulated).
* ``workers_s`` / ``parallel_speedup`` — best of the repeated calls,
  i.e. warm pool + warm cache: the steady-state cost of re-running the
  sweep.  This is the headline number; ``parallel_speedup_cold``
  isolates pure dispatch overhead against a serial sweep doing the
  same work — serial-first inline dispatch makes parity the floor,
  and ≈1.0 is also the ceiling on a single-core host, where the
  executor degrades to pure inline execution (the warm path proves
  re-runs are near-free).
* ``cache_cold_s`` / ``cache_warm_s`` / ``cache_speedup`` — the same
  warm-vs-cold contrast on the serial path, isolating the cache.

``--check`` re-runs the microbenchmarks and exits non-zero when the
``engine_step`` mean degrades by more than ``--max-regression``
(default 25%) against the given record; when that record also carries
``sweep_exp1_mini`` numbers, the mini sweep is re-timed and the check
fails whenever ``parallel_speedup`` lands below ``--min-speedup``
(default 1.0) — parallel-slower-than-serial is a regression, never
something to record silently — or, when the record carries a cold
number too, whenever ``parallel_speedup_cold`` lands below
``--min-cold-speedup`` (default 0.85): a cold pool must never lose to
the serial loop.  Parity is the theoretical ratio once dispatch goes
inline-first (and the exact ceiling on a single-CPU host, where the
paired estimator measures 0.93–1.04 across runs), so the default
leaves a noise allowance while still failing decisively on the
regression this guards against — reforking the pool per sweep, which
measured 0.76x.  When the compiled engine core (DESIGN.md §13) was
measured on this host, ``--check`` also enforces the
``engine_step / engine_step_compiled`` mean ratio against
``--min-compiled-speedup`` (default 2.0); hosts without the extension
print a loud SKIP instead.  ``--check`` also replays the ``telemetry``
probe — one instrumented mini sweep that must produce a run manifest
whose cache section matches the live counters.
``scripts/ci_fast.sh`` runs all of these guards on every fast loop.

The ``telemetry`` block embeds the instrumented sweep's headline
counters (engine/cache/sweep namespaces) in the record, so the bench
history doubles as a coarse workload-shape history.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import inspect
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_BENCH_NAME = re.compile(r"^BENCH_(\d{4}-\d{2}-\d{2})")


def latest_bench_record(repo: Path = REPO) -> Path | None:
    """Newest ``BENCH_*.json`` by the date embedded in the filename.

    Deterministic: records sort on the parsed date (ties — e.g. a
    labeled record from the same day — break on the full filename),
    never on directory enumeration order or mtime, so ``--compare``
    and ``--check`` pick the same baseline on every filesystem.
    """
    best: tuple[tuple[_dt.date, str], Path] | None = None
    for path in repo.glob("BENCH_*.json"):
        match = _BENCH_NAME.match(path.name)
        if not match:
            continue
        try:
            date = _dt.date.fromisoformat(match.group(1))
        except ValueError:
            continue
        key = (date, path.name)
        if best is None or key > best[0]:
            best = (key, path)
    return best[1] if best else None


def _resolve_baseline(value: str | None) -> Path:
    """Turn a --compare/--check argument into a baseline path.

    An explicit path is used as given; no value (or ``latest``) picks
    the newest checked-in record via :func:`latest_bench_record`.
    """
    if value and value != "latest":
        return Path(value)
    latest = latest_bench_record()
    if latest is None:
        raise SystemExit(
            "no BENCH_*.json record found to compare against")
    return latest

#: Mini EXP-F1 sweep used for the wall-clock number: big enough that
#: per-cell costs dominate pool startup, small enough for CI.
SWEEP_UTILIZATIONS = (0.3, 0.5, 0.7, 0.9)
SWEEP_TASKSETS = 3
SWEEP_HORIZON = 1200.0
SWEEP_WORKERS = 4


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO,
            capture_output=True, text=True, check=True).stdout.strip()
    except Exception:
        return "unknown"


def run_hotpath_benchmarks() -> dict[str, dict[str, float]]:
    """Run pytest-benchmark on bench_hotpath and return per-bench stats."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "bench.json"
        cmd = [sys.executable, "-m", "pytest",
               str(REPO / "benchmarks" / "bench_hotpath.py"),
               "-q", "--benchmark-only", "-p", "no:cacheprovider",
               f"--benchmark-json={out}"]
        env = os.environ.copy()
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run(cmd, cwd=REPO, capture_output=True,
                              text=True, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"hot-path benchmarks failed "
                             f"(exit {proc.returncode})")
        payload = json.loads(out.read_text())
    stats: dict[str, dict[str, float]] = {}
    for bench in payload["benchmarks"]:
        name = bench["name"].removeprefix("test_")
        stats[name] = {
            "mean_s": bench["stats"]["mean"],
            "stddev_s": bench["stats"]["stddev"],
            "min_s": bench["stats"]["min"],
            "rounds": bench["stats"]["rounds"],
        }
    return stats


def _sweep_workload(u: float, seed: int):
    # Module-level (not a per-call closure) on purpose: the warm pool
    # is keyed on the spec's closure identities, so repeated sweeps
    # must pass the *same* workload object to reuse the pool.
    from repro.experiments.runner import bcwc_model, standard_taskset
    return (standard_taskset(8, u, seed), bcwc_model(0.5, seed))


def _sweep_once(workers: int | None,
                cache_dir: str | None = None) -> float:
    from repro.experiments.config import DEFAULT_POLICIES
    from repro.experiments.runner import sweep

    params = inspect.signature(sweep).parameters
    kwargs = {}
    if workers is not None:
        if "workers" not in params:
            return float("nan")  # executor not available in this revision
        kwargs["workers"] = workers
    if cache_dir is not None:
        if "cache_dir" not in params:
            return float("nan")  # cache not available in this revision
        kwargs["cache_dir"] = cache_dir
        kwargs["workload_id"] = "bench:exp1-mini:n=8:bcwc=0.5"
    started = time.perf_counter()
    sweep(SWEEP_UTILIZATIONS, _sweep_workload, DEFAULT_POLICIES,
          n_tasksets=SWEEP_TASKSETS, horizon=SWEEP_HORIZON, **kwargs)
    return time.perf_counter() - started


def run_sweep_timings(*, repeats: int = 2) -> dict[str, float]:
    """Wall-clock the mini EXP-F1 sweep: serial cold, parallel
    cold/warm (cold = fresh pool + fresh cache), cache cold/warm.

    ``parallel_speedup_cold`` compares a cold-pool parallel call
    against a serial sweep doing the *same work* — both start with a
    cold suite cache and persist every unit — so the metric isolates
    dispatch overhead (fork, warmup, IPC) instead of charging the
    parallel side for cache writes an uncached serial reference never
    performs.  The cold pair is sampled as interleaved serial/parallel
    pairs and the speedup is the ratio of the summed times: slow host
    load drift hits both sides of each pair equally and cancels,
    where single samples (or min-vs-min across a drifting window)
    would just measure the noise.  On a single-CPU host dispatch
    degrades to inline execution, so parity is the expected ratio.
    """
    try:
        from repro.experiments.parallel import shutdown_pool
    except ImportError:
        def shutdown_pool() -> None:
            pass

    serial = min(_sweep_once(None) for _ in range(repeats))
    record = {"serial_s": serial}
    cold_serial: list[float] = []
    warm_serial: list[float] = []
    cold_workers: list[float] = []
    warm_workers: list[float] = []
    for pair in range(max(4, repeats)):
        # Alternate which side of the pair runs first, so cache/thermal
        # carry-over from one sample into the next cancels too.
        sides = ("serial", "workers") if pair % 2 == 0 else (
            "workers", "serial")
        for side in sides:
            if side == "serial":
                with tempfile.TemporaryDirectory() as tmp:
                    cold_serial.append(_sweep_once(None, cache_dir=tmp))
                    warm_serial.append(_sweep_once(None, cache_dir=tmp))
            else:
                shutdown_pool()  # parallel samples start with a cold pool
                with tempfile.TemporaryDirectory() as tmp:
                    cold_workers.append(
                        _sweep_once(SWEEP_WORKERS, cache_dir=tmp))
                    warm_workers.append(
                        _sweep_once(SWEEP_WORKERS, cache_dir=tmp))
    cold = min(cold_serial)
    if cold == cold:  # NaN when the cache is unavailable
        record["cache_cold_s"] = cold
        record["cache_warm_s"] = min(warm_serial)
        record["cache_speedup"] = cold / min(warm_serial)
    best = min(warm_workers)
    if best == best:  # NaN when the executor is unavailable
        record["workers"] = SWEEP_WORKERS
        record["workers_cold_s"] = min(cold_workers)
        record["workers_s"] = best
        record["parallel_speedup"] = serial / best
        if cold == cold:
            record["parallel_speedup_cold"] = (sum(cold_serial)
                                               / sum(cold_workers))
    shutdown_pool()
    return record


def run_telemetry_probe() -> dict | None:
    """One instrumented mini sweep: counters + manifest sanity.

    Enables the telemetry registry around a single serial mini sweep,
    embeds the headline counters in the bench record, and reports
    whether the sweep produced a loadable run manifest whose cache
    section matches the cache counters.  Runs *after* the timing
    blocks so the enabled registry never pollutes a timed run, and
    always resets/disables the process-global registry on the way out.
    """
    try:
        from repro.telemetry import TELEMETRY, RunManifest
    except ImportError:
        return None  # telemetry not available in this revision
    probe: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        manifest_dir = Path(tmp) / "tele"
        TELEMETRY.configure(enabled=True, manifest_dir=manifest_dir)
        try:
            probe["sweep_s"] = _sweep_once(None, cache_dir=tmp)
            snap = TELEMETRY.snapshot()
        finally:
            TELEMETRY.configure(enabled=False)
            TELEMETRY.reset()
        counters = snap["counters"]
        probe["counters"] = {
            name: counters[name] for name in sorted(counters)
            if name.split(".")[0] in
            ("engine", "cache", "sweep", "governor")}
        manifests = sorted(manifest_dir.glob("manifest_*.json"))
        probe["manifest_written"] = bool(manifests)
        if manifests:
            manifest = RunManifest.load(manifests[-1])
            probe["manifest_consistent"] = (
                manifest.cache.get("misses") == counters.get(
                    "cache.misses", 0)
                and manifest.cache.get("writes") == counters.get(
                    "cache.writes", 0))
    return probe


def build_record(*, skip_sweep: bool = False) -> dict:
    record = {
        "schema": 1,
        "date": _dt.date.today().isoformat(),
        "rev": _git_rev(),
        "python": sys.version.split()[0],
        "hotpath": run_hotpath_benchmarks(),
    }
    if not skip_sweep:
        record["sweep_exp1_mini"] = run_sweep_timings()
        record["telemetry"] = run_telemetry_probe()
    return record


def compare(record: dict, baseline: dict) -> list[str]:
    lines = []
    base_hot = baseline.get("hotpath", {})
    for name, stats in record.get("hotpath", {}).items():
        if name in base_hot:
            ratio = base_hot[name]["mean_s"] / stats["mean_s"]
            lines.append(f"  {name:<18} {base_hot[name]['mean_s'] * 1e3:9.2f}ms"
                         f" -> {stats['mean_s'] * 1e3:9.2f}ms"
                         f"   speedup {ratio:5.2f}x")
    base_sweep = baseline.get("sweep_exp1_mini")
    sweep = record.get("sweep_exp1_mini")
    if base_sweep and sweep:
        serial = base_sweep["serial_s"]
        best_now = min(sweep["serial_s"],
                       sweep.get("workers_s", float("inf")))
        lines.append(f"  {'sweep (vs serial)':<18} {serial:9.2f}s "
                     f"-> {best_now:9.2f}s   speedup "
                     f"{serial / best_now:5.2f}x")
        base_par = base_sweep.get("parallel_speedup")
        now_par = sweep.get("parallel_speedup")
        if base_par is not None and now_par is not None:
            lines.append(f"  {'parallel_speedup':<18} {base_par:9.2f}x "
                         f"-> {now_par:9.2f}x")
    return lines


def warn_if_parallel_regressed(record: dict,
                               min_speedup: float = 1.0) -> bool:
    """Print a loud warning when parallel runs slower than serial.

    Returns True when the record's mini-sweep ``parallel_speedup``
    exists and is below *min_speedup* — the condition ``--check``
    turns into a non-zero exit instead of silently recording it.
    """
    speedup = (record.get("sweep_exp1_mini") or {}).get("parallel_speedup")
    if speedup is None or speedup >= min_speedup:
        return False
    print(f"WARNING: sweep_exp1_mini.parallel_speedup = {speedup:.2f}x "
          f"< {min_speedup:.2f}x — the parallel executor is not paying "
          f"for its dispatch overhead on this host", file=sys.stderr)
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None,
                        help="output path (default BENCH_<date>[.label].json)")
    parser.add_argument("--label", default=None,
                        help="tag inserted into the default filename, "
                             "e.g. 'baseline'")
    parser.add_argument("--compare", nargs="?", const="latest",
                        default=None, metavar="BENCH_JSON",
                        help="print speedups against an earlier record; "
                             "with no value, the newest BENCH_*.json by "
                             "the date in its filename")
    parser.add_argument("--check", nargs="?", const="latest",
                        default=None, metavar="BENCH_JSON",
                        help="regression guard: exit 1 when engine_step "
                             "degrades more than --max-regression; with "
                             "no value, the newest BENCH_*.json by the "
                             "date in its filename")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional engine_step slowdown "
                             "for --check (default 0.25)")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="minimum mini-sweep parallel_speedup for "
                             "--check, when the baseline record has "
                             "sweep numbers (default 1.0)")
    parser.add_argument("--min-cold-speedup", type=float, default=0.85,
                        help="minimum mini-sweep parallel_speedup_cold "
                             "for --check: a cold pool must never lose "
                             "to the serial loop; parity is the "
                             "theoretical ceiling on single-CPU hosts, "
                             "so the default allows measurement noise "
                             "while still catching the refork-per-sweep "
                             "regression (0.76x) outright (default 0.85)")
    parser.add_argument("--min-compiled-speedup", type=float, default=2.0,
                        help="minimum engine_step/engine_step_compiled "
                             "mean ratio for --check, enforced only when "
                             "the compiled anchor was measured on this "
                             "host (default 2.0)")
    parser.add_argument("--skip-sweep", action="store_true",
                        help="record only the microbenchmarks")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO / "src"))
    # Read the --compare baseline before anything is written: the
    # record this run writes may overwrite the newest BENCH_*.json
    # (same-day re-record), and comparing a record against itself is
    # vacuous.
    compare_baseline = None
    if args.compare:
        path = _resolve_baseline(args.compare)
        compare_baseline = (path.name, json.loads(path.read_text()))
    record = build_record(skip_sweep=args.skip_sweep or bool(args.check))

    if args.check:
        # Every guard runs and every failure is reported before the
        # verdict: a single CI pass shows the full damage instead of
        # stopping at the first broken guard and hiding the rest.
        failures: list[str] = []

        def fail(message: str) -> None:
            failures.append(message)
            print(f"FAIL: {message}", file=sys.stderr)

        baseline_path = _resolve_baseline(args.check)
        baseline = json.loads(baseline_path.read_text())
        print(f"baseline: {baseline_path.name}"
              + (" (newest BENCH record by filename date)"
                 if args.check == "latest" else ""))
        base = baseline["hotpath"]["engine_step"]["mean_s"]
        now = record["hotpath"]["engine_step"]["mean_s"]
        slowdown = now / base - 1.0
        print(f"engine_step: baseline {base * 1e3:.2f}ms, "
              f"current {now * 1e3:.2f}ms "
              f"({slowdown:+.1%} vs allowed +{args.max_regression:.0%})")
        if slowdown > args.max_regression:
            fail("engine hot path regressed beyond the guard")
        else:
            print("OK: engine hot path within the regression guard")
        compiled = record["hotpath"].get("engine_step_compiled")
        if compiled is not None:
            ratio = now / compiled["mean_s"]
            if ratio < args.min_compiled_speedup:
                fail(f"compiled core speedup {ratio:.2f}x < "
                     f"{args.min_compiled_speedup:.2f}x "
                     f"(engine_step / engine_step_compiled)")
            else:
                print(f"OK: compiled core speedup {ratio:.2f}x "
                      f"(>= {args.min_compiled_speedup:.2f}x)")
        else:
            print("SKIP: compiled core speedup — extension not built "
                  "on this host")
        if (baseline.get("sweep_exp1_mini") or {}).get("parallel_speedup"):
            record["sweep_exp1_mini"] = run_sweep_timings()
            speedup = record["sweep_exp1_mini"].get("parallel_speedup")
            if warn_if_parallel_regressed(record, args.min_speedup):
                fail("parallel sweep regressed below the guard")
            elif speedup is not None:
                print(f"OK: sweep_exp1_mini.parallel_speedup = "
                      f"{speedup:.2f}x (>= {args.min_speedup:.2f}x)")
            cold = record["sweep_exp1_mini"].get("parallel_speedup_cold")
            if (cold is not None
                    and (baseline.get("sweep_exp1_mini") or {}).get(
                        "parallel_speedup_cold")):
                if cold < args.min_cold_speedup:
                    fail(f"sweep_exp1_mini.parallel_speedup_cold "
                         f"= {cold:.2f}x < {args.min_cold_speedup:.2f}x "
                         f"— a cold pool is losing to the serial loop")
                else:
                    print(f"OK: sweep_exp1_mini.parallel_speedup_cold = "
                          f"{cold:.2f}x (>= {args.min_cold_speedup:.2f}x)")
        probe = run_telemetry_probe()
        if probe is not None:
            probe_ok = True
            if not probe.get("manifest_written"):
                fail("instrumented mini sweep wrote no run manifest")
                probe_ok = False
            if not probe.get("manifest_consistent"):
                fail("run manifest cache section disagrees with "
                     "the telemetry counters")
                probe_ok = False
            if probe_ok:
                steps = probe["counters"].get("engine.steps", 0)
                print(f"OK: telemetry probe — manifest written and "
                      f"consistent ({steps} engine steps counted)")
        if failures:
            print(f"{len(failures)} guard(s) failed:", file=sys.stderr)
            for message in failures:
                print(f"  - {message}", file=sys.stderr)
            return 1
        print("all perf guards passed")
        return 0

    if args.out:
        out = Path(args.out)
    else:
        stem = f"BENCH_{record['date']}"
        if args.label:
            stem += f".{args.label}"
        out = REPO / f"{stem}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    for name, stats in record["hotpath"].items():
        print(f"  {name:<18} mean {stats['mean_s'] * 1e3:9.2f}ms  "
              f"({stats['rounds']} rounds)")
    if "sweep_exp1_mini" in record:
        sweep = record["sweep_exp1_mini"]
        line = f"  {'sweep_exp1_mini':<18} serial {sweep['serial_s']:.2f}s"
        if sweep.get("workers_s", float("nan")) == sweep.get("workers_s"):
            line += (f"  workers={sweep['workers']} "
                     f"cold {sweep.get('workers_cold_s', 0):.2f}s "
                     f"warm {sweep['workers_s']:.3f}s "
                     f"({sweep.get('parallel_speedup', 0):.2f}x warm, "
                     f"{sweep.get('parallel_speedup_cold', 0):.2f}x cold)")
        print(line)
        if "cache_speedup" in sweep:
            print(f"  {'suite cache':<18} cold {sweep['cache_cold_s']:.2f}s"
                  f"  warm {sweep['cache_warm_s']:.3f}s "
                  f"({sweep['cache_speedup']:.1f}x)")
        warn_if_parallel_regressed(record)
    if record.get("telemetry"):
        probe = record["telemetry"]
        state = ("manifest ok" if probe.get("manifest_consistent")
                 else "MANIFEST INCONSISTENT")
        print(f"  {'telemetry':<18} instrumented sweep "
              f"{probe['sweep_s']:.2f}s  {state}")

    if compare_baseline is not None:
        baseline_name, baseline = compare_baseline
        print(f"vs {baseline_name}"
              + (" (newest BENCH record by filename date):"
                 if args.compare == "latest" else ":"))
        for line in compare(record, baseline):
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
