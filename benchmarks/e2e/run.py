"""End-to-end benchmark of ``repro run`` (see README.md in this directory).

Every sample is one child process (``child.py``) doing what ``repro
run`` does, launched one at a time (a single-client closed loop) with
tracing off; wall time, CPU time and peak RSS come from ``os.wait4``.
Timed runs get the CLI's own inputs (master seed 2002: ``repro run``
has no seed option), so every one of them is checked against a pinned
output digest and, for ``fig1``, against the checked-in
``results/exp_f1.*``.  ``--seed`` seeds the correctness probe: quick
``fig1`` and ``faultmatrix`` runs on fresh task sets whose zero-miss
notes must hold.  Any failed check makes the command exit non-zero.

Run from anywhere in a checkout::

    python benchmarks/e2e/run.py [--seed S] [--result FILE]
        all four workloads, samples interleaved round-robin, then one
        traced run per workload; writes a result file
    python benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1
        one workload measured for about T seconds; the last stdout line
        is ``{"correct", "attempted", "failed", "metrics"}`` with the
        end-to-end metrics (``--trace 0``) or the per-layer ones (``1``)
    python benchmarks/e2e/run.py --compare A.json B.json
        medians, IQRs and ratios of two result files, flagging
        end-to-end metrics outside their bounds
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import layer_metrics, layer_names, layer_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
OUT_DIR = ROOT / ".bench_out"

#: The CLI's master seed: the inputs every timed run gets.
REFERENCE_SEED = 2002
#: ``--setup-only`` launches per workload (their median is setup_s).
SETUP_LAUNCHES = 10
#: Seconds before a hung child and its process group are killed.
SAMPLE_TIMEOUT_S = 150.0

_TIMING_LINE = re.compile(r"^  \(\d+\.\ds\)\n", re.MULTILINE)
#: Notes whose counts must read 0.
_ZERO_NOTES = {
    "total": re.compile(r"total deadline misses across all runs: (\d+)"),
    "governed": re.compile(r"governed misses: (\d+)"),
}


@dataclass(frozen=True)
class Workload:
    """One ``repro run`` invocation the benchmark times."""

    args: tuple[str, ...]
    #: Declared (cell, seed) suites the run computes or replays.
    suites: int
    #: Timed samples of this workload in a full run.
    samples: int
    #: Zero-count notes that must appear in the output.
    notes: tuple[str, ...]
    #: SHA-256 of stdout without the ``  (N.Ns)`` lines; ``None`` pins
    #: the first run of the invocation instead.
    digest: str | None = None
    #: Replay a suite cache filled (untimed) before the samples.
    warm: bool = False
    #: The export must equal the checked-in ``results/<stem>.*``.
    export: str | None = None


_FIG1_DIGEST = \
    "b09015aed7b7df80ca7c8bddd083670312377f7caff11fd5c66cfe48fd80a200"

WORKLOADS: dict[str, Workload] = {
    "fig1": Workload(("--experiment", "fig1"), 100, 3, ("total",),
                     _FIG1_DIGEST, export="exp_f1"),
    "faultmatrix_w2": Workload(
        ("--experiment", "faultmatrix", "--workers", "2"), 50, 5,
        ("governed",),
        "c5c280733851040ba3123951375c61a5cbaef3b1fa1d21966feeb933d0768f89"),
    "all_quick": Workload(
        ("--experiment", "all", "--quick"), 53, 3, ("total", "governed"),
        "9a677c9a0e0e40e602538b94783a3311fd70c738ed4831147283c81831d23663"),
    "fig1_warm": Workload(("--experiment", "fig1"), 100, 20, ("total",),
                          _FIG1_DIGEST, warm=True, export="exp_f1"),
}
#: How the warm cache is filled (untimed; two workers halve the wait).
WARM_FILL_ARGS = ("--workers", "2")
#: Untimed runs on the ``--seed`` inputs: (child args, zero notes).
PROBES = ((("--experiment", "fig1", "--quick"), ("total",)),
          (("--experiment", "faultmatrix", "--quick"), ("governed",)))


@dataclass
class Sample:
    """One finished child process and what its checks found."""

    workload: str
    kind: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    loadavg: float
    meta: dict
    digest: str | None = None
    errors: list[str] = field(default_factory=list)

    def record(self) -> dict:
        return {"kind": self.kind, "wall_s": self.wall_s,
                "cpu_s": self.cpu_s, "peak_rss_mb": self.peak_rss_mb,
                "loadavg_1m": self.loadavg, "digest": self.digest,
                "setup_s": self.meta.get("setup_s"),
                "core_runs": self.meta.get("core_info", {}).get("runs"),
                "errors": self.errors}


def _child_env() -> dict[str, str]:
    """The caller's environment minus ``REPRO_*`` (a cache dir or a
    backend switch would change what is measured), plus ``src/``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def _kill_group(pgid: int, sig: int = signal.SIGKILL) -> bool:
    """Signal a child's session; False once no process is left in it."""
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        return False
    return True


def _stop_group(pgid: int, grace_s: float = 5.0) -> None:
    """Wait until every process of a child's session has ended,
    killing stragglers after *grace_s*."""
    deadline = time.monotonic() + grace_s
    while _kill_group(pgid, 0):
        if time.monotonic() > deadline:
            _kill_group(pgid)
            deadline = time.monotonic() + grace_s
        time.sleep(0.01)


def check_output(stdout: str, notes: tuple[str, ...]) -> tuple[str, list]:
    """``(digest, errors)`` of one run's stdout, timing lines removed."""
    text = _TIMING_LINE.sub("", stdout)
    digest = hashlib.sha256(text.encode()).hexdigest()
    errors = []
    for key in notes:
        counts = [int(n) for n in _ZERO_NOTES[key].findall(text)]
        if not counts:
            errors.append(f"no '{key} misses' note in the output")
        elif any(counts):
            errors.append(f"'{key} misses' notes read {counts}, not 0")
    return digest, errors


def check_export(export_dir: Path, stem: str) -> list[str]:
    """The export must equal the checked-in ``results/<stem>.*``."""
    errors = []
    for suffix in (".json", ".csv"):
        got = (export_dir / stem).with_suffix(suffix)
        want = (ROOT / "results" / stem).with_suffix(suffix)
        if not got.exists() or got.read_bytes() != want.read_bytes():
            errors.append(f"export {got.name} differs from {want}")
    return errors


@functools.cache
def warm_cache_dir(name: str) -> Path:
    """The suite cache a warm workload replays.

    Timed runs always get the same inputs, so the cache is kept across
    invocations and only the first one in a checkout pays for filling
    it.  The directory is keyed by the program's sources: the cache's
    own key ignores code changes, and an edited program must never
    replay results computed by the old one.
    """
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return OUT_DIR / f"{name}-cache-{digest.hexdigest()[:16]}"


class Session:
    """Spawns and checks the children of one benchmark invocation."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.env = _child_env()
        OUT_DIR.mkdir(exist_ok=True)
        self.workdir = OUT_DIR / f"work-{os.getpid()}-{time.time_ns()}"
        self.workdir.mkdir()
        self._ids = itertools.count()
        #: Every child spawned, in order (the ``attempted`` count).
        self.spawned: list[Sample] = []
        #: First digest of each workload without a pinned one.
        self._first_digest: dict[str, str] = {}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def outcome(self) -> dict:
        """``correct``/``attempted``/``failed`` and every failure."""
        failed = [s for s in self.spawned if s.errors]
        return {"correct": not failed, "attempted": len(self.spawned),
                "failed": len(failed),
                "failures": [f"{s.workload} {s.kind}: {error}"
                             for s in failed for error in s.errors]}

    def spawn(self, name: str, kind: str, args: list[str],
              seed: int = REFERENCE_SEED) -> tuple[Sample, str]:
        """Run one child to completion; ``(sample, stdout)``."""
        base = self.workdir / f"{next(self._ids):04d}"
        meta_path = base.with_suffix(".meta.json")
        cmd = [sys.executable, str(CHILD), *args, "--seed", str(seed),
               "--meta", str(meta_path)]
        loadavg = os.getloadavg()[0]
        with open(base.with_suffix(".out"), "wb") as out, \
                open(base.with_suffix(".err"), "wb") as err:
            started = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT,
                                    start_new_session=True)
            timer = threading.Timer(SAMPLE_TIMEOUT_S, _kill_group,
                                    (proc.pid,))
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        _stop_group(proc.pid)
        meta = {}
        if meta_path.exists():
            meta = json.loads(meta_path.read_text())
        if "ready" in meta:
            meta["setup_s"] = meta["ready"] - started
        sample = Sample(workload=name, kind=kind, wall_s=wall,
                        cpu_s=usage.ru_utime + usage.ru_stime,
                        peak_rss_mb=usage.ru_maxrss / 1024.0,
                        loadavg=loadavg, meta=meta)
        self.spawned.append(sample)
        if proc.returncode != 0:
            tail = base.with_suffix(".err").read_text(errors="replace")
            sample.errors.append(f"exit {proc.returncode}: {tail[-400:]}")
        elif meta.get("telemetry") or meta.get("profiler"):
            sample.errors.append("telemetry or profiler was on")
        return sample, base.with_suffix(".out").read_text()

    def setup(self, name: str) -> Sample:
        sample, _ = self.spawn(name, "setup",
                               [*WORKLOADS[name].args, "--setup-only"])
        if not sample.errors and "setup_s" not in sample.meta:
            sample.errors.append("no start-up timestamp")
        return sample

    def run(self, name: str, kind: str = "sample",
            extra: tuple[str, ...] = ()) -> Sample:
        """One checked run of workload *name* on the CLI's inputs."""
        workload = WORKLOADS[name]
        args = [*workload.args, *extra]
        if workload.warm:
            args += ["--cache-dir", str(warm_cache_dir(name))]
        export_dir = trace_dir = None
        if workload.export:
            export_dir = self.workdir / f"export-{next(self._ids)}"
            args += ["--out", str(export_dir)]
        if kind == "traced":
            trace_dir = self.workdir / f"trace-{next(self._ids)}"
            args += ["--trace-dir", str(trace_dir)]
        sample, stdout = self.spawn(name, kind, args)
        if sample.errors:
            return sample
        sample.digest, errors = check_output(stdout, workload.notes)
        sample.errors += errors
        expected = (workload.digest
                    or self._first_digest.setdefault(name, sample.digest))
        if sample.digest != expected:
            sample.errors.append(f"output digest {sample.digest[:12]} != "
                                 f"pinned {expected[:12]}")
        if export_dir is not None:
            sample.errors += check_export(export_dir, workload.export)
        if trace_dir is not None:
            sample.meta["trace"] = json.loads(
                (trace_dir / "trace.json").read_text())
        return sample

    def fill_cache(self, name: str) -> Sample:
        """Complete a warm workload's suite cache (untimed, checked)."""
        return self.run(name, "fill", WARM_FILL_ARGS)

    def probe(self) -> list[Sample]:
        """The zero-miss invariants on the ``--seed`` inputs (untimed)."""
        samples = []
        for args, notes in PROBES:
            sample, stdout = self.spawn("probe", "probe", list(args),
                                        seed=self.seed)
            if not sample.errors:
                sample.digest, errors = check_output(stdout, notes)
                sample.errors += errors
            samples.append(sample)
        return samples


# -- metrics ----------------------------------------------------------------

def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(values: list[float]) -> dict:
    """Median, count and interquartile range of *values*."""
    if not values:
        return {"median": None, "n": 0, "iqr": None}
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "n": len(values),
            "iqr": q3 - q1}


def end_to_end(name: str, samples: list[Sample],
               setups: list[Sample]) -> dict[str, dict]:
    """Every declared end-to-end metric of one workload, summarized."""
    ok = [s for s in samples if not s.errors]
    values = {
        "wall_s": [s.wall_s for s in ok],
        "cpu_s": [s.cpu_s for s in ok],
        "peak_rss_mb": [s.peak_rss_mb for s in ok],
        "suites_per_s": [WORKLOADS[name].suites / s.wall_s for s in ok],
        "setup_s": [s.meta["setup_s"] for s in setups if not s.errors],
    }
    return {m["name"]: {**summarize(values[m["name"]]), "unit": m["unit"],
                        "bound": m["bound"]}
            for m in _spec()["end_to_end"]}


def traced_layers(untraced_wall_s: float, traced: Sample) -> dict:
    """Per-layer metrics of a traced run (zeros if it failed)."""
    if "trace" not in traced.meta:
        return {name: 0.0 for name in layer_names()}
    return layer_metrics(traced.meta["trace"],
                         traced.wall_s / untraced_wall_s - 1.0)


# -- context and output ------------------------------------------------------

def context(seed: int, sample: Sample) -> dict:
    """Host and program facts every result file records."""
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    return {"seed": seed, "inputs_seed": REFERENCE_SEED,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "platform": platform.platform(),
            "python": sample.meta.get("python"),
            "numpy": sample.meta.get("numpy"),
            "core_info": sample.meta.get("core_info"), "git_rev": rev}


def write_result(path: Path, payload: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _fmt(value) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_end_to_end(name: str, metrics: dict[str, dict]) -> None:
    for metric, stats in metrics.items():
        print(f"  {name:<15} {metric:<13} {_fmt(stats['median']):>12} "
              f"{stats['unit']:<5} n={stats['n']:<3} "
              f"iqr={_fmt(stats['iqr'])}  bound={stats['bound']:g}")


def print_layers(name: str, layers: dict[str, float]) -> None:
    for metric, value in layers.items():
        if value:
            print(f"  {name:<15} {metric:<28} {_fmt(value):>14} "
                  f"{layer_unit(metric)}")


# -- modes -------------------------------------------------------------------

def measure_workload(name: str, seed: int, seconds: float,
                     trace: bool) -> int:
    """One workload for about *seconds*; prints the result as the last
    stdout line and exits non-zero when a check failed."""
    session = Session(seed)
    try:
        session.setup(name)  # untimed: fills the bytecode caches
        if WORKLOADS[name].warm:
            session.fill_cache(name)
        if trace:
            base = session.run(name)
            traced = session.run(name, "traced")
            layers = traced_layers(base.wall_s, traced)
            metrics = {k: {"value": v, "unit": layer_unit(k)}
                       for k, v in layers.items()}
            record = {"samples": [base.record(), traced.record()],
                      "layers": layers}
            print_layers(name, layers)
            first = base
        else:
            setups = [session.setup(name) for _ in range(SETUP_LAUNCHES)]
            samples: list[Sample] = []
            deadline = time.monotonic() + seconds
            while True:
                samples.append(session.run(name))
                if samples[-1].errors:
                    break
                typical = statistics.median(s.wall_s for s in samples)
                if time.monotonic() + typical > deadline:
                    break
            summary = end_to_end(name, samples, setups)
            metrics = {k: {"value": v["median"], "unit": v["unit"]}
                       for k, v in summary.items()}
            record = {"samples": [s.record() for s in samples],
                      "setup": [s.record() for s in setups],
                      "metrics": summary}
            print_end_to_end(name, summary)
            first = samples[0]
        record["probes"] = [s.record() for s in session.probe()]
        outcome = session.outcome()
        write_result(OUT_DIR / f"{name}_seed{seed}_trace{int(trace)}.json",
                     {"mode": "workload", "context": context(seed, first),
                      "workloads": {name: record}, **outcome})
        for failure in outcome["failures"]:
            print(f"FAIL {failure}")
        print(json.dumps({"correct": outcome["correct"],
                          "attempted": outcome["attempted"],
                          "failed": outcome["failed"],
                          "metrics": metrics}))
        return 0 if outcome["correct"] else 1
    finally:
        session.close()


def measure_all(seed: int, result: Path | None) -> int:
    """Every workload, round-robin, plus one traced run each."""
    session = Session(seed)
    try:
        for name, workload in WORKLOADS.items():
            session.setup(name)  # untimed: fills the bytecode caches
            if workload.warm:
                session.fill_cache(name)
        samples: dict[str, list[Sample]] = {n: [] for n in WORKLOADS}
        setups: dict[str, list[Sample]] = {n: [] for n in WORKLOADS}
        rounds = max(SETUP_LAUNCHES, *(w.samples for w in WORKLOADS.values()))
        for i in range(rounds):
            for name, workload in WORKLOADS.items():
                if i < workload.samples:
                    samples[name].append(session.run(name))
                if i < SETUP_LAUNCHES:
                    setups[name].append(session.setup(name))
        records = {}
        for name in WORKLOADS:
            traced = session.run(name, "traced")
            wall = statistics.median(s.wall_s for s in samples[name])
            records[name] = {
                "samples": [s.record() for s in samples[name]],
                "setup": [s.record() for s in setups[name]],
                "traced": traced.record(),
                "metrics": end_to_end(name, samples[name], setups[name]),
                "layers": traced_layers(wall, traced),
            }
        probes = [s.record() for s in session.probe()]
        outcome = session.outcome()
        print("end-to-end (median over samples):")
        for name, record in records.items():
            print_end_to_end(name, record["metrics"])
        print("per layer (traced run, non-zero only):")
        for name, record in records.items():
            print_layers(name, record["layers"])
        for failure in outcome["failures"]:
            print(f"FAIL {failure}")
        stamp = time.strftime("%Y%m%dT%H%M%S")
        path = write_result(
            result or OUT_DIR / f"e2e_seed{seed}_{stamp}.json",
            {"mode": "full", "context": context(seed, samples["fig1"][0]),
             "workloads": records, "probes": probes, **outcome})
        print(f"result: {path}  correct={outcome['correct']} "
              f"attempted={outcome['attempted']} "
              f"failed={outcome['failed']}")
        return 0 if outcome["correct"] else 1
    finally:
        session.close()


def compare(path_a: Path, path_b: Path) -> int:
    """Print B against A per workload; exit 1 on a bound violation."""
    a = json.loads(path_a.read_text())["workloads"]
    b = json.loads(path_b.read_text())["workloads"]
    better = {m["name"]: m["better"] for m in _spec()["end_to_end"]}
    regressions = 0
    for name in [n for n in a if n in b]:
        print(f"{name}:")
        for metric, sa in a[name].get("metrics", {}).items():
            sb = b[name].get("metrics", {}).get(metric)
            if sb is None or not sa["median"] or not sb["median"]:
                continue
            ratio = sb["median"] / sa["median"]
            worse = ratio - 1 if better[metric] == "lower" else 1 - ratio
            spread_a = sa["iqr"] / sa["median"]
            spread_b = sb["iqr"] / sb["median"]
            if max(spread_a, spread_b) > sa["bound"]:
                verdict = "unresolved (IQR wider than bound)"
            elif worse > sa["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print(f"  {metric:<13} A={_fmt(sa['median']):>10} "
                  f"B={_fmt(sb['median']):>10} B/A={ratio:.3f} "
                  f"iqr%A={100 * spread_a:.1f} iqr%B={100 * spread_b:.1f} "
                  f"bound={sa['bound']:g}  {verdict}")
        la, lb = a[name].get("layers", {}), b[name].get("layers", {})
        for metric in layer_names():
            va, vb = la.get(metric, 0), lb.get(metric, 0)
            if va or vb:
                ratio = f"{vb / va:.3f}" if va else "-"
                print(f"    {metric:<28} A={_fmt(va):>12} "
                      f"B={_fmt(vb):>12} B/A={ratio}")
    print(f"{regressions} end-to-end regression(s) beyond bound")
    return 1 if regressions else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of repro run")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED,
                        help="master seed of the correctness probe")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, default=None,
                        help="result file of a full run")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    # A terminated benchmark still kills and reaps its current child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload:
        return measure_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    return measure_all(args.seed, args.result)


if __name__ == "__main__":
    raise SystemExit(main())
