#!/usr/bin/env python
"""Paired, interleaved A/B of the end-to-end benchmark on this host.

Checks REV out into a temporary ``git worktree`` and, for every
workload declared in ``BENCHMARK.json`` and every pair, runs each
side's own ``benchmarks/e2e/run.py --workload W --seconds 0`` once:
the base (REV) and the head (this working tree), alternating which
side goes first.  Every run must pass its own correctness checks, and
both sides must run the same engine core: it prints each side's
backend and run counts (from the ``core_info`` its result file
records) once per workload, and stops when one side ran compiled and
the other interpreted, naming the loader's reason.
Prints, per workload and end-to-end metric, each side's median and
q1–q3, the head/base ratio of sums and the pairs each side won (ties
count for neither), then hands the two sides' summaries to the
benchmark's own ``run.py --compare``, whose bound verdict is the exit
status.  The worktree is removed on every exit path, SIGTERM included
(exit status 143).

Usage: python scripts/ab.py REV [--pairs N]
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The result file ``run.py --workload W`` writes (default seed, untraced).
RESULT = ".bench_out/{}_seed2002_trace0.json"


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_e2e(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    """One call of *checkout*'s own end-to-end benchmark."""
    return subprocess.run(
        [sys.executable, str(checkout / "benchmarks" / "e2e" / "run.py"),
         *args], cwd=checkout, capture_output=True, text=True)


def sample(checkout: Path, workload: str) -> dict:
    """One ``--seconds 0`` run; ``correct`` is False unless it passed,
    ``core`` is the ``core_info`` its result file records (or None)."""
    result = checkout / RESULT.format(workload)
    result.unlink(missing_ok=True)  # never read a stale run's file
    proc = run_e2e(checkout, "--workload", workload, "--seconds", "0")
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {"correct": False, "failed": None, "metrics": {},
                  "error": (proc.stderr.strip().splitlines() or ["?"])[-1]}
    record["correct"] = (bool(record.get("correct"))
                         and not record.get("failed")
                         and proc.returncode == 0)
    record.setdefault("error", "; ".join(
        line for line in lines if line.startswith("FAIL ")))
    try:
        record["core"] = json.loads(result.read_text())["context"][
            "core_info"]
    except (OSError, ValueError, KeyError, TypeError):
        record["core"] = None
    return record


def core_kind(core: dict | None) -> str | None:
    """How a run's engine ran, "compiled" or "interpreted"; None when
    its result file says nothing."""
    runs = (core or {}).get("runs") or {}
    if runs.get("compiled"):
        return "compiled"
    return "interpreted" if runs.get("interpreted") else None


def core_line(core: dict | None) -> str:
    if core is None:
        return "no core_info recorded"
    runs = core.get("runs") or {}
    return (f"{core.get('backend') or 'no compiled backend'}, runs "
            + " ".join(f"{k}={runs.get(k, 0)}"
                       for k in ("compiled", "interpreted", "drawn")))


def core_mismatch(cores: dict) -> str | None:
    """Why the two sides' runs are not comparable, or None."""
    kinds = {side: core_kind(core) for side, core in cores.items()}
    if set(kinds.values()) != {"compiled", "interpreted"}:
        return None
    slow = "base" if kinds["base"] == "interpreted" else "head"
    reason = cores[slow].get("reason") or "the compiled core was off"
    return (f"base ran {kinds['base']}, head ran {kinds['head']}; "
            f"{slow}: {reason}")


def summary(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``' default method,
    as ``run.py`` summarizes its samples)."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def pair_stats(base: list[float], head: list[float], better: str) -> dict:
    """Both sides' summaries, head/base ratio of sums, and pair wins."""
    sign = 1.0 if better == "lower" else -1.0
    diffs = [sign * (h - b) for b, h in zip(base, head)]
    return {"base": summary(base), "head": summary(head),
            "ratio_of_sums": sum(head) / sum(base),
            "head_wins": sum(d < 0 for d in diffs),
            "base_wins": sum(d > 0 for d in diffs)}


def result_file(path: Path, stats: dict, side: str, spec: dict) -> Path:
    """One side's summaries in the shape ``run.py --compare`` reads."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = {
        name: {"metrics": {
            metric: {"median": s[side]["median"], "n": s[side]["n"],
                     "iqr": s[side]["q3"] - s[side]["q1"],
                     "unit": bounds[metric]["unit"],
                     "bound": bounds[metric]["bound"]}
            for metric, s in per_metric.items()}}
        for name, per_metric in stats.items()}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"mode": "ab", "side": side,
                                "workloads": workloads}, indent=2) + "\n")
    return path


def print_table(stats: dict) -> None:
    print(f"{'workload':<15} {'metric':<13} {'base median [q1-q3]':>28} "
          f"{'head median [q1-q3]':>28} {'sum h/b':>8}  wins h:b")
    for name, per_metric in stats.items():
        for metric, s in per_metric.items():
            cells = [f"{s[side]['median']:.4g} "
                     f"[{s[side]['q1']:.4g}-{s[side]['q3']:.4g}]"
                     for side in ("base", "head")]
            print(f"{name:<15} {metric:<13} {cells[0]:>28} {cells[1]:>28} "
                  f"{s['ratio_of_sums']:>8.3f}  "
                  f"{s['head_wins']}:{s['base_wins']}")


def measure(base: Path, pairs: int, spec: dict) -> dict | None:
    """Run the pairs; the per-metric stats, or None on a failed run."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    values = {w["name"]: {m: {"base": [], "head": []} for m in better}
              for w in spec["workloads"]}
    for pair in range(pairs):
        for name in values:
            sides = [("base", base), ("head", ROOT)]
            cores = {}
            for side, checkout in sides[::1 if pair % 2 == 0 else -1]:
                record = sample(checkout, name)
                if not record["correct"]:
                    print(f"FAIL {name} pair {pair + 1} {side}: "
                          f"{record.get('error') or 'checks failed'}")
                    return None
                cores[side] = record["core"]
                for metric, value in record["metrics"].items():
                    if metric in better:
                        values[name][metric][side].append(value["value"])
                print(f"  pair {pair + 1}/{pairs} {name:<15} {side}: "
                      f"wall {record['metrics']['wall_s']['value']:.2f}s",
                      flush=True)
            if pair == 0:
                for side in ("base", "head"):
                    print(f"  core {name:<15} {side}: "
                          f"{core_line(cores[side])}")
            mismatch = core_mismatch(cores)
            if mismatch:
                print(f"FAIL {name} pair {pair + 1}: {mismatch}")
                return None
    return {name: {metric: pair_stats(v["base"], v["head"], better[metric])
                   for metric, v in per_metric.items()}
            for name, per_metric in values.items()}


def _terminated(signum: int, _frame) -> None:
    # SIGTERM's default action ends the process without running the
    # ``finally`` that removes the worktree; exit normally instead.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", metavar="REV",
                        help="base revision the working tree is paired with")
    parser.add_argument("--pairs", type=int, default=10,
                        help="runs per side and workload (default 10)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        rev = git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
    except subprocess.CalledProcessError:
        parser.error(f"unknown revision {args.rev!r}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    previous = signal.signal(signal.SIGTERM, _terminated)
    scratch = Path(tempfile.mkdtemp(prefix="ab-"))
    base = scratch / "base"
    try:
        git("worktree", "add", "--detach", str(base), rev)
        print(f"base {rev[:12]} in {base}; head is {ROOT}; "
              f"{args.pairs} pair(s) per workload")
        stats = measure(base, args.pairs, spec)
        if stats is None:
            return 1
        print_table(stats)
        out = ROOT / ".bench_out"
        files = [result_file(out / f"ab_{rev[:12]}_{side}.json", stats,
                             side, spec) for side in ("base", "head")]
        verdict = run_e2e(ROOT, "--compare", *map(str, files))
        print(verdict.stdout, end="")
        print(verdict.stderr, end="", file=sys.stderr)
        return verdict.returncode
    finally:
        # A second SIGTERM must not cut the clean-up short.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                        "--force", str(base)], capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"],
                       capture_output=True)
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    raise SystemExit(main())
