#!/usr/bin/env python
"""CI gate: the compiled engine core is byte-identical to the interpreted one.

Runs one EXP-F1 mini-cell (several utilizations x seeds, slack-analysis
policies included) and one fault-matrix cell (WCET overruns + stuck
speed transitions under a governed policy, misses allowed) through
``sweep()`` with the compiled core forced off and forced on — serially
and on the parallel executor — and fails unless every cell fingerprint
matches bit for bit.  The compiled-on runs are instrumented through
``fastcore.RUN_COUNTS`` to prove the C core actually executed (a gate
that silently fell back to the interpreted loop twice would compare
the interpreter against itself and pass vacuously).

When the extension is missing the gate first tries to build it in
place (``REPRO_COMPILE=1 setup.py build_ext --inplace``); without a C
toolchain it skips with a loud notice — the interpreted engine is the
contract on such hosts, and there is nothing to compare.  An extension
the gate built itself is deleted again on exit, so later runs in the
checkout keep the backend they had before; one that was already there
stays.

Usage: PYTHONPATH=src python scripts/compiled_gate.py
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
EXTENSION_DIR = REPO_ROOT / "src" / "repro" / "sim"

XS = (0.3, 0.7, 0.9)
FM_XS = (1.3,)
N_TASKSETS = 4
HORIZON = 600.0
POLICIES = ("none", "static", "ccEDF", "lpSTA", "lpSEH")
FM_POLICIES = ("ccEDF", "lpSEH", "lpSTA")


def extension_artifacts() -> set[Path]:
    """The built ``_fastcore`` files this interpreter would import."""
    candidates = (EXTENSION_DIR / f"_fastcore{suffix}"
                  for suffix in EXTENSION_SUFFIXES)
    return {path for path in candidates if path.exists()}


def ensure_extension() -> str:
    """Find-or-build the extension; returns 'ok', 'built' or 'no-toolchain'.

    Looks for the file rather than importing it: importing anything
    under ``repro.sim`` before a build would pin ``repro.sim.fastcore``
    to "no extension" for the rest of the process.
    """
    status = "ok"
    if not extension_artifacts():
        if shutil.which("gcc") is None and shutil.which("cc") is None:
            return "no-toolchain"
        env = dict(os.environ, REPRO_COMPILE="1")
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True)
        if proc.returncode != 0 or not extension_artifacts():
            print(proc.stdout[-2000:])
            print(proc.stderr[-2000:])
            return "no-toolchain"
        importlib.invalidate_caches()
        status = "built"
    from repro.sim import fastcore
    return status if fastcore.compiled_available() else "no-toolchain"


def fingerprint(cells) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for cell in cells:
        digest.update(json.dumps(cell.to_payload()).encode())
    return digest.hexdigest()


def main() -> int:
    present = extension_artifacts()
    try:
        return run_gate()
    finally:
        for path in extension_artifacts() - present:
            path.unlink(missing_ok=True)
            print(f"compiled gate: removed {path.relative_to(REPO_ROOT)}")


def run_gate() -> int:
    status = ensure_extension()
    if status == "no-toolchain":
        print("=" * 64)
        print("compiled gate: SKIPPED — no C toolchain / extension "
              "unavailable;")
        print("the interpreted engine is the contract on this host.")
        print("=" * 64)
        return 0
    if status == "built":
        print("compiled gate: built repro.sim._fastcore in place")

    from repro.experiments.parallel import fork_available, shutdown_pool
    from repro.experiments.runner import bcwc_model, standard_taskset, sweep
    from repro.faults import FaultPlan
    from repro.faults.plan import OverrunFault, TransitionFault
    from repro.policies.registry import make_policy
    from repro.sim import fastcore

    def workload(u: float, seed: int):
        return standard_taskset(8, u, seed), bcwc_model(0.5, seed)

    def fm_workload(x: float, seed: int):
        return standard_taskset(6, 0.65, seed), bcwc_model(0.5, seed)

    def fm_faults(x: float, seed: int):
        return FaultPlan(
            seed=seed,
            overrun=OverrunFault(factor=x, probability=0.3),
            transition=TransitionFault(stuck_probability=0.2))

    def fm_policy_factory(x: float):
        return lambda name: make_policy(name, governed=True,
                                        governor_margin=max(1.0, float(x)))

    def exp1(workers: int | None = None):
        kwargs = {"n_tasksets": N_TASKSETS, "horizon": HORIZON}
        if workers:
            kwargs["workers"] = workers
        return sweep(XS, workload, POLICIES, **kwargs)

    def faultmatrix(workers: int | None = None):
        kwargs = {"n_tasksets": N_TASKSETS, "horizon": HORIZON,
                  "allow_misses": True, "faults_factory": fm_faults,
                  "policy_factory": fm_policy_factory}
        if workers:
            kwargs["workers"] = workers
        return sweep(FM_XS, fm_workload, FM_POLICIES, **kwargs)

    def run_mode(compiled: bool, leg, workers: int | None = None) -> tuple:
        """One sweep leg under a forced backend; returns (fp, runs)."""
        os.environ["REPRO_COMPILED"] = "1" if compiled else "0"
        before = fastcore.RUN_COUNTS["compiled"]
        try:
            fp = fingerprint(leg(workers))
        finally:
            os.environ.pop("REPRO_COMPILED", None)
            if workers:
                # The warm pool snapshots env at fork: never reuse a
                # pool across backend flips.
                shutdown_pool()
        return fp, fastcore.RUN_COUNTS["compiled"] - before

    failures = []

    def check(label: str, ok: bool, detail: str = "") -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}"
              + (f": {detail}" if detail and not ok else ""))
        if not ok:
            failures.append(label)

    interp_fp, interp_runs = run_mode(False, exp1)
    compiled_fp, compiled_runs = run_mode(True, exp1)
    check("interpreted leg stayed interpreted", interp_runs == 0,
          f"{interp_runs} compiled run(s) under REPRO_COMPILED=0")
    check("compiled core engaged", compiled_runs > 0,
          "0 compiled runs despite the extension being importable")
    check("EXP-F1 cell byte-identical", compiled_fp == interp_fp,
          f"{compiled_fp} != {interp_fp}")

    fm_interp_fp, _ = run_mode(False, faultmatrix)
    fm_compiled_fp, fm_runs = run_mode(True, faultmatrix)
    check("fault-matrix compiled core engaged", fm_runs > 0)
    check("fault-matrix cell byte-identical",
          fm_compiled_fp == fm_interp_fp,
          f"{fm_compiled_fp} != {fm_interp_fp}")

    if fork_available():
        par_interp_fp, _ = run_mode(False, exp1, workers=2)
        par_compiled_fp, _ = run_mode(True, exp1, workers=2)
        check("parallel interpreted byte-identical",
              par_interp_fp == interp_fp)
        check("parallel compiled byte-identical",
              par_compiled_fp == interp_fp,
              f"{par_compiled_fp} != {interp_fp}")
        fm_par_fp, _ = run_mode(True, faultmatrix, workers=2)
        check("parallel fault-matrix byte-identical",
              fm_par_fp == fm_interp_fp,
              f"{fm_par_fp} != {fm_interp_fp}")

    if failures:
        print(f"compiled gate: {len(failures)} contract(s) broken")
        return 1
    print(f"compiled gate: {compiled_runs + fm_runs} compiled run(s), "
          f"fingerprints equal (serial and parallel, plain and "
          f"fault-injected)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
