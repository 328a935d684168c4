#!/usr/bin/env python
"""CI gate: the compiled engine core is byte-identical to the interpreted one.

Runs one EXP-F1 mini-cell (several utilizations x seeds, every default
policy) and one fault-matrix cell (WCET overruns + stuck speed
transitions under every default policy, governed, misses allowed)
through ``sweep()`` with the compiled core forced off and forced on —
serially and on the parallel executor — and fails unless every cell
fingerprint matches bit for bit.  The compiled-on runs are
instrumented through ``fastcore.RUN_COUNTS`` to prove the C core
actually executed (a gate that silently fell back to the interpreted
loop twice would compare the interpreter against itself and pass
vacuously).

The extension comes from the same loader every run uses
(``repro.sim.fastcore``: built once per source digest into the user
cache).  When it is unavailable — no C toolchain, an untrusted cache —
the gate skips with a loud notice naming the loader's reason: the
interpreted engine is the contract on such hosts, and there is nothing
to compare.

Usage: PYTHONPATH=src python scripts/compiled_gate.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

XS = (0.3, 0.7, 0.9)
FM_XS = (1.3,)
N_TASKSETS = 4
HORIZON = 600.0


def fingerprint(cells) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for cell in cells:
        digest.update(json.dumps(cell.to_payload()).encode())
    return digest.hexdigest()


def main() -> int:
    # The gate sets REPRO_COMPILED per leg itself; an inherited opt-out
    # would stop the loader from providing the extension at all.
    os.environ.pop("REPRO_COMPILED", None)
    from repro.sim import fastcore
    if not fastcore.compiled_available():
        print("=" * 64)
        print("compiled gate: SKIPPED — compiled core unavailable:")
        print(f"  {fastcore.core_info()['reason']}")
        print("the interpreted engine is the contract on this host.")
        print("=" * 64)
        return 0
    print(f"compiled gate: extension {fastcore.core_info()['origin']}")
    return run_gate()


def run_gate() -> int:
    from repro.experiments.config import DEFAULT_POLICIES
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
        return sweep(XS, workload, DEFAULT_POLICIES, **kwargs)

    def faultmatrix(workers: int | None = None):
        kwargs = {"n_tasksets": N_TASKSETS, "horizon": HORIZON,
                  "allow_misses": True, "faults_factory": fm_faults,
                  "policy_factory": fm_policy_factory}
        if workers:
            kwargs["workers"] = workers
        return sweep(FM_XS, fm_workload, DEFAULT_POLICIES, **kwargs)

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
