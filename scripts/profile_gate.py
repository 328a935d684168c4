#!/usr/bin/env python
"""CI gate: the profiling layer is free when off and honest when on.

Checks the profiling contract (DESIGN.md §15) on one EXP-F1 mini-cell
and on the ``engine_step`` anchor workload:

* result purity — cells from profiled runs (serial and parallel) are
  byte-identical to an unprofiled run: profiling is pure
  observability, never part of the result;
* budget invariant — the time-budget categories of a profiled serial
  sweep sum exactly to the attributed wall time, and the attributed
  wall stays within epsilon of the measured wall clock;
* comparable folds — serial and parallel runs fold to the same
  deterministic phase counts (same units, same policy decisions), so
  attributions are comparable across execution modes;
* zero-cost-off — with profiling disabled the engine anchor pays
  nothing measurable (off must not be slower than on; the *absolute*
  off-overhead guard is bench_record's ``engine_step`` regression
  check against the checked-in baseline, which always runs with
  profiling off);
* bounded-cost-on — with phase timers enabled the anchor stays under
  the declared ``OVERHEAD_BUDGET`` multiplier.

Exits non-zero listing every broken contract.

Usage: PYTHONPATH=src python scripts/profile_gate.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from repro.cpu.profiles import ideal_processor
from repro.experiments.parallel import fork_available, shutdown_pool
from repro.experiments.runner import bcwc_model, standard_taskset, sweep
from repro.policies.registry import make_policy
from repro.profiling import OVERHEAD_BUDGET, PROFILER
from repro.profiling.report import profile_block
from repro.sim import fastcore
from repro.sim.engine import simulate

XS = (0.3, 0.7)
N_TASKSETS = 3
HORIZON = 300.0
POLICIES = ("none", "static", "lpSTA")
UNITS = len(XS) * N_TASKSETS

#: Anchor timing: min-of-N absorbs scheduler noise; the additive slop
#: keeps sub-10ms runs from failing on timer jitter alone.
ANCHOR_ROUNDS = 5
ANCHOR_HORIZON = 600.0
NOISE_SLOP_S = 0.005


def workload(u: float, seed: int):
    return standard_taskset(6, u, seed), bcwc_model(0.5, seed)


def fingerprint(cells) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for cell in cells:
        digest.update(json.dumps(cell.to_payload()).encode())
    return digest.hexdigest()


def run(workers: int):
    try:
        return sweep(XS, workload, POLICIES, n_tasksets=N_TASKSETS,
                     horizon=HORIZON, workers=workers,
                     workload_id="profile-gate")
    finally:
        if workers > 1:
            shutdown_pool()


def anchor_once() -> float:
    """One ``engine_step``-shaped simulation, interpreted loop pinned."""
    taskset = standard_taskset(8, 0.7, 20020311)
    model = bcwc_model(0.5, 20020311)
    t0 = time.perf_counter()
    with fastcore.forced(False):
        simulate(taskset, ideal_processor(), make_policy("static"),
                 model, horizon=ANCHOR_HORIZON)
    return time.perf_counter() - t0


def anchor_min() -> float:
    return min(anchor_once() for _ in range(ANCHOR_ROUNDS))


def phase_counts(delta: dict) -> dict[str, int]:
    """Deterministic per-phase counts — timing-free fold substance."""
    return {name: stats["count"]
            for name, stats in sorted(delta.get("phases", {}).items())
            if name.startswith("policy.decide.")
            or name in ("unit.workload", "slack.exact", "slack.heuristic",
                        "cache.lookup")}


def main() -> int:
    failures = []

    def check(label: str, ok: bool, detail: str = "") -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}"
              + (f": {detail}" if detail and not ok else ""))
        if not ok:
            failures.append(label)

    workers = 2 if fork_available() else 1
    if workers == 1:
        print("profile gate: no fork on this host; gating the serial "
              "fold only")

    # --- result purity + budget invariant + comparable folds -------
    bare_cells = run(1)
    bare_fp = fingerprint(bare_cells)

    PROFILER.configure(enabled=True)
    try:
        before = PROFILER.snapshot()
        t0 = time.perf_counter()
        ser_cells = run(1)
        measured_wall = time.perf_counter() - t0
        ser_delta = PROFILER.delta_since(before)

        before = PROFILER.snapshot()
        par_cells = run(workers)
        par_delta = PROFILER.delta_since(before)
    finally:
        PROFILER.configure(enabled=False)
        PROFILER.reset()

    check("cells byte-identical with profiling on (serial)",
          fingerprint(ser_cells) == bare_fp,
          "profiled serial run changed simulation results")
    check("cells byte-identical with profiling on (parallel)",
          fingerprint(par_cells) == bare_fp,
          "profiled parallel run changed simulation results")

    block = profile_block(ser_delta)
    budget_sum = sum(block["budget"].values())
    check("budget categories sum to attributed wall",
          abs(budget_sum - block["wall_s"]) < 1e-9,
          f"sum={budget_sum:.6f}s wall_s={block['wall_s']:.6f}s")
    check("attributed wall within epsilon of measured wall",
          abs(block["wall_s"] - measured_wall)
          <= 0.10 * measured_wall + 0.05,
          f"attributed={block['wall_s']:.4f}s "
          f"measured={measured_wall:.4f}s")

    if workers > 1:
        check("serial and parallel folds agree on phase counts",
              phase_counts(ser_delta) == phase_counts(par_delta),
              f"serial={phase_counts(ser_delta)} "
              f"parallel={phase_counts(par_delta)}")

    # --- overhead contract on the engine anchor --------------------
    anchor_once()  # warm imports and allocator before timing
    off_min = anchor_min()
    PROFILER.configure(enabled=True)
    try:
        on_min = anchor_min()
    finally:
        PROFILER.configure(enabled=False)
        PROFILER.reset()

    check("profiling off adds no measurable overhead",
          off_min <= on_min * 1.10 + NOISE_SLOP_S,
          f"off={off_min * 1e3:.2f}ms on={on_min * 1e3:.2f}ms — "
          f"the disabled path should never lose to the enabled one")
    check(f"profiling on stays under {OVERHEAD_BUDGET:.1f}x budget",
          on_min <= off_min * OVERHEAD_BUDGET + NOISE_SLOP_S,
          f"on={on_min * 1e3:.2f}ms off={off_min * 1e3:.2f}ms "
          f"budget={OVERHEAD_BUDGET:.1f}x")

    if failures:
        print(f"profile gate: {len(failures)} contract(s) broken")
        return 1
    print(f"profile gate: {UNITS} units profiled, fingerprints equal, "
          f"budget sums exactly, anchor off={off_min * 1e3:.2f}ms "
          f"on={on_min * 1e3:.2f}ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
