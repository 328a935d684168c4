#!/usr/bin/env python
"""CI gate: every execution path reproduces the same sweep cells.

Runs the workloads of :data:`FIXED_SPECS` and :data:`DRAWN_SHAPES` as
a serial, interpreted, uninstrumented reference, then under each leg
of :data:`LEGS`, a pairwise covering array over :data:`TOGGLES`.  Every
leg must reproduce the reference's cell fingerprints bit for bit and
hold the contracts of the toggles it turns on; a fixed anchor pins the
profiler's overhead.  Compiled legs skip loudly, naming the loader's
reason, when the extension is unavailable; parallel legs when ``fork``
is.  No arguments, no environment variables.

Usage: PYTHONPATH=src python scripts/identity_gate.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.cpu.profiles import ideal_processor
from repro.errors import SuiteExecutionError
from repro.experiments import chaos
from repro.experiments.chaos import ChaosPlan, CrashChaos, HangChaos
from repro.experiments.config import EXPERIMENT_PERIOD_CHOICES
from repro.experiments.parallel import fork_available, shutdown_pool
from repro.experiments.runner import (
    bcwc_model,
    standard_taskset,
    sweep,
    taskset_seeds,
)
from repro.faults import FaultPlan
from repro.faults.plan import OverrunFault, TransitionFault
from repro.policies.registry import ALL_POLICY_NAMES, make_policy
from repro.profiling.report import profile_block
from repro.sim import fastcore
from repro.sim.engine import simulate
from repro.tasks.generators import generate_taskset
from repro.telemetry import OVERHEAD_BUDGET, TELEMETRY, progress
from repro.telemetry.manifest import RunManifest

TOGGLES = ("compiled", "workers", "telemetry", "profile", "progress",
           "chaos", "audit")

#: One row per leg; the first is the reference.  Every pair of toggle
#: values shares a row (checked at start-up), which also puts profile,
#: progress, chaos and audit each on an interpreted leg.
#:   compiled workers telemetry profile progress chaos  audit
LEGS = [dict(zip(TOGGLES, row)) for row in (
    (False,   1,      False,    False,  False,   False, False),
    (False,   1,      True,     False,  True,    False, True),
    (True,    1,      False,    True,   False,   False, True),
    (True,    2,      True,     True,   True,    False, False),
    (False,   2,      False,    True,   True,    True,  True),
    (True,    2,      True,     False,  False,   True,  False),
)]

N_SEEDS = 1
MASTER_SEED = 2002
HORIZON = 600.0  # the old compiled gate's; the experiments run 2400

#: The experiments' shapes, always run: EXP-F1 at its default 8 tasks,
#: EXP-F3's largest cell and the old compiled gate's fault-matrix cell,
#: plus short harmonic periods (a spec's ``periods``; the experiments'
#: choices otherwise): the clairvoyant oracle's 4-period window, 160
#: time units, then slides across the horizon instead of covering it.
#: The last is EXP-FM1's raw cell (``"governed": False``; faulted specs
#: are governed otherwise): every job overruns by 1.4 with no speed
#: fault, and the policies miss, so the miss records are fingerprinted.
FIXED_SPECS = [
    {"n": 8, "u": 0.9, "bcwc": 0.5, "deadlines": None, "faults": None},
    {"n": 16, "u": 0.9, "bcwc": 0.5, "deadlines": None, "faults": None},
    {"n": 6, "u": 0.65, "bcwc": 0.5, "deadlines": None,
     "faults": {"factor": 1.3, "probability": 0.3, "stuck": 0.2}},
    {"n": 8, "u": 0.9, "bcwc": 0.5, "deadlines": None, "faults": None,
     "periods": (10.0, 20.0, 40.0)},
    {"n": 6, "u": 0.65, "bcwc": 0.5, "deadlines": None,
     "faults": {"factor": 1.4, "probability": 1.0, "stuck": 0.0},
     "governed": False},
]
#: Drawn over the experiments' ranges (fig3 sweeps 2 to 16 tasks, the
#: fault matrix overruns by up to 1.4), derandomized under the
#: hypothesis release pyproject.toml pins.  Faulted specs run overruns
#: plus stuck speed transitions under the safety governor.
SPEC = st.fixed_dictionaries({
    "n": st.integers(min_value=2, max_value=16),
    "u": st.floats(min_value=0.1, max_value=0.95),
    "bcwc": st.floats(min_value=0.1, max_value=1.0),
    "faults": st.fixed_dictionaries({
        "factor": st.floats(min_value=1.1, max_value=1.4),
        "probability": st.floats(min_value=0.1, max_value=1.0),
        "stuck": st.floats(min_value=0.05, max_value=0.3),
    }),
})
#: (constrained, faulted) per drawn spec: with the fixed specs, every
#: pairing runs.  The first derandomized example is the strategy's
#: minimum, so it goes to a shape whose task count is capped.
DRAWN_SHAPES = ((True, False), (False, False), (True, True))
#: EXP-F6's constrained family, at most EXP-F3's largest task count.
CONSTRAINED_RANGE = (0.6, 0.95)
CONSTRAINED_MAX_N = 16
N_SPECS = len(FIXED_SPECS) + len(DRAWN_SHAPES)
UNITS = N_SPECS * N_SEEDS
RUNS = UNITS * len(ALL_POLICY_NAMES)  # each unit runs every policy
#: The policies whose speed the compiled core decides itself on every
#: ungoverned compiled run (the no-DVS baseline of a suite is never
#: governed, so it decides in C on every unit).  Every run draws its
#: demands in C too: every spec's model is uniform or worst-case, under
#: overrun faults wrapped in an unpatched ``FaultyExecution``.
C_DECIDED = ALL_POLICY_NAMES
#: The policies whose governed runs decide in C, the governor's floor a
#: stage after the inner decide; counted under ``gov(<name>)``.
GOVERNED_C_DECIDED = tuple(name for name in ALL_POLICY_NAMES
                           if name != "none")

CHAOS_PROBABILITY = 0.1
#: Chaos legs' unit deadline: several times the slowest honest unit
#: (an interpreted, audited 16-task or governed one takes ~0.35 s).
UNIT_TIMEOUT_S = 2.0

#: Anchor timing: min-of-N absorbs scheduler noise; the additive slop
#: keeps sub-10ms runs from failing on timer jitter alone.
ANCHOR_ROUNDS = 5
ANCHOR_HORIZON = 600.0
NOISE_SLOP_S = 0.005

FAILURES: list[str] = []


def check(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}"
          + (f": {detail}" if detail and not ok else ""))
    if not ok:
        FAILURES.append(label)


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"identity gate: {message}")


def assert_covering() -> None:
    """Fail loudly if an edit to LEGS dropped a toggle pair."""
    values = {name: (1, 2) if name == "workers" else (False, True)
              for name in TOGGLES}
    reference = {name: values[name][0] for name in TOGGLES}
    require(LEGS[0] == reference,
            "the first leg must be the bare serial interpreted reference")
    require(all(leg["workers"] == 2 for leg in LEGS if leg["chaos"]),
            "chaos needs workers=2")
    for a, b in itertools.combinations(TOGGLES, 2):
        for va, vb in itertools.product(values[a], values[b]):
            pair = dict(reference, **{a: va, b: vb})
            require((pair["chaos"] and pair["workers"] == 1) or any(
                leg[a] == va and leg[b] == vb for leg in LEGS),
                f"no leg covers {a}={va} with {b}={vb}")
    for extra in ("profile", "telemetry"):
        require(any(leg["compiled"] and leg[extra] and leg["workers"] == 2
                    for leg in LEGS), f"no compiled+{extra}+workers=2 leg")


def draw_specs() -> list[dict]:
    """The fixed specs, then one drawn spec per :data:`DRAWN_SHAPES`."""
    drawn: list[dict] = []

    @settings(max_examples=len(DRAWN_SHAPES), derandomize=True,
              database=None, phases=[Phase.generate], deadline=None)
    @given(SPEC)
    def collect(spec):
        drawn.append(spec)

    collect()
    for spec, (constrained, faulted) in zip(drawn, DRAWN_SHAPES,
                                            strict=True):
        spec["deadlines"] = CONSTRAINED_RANGE if constrained else None
        if constrained:
            spec["n"] = min(spec["n"], CONSTRAINED_MAX_N)
        if not faulted:
            spec["faults"] = None
    return FIXED_SPECS + drawn


def governed(spec: dict) -> bool:
    """Faulted specs run under the safety governor unless they say not."""
    return spec["faults"] is not None and spec.get("governed", True)


def sweep_kwargs(specs: list[dict]) -> dict:
    """One sweep over every spec: cell *i* is spec *i*."""

    def workload(x: float, seed: int):
        spec = specs[int(x)]
        taskset = generate_taskset(
            spec["n"], spec["u"], np.random.default_rng(seed),
            period_choices=spec.get("periods", EXPERIMENT_PERIOD_CHOICES),
            deadline_range=spec["deadlines"])
        return taskset, bcwc_model(spec["bcwc"], seed)

    def faults(x: float, seed: int):
        plan = specs[int(x)]["faults"]
        if plan is None:
            return None
        return FaultPlan(
            seed=seed,
            overrun=OverrunFault(factor=plan["factor"],
                                 probability=plan["probability"]),
            transition=(TransitionFault(stuck_probability=plan["stuck"])
                        if plan["stuck"] else None))

    def policies(x: float):
        plan = specs[int(x)]["faults"]
        if not governed(specs[int(x)]):
            return make_policy
        return lambda name: make_policy(name, governed=True,
                                        governor_margin=plan["factor"])

    # Constrained deadlines defeat utilization-based policies (ccEDF
    # misses on them by design), so misses are counted, not fatal —
    # and the counts are part of every fingerprint.
    return dict(xs=[float(i) for i in range(len(specs))],
                make_workload=workload, policy_names=ALL_POLICY_NAMES,
                n_tasksets=N_SEEDS, master_seed=MASTER_SEED,
                horizon=HORIZON, allow_misses=True,
                faults_factory=faults, policy_factory=policies,
                workload_id="identity-gate")


def fingerprints(cells) -> list[str]:
    return [hashlib.blake2b(json.dumps(cell.to_payload()).encode(),
                            digest_size=16).hexdigest() for cell in cells]


def chaos_plan(markers: Path, *, crash: bool, hang: bool) -> ChaosPlan:
    """A plan whose crash and hang each hit exactly one distinct unit
    (the chaos draw hashes plan seed, salt and unit key)."""
    keys = [f"{float(i)!r}:{seed}" for i in range(N_SPECS)
            for seed in taskset_seeds(MASTER_SEED, N_SEEDS)]
    for seed in range(5000):
        crashed = [k for k in keys if chaos._draw(
            seed, chaos._CRASH_SALT, k) < CHAOS_PROBABILITY]
        hung = [k for k in keys if chaos._draw(
            seed, chaos._HANG_SALT, k) < CHAOS_PROBABILITY]
        if len(crashed) == len(hung) == 1 and crashed != hung:
            return ChaosPlan(
                seed=seed, marker_dir=str(markers),
                crash=CrashChaos(CHAOS_PROBABILITY) if crash else None,
                hang=(HangChaos(CHAOS_PROBABILITY, duration=30.0)
                      if hang else None))
    raise SystemExit("identity gate: no suitable chaos plan seed")


def chaos_sweep(kwargs: dict, markers: Path, *, crash: bool, hang: bool):
    with chaos.active(chaos_plan(markers, crash=crash, hang=hang)):
        return sweep(**kwargs, unit_timeout=UNIT_TIMEOUT_S, max_retries=1,
                     retry_backoff=0.01, on_failure="quarantine")


def phase_counts(delta: dict) -> dict[str, int]:
    """Deterministic per-phase counts — timing-free fold substance."""
    return {name: stats["count"]
            for name, stats in sorted(delta.get("phases", {}).items())
            if name.startswith("policy.decide.")
            or name in ("unit.workload", "slack.exact", "slack.heuristic",
                        "cache.lookup")}


def check_progress(tag: str, leg: dict, directory: Path) -> list[tuple]:
    """The stream's contract; returns its unit/cell event substance."""
    stream = directory / progress.PROGRESS_FILENAME
    problems = progress.validate_stream(stream)
    check(f"{tag} stream schema-valid and time-monotonic", not problems,
          "; ".join(problems[:5]))
    snap = progress.read_progress(directory)
    check(f"{tag} sweep completed",
          snap.finished and snap.status == "completed",
          f"status={snap.status} finished={snap.finished}")
    check(f"{tag} completed units == unit count",
          snap.done == UNITS and snap.computed == UNITS,
          f"done={snap.done} computed={snap.computed} expected={UNITS}")
    check(f"{tag} every cell reported done",
          snap.cells_done == snap.cells == N_SPECS
          and all(c.done == N_SEEDS for c in snap.per_cell),
          f"{snap.cells_done=} {[c.done for c in snap.per_cell]}")
    check(f"{tag} no corrupt lines", snap.corrupt_lines == 0,
          f"{snap.corrupt_lines} corrupt line(s)")
    events = [json.loads(line) for line in stream.read_text().splitlines()]
    if leg["workers"] > 1:
        kinds = sorted({event["kind"] for event in events})
        check(f"{tag} parallel dispatch narrated",
              "chunk.dispatch" in kinds, f"kinds seen: {kinds}")
    if leg["telemetry"]:
        manifests = sorted(directory.glob("manifest_*.json"))
        check(f"{tag} run manifest written", bool(manifests))
        if manifests:
            block = RunManifest.load(manifests[-1]).progress
            check(f"{tag} manifest progress block == terminal snapshot",
                  block == snap.summary(),
                  f"manifest={block} snapshot={snap.summary()}")
    return sorted(
        (e["kind"], e["index"], e["seed_pos"], e["status"])
        if e["kind"] == "unit.done" else (e["kind"], e["index"])
        for e in events
        if e["kind"] in ("unit.done", "cell.done", "cell.resumed"))


def check_engines(tag: str, leg: dict, parent_runs: int, parent_drawn: int,
                  parent_decides: dict[str, int], decided_units: int) -> None:
    """Interpreted legs run no C; compiled legs run every suite in C
    and draw every run's demands in C, every unguarded run of the
    :data:`C_DECIDED` policies decides its speeds in C, and so does
    every governed run of the :data:`GOVERNED_C_DECIDED` policies (the
    engagement probe)."""
    counted = TELEMETRY.counter("engine.compiled_runs")
    draws = TELEMETRY.counter("engine.compiled_draws")
    decides = TELEMETRY.counter("engine.compiled_decides")
    if not leg["compiled"]:
        check(f"{tag} stayed interpreted",
              parent_runs == parent_drawn == counted == draws == decides
              == 0 and not parent_decides,
              f"compiled runs: {parent_runs} parent, {counted} counted")
        return
    expected = {name: UNITS if name == "none" else decided_units
                for name in C_DECIDED}
    expected.update({f"gov({name})": UNITS - decided_units
                     for name in GOVERNED_C_DECIDED})
    label = (f"every unguarded run of {'/'.join(C_DECIDED)} and every "
             f"governed run of {'/'.join(GOVERNED_C_DECIDED)} decided in C")
    if leg["workers"] == 1:
        check(f"{tag} compiled core ran every suite", parent_runs == RUNS,
              f"{parent_runs} of {RUNS} runs compiled")
        check(f"{tag} every run drew its demands in C",
              parent_drawn == RUNS,
              f"{parent_drawn} of {RUNS} runs drew in C")
        check(f"{tag} {label}", parent_decides == expected,
              f"decided {parent_decides}, expected {expected}")
    if leg["telemetry"]:
        check(f"{tag} compiled core ran every suite, workers included",
              counted == RUNS, f"engine.compiled_runs={counted} of {RUNS}")
        check(f"{tag} every run drew its demands in C, workers included",
              draws == RUNS, f"engine.compiled_draws={draws} of {RUNS}")
        check(f"{tag} {label}, workers included",
              decides == sum(expected.values()),
              f"engine.compiled_decides={decides} of "
              f"{sum(expected.values())}")


def check_profile(tag: str, leg: dict, delta: dict, measured: float) -> None:
    block = profile_block(delta)
    budget_sum = sum(block["budget"].values())
    check(f"{tag} budget categories sum to attributed wall",
          abs(budget_sum - block["wall_s"]) < 1e-9,
          f"sum={budget_sum:.6f}s wall_s={block['wall_s']:.6f}s")
    if leg["workers"] == 1:
        # In parallel, wall_s is busy time summed over processes.
        check(f"{tag} attributed wall within epsilon of measured wall",
              abs(block["wall_s"] - measured) <= 0.10 * measured + 0.05,
              f"attributed={block['wall_s']:.4f}s measured={measured:.4f}s")


def check_chaos(tag: str, leg: dict, kwargs: dict, cells: list,
                reference: list[str], tmp: Path) -> None:
    if leg["telemetry"]:
        # A crash can break the pool while the hang's chunk is in
        # flight, losing its counter delta: here the leg's sweep only
        # crashed, and a hang-only plan proves the deadline path.
        hang_cells = chaos_sweep(kwargs, tmp / "markers", crash=False,
                                 hang=True)
        cells = cells + hang_cells
        check(f"{tag} hang-only run byte-identical",
              fingerprints(hang_cells) == reference)
        for counter, label in (("pool_rebuilds", "pool rebuilt"),
                               ("unit_timeouts", "hang cut by deadline")):
            check(f"{tag} {label}", TELEMETRY.counter(
                f"resilience.{counter}") >= 1, f"resilience.{counter} == 0")
    fired = sorted(p.name for p in (tmp / "markers").iterdir())
    for kind in ("crash", "hang"):
        check(f"{tag} {kind} injected",
              any(n.startswith(f"fired_{kind}_") for n in fired),
              f"markers={fired}")
    quarantined = [r for cell in cells for r in cell.quarantined]
    check(f"{tag} nothing quarantined", not quarantined, f"{quarantined}")


def run_leg(tag: str, leg: dict, kwargs: dict, reference: list[str],
            tmp: Path, folds: dict, decided_units: int) -> None:
    """Run one leg, compare it with the reference, check its toggles."""
    kwargs = dict(kwargs, workers=leg["workers"])
    stream_dir = tmp / "progress"
    if leg["progress"]:
        kwargs["progress_dir"] = stream_dir
    if leg["audit"]:
        kwargs["audit_every"] = 1
    if leg["telemetry"]:
        # With a manifest directory the stream would follow it, so a
        # progress-off leg gets none.
        TELEMETRY.configure(
            enabled=True,
            manifest_dir=stream_dir if leg["progress"] else None)
    TELEMETRY.configure_timers(enabled=leg["profile"])
    parent_before = fastcore.RUN_COUNTS["compiled"]
    drawn_before = fastcore.RUN_COUNTS["drawn"]
    decided_before = dict(fastcore.RUN_COUNTS["decided"])
    t0 = time.perf_counter()
    try:
        with fastcore.forced(leg["compiled"]):
            if leg["chaos"]:
                cells = chaos_sweep(kwargs, tmp / "markers", crash=True,
                                    hang=not leg["telemetry"])
            else:
                cells = sweep(**kwargs)
            measured = time.perf_counter() - t0
            shutdown_pool()
            fps = fingerprints(cells)
            check(f"{tag} cells byte-identical to the reference",
                  fps == reference, "spec(s) "
                  f"{[i for i, fp in enumerate(fps) if fp != reference[i]]}"
                  " diverge")
            decided = {
                name: count - decided_before.get(name, 0)
                for name, count in fastcore.RUN_COUNTS["decided"].items()
                if count != decided_before.get(name, 0)}
            check_engines(tag, leg, fastcore.RUN_COUNTS["compiled"]
                          - parent_before,
                          fastcore.RUN_COUNTS["drawn"] - drawn_before,
                          decided, decided_units)
            if leg["telemetry"] and leg["audit"]:
                check(f"{tag} every run audited",
                      TELEMETRY.counter("audit.runs") == RUNS,
                      f"audit.runs={TELEMETRY.counter('audit.runs')}")
            if leg["profile"]:
                delta = TELEMETRY.delta_since(None)
                check_profile(tag, leg, delta, measured)
                folds["phases"][tag] = phase_counts(delta)
            if leg["progress"]:
                folds["events"][tag] = check_progress(tag, leg, stream_dir)
            if leg["chaos"]:
                check_chaos(tag, leg, kwargs, cells, reference, tmp)
    except SuiteExecutionError as exc:
        check(f"{tag} sweep completed", False, str(exc))
    finally:
        shutdown_pool()
        TELEMETRY.configure(enabled=False)
        TELEMETRY.configure_timers(enabled=False)
        TELEMETRY.reset()
    print(f"     {tag} took {time.perf_counter() - t0:.2f}s")


def anchor_once() -> float:
    """One ``engine_step``-shaped simulation, interpreted loop pinned."""
    taskset = standard_taskset(8, 0.7, 20020311)
    model = bcwc_model(0.5, 20020311)
    t0 = time.perf_counter()
    with fastcore.forced(False):
        simulate(taskset, ideal_processor(), make_policy("static"),
                 model, horizon=ANCHOR_HORIZON)
    return time.perf_counter() - t0


def check_profile_overhead() -> None:
    anchor_once()  # warm imports and allocator before timing
    off = min(anchor_once() for _ in range(ANCHOR_ROUNDS))
    TELEMETRY.configure_timers(enabled=True)
    try:
        on = min(anchor_once() for _ in range(ANCHOR_ROUNDS))
    finally:
        TELEMETRY.configure_timers(enabled=False)
        TELEMETRY.reset()
    check("anchor: profiling off adds no measurable overhead",
          off <= on * 1.10 + NOISE_SLOP_S,
          f"off={off * 1e3:.2f}ms on={on * 1e3:.2f}ms")
    check(f"anchor: profiling on stays under {OVERHEAD_BUDGET:.1f}x budget",
          on <= off * OVERHEAD_BUDGET + NOISE_SLOP_S,
          f"on={on * 1e3:.2f}ms off={off * 1e3:.2f}ms")


def check_folds_agree(label: str, by_leg: dict) -> None:
    """Every leg that recorded *label* folds to the same substance."""
    values = list(by_leg.values())
    if len(values) > 1:
        check(f"{label} equal across legs {sorted(by_leg)}",
              all(value == values[0] for value in values),
              "; ".join(f"{tag} {value}" for tag, value in by_leg.items()))


def main() -> int:
    assert_covering()
    specs = draw_specs()
    print(f"identity gate: {len(LEGS) - 1} legs over {N_SPECS} "
          f"specs x {N_SEEDS} seeds x {len(ALL_POLICY_NAMES)} policies")
    for i, spec in enumerate(specs):
        print(f"  spec {i}: {spec}")
    skip = []
    info = fastcore.core_info()
    if fastcore.compiled_available():
        print(f"identity gate: extension {info['origin']}")
    else:
        print(f"{'=' * 64}\nidentity gate: compiled legs SKIPPED — compiled "
              f"core unavailable:\n  {info['reason']}\nthe interpreted "
              f"engine is the contract on this host.\n{'=' * 64}")
        skip.append("compiled")
    if not fork_available():
        print("identity gate: fork() unavailable; parallel legs SKIPPED")
        skip.append("workers")

    kwargs = sweep_kwargs(specs)
    decided_units = N_SEEDS * sum(not governed(spec) for spec in specs)
    folds: dict = {"phases": {}, "events": {}}
    with tempfile.TemporaryDirectory(prefix="identity-gate-") as root:
        root = Path(root)
        # The reference is also the bare leg: with no directory given,
        # it must write nothing, not even into its working directory.
        bare_cwd = root / "cwd"
        bare_cwd.mkdir()
        previous_cwd = os.getcwd()
        os.chdir(bare_cwd)
        try:
            with fastcore.forced(False):
                reference = fingerprints(sweep(**kwargs))
        finally:
            os.chdir(previous_cwd)
        check("reference: bare sweep wrote nothing into its cwd",
              not any(bare_cwd.iterdir()),
              f"found {sorted(p.name for p in bare_cwd.iterdir())}")

        for number, leg in enumerate(LEGS[1:], start=1):
            on = "+".join(name for name in TOGGLES
                          if name != "workers" and leg[name])
            tag = f"leg {number} [w{leg['workers']} {on}]:"
            if any(leg[name] != LEGS[0][name] for name in skip):
                print(f"skip {tag}")
                continue
            (root / f"leg{number}").mkdir()
            run_leg(tag, leg, kwargs, reference, root / f"leg{number}",
                    folds, decided_units)

    check_folds_agree("profile phase counts", folds["phases"])
    check_folds_agree("progress unit/cell events", folds["events"])
    check_profile_overhead()
    if FAILURES:
        print(f"identity gate: {len(FAILURES)} contract(s) broken")
        return 1
    print("identity gate: every leg reproduces the reference cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
