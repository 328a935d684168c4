#!/usr/bin/env bash
# Fast CI loop: tier-1 tests minus the slow sweeps (on the default
# engine, then on the interpreted one), the end-to-end benchmark's
# self-tests, the execution-path identity gate, then the perf
# regression guard against the newest checked-in BENCH_*.json.
#
#   scripts/ci_fast.sh            # tests + identity gate + perf guard
#
# The marked subsets (telemetry, compiled, watch, chaos, faults, trace)
# and the parallel-executor/cache contract tests are all non-slow, so
# the two "not slow" runs below already cover them.
#
# The perf guard fails when the engine_step mean degrades more than
# 25% against the recorded trajectory, when the mini-sweep
# parallel_speedup falls below 1.0, when parallel_speedup_cold falls
# below 0.85 (a cold pool must never lose to a serial loop doing the
# same work; parity is the ceiling on a one-CPU host, 0.85 leaves
# noise room yet still catches the 0.76x refork regression), when the
# compiled engine core runs less than 2x faster than the interpreted
# loop (hosts where it was built), or when the instrumented mini sweep
# fails to produce a consistent run manifest
# (scripts/bench_record.py --check).
# The full tier-1 gate remains `PYTHONPATH=src python -m pytest -x -q`.
set -euo pipefail
cd "$(dirname "$0")/.."

PYTHONPATH=src python -m pytest -x -q -m "not slow"

# The same fast tests on the interpreted engine: the compiled core is
# the default wherever a C compiler exists, so the contract it mirrors
# needs its own run.  REPRO_COMPILED=0 skips both the build and the use.
REPRO_COMPILED=0 PYTHONPATH=src python -m pytest -x -q -m "not slow"

# The end-to-end benchmark's self-tests: the workload digests it pins,
# and a tracer that reads a target missing from this revision (such as
# the deleted vectorized engine's entry point) as absent, not an error.
PYTHONPATH=src python -m pytest -x -q benchmarks/e2e

# Execution-path identity (DESIGN.md §16): hypothesis-drawn sweeps run
# as a serial interpreted reference, then under a pairwise covering
# array of compiled / workers / telemetry / profile / progress / chaos
# / audit legs, each of which must reproduce the reference cells bit
# for bit and hold its own toggle's contract.  Compiled legs skip
# loudly, naming the loader's reason, where the extension is missing.
PYTHONPATH=src python scripts/identity_gate.py

# Perf guard: bench_record.py resolves the newest BENCH_*.json itself
# (by the date in the filename, not directory order) and names the
# baseline it compared against.
if ! ls BENCH_*.json >/dev/null 2>&1; then
    echo "no BENCH_*.json record found; skipping the perf guard"
    exit 0
fi
PYTHONPATH=src python scripts/bench_record.py --check
