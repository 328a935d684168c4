#!/usr/bin/env bash
# Fast CI loop: tier-1 tests minus the slow sweeps, the end-to-end
# benchmark's own self-tests, the parallel executor's determinism/cache
# contract, the byte-identity gates, then the perf regression guards
# against the newest checked-in BENCH_*.json.
#
#   scripts/ci_fast.sh            # tests + determinism + perf guards
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

# The byte-identity contract of the chunked warm-pool executor and the
# suite cache, explicitly — the guard the parallel layer lives under.
PYTHONPATH=src python -m pytest -x -q \
    tests/test_parallel_sweep.py tests/test_cell_cache.py

# The telemetry layer's own contracts: disabled-path overhead guard,
# serial-equals-parallel merge, manifest consistency.
PYTHONPATH=src python -m pytest -x -q -m telemetry

# Compiled engine core (DESIGN.md §13): its unit subset, then one
# EXP-F1 mini-cell and one fault-matrix cell, every default policy,
# run with the compiled core forced off and on (serial and parallel)
# whose cell fingerprints must match bit for bit.  The gate takes the
# extension from the import-time loader (built once per source digest
# into the user cache) and skips loudly, naming the loader's reason,
# when there is none — the interpreted engine is the contract on such
# hosts.
PYTHONPATH=src python -m pytest -x -q -m compiled
PYTHONPATH=src python scripts/compiled_gate.py

# Schedule-invariant audit over one reference cell and one
# fault-matrix cell, every policy: fails on any Violation.
PYTHONPATH=src python scripts/trace_audit_gate.py

# Resilience contract: a sweep with one injected worker crash and one
# injected hang must complete, quarantine nothing, and match the
# clean-run fingerprint byte for byte.
PYTHONPATH=src python scripts/chaos_gate.py

# Live-observability contract (DESIGN.md §14): the watch subset, then
# one EXP-F1 mini-cell at --workers 2 whose progress.jsonl must be
# schema-valid and time-monotonic, count exactly the sweep's units,
# match the run manifest's progress block field for field, and leave
# the cell results byte-identical with the stream on or off.
PYTHONPATH=src python -m pytest -x -q -m watch
PYTHONPATH=src python scripts/progress_gate.py

# Profiling contract (DESIGN.md §15): the profile subset, then one
# EXP-F1 mini-cell whose cells must stay byte-identical with phase
# timers on or off, whose budget categories must sum exactly to the
# attributed wall, and whose engine_step anchor must pay nothing
# measurable when profiling is off and stay under the declared
# OVERHEAD_BUDGET when it is on.
PYTHONPATH=src python -m pytest -x -q -m profile
PYTHONPATH=src python scripts/profile_gate.py

# Perf guard: bench_record.py resolves the newest BENCH_*.json itself
# (by the date in the filename, not directory order) and names the
# baseline it compared against.
if ! ls BENCH_*.json >/dev/null 2>&1; then
    echo "no BENCH_*.json record found; skipping the perf guard"
    exit 0
fi
PYTHONPATH=src python scripts/bench_record.py --check
