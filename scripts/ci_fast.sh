#!/usr/bin/env bash
# Fast CI loop: tier-1 tests minus the slow sweeps (on the default
# engine, then on the interpreted one), the end-to-end benchmark's
# self-tests, the execution-path identity gate, then a paired A/B of
# the end-to-end benchmark against the merge base with main.
#
#   scripts/ci_fast.sh            # tests + identity gate + paired A/B
#
# The marked subsets (telemetry, compiled, watch, chaos, faults, trace)
# and the parallel-executor/cache contract tests are all non-slow, so
# the two "not slow" runs below already cover them; the compiled set
# includes the compiled core's >= 2x speed bound.
#
# The A/B leg (scripts/ab.py) runs each side's own benchmarks/e2e/run.py
# on every BENCHMARK.json workload, two pairs, alternating which side
# goes first, on this host: no timing recorded elsewhere is compared.
# It fails when either side's correctness checks fail or when
# `run.py --compare` finds an end-to-end metric worse than its bound.
# It costs 12 benchmark calls of ~9 s (under two minutes on a 2-vCPU
# VM), and is skipped when the working tree does not differ from the
# merge base (a clean checkout of main itself): the pair would compare
# a tree with itself.
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

# Paired A/B against the merge base with main.
if ! base=$(git merge-base HEAD main 2>/dev/null); then
    echo "no merge base with main; skipping the paired A/B"
    exit 0
fi
if git diff --quiet "$base" && [ -z "$(git ls-files --others --exclude-standard)" ]; then
    echo "working tree equals the merge base ${base:0:12}; skipping the paired A/B"
    exit 0
fi
python scripts/ab.py "$base" --pairs 2
