"""Sweep time-budget profiling (DESIGN.md §15).

``PROFILER`` is the process-global phase profiler; hot-path callers
guard every region with ``if PROFILER.enabled`` so the layer costs one
attribute load when off.  :mod:`repro.profiling.report` turns deltas
into time-budget blocks, flamegraphs, and Chrome traces.
"""

from repro.profiling.core import (  # noqa: F401
    DEFAULT_SAMPLE_INTERVAL_S,
    OVERHEAD_BUDGET,
    PROFILER,
    PhaseProfiler,
    StackSampler,
    decide_label,
)
