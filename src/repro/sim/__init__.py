"""Simulation kernel: the EDF engine, tracing, results."""

from repro.sim.tracing import Segment, SegmentKind, TraceRecorder
from repro.sim.results import DeadlineMiss, SimulationResult, TaskStats
from repro.sim.engine import SimContext, Simulator, simulate
from repro.sim.multicore import (
    MulticoreResult,
    first_fit_decreasing,
    worst_fit_decreasing,
    simulate_partitioned,
)

__all__ = [
    "Segment",
    "SegmentKind",
    "TraceRecorder",
    "DeadlineMiss",
    "SimulationResult",
    "TaskStats",
    "SimContext",
    "Simulator",
    "simulate",
    "MulticoreResult",
    "first_fit_decreasing",
    "worst_fit_decreasing",
    "simulate_partitioned",
]
