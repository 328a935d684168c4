"""Sweep time-budget reports (DESIGN.md §9).

The phase timers live in the instrumentation registry
(:data:`repro.telemetry.TELEMETRY`, switched by ``configure_timers``);
:mod:`repro.profiling.report` turns its deltas into time-budget
blocks, flamegraphs and Chrome traces.
"""

from repro.telemetry import TELEMETRY


class _Timers:
    """``PROFILER.enabled`` is true exactly when the timers are on."""

    __slots__ = ()

    @property
    def enabled(self) -> bool:
        return TELEMETRY.timers


PROFILER = _Timers()
