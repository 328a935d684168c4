"""Schedulability, demand and slack-time analysis."""

from repro.analysis.demand import (
    dbf,
    dbf_task,
    future_demand,
    future_demand_linear_bound,
    deadlines_within,
    busy_window_end,
)
from repro.analysis.schedulability import (
    edf_utilization_test,
    edf_density_test,
    processor_demand_test,
    minimum_constant_speed,
)
from repro.analysis.slack import (
    ActiveJob,
    SystemState,
    demand,
    demand_linear_bound,
    exact_slack,
    heuristic_slack,
    stretch_speed,
    allotted_speed,
    scale_tasks,
)
from repro.analysis.audit import (
    Violation,
    audit_trace,
    render_violations,
    run_and_audit,
)
from repro.analysis.stats import (
    Summary,
    summarize,
    geometric_mean,
    relative_change,
)
from repro.analysis.yds import (
    ConcreteJob,
    IntensityStep,
    jobs_from_taskset,
    yds_schedule,
    yds_optimal_energy,
)

__all__ = [
    "dbf",
    "dbf_task",
    "future_demand",
    "future_demand_linear_bound",
    "deadlines_within",
    "busy_window_end",
    "edf_utilization_test",
    "edf_density_test",
    "processor_demand_test",
    "minimum_constant_speed",
    "ActiveJob",
    "SystemState",
    "demand",
    "demand_linear_bound",
    "exact_slack",
    "heuristic_slack",
    "stretch_speed",
    "allotted_speed",
    "scale_tasks",
    "Violation",
    "audit_trace",
    "render_violations",
    "run_and_audit",
    "Summary",
    "summarize",
    "geometric_mean",
    "relative_change",
    "ConcreteJob",
    "IntensityStep",
    "jobs_from_taskset",
    "yds_schedule",
    "yds_optimal_energy",
]
