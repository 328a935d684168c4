#!/usr/bin/env python3
"""CNC machine controller on a discrete-level embedded processor.

The scenario the paper's introduction motivates: a battery-powered
embedded controller with tight sensing/actuation loops whose jobs
usually finish well under their worst-case budgets.  This example runs
the CNC benchmark suite on two realistic processors (the textbook
4-level part and an XScale-style 5-level part), compares the DVS
policies, validates the lpSTA trace end-to-end, and prints per-task
response-time statistics to show the latency price of running slower.

Run:  python examples/cnc_controller.py
"""

from repro import (
    ALL_POLICY_NAMES,
    UniformExecution,
    cnc_taskset,
    generic4_processor,
    make_policy,
    simulate,
    xscale_processor,
)
from repro.analysis import audit_trace, render_violations


def compare_policies(taskset, processor, model, horizon):
    print(f"\n--- {processor.name} ---")
    print(f"{'policy':<12} {'normalized':>11} {'switches':>9} "
          f"{'mean speed':>11}")
    baseline = None
    results = {}
    for name in ALL_POLICY_NAMES:
        result = simulate(taskset, processor, make_policy(name), model,
                          horizon=horizon)
        if baseline is None:
            baseline = result
        results[name] = result
        print(f"{name:<12} {result.normalized_energy(baseline):>11.3f} "
              f"{result.switch_count:>9d} {result.mean_speed():>11.3f}")
    return results


def main() -> None:
    taskset = cnc_taskset()
    print(taskset.describe())
    # One hyperperiod of the suite (all periods divide 153.6 ms).
    horizon = taskset.hyperperiod() * 4
    # Machining jobs fluctuate between 40% and 100% of their budgets.
    model = UniformExecution(low=0.4, high=1.0, seed=7)

    for processor in (generic4_processor(), xscale_processor()):
        results = compare_policies(taskset, processor, model, horizon)

        # Paranoia: replay and audit the paper policy's schedule.
        checked = simulate(taskset, processor, make_policy("lpSTA"),
                           model, horizon=horizon, record_trace=True)
        violations = audit_trace(checked, taskset, processor, model)
        if violations or checked.deadline_misses:
            raise SystemExit(
                f"lpSTA trace failed its audit "
                f"({len(checked.deadline_misses)} misses)\n"
                f"{render_violations(violations)}")
        print("lpSTA trace audited: no misses, EDF order, work "
              "conservation, speeds, energy.")

        # Latency price: mean/max response time per task under lpSTA.
        print(f"{'task':<14} {'jobs':>5} {'mean resp':>10} "
              f"{'max resp':>10} {'period':>8}")
        for task in taskset:
            stats = checked.task_stats[task.name]
            print(f"{task.name:<14} {stats.completed:>5d} "
                  f"{stats.mean_response:>10.3f} "
                  f"{stats.max_response:>10.3f} {task.period:>8.1f}")


if __name__ == "__main__":
    main()
