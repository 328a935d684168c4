"""Per-figure experiment drivers (EXP-F1 .. EXP-F10).

Each function regenerates one figure of the reconstructed evaluation
(see DESIGN.md §5 and EXPERIMENTS.md) and returns a
:class:`~repro.experiments.config.FigureData` ready to render as an
ASCII table or export to CSV.  ``quick=True`` shrinks the sweeps for
smoke runs; the defaults match the recorded EXPERIMENTS.md numbers.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.analysis.stats import summarize
from repro.errors import ExperimentError
from repro.faults import FaultPlan, OverrunFault
from repro.cpu.profiles import ideal_processor, uniform_discrete_processor
from repro.cpu.transition import VoltageSwitchOverhead
from repro.cpu.processor import Processor
from repro.cpu.speed import ContinuousScale
from repro.cpu.power import PolynomialPowerModel
from repro.experiments.config import (
    DEFAULT_POLICIES,
    EXPERIMENT_HORIZON,
    FigureData,
    SeriesPoint,
)
from repro.experiments.probes import SlackProbePolicy
from repro.experiments.runner import (
    bcwc_model,
    standard_taskset,
    sweep,
    taskset_seeds,
)
from repro.policies.registry import make_policy
from repro.policies.slack_sta import LpStaPolicy
from repro.sim.engine import simulate


def _aggregate(figure: FigureData, cells, policy_names) -> FigureData:
    """Fold sweep cells into figure series (mean ± CI per policy)."""
    for cell in cells:
        for name in policy_names:
            values = cell.normalized.get(name)
            if not values:
                continue
            summary = summarize(values)
            switch_summary = summarize(cell.switches[name])
            figure.add_point(name, SeriesPoint(
                x=cell.x, mean=summary.mean, ci95=summary.ci95,
                count=summary.count,
                extra={"misses": cell.misses.get(name, 0),
                       "mean_switches": switch_summary.mean}))
    total_misses = sum(sum(c.misses.values()) for c in cells)
    figure.notes.append(f"total deadline misses across all runs: "
                        f"{total_misses}")
    return figure


def energy_vs_utilization(
    *,
    utilizations: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6,
                                     0.7, 0.8, 0.9, 1.0),
    n_tasks: int = 8,
    n_tasksets: int = 10,
    bcwc: float = 0.5,
    policies: Sequence[str] = DEFAULT_POLICIES,
    master_seed: int = 2002,
    quick: bool = False,
    workers: int = 1,
    cache_dir: str | Path | None = None,
) -> FigureData:
    """EXP-F1: normalized energy vs worst-case utilization."""
    if quick:
        utilizations = (0.3, 0.6, 0.9)
        n_tasksets = 3
    figure = FigureData(
        experiment_id="EXP-F1",
        title=f"Normalized energy vs worst-case utilization "
              f"(n={n_tasks}, bc/wc={bcwc})",
        x_label="utilization",
        y_label="energy normalized to no-DVS")

    def workload(u: float, seed: int):
        return (standard_taskset(n_tasks, u, seed),
                bcwc_model(bcwc, seed))

    cells = sweep(utilizations, workload, policies,
                  n_tasksets=n_tasksets, master_seed=master_seed,
                  horizon=EXPERIMENT_HORIZON, workers=workers,
                  cache_dir=cache_dir,
                  workload_id=f"EXP-F1:u:n={n_tasks}:bcwc={bcwc:g}")
    return _aggregate(figure, cells, policies)


def energy_vs_bcwc(
    *,
    ratios: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5,
                               0.6, 0.7, 0.8, 0.9, 1.0),
    utilization: float = 0.9,
    n_tasks: int = 8,
    n_tasksets: int = 10,
    policies: Sequence[str] = DEFAULT_POLICIES,
    master_seed: int = 2002,
    quick: bool = False,
    workers: int = 1,
    cache_dir: str | Path | None = None,
) -> FigureData:
    """EXP-F2: normalized energy vs bc/wc execution-time ratio."""
    if quick:
        ratios = (0.2, 0.5, 1.0)
        n_tasksets = 3
    figure = FigureData(
        experiment_id="EXP-F2",
        title=f"Normalized energy vs bc/wc ratio (U={utilization}, "
              f"n={n_tasks})",
        x_label="bc/wc ratio",
        y_label="energy normalized to no-DVS")

    def workload(ratio: float, seed: int):
        return (standard_taskset(n_tasks, utilization, seed),
                bcwc_model(ratio, seed))

    cells = sweep(ratios, workload, policies,
                  n_tasksets=n_tasksets, master_seed=master_seed,
                  horizon=EXPERIMENT_HORIZON, workers=workers,
                  cache_dir=cache_dir,
                  workload_id=f"EXP-F2:bcwc:n={n_tasks}:u={utilization:g}")
    return _aggregate(figure, cells, policies)


def energy_vs_ntasks(
    *,
    task_counts: Sequence[int] = (2, 4, 6, 8, 12, 16),
    utilization: float = 0.9,
    bcwc: float = 0.5,
    n_tasksets: int = 10,
    policies: Sequence[str] = DEFAULT_POLICIES,
    master_seed: int = 2002,
    quick: bool = False,
    workers: int = 1,
    cache_dir: str | Path | None = None,
) -> FigureData:
    """EXP-F3: normalized energy vs number of tasks."""
    if quick:
        task_counts = (3, 8)
        n_tasksets = 3
    figure = FigureData(
        experiment_id="EXP-F3",
        title=f"Normalized energy vs task-set size (U={utilization}, "
              f"bc/wc={bcwc})",
        x_label="tasks",
        y_label="energy normalized to no-DVS")

    def workload(n: float, seed: int):
        return (standard_taskset(int(n), utilization, seed),
                bcwc_model(bcwc, seed))

    cells = sweep([float(n) for n in task_counts], workload, policies,
                  n_tasksets=n_tasksets, master_seed=master_seed,
                  horizon=EXPERIMENT_HORIZON, workers=workers,
                  cache_dir=cache_dir,
                  workload_id=f"EXP-F3:n:u={utilization:g}:bcwc={bcwc:g}")
    return _aggregate(figure, cells, policies)


def energy_vs_levels(
    *,
    level_counts: Sequence[int] = (2, 3, 4, 6, 8, 16, 0),
    utilization: float = 0.7,
    bcwc: float = 0.5,
    n_tasks: int = 8,
    n_tasksets: int = 10,
    policies: Sequence[str] = ("static", "ccEDF", "lpSEH", "lpSTA"),
    master_seed: int = 2002,
    quick: bool = False,
    workers: int = 1,
    cache_dir: str | Path | None = None,
) -> FigureData:
    """EXP-F4: effect of discrete speed levels (0 = continuous)."""
    if quick:
        level_counts = (2, 4, 0)
        n_tasksets = 3
    figure = FigureData(
        experiment_id="EXP-F4",
        title=f"Normalized energy vs number of speed levels "
              f"(U={utilization}, bc/wc={bcwc}; x=0 is continuous)",
        x_label="speed levels",
        y_label="energy normalized to no-DVS")

    def workload(levels: float, seed: int):
        return (standard_taskset(n_tasks, utilization, seed),
                bcwc_model(bcwc, seed))

    def processor_for(levels: float) -> Processor:
        if int(levels) == 0:
            return ideal_processor(min_speed=0.1)
        return uniform_discrete_processor(int(levels), min_speed=0.1)

    cells = sweep([float(n) for n in level_counts], workload, policies,
                  n_tasksets=n_tasksets, master_seed=master_seed,
                  horizon=EXPERIMENT_HORIZON,
                  processor_factory=processor_for, workers=workers,
                  cache_dir=cache_dir,
                  workload_id=f"EXP-F4:levels:u={utilization:g}"
                              f":bcwc={bcwc:g}:n={n_tasks}")
    return _aggregate(figure, cells, policies)


def overhead_sensitivity(
    *,
    switch_times: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.5, 1.0),
    utilization: float = 0.7,
    bcwc: float = 0.5,
    n_tasks: int = 8,
    n_tasksets: int = 10,
    policies: Sequence[str] = ("static", "ccEDF", "lpSEH", "lpSTA"),
    master_seed: int = 2002,
    quick: bool = False,
    workers: int = 1,
    cache_dir: str | Path | None = None,
) -> FigureData:
    """EXP-F5: transition-overhead sensitivity (overhead-aware policies).

    Switch times are in the same milliseconds as task periods
    (10-200 ms grid); 0.14 ms corresponds to the SA-1100's 140 µs.
    All policies run wrapped in the overhead-aware guard so deadlines
    stay hard; the ``mean_switches`` extra records how aggressively
    each policy still switches.
    """
    if quick:
        switch_times = (0.0, 0.5)
        n_tasksets = 3
    figure = FigureData(
        experiment_id="EXP-F5",
        title=f"Normalized energy vs speed-switch time "
              f"(U={utilization}, bc/wc={bcwc}, overhead-aware)",
        x_label="switch time",
        y_label="energy normalized to no-DVS (same overhead)")

    def workload(switch_time: float, seed: int):
        return (standard_taskset(n_tasks, utilization, seed),
                bcwc_model(bcwc, seed))

    def processor_for(switch_time: float) -> Processor:
        return Processor(
            scale=ContinuousScale(min_speed=0.05),
            power_model=PolynomialPowerModel(alpha=3.0),
            transition_model=VoltageSwitchOverhead(
                switch_time=switch_time, eta=0.9, c_dd=0.05),
            name=f"ideal+switch{switch_time:g}",
        )

    cells = sweep(switch_times, workload, policies,
                  n_tasksets=n_tasksets, master_seed=master_seed,
                  horizon=EXPERIMENT_HORIZON,
                  processor_factory=processor_for,
                  overhead_aware=True, workers=workers,
                  cache_dir=cache_dir,
                  workload_id=f"EXP-F5:switch:u={utilization:g}"
                              f":bcwc={bcwc:g}:n={n_tasks}")
    return _aggregate(figure, cells, policies)


def slack_accuracy(
    *,
    utilizations: Sequence[float] = (0.3, 0.5, 0.7, 0.9),
    bcwc: float = 0.5,
    n_tasks: int = 8,
    n_tasksets: int = 5,
    master_seed: int = 2002,
    quick: bool = False,
) -> FigureData:
    """EXP-F6: how much slack the O(n) heuristic gives up vs exact.

    Two workload families per utilization: implicit deadlines (the
    standard grid sets, where the heuristic turns out to be empirically
    exact — its linear bound coincides with the true demand at every
    binding candidate) and constrained deadlines (where the unconditional
    correction term makes it genuinely conservative).  Series: mean
    heuristic/exact slack ratio over analyses with positive exact slack;
    the ``zero_fraction`` extra records how often the heuristic found
    zero where the exact analysis found slack.
    """
    if quick:
        utilizations = (0.5, 0.9)
        n_tasksets = 2
    figure = FigureData(
        experiment_id="EXP-F6",
        title=f"lpSEH slack-estimate accuracy vs exact analysis "
              f"(bc/wc={bcwc}, n={n_tasks})",
        x_label="utilization",
        y_label="heuristic/exact slack ratio")
    import numpy as np

    from repro.tasks.generators import generate_taskset
    from repro.experiments.config import EXPERIMENT_PERIOD_CHOICES

    families = {
        "implicit": dict(),
        "constrained": dict(deadline_range=(0.6, 0.95)),
    }
    for family, extra_kwargs in families.items():
        for u in utilizations:
            ratios: list[float] = []
            zero_misses = 0
            positive_exact = 0
            for seed in taskset_seeds(master_seed, n_tasksets):
                taskset = generate_taskset(
                    n_tasks, u, np.random.default_rng(seed),
                    period_choices=EXPERIMENT_PERIOD_CHOICES,
                    **extra_kwargs)
                model = bcwc_model(bcwc, seed)
                probe = SlackProbePolicy()
                simulate(taskset, ideal_processor(), probe, model,
                         horizon=EXPERIMENT_HORIZON)
                for exact, heuristic in probe.samples:
                    if exact > 1e-9:
                        positive_exact += 1
                        ratios.append(heuristic / exact)
                        if heuristic <= 1e-9:
                            zero_misses += 1
            if ratios:
                summary = summarize(ratios)
                figure.add_point(family, SeriesPoint(
                    x=float(u), mean=summary.mean, ci95=summary.ci95,
                    count=summary.count,
                    extra={"zero_fraction": zero_misses / positive_exact}))
    figure.notes.append(
        "ratio <= 1 by construction (heuristic is a safe under-estimate)")
    return figure


def baseline_ablation(
    *,
    utilizations: Sequence[float] = (0.3, 0.5, 0.7, 0.9),
    bcwc: float = 0.5,
    n_tasks: int = 8,
    n_tasksets: int = 10,
    master_seed: int = 2002,
    quick: bool = False,
) -> FigureData:
    """EXP-F7 (ablation): static-baseline vs greedy full-speed slack.

    Both variants are safe; the greedy one hands the dispatched job all
    the system slack including the static headroom, producing a
    slow-then-fast profile that convex power punishes.  This figure
    quantifies the design choice DESIGN.md calls out.
    """
    if quick:
        utilizations = (0.5, 0.9)
        n_tasksets = 3
    figure = FigureData(
        experiment_id="EXP-F7",
        title=f"lpSTA baseline ablation: static vs greedy slack "
              f"(bc/wc={bcwc}, n={n_tasks})",
        x_label="utilization",
        y_label="energy normalized to no-DVS")
    variants = {
        "lpSTA(static)": lambda: LpStaPolicy(baseline="static"),
        "lpSTA(greedy)": lambda: LpStaPolicy(baseline="full"),
    }

    def workload(u: float, seed: int):
        return (standard_taskset(n_tasks, u, seed), bcwc_model(bcwc, seed))

    for u in utilizations:
        values: dict[str, list[float]] = {name: [] for name in variants}
        for seed in taskset_seeds(master_seed, n_tasksets):
            taskset, model = workload(float(u), seed)
            baseline = simulate(taskset, ideal_processor(),
                                make_policy("none"), model,
                                horizon=EXPERIMENT_HORIZON)
            for name, factory in variants.items():
                result = simulate(taskset, ideal_processor(), factory(),
                                  model, horizon=EXPERIMENT_HORIZON)
                values[name].append(result.normalized_energy(baseline))
        for name, series in values.items():
            summary = summarize(series)
            figure.add_point(name, SeriesPoint(
                x=float(u), mean=summary.mean, ci95=summary.ci95,
                count=summary.count))
    return figure


def leakage_sensitivity(
    *,
    leakage_ratios: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.4, 0.8),
    utilization: float = 0.5,
    bcwc: float = 0.5,
    n_tasks: int = 8,
    n_tasksets: int = 10,
    master_seed: int = 2002,
    quick: bool = False,
) -> FigureData:
    """EXP-F8 (extension): leakage power and the critical-speed floor.

    The active power becomes ``s^3 + rho`` (idle = deep sleep, free).
    With growing leakage ``rho`` the energy-per-work minimum moves to a
    critical speed above the utilization; running lpSTA below it wastes
    energy.  Series: plain lpSTA vs lpSTA clamped to the critical speed,
    plus the no-DVS reference (always 1.0 by normalisation).
    """
    if quick:
        leakage_ratios = (0.0, 0.4)
        n_tasksets = 3
    figure = FigureData(
        experiment_id="EXP-F8",
        title=f"Leakage sensitivity: critical-speed floor "
              f"(U={utilization}, bc/wc={bcwc})",
        x_label="leakage/dynamic ratio",
        y_label="energy normalized to no-DVS (same leakage)")

    def processor_for(rho: float) -> Processor:
        return Processor(
            scale=ContinuousScale(min_speed=0.05),
            power_model=PolynomialPowerModel(alpha=3.0, static=rho),
            name=f"cubic+leak{rho:g}")

    for rho in leakage_ratios:
        plain: list[float] = []
        floored: list[float] = []
        for seed in taskset_seeds(master_seed, n_tasksets):
            taskset = standard_taskset(n_tasks, utilization, seed)
            model = bcwc_model(bcwc, seed)
            processor = processor_for(float(rho))
            baseline = simulate(taskset, processor, make_policy("none"),
                                model, horizon=EXPERIMENT_HORIZON)
            for name, bucket in (("lpSTA", plain),):
                result = simulate(taskset, processor, make_policy(name),
                                  model, horizon=EXPERIMENT_HORIZON)
                bucket.append(result.normalized_energy(baseline))
            result = simulate(
                taskset, processor,
                make_policy("lpSTA", critical_speed_floor=True),
                model, horizon=EXPERIMENT_HORIZON)
            floored.append(result.normalized_energy(baseline))
        for name, values in (("lpSTA", plain), ("cs-lpSTA", floored)):
            summary = summarize(values)
            figure.add_point(name, SeriesPoint(
                x=float(rho), mean=summary.mean, ci95=summary.ci95,
                count=summary.count))
        critical = processor_for(float(rho)).power_model.critical_speed()
        figure.notes.append(
            f"rho={rho:g}: critical speed = {critical:.3f}")
    return figure


def optimality_gap(
    *,
    utilizations: Sequence[float] = (0.3, 0.5, 0.7, 0.9),
    bcwc: float = 0.5,
    n_tasks: int = 6,
    n_tasksets: int = 5,
    policies: Sequence[str] = ("ccEDF", "laEDF", "lpSEH", "lpSTA",
                               "clairvoyant"),
    master_seed: int = 2002,
    horizon: float = 1200.0,
    quick: bool = False,
) -> FigureData:
    """EXP-F9 (extension): energy relative to the YDS offline optimum.

    For each workload the YDS-optimal schedule of the *actual* concrete
    job set is computed (:mod:`repro.analysis.yds`) and every policy's
    energy is expressed as a multiple of it: how much of the absolute
    headroom each scheme captures.  Ratios are >= 1 by optimality.
    """
    from repro.analysis.yds import yds_optimal_energy

    if quick:
        utilizations = (0.5, 0.9)
        n_tasksets = 2
    figure = FigureData(
        experiment_id="EXP-F9",
        title=f"Energy relative to the YDS offline optimum "
              f"(bc/wc={bcwc}, n={n_tasks})",
        x_label="utilization",
        y_label="energy / YDS-optimal energy")
    processor = ideal_processor()
    for u in utilizations:
        ratios: dict[str, list[float]] = {name: [] for name in policies}
        for seed in taskset_seeds(master_seed, n_tasksets):
            taskset = standard_taskset(n_tasks, float(u), seed)
            model = bcwc_model(bcwc, seed)
            optimal = yds_optimal_energy(taskset, model, processor,
                                         horizon)
            if optimal <= 0:
                continue
            for name in policies:
                result = simulate(taskset, processor, make_policy(name),
                                  model, horizon=horizon)
                ratios[name].append(result.total_energy / optimal)
        for name, values in ratios.items():
            if not values:
                continue
            summary = summarize(values)
            figure.add_point(name, SeriesPoint(
                x=float(u), mean=summary.mean, ci95=summary.ci95,
                count=summary.count))
    figure.notes.append("ratios >= 1 by YDS optimality")
    return figure


def sporadic_sensitivity(
    *,
    jitters: Sequence[float] = (0.0, 0.2, 0.5, 1.0, 2.0),
    utilization: float = 0.8,
    bcwc: float = 0.5,
    n_tasks: int = 8,
    n_tasksets: int = 10,
    policies: Sequence[str] = ("static", "ccEDF", "lpSEH", "lpSTA",
                               "clairvoyant"),
    master_seed: int = 2002,
    quick: bool = False,
) -> FigureData:
    """EXP-F10 (extension): sporadic arrival jitter.

    Gaps are uniform in ``[T, (1 + jitter) * T]``.  Online policies may
    only assume the minimum separation (the pessimistic view), yet every
    extra gap is real slack: normalized energy should fall with jitter
    for the dynamic policies while ``static`` stays pinned at the
    worst-case utilization.  Deadlines remain hard throughout.
    """
    from repro.tasks.arrivals import UniformJitterArrival

    if quick:
        jitters = (0.0, 1.0)
        n_tasksets = 3
    figure = FigureData(
        experiment_id="EXP-F10",
        title=f"Sporadic arrival jitter (U={utilization}, bc/wc={bcwc})",
        x_label="max extra gap (fraction of period)",
        y_label="energy normalized to no-DVS (same arrivals)")
    for jitter in jitters:
        values: dict[str, list[float]] = {name: [] for name in policies}
        misses = 0
        for seed in taskset_seeds(master_seed, n_tasksets):
            taskset = standard_taskset(n_tasks, utilization, seed)
            model = bcwc_model(bcwc, seed)
            arrivals = UniformJitterArrival(jitter=float(jitter),
                                            seed=seed)
            baseline = simulate(taskset, ideal_processor(),
                                make_policy("none"), model,
                                arrival_model=arrivals,
                                horizon=EXPERIMENT_HORIZON)
            for name in policies:
                result = simulate(taskset, ideal_processor(),
                                  make_policy(name), model,
                                  arrival_model=arrivals,
                                  horizon=EXPERIMENT_HORIZON)
                misses += result.miss_count
                values[name].append(result.normalized_energy(baseline))
        for name, series in values.items():
            summary = summarize(series)
            figure.add_point(name, SeriesPoint(
                x=float(jitter), mean=summary.mean, ci95=summary.ci95,
                count=summary.count, extra={"misses": misses}))
    figure.notes.append(
        "policies see only the pessimistic minimum-separation view of "
        "future arrivals")
    return figure


def dpm_sensitivity(
    *,
    wakeup_energies=(0.0, 0.5, 1.0, 2.0, 5.0, 10.0),
    utilization: float = 0.4,
    bcwc: float = 0.5,
    leakage: float = 0.3,
    sleep_power: float = 0.01,
    wakeup_time: float = 0.2,
    n_tasks: int = 6,
    n_tasksets: int = 10,
    master_seed: int = 2002,
    quick: bool = False,
) -> FigureData:
    """EXP-F11 (extension): dynamic power management of idle time.

    The physically coherent leaky-platform setup: active power is
    ``s^3 + rho`` and the same leakage ``rho`` is paid while idling —
    only deep sleep (with a wake-up cost) escapes it.  The active parts
    run lpSTA with the critical-speed floor, which deliberately leaves
    idle time rather than stretching into the leakage-losing regime;
    the idle manager then decides what that idle time costs.  Series:
    never sleep, sleep-on-idle, and procrastination (slack-bounded late
    starts that batch idle slivers into long sleeps).  As the wake-up
    gets more expensive, plain sleep-on-idle loses its edge while
    procrastination's batched episodes keep paying.  Deadlines stay
    hard throughout — the vacation bound comes from the same slack
    analysis as the DVS policies.
    """
    from repro.policies.procrastination import (
        NeverSleepIdlePolicy,
        ProcrastinationIdlePolicy,
        SleepOnIdlePolicy,
    )

    if quick:
        wakeup_energies = (0.5, 5.0)
        n_tasksets = 3
    figure = FigureData(
        experiment_id="EXP-F11",
        title=f"Idle-time management vs wake-up energy "
              f"(U={utilization}, leakage={leakage}, "
              f"sleep P={sleep_power})",
        x_label="wake-up energy",
        y_label="energy normalized to no-DVS never-sleep")

    def processor_for(wakeup_energy: float) -> Processor:
        return Processor(
            scale=ContinuousScale(min_speed=0.05),
            power_model=PolynomialPowerModel(alpha=3.0, static=leakage),
            idle_power=leakage, sleep_power=sleep_power,
            wakeup_time=wakeup_time, wakeup_energy=wakeup_energy,
            name=f"leaky+wake{wakeup_energy:g}")

    managers = {
        "never-sleep": NeverSleepIdlePolicy,
        "sleep-on-idle": SleepOnIdlePolicy,
        "procrastination": ProcrastinationIdlePolicy,
    }
    for wakeup_energy in wakeup_energies:
        values: dict[str, list[float]] = {name: [] for name in managers}
        episodes: dict[str, list[int]] = {name: [] for name in managers}
        misses = 0
        for seed in taskset_seeds(master_seed, n_tasksets):
            taskset = standard_taskset(n_tasks, utilization, seed)
            model = bcwc_model(bcwc, seed)
            processor = processor_for(float(wakeup_energy))
            baseline = simulate(taskset, processor, make_policy("none"),
                                model,
                                idle_policy=NeverSleepIdlePolicy(),
                                horizon=EXPERIMENT_HORIZON)
            for name, factory in managers.items():
                result = simulate(taskset, processor,
                                  make_policy("lpSTA",
                                              critical_speed_floor=True),
                                  model, idle_policy=factory(),
                                  horizon=EXPERIMENT_HORIZON)
                misses += result.miss_count
                values[name].append(result.normalized_energy(baseline))
                episodes[name].append(result.sleep_episodes)
        for name, series in values.items():
            summary = summarize(series)
            figure.add_point(name, SeriesPoint(
                x=float(wakeup_energy), mean=summary.mean,
                ci95=summary.ci95, count=summary.count,
                extra={"misses": misses,
                       "mean_episodes": summarize(episodes[name]).mean}))
    return figure


def multicore_scaling(
    *,
    core_counts=(1, 2, 3, 4, 6),
    total_utilization: float = 0.9,
    bcwc: float = 0.5,
    n_tasks: int = 12,
    n_tasksets: int = 8,
    policies=("static", "lpSTA"),
    master_seed: int = 2002,
    quick: bool = False,
) -> FigureData:
    """EXP-F12 (extension): partitioned multicore scaling.

    The same total workload (U = 0.9 summed) partitioned onto more
    cores (worst-fit decreasing, per-core DVS-EDF): convex power
    rewards spreading — m cores at U/m each beat one core at U — until
    per-core loads get so light that processor floors bite.  Energy is
    normalized to the 1-core no-DVS run; zero misses on every core.
    """
    from repro.errors import InfeasibleTaskSetError
    from repro.sim.multicore import simulate_partitioned

    if quick:
        core_counts = (1, 4)
        n_tasksets = 3
    figure = FigureData(
        experiment_id="EXP-F12",
        title=f"Partitioned multicore scaling "
              f"(total U={total_utilization}, bc/wc={bcwc})",
        x_label="cores",
        y_label="energy normalized to 1-core no-DVS")
    for cores in core_counts:
        values: dict[str, list[float]] = {name: [] for name in policies}
        misses = 0
        for seed in taskset_seeds(master_seed, n_tasksets):
            taskset = standard_taskset(n_tasks, total_utilization, seed)
            model = bcwc_model(bcwc, seed)
            try:
                baseline = simulate_partitioned(
                    taskset, 1, ideal_processor,
                    lambda: make_policy("none"), model,
                    horizon=EXPERIMENT_HORIZON)
            except InfeasibleTaskSetError:
                continue
            for name in policies:
                try:
                    result = simulate_partitioned(
                        taskset, int(cores), ideal_processor,
                        lambda name=name: make_policy(name), model,
                        horizon=EXPERIMENT_HORIZON)
                except InfeasibleTaskSetError:
                    continue
                misses += result.deadline_miss_count
                values[name].append(result.normalized_energy(baseline))
        for name, series in values.items():
            if not series:
                continue
            summary = summarize(series)
            figure.add_point(name, SeriesPoint(
                x=float(cores), mean=summary.mean, ci95=summary.ci95,
                count=summary.count, extra={"misses": misses}))
    figure.notes.append(
        "idle cores pay no power on the ideal profile; see EXP-F11 for "
        "idle/leakage effects")
    return figure


def fault_matrix(
    *,
    factors: Sequence[float] = (1.0, 1.1, 1.2, 1.3, 1.4),
    utilization: float = 0.65,
    n_tasks: int = 6,
    n_tasksets: int = 5,
    bcwc: float = 0.5,
    overrun_probability: float = 1.0,
    policies: Sequence[str] = ("none", "ccEDF", "DRA", "lpSEH", "lpSTA"),
    master_seed: int = 2002,
    horizon: float = EXPERIMENT_HORIZON,
    quick: bool = False,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    workers: int = 1,
    cache_dir: str | Path | None = None,
) -> FigureData:
    """EXP-FM1: miss rate and governor interventions vs overrun severity.

    Every (policy, overrun-factor) cell runs twice on the same seeded
    workloads: *raw* (the policy on its own, misses allowed and
    counted) and *governed* (wrapped in a
    :class:`~repro.policies.governor.SafetyGovernor` with
    ``margin = factor``).  Factors stay below the schedulability limit
    ``1 / U``, so the governed runs must report **zero** misses — the
    hard-real-time guarantee holds by construction — while the raw
    reclaiming policies demonstrate that the injector bites.  The
    energy cost of that guarantee shows up as the governed normalized
    energy and the intervention rate.
    """
    if quick:
        factors = (1.0, 1.3)
        n_tasksets = 2
        horizon = 600.0
    limit = 1.0 / utilization
    if max(factors) > limit + 1e-9:
        raise ExperimentError(
            f"overrun factor {max(factors)} exceeds the schedulability "
            f"limit 1/U = {limit:.3f}; no governor can hold deadlines "
            f"beyond it")
    figure = FigureData(
        experiment_id="EXP-FM1",
        title=f"Deadline-miss rate vs WCET-overrun factor "
              f"(U={utilization}, n={n_tasks}, p_overrun="
              f"{overrun_probability})",
        x_label="overrun factor",
        y_label="raw miss rate (misses per released job)")

    def workload(x: float, seed: int):
        return (standard_taskset(n_tasks, utilization, seed),
                bcwc_model(bcwc, seed))

    def plan_for(x: float, seed: int) -> FaultPlan | None:
        if x <= 1.0 + 1e-12:
            return None
        return FaultPlan(seed=seed, overrun=OverrunFault(
            factor=x, probability=overrun_probability))

    def governed_factory(x: float):
        return lambda name: make_policy(
            name, governed=True, governor_margin=max(1.0, float(x)))

    base_dir = Path(checkpoint_dir) if checkpoint_dir else None
    # The raw and governed sweeps differ only in policy_factory, which
    # the cache fingerprint cannot see — the workload id must carry
    # the distinction (and every other closure parameter).
    id_stem = (f"EXP-FM1:u={utilization:g}:n={n_tasks}:bcwc={bcwc:g}"
               f":p={overrun_probability:g}")
    raw_cells = sweep(
        factors, workload, policies,
        n_tasksets=n_tasksets, master_seed=master_seed, horizon=horizon,
        allow_misses=True, faults_factory=plan_for,
        checkpoint_dir=(base_dir / "raw" if base_dir else None),
        resume=resume, workers=workers, cache_dir=cache_dir,
        workload_id=f"{id_stem}:raw")
    governed_cells = sweep(
        factors, workload, policies,
        n_tasksets=n_tasksets, master_seed=master_seed, horizon=horizon,
        allow_misses=True, faults_factory=plan_for,
        policy_factory=governed_factory,
        checkpoint_dir=(base_dir / "governed" if base_dir else None),
        resume=resume, workers=workers, cache_dir=cache_dir,
        workload_id=f"{id_stem}:governed")

    raw_misses_total = 0
    governed_misses_total = 0
    overruns_total = 0
    for raw, governed in zip(raw_cells, governed_cells):
        for name in raw.normalized:
            released = max(1, raw.released.get(name, 0))
            g_released = max(1, governed.released.get(name, 0))
            dispatches = max(1, governed.dispatches.get(name, 0))
            energy = summarize(raw.normalized[name])
            g_energy = summarize(governed.normalized[name])
            figure.add_point(name, SeriesPoint(
                x=raw.x,
                mean=raw.misses.get(name, 0) / released,
                ci95=0.0,
                count=len(raw.normalized[name]),
                extra={
                    "raw_misses": raw.misses.get(name, 0),
                    "governed_misses": governed.misses.get(name, 0),
                    "governed_miss_rate":
                        governed.misses.get(name, 0) / g_released,
                    "intervention_rate":
                        governed.interventions.get(name, 0) / dispatches,
                    "raw_energy": energy.mean,
                    "governed_energy": g_energy.mean,
                    "overrun_jobs": raw.overruns.get(name, 0),
                }))
            raw_misses_total += raw.misses.get(name, 0)
            governed_misses_total += governed.misses.get(name, 0)
        overruns_total += max(raw.overruns.values(), default=0)
    figure.notes.append(
        f"raw misses: {raw_misses_total}; governed misses: "
        f"{governed_misses_total} (must be 0); overrun jobs injected "
        f"per policy: {overruns_total}")
    return figure


#: Figure id -> driver, in EXPERIMENTS.md order.
FIGURES = {
    "fig1": energy_vs_utilization,
    "fig2": energy_vs_bcwc,
    "fig3": energy_vs_ntasks,
    "fig4": energy_vs_levels,
    "fig5": overhead_sensitivity,
    "fig6": slack_accuracy,
    "fig7": baseline_ablation,
    "fig8": leakage_sensitivity,
    "fig9": optimality_gap,
    "fig10": sporadic_sensitivity,
    "fig11": dpm_sensitivity,
    "fig12": multicore_scaling,
    "faultmatrix": fault_matrix,
}
