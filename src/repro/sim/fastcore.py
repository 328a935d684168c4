"""Optional compiled scalar engine core (DESIGN.md §13).

The scalar hot path — the :meth:`Simulator.run` event loop and the
exact/heuristic slack walks — is mirrored by a hand-written C extension
(:mod:`repro.sim._fastcore`), built only when ``REPRO_COMPILE=1`` is
set at install time.  This module is the seam between the two worlds:

* **Routing** — :func:`run_compiled` decides per run whether the
  compiled core may take over (extension present, not disabled via
  ``REPRO_COMPILED=0`` / :func:`set_compiled_default`, and the run uses
  the stock ``Simulator``/``EDFScheduler``/``Processor`` triple).  When
  it declines, the engine falls through to the interpreted loop — the
  two produce byte-identical :class:`SimulationResult`s by contract
  (enforced by ``scripts/compiled_gate.py``).
* **Rare-event helpers** — deadline misses, overrun/transition notes,
  and engine errors happen at most a handful of times per run, so the
  C core delegates them here.  Keeping the f-strings and exception
  construction in Python means the compiled path can never fork the
  message formats or exception types from the interpreted engine.
* **Kernels** — :func:`slack_kernels` hands ``repro.analysis.slack``
  the compiled event-walk kernels under the same enable switch.

Everything degrades transparently: without the extension every function
here reports "unavailable" and the interpreted engine runs exactly as
before, with zero new dependencies.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator

from repro.cpu.power import PolynomialPowerModel
from repro.cpu.processor import Processor
from repro.cpu.speed import ContinuousScale, DiscreteScale
from repro.cpu.transition import NoOverhead
from repro.errors import DeadlineMissError, PolicyError, SimulationError
from repro.sim.results import DeadlineMiss
from repro.sim.scheduler import EDFScheduler
from repro.tasks.arrivals import PeriodicArrival
from repro.tasks.job import Job
from repro.profiling import PROFILER as _PROFILER, decide_label
from repro.telemetry import TELEMETRY as _TELEMETRY

if TYPE_CHECKING:
    from repro.sim.engine import Simulator

try:
    from repro.sim import _fastcore as _EXT
except ImportError:  # plain install / toolchain-less host
    _EXT = None

_FALSY = frozenset({"0", "off", "false", "no"})
_default_override: bool | None = None

#: Runs taken by each backend since process start (the gate's
#: engagement probe and ``repro doctor``'s evidence).
RUN_COUNTS = {"compiled": 0, "interpreted": 0}


def compiled_available() -> bool:
    """``True`` when the C extension imported successfully."""
    return _EXT is not None


def compiled_enabled() -> bool:
    """Whether the compiled core may be used for the next run.

    Precedence: extension must exist; then an explicit
    :func:`set_compiled_default` override; then the ``REPRO_COMPILED``
    environment variable (``0``/``off``/``false``/``no`` disable); then
    on by default.  The env var is re-read per call so tests and forked
    workers see flips without re-imports.
    """
    if _EXT is None:
        return False
    if _default_override is not None:
        return _default_override
    env = os.environ.get("REPRO_COMPILED")
    if env is not None and env.strip().lower() in _FALSY:
        return False
    return True


def set_compiled_default(value: bool | None) -> None:
    """Force the compiled core on/off (``None`` restores env control)."""
    global _default_override
    _default_override = value


@contextmanager
def forced(value: bool | None) -> Iterator[None]:
    """Temporarily pin the backend choice (benches and gates)."""
    global _default_override
    previous = _default_override
    _default_override = value
    try:
        yield
    finally:
        _default_override = previous


def core_info() -> dict:
    """Backend evidence for ``repro doctor``."""
    return {
        "available": compiled_available(),
        "enabled": compiled_enabled(),
        "backend": getattr(_EXT, "BACKEND", None) if _EXT else None,
        "runs": dict(RUN_COUNTS),
    }


def slack_kernels():
    """The compiled slack kernels module, or ``None`` when inactive."""
    return _EXT if compiled_enabled() else None


# ----------------------------------------------------------------------
# Rare-event helpers (called from C; mirror Simulator verbatim)
# ----------------------------------------------------------------------

def _never(*_args):  # bound for never-taken callback slots
    raise SimulationError("fastcore callback invoked unexpectedly")


def _mk_job(task, index, work, release, allow_overrun):
    return Job.from_task(task, index, work, release=release,
                         allow_overrun=allow_overrun)


def _miss(result, trace, job, detected_at, allow_misses):
    # Mirrors Simulator._register_miss; the missed-jobs set lives in
    # the C core's per-slot flag.
    miss = DeadlineMiss(job=job.name, task=job.task.name,
                        deadline=job.deadline, detected_at=detected_at)
    result.deadline_misses.append(miss)
    result.task_stats[job.task.name].missed += 1
    trace.note(detected_at, "deadline-miss",
               f"{job.name}: deadline {job.deadline:g}")
    if not allow_misses:
        raise DeadlineMissError(
            f"job {job.name} missed its deadline {job.deadline:g} "
            f"(detected at t={detected_at:g}, policy="
            f"{result.policy})",
            task=job.task.name, job_index=job.index,
            deadline=job.deadline, completion=detected_at)


def _overrun_note(trace, now, job, work):
    trace.note(now, "overrun",
               f"{job.name}: work {work:g} > wcet {job.task.wcet:g}")


def _stuck_note(trace, now, current, wanted):
    trace.note(now, "transition-fault",
               f"stuck at {current:g} (wanted {wanted:g})")


def _requant_note(trace, now, speed, achieved):
    trace.note(now, "transition-fault",
               f"quantized {speed:g} -> {achieved:g}")


def _bad_speed(result, desired):
    raise PolicyError(
        f"policy {result.policy} returned invalid speed {desired!r}")


def _bad_quant(speed):
    raise PolicyError(f"quantized speed {speed} outside (0, 1]")


def _no_progress(now, next_point):
    raise SimulationError(
        f"no progress at t={now} (next point {next_point})")


def _overexec(job, new_total):
    raise SimulationError(
        f"job {job.name}: executed {new_total} exceeds actual "
        f"work {job.work}")


def _neg_exec(job, amount):
    raise SimulationError(
        f"job {job.name}: negative execution amount {amount}")


def _round_key(speed):
    return round(speed, 12)


def _trace_run(trace, start, end, job, speed, energy):
    trace.run(start, end, job.name, job.task.name, speed, energy)


# ----------------------------------------------------------------------
# Eligibility and run routing
# ----------------------------------------------------------------------

def _ineligible_reason(sim: "Simulator") -> str | None:
    """Why this run must stay interpreted (``None`` = eligible).

    Exact-type checks, not isinstance: a subclass may override any
    hook the C core inlines, and correctness beats speed.
    """
    from repro.sim.engine import Simulator
    if type(sim) is not Simulator:
        return f"subclassed simulator {type(sim).__name__}"
    if type(sim.scheduler) is not EDFScheduler:
        return f"scheduler {type(sim.scheduler).__name__}"
    if type(sim.processor) is not Processor:
        return f"processor {type(sim.processor).__name__}"
    return None


def _build_namespace(sim: "Simulator") -> SimpleNamespace:
    """Flatten one reset-and-bound Simulator into the C init contract."""
    proc = sim.processor
    scale = proc.scale
    if type(scale) is ContinuousScale:
        quant_kind, q_min, q_levels = 0, scale.min_speed, ()
    elif type(scale) is DiscreteScale:
        quant_kind, q_min, q_levels = 1, 0.0, scale.levels
    else:
        quant_kind, q_min, q_levels = 2, 0.0, ()
    pm = proc.power_model
    if type(pm) is PolynomialPowerModel:
        power_kind = 0
        p_alpha, p_dynamic, p_static = pm.alpha, pm.dynamic, pm.static
    else:
        power_kind, p_alpha, p_dynamic, p_static = 1, 0.0, 0.0, 0.0
    tasks = sim.taskset.tasks
    names = tuple(task.name for task in tasks)
    rank = {name: i for i, name in enumerate(sorted(names))}
    faults_transitions = (sim.faults is not None
                          and sim.faults.affects_transitions)
    return SimpleNamespace(
        # shared objects (the core mutates result/trace/dicts in place)
        taskset=sim.taskset, processor=proc, scheduler=sim.scheduler,
        execution_model=sim.execution_model,
        arrival_model=sim.arrival_model,
        trace=sim._trace, result=sim._result, telemetry=_TELEMETRY,
        tasks=tasks, names=names,
        name2idx={name: i for i, name in enumerate(names)},
        task_stats=tuple(sim._result.task_stats[name] for name in names),
        next_release=sim._next_release, next_index=sim._next_index,
        # policy / model callbacks
        select_speed=_maybe_profiled(sim.policy.select_speed,
                                     decide_label(sim._result.policy)),
        on_release=sim.policy.on_release,
        on_completion=sim.policy.on_completion,
        observe=sim.policy.observe_decision,
        plan_idle=(sim.idle_policy.plan_idle
                   if sim.idle_policy is not None else _never),
        work=sim.execution_model.work,
        arrival=sim.arrival_model.arrival_time,
        quantize=proc.quantize,
        active_energy=proc.active_energy,
        transition=proc.transition,
        transition_outcome=(sim.faults.transition_outcome
                            if faults_transitions else _never),
        # rare-event helpers
        mk_job=_mk_job, miss=_miss, overrun_note=_overrun_note,
        stuck_note=_stuck_note, requant_note=_requant_note,
        bad_speed=_bad_speed, bad_quant=_bad_quant,
        no_progress=_no_progress, overexec=_overexec,
        neg_exec=_neg_exec, round_key=_round_key, trace_run=_trace_run,
        # scalars
        horizon=float(sim.horizon),
        q_min=float(q_min), p_alpha=float(p_alpha),
        p_dynamic=float(p_dynamic), p_static=float(p_static),
        idle_power=float(proc.idle_power),
        sleep_power=float(proc.sleep_power),
        wakeup_energy=float(proc.wakeup_energy),
        # flags
        allow_misses=int(sim.allow_misses),
        record_trace=int(sim.record_trace),
        faults_transitions=int(faults_transitions),
        allow_overrun=int(sim.faults is not None),
        is_periodic=int(sim.arrival_model.is_periodic),
        periodic_inline=int(type(sim.arrival_model) is PeriodicArrival),
        quant_kind=quant_kind, power_kind=power_kind,
        trans_none=int(type(proc.transition_model) is NoOverhead),
        has_idle_policy=int(sim.idle_policy is not None),
        # per-task arrays (taskset order)
        period=tuple(float(task.period) for task in tasks),
        rel_deadline=tuple(float(task.deadline) for task in tasks),
        wcet=tuple(float(task.wcet) for task in tasks),
        name_rank=tuple(rank[name] for name in names),
        release0=tuple(sim._next_release[name] for name in names),
        q_levels=tuple(float(level) for level in q_levels),
    )


def _maybe_profiled(select_speed, label: str):
    """Wrap the policy-decide callback in the profiling region *label*.

    The compiled core never goes through ``Simulator._dispatch``, so
    the interpreted loop's ``policy.decide.<policy>`` seam would vanish
    under it; wrapping the callback the core calls back into keeps the
    attribution identical on both engines.  With profiling off the
    original bound method is handed over untouched — zero cost.
    """
    if not _PROFILER.enabled:
        return select_speed

    def profiled(job, ctx):
        _PROFILER.push(label)
        try:
            return select_speed(job, ctx)
        finally:
            _PROFILER.pop()

    return profiled


def run_compiled(sim: "Simulator") -> bool:
    """Run *sim*'s main loop on the compiled core, if permitted.

    Called by :meth:`Simulator.run` after ``_reset()`` and policy
    binding.  Returns ``True`` when the compiled core executed the run
    (the result object is fully populated); ``False`` means the caller
    must run the interpreted loop.  Exceptions (deadline misses, policy
    errors) propagate exactly as from the interpreted engine.
    """
    if not compiled_enabled() or _ineligible_reason(sim) is not None:
        RUN_COUNTS["interpreted"] += 1
        return False
    from repro.sim.engine import SimContext
    core = _EXT.CoreEngine(_build_namespace(sim))
    ctx = SimContext(core)
    RUN_COUNTS["compiled"] += 1
    try:
        core.run(ctx)
    finally:
        # Mirror the engine attributes downstream introspection reads;
        # _next_release/_next_index are shared dicts, updated in place.
        sim._now = core._now
        sim._current_speed = core._current_speed
        sim._active = list(core._active)
        sim._release_version = core._release_version
    return True
