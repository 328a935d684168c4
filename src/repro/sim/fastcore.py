"""The compiled scalar engine core and its loader (DESIGN.md §13).

The scalar hot path — the :meth:`Simulator.run` event loop, the
exact/heuristic slack walks and the clairvoyant intensity sweep — is
mirrored by a hand-written C extension (:mod:`repro.sim._fastcore`).
This module is the seam between the two worlds:

* **Loading** — importing this module resolves the extension once per
  process (:func:`_resolve`): a module built from exactly the current
  ``_fastcore.c`` is loaded from the per-user cache
  ``${XDG_CACHE_HOME:-~/.cache}/repro/fastcore/<cache_tag>-<sha256[:16]>/``,
  compiled there with the interpreter's own compiler settings when
  missing.  Any failure — no compiler, an unwritable or untrusted
  cache, a module built from other source — leaves the interpreted
  engine in charge and records why in :func:`core_info`; a failed
  build is remembered per source digest and not retried.
  ``REPRO_COMPILED=0`` skips both the build and the use.
* **Routing** — :func:`run_compiled` decides per run whether the
  compiled core may take over (extension loaded, not disabled via
  ``REPRO_COMPILED=0`` / :func:`set_compiled_default`, and the run uses
  the stock ``Simulator``/``EDFScheduler``/``Processor`` triple).  When
  it declines, the engine falls through to the interpreted loop — the
  two produce byte-identical :class:`SimulationResult`s by contract
  (enforced by ``scripts/identity_gate.py``).
* **Rare-event helpers** — deadline misses, overrun/transition notes,
  and engine errors happen at most a handful of times per run, so the
  C core delegates them here.  Keeping the f-strings and exception
  construction in Python means the compiled path can never fork the
  message formats or exception types from the interpreted engine.
* **Kernels** — :func:`slack_kernels` hands ``repro.analysis.slack``
  and the clairvoyant policy the compiled kernels under the same
  enable switch, resolved once per run.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sys
from contextlib import contextmanager
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from types import ModuleType, SimpleNamespace
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

_FALSY = frozenset({"0", "off", "false", "no"})
_MODULE = "repro.sim._fastcore"
_SOURCE = Path(__file__).with_name("_fastcore.c")
_ABSENT = object()
#: The interpreter's own tagged suffix (``EXT_SUFFIX``) comes first.
_MODULE_FILE = "_fastcore" + EXTENSION_SUFFIXES[0]


def _env_disabled() -> bool:
    env = os.environ.get("REPRO_COMPILED")
    return env is not None and env.strip().lower() in _FALSY


# ----------------------------------------------------------------------
# Loader: build once per source digest, verify before use
# ----------------------------------------------------------------------

def source_digest(source: Path = _SOURCE) -> str:
    """SHA-256 of the C source: the identity a loaded module must carry."""
    return hashlib.sha256(source.read_bytes()).hexdigest()


def cache_dir(digest: str, root: Path | None = None) -> Path:
    """Where the module built from the source with *digest* lives."""
    if root is None:
        xdg = os.environ.get("XDG_CACHE_HOME", "")
        root = Path(xdg) if os.path.isabs(xdg) else \
            Path.home() / ".cache"
    return (Path(root) / "repro" / "fastcore"
            / f"{sys.implementation.cache_tag}-{digest[:16]}")


class _Refused(Exception):
    """The extension cannot be used; the message says why."""


def _check_trusted(path: Path) -> None:
    """Refuse a path another user could have written."""
    st = os.stat(path)
    if st.st_uid != os.getuid():
        raise _Refused(f"untrusted {path}: owned by uid {st.st_uid}, "
                       f"not {os.getuid()}")
    if st.st_mode & 0o022:
        raise _Refused(f"untrusted {path}: writable by group or others "
                       f"(mode {st.st_mode & 0o777:o})")


def _load(path: Path, digest: str) -> ModuleType:
    """Import the extension at *path* if it was built from *digest*.

    Loading a single-phase extension registers it in ``sys.modules``;
    the previous entry is restored, so only a verified module is ever
    published (by the caller).
    """
    previous = sys.modules.get(_MODULE, _ABSENT)
    try:
        spec = importlib.util.spec_from_file_location(_MODULE, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError as exc:
        raise _Refused(f"refused {path}: {exc}") from None
    finally:
        if previous is _ABSENT:
            sys.modules.pop(_MODULE, None)
        else:
            sys.modules[_MODULE] = previous
    found = getattr(module, "SOURCE_SHA256", None) or "unknown source"
    if found != digest:
        raise _Refused(f"refused {path}: built from {found[:16]}, "
                       f"not the current _fastcore.c ({digest[:16]})")
    return module


def _compile(source: Path, digest: str, target: Path) -> None:
    """Build the extension for *digest* into the directory *target*.

    The compiler and flags are the interpreter's own (the ones
    setuptools would use), plus ``-ffp-contract=off``: a fused
    multiply-add would round differently from the interpreted engine.
    The build happens in a temporary sibling directory that is renamed
    into place, so concurrent first imports never see a partial file.
    """
    # Imported here, not at module level: only a build needs them, and
    # every process (most load a cached module) would pay for them.
    import shlex
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    var = sysconfig.get_config_var
    cc = shlex.split(var("CC") or "")
    ldshared = shlex.split(var("LDSHARED") or "")
    if not cc or not ldshared or shutil.which(cc[0]) is None:
        raise _Refused(f"no C compiler ({var('CC') or 'none configured'})")
    include = sysconfig.get_paths()["include"]
    if not os.path.isfile(os.path.join(include, "Python.h")):
        raise _Refused(f"no Python headers (no Python.h in {include})")
    try:
        work = Path(tempfile.mkdtemp(prefix=f".{target.name}-",
                                     dir=target.parent))
    except OSError as exc:
        raise _Refused(f"cannot write {target.parent}: {exc}") from None
    try:
        obj = work / "_fastcore.o"
        steps = (
            [*cc, *shlex.split(var("CFLAGS") or ""),
             *shlex.split(var("CCSHARED") or ""), "-ffp-contract=off",
             f'-DREPRO_FASTCORE_SHA256="{digest}"', f"-I{include}",
             "-c", str(source), "-o", str(obj)],
            [*ldshared, str(obj), "-o", str(work / _MODULE_FILE)],
        )
        for cmd in steps:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                tail = (proc.stderr.strip().splitlines() or ["no output"])
                raise _Refused(f"{cmd[0]} failed (exit {proc.returncode}): "
                               f"{tail[-1]}")
        obj.unlink()
        # The linker honours the umask; a group-writable module (umask
        # 002) would fail the trust check on every later load.
        os.chmod(work / _MODULE_FILE, 0o755)
        try:
            os.replace(work, target)
        except OSError:
            if not (target / _MODULE_FILE).exists():
                raise
            # Another process published the same build first.
    except OSError as exc:
        raise _Refused(f"cannot build into {target}: {exc}") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _resolve(source: Path = _SOURCE,
             root: Path | None = None) -> tuple[ModuleType | None, dict]:
    """Find, verify or build the extension for the current *source*.

    Returns ``(module or None, report)``; the report is what
    :func:`core_info` shows: where the module came from, why there is
    none, and a cached module found but refused (built from other
    source, or not importable).  Only the cache is searched.  A failed
    build is remembered in ``<cache dir>.failed`` and not retried for
    the same source digest (delete that file to retry).  It never
    raises: whatever goes wrong leaves the interpreted engine in charge.
    """
    report: dict = {"origin": None, "reason": None, "refused": []}
    if _env_disabled():
        report["reason"] = "disabled by REPRO_COMPILED=0"
        return None, report
    try:
        digest = source_digest(source)
        target = cache_dir(digest, root)
        path = target / _MODULE_FILE
        try:
            target.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        except OSError as exc:
            raise _Refused(f"cannot write {target.parent}: {exc}") from None
        _check_trusted(target.parent)
        if not path.exists():
            failed = target.with_name(target.name + ".failed")
            if failed.exists():
                raise _Refused(f"{failed.read_text().strip()}; "
                               f"remembered in {failed}")
            try:
                _compile(source, digest, target)
            except _Refused as exc:
                try:
                    failed.write_text(f"{exc}\n")
                except OSError:
                    pass
                raise
        for trusted in (target, path):
            _check_trusted(trusted)
        try:
            module = _load(path, digest)
        except _Refused as exc:
            report["refused"].append(str(exc))
            raise
    except _Refused as exc:
        report["reason"] = str(exc)
        return None, report
    except Exception as exc:  # an import-time build must never crash
        report["reason"] = f"{type(exc).__name__}: {exc}"
        return None, report
    report["origin"] = str(path)
    return module, report


def in_tree_leftovers(source: Path = _SOURCE) -> list[Path]:
    """Extension files next to *source*, e.g. from an old in-place build.

    They are never imported (only the cache is searched, and the
    published ``sys.modules`` entry blocks any other import of the
    name); :func:`core_info` lists them so ``repro doctor`` can name
    them.
    """
    return [candidate for candidate in
            (source.with_name("_fastcore" + suffix)
             for suffix in EXTENSION_SUFFIXES)
            if candidate.exists()]


_EXT, _LOAD_REPORT = _resolve()
# Publish the verified module (or block the import of any other).
sys.modules[_MODULE] = _EXT
_default_override: bool | None = None

#: Runs taken by each backend since process start (the gate's
#: engagement probe and ``repro doctor``'s evidence).
RUN_COUNTS = {"compiled": 0, "interpreted": 0}


def compiled_available() -> bool:
    """``True`` when a verified C extension is loaded."""
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
    return not _env_disabled()


def _refresh_kernels() -> bool:
    """Re-resolve the kernel switch :func:`slack_kernels` reads."""
    global _kernels_on
    _kernels_on = compiled_enabled()
    return _kernels_on


_kernels_on = _refresh_kernels()


def set_compiled_default(value: bool | None) -> None:
    """Force the compiled core on/off (``None`` restores env control)."""
    global _default_override
    _default_override = value
    _refresh_kernels()


@contextmanager
def forced(value: bool | None) -> Iterator[None]:
    """Temporarily pin the backend choice (benches and gates)."""
    global _default_override
    previous = _default_override
    _default_override = value
    _refresh_kernels()
    try:
        yield
    finally:
        _default_override = previous
        _refresh_kernels()


def core_info() -> dict:
    """Backend evidence for ``repro doctor``."""
    return {
        "available": compiled_available(),
        "enabled": compiled_enabled(),
        "backend": getattr(_EXT, "BACKEND", None) if _EXT else None,
        "origin": _LOAD_REPORT["origin"],
        "reason": _LOAD_REPORT["reason"],
        "refused": [*_LOAD_REPORT["refused"],
                    *(f"ignored {path}: left-over next to the source, "
                      f"never imported" for path in in_tree_leftovers())],
        "runs": dict(RUN_COUNTS),
    }



def slack_kernels():
    """The compiled kernels module, or ``None`` when inactive.

    The switch is resolved at the start of every run (and by
    :func:`forced` / :func:`set_compiled_default`), not per call: the
    slack walks run hundreds of thousands of times per sweep.
    """
    return _EXT if _kernels_on else None


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
    if not _refresh_kernels() or _ineligible_reason(sim) is not None:
        RUN_COUNTS["interpreted"] += 1
        return False
    from repro.sim.engine import CoreContext
    core = _EXT.CoreEngine(_build_namespace(sim))
    ctx = CoreContext(core)
    RUN_COUNTS["compiled"] += 1
    if _TELEMETRY.enabled:
        # Unlike RUN_COUNTS this folds back across fork with the chunk
        # delta, so a parallel sweep can prove its workers ran C.
        _TELEMETRY.inc("engine.compiled_runs")
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
