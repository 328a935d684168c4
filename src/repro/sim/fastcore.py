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
  the stock ``Simulator`` and ``Processor``).  When it declines, the
  engine falls through to the interpreted loop — the two produce
  byte-identical :class:`SimulationResult`s by contract (enforced by
  ``scripts/identity_gate.py``).
* **Records and errors** — the C core keeps every per-job record in
  a compact store (``_fastcore.Records``): overrun, deadline-miss,
  governor and transition-fault notes and the ``DeadlineMiss``
  entries, one fixed-size entry each, and the ``speed_time``
  accumulators.  A faulted run makes hundreds of records (EXP-FM1:
  ~460 overrun notes per faulted run, ~300 misses per raw one), and a
  sweep reads only their counts, so :func:`run_compiled` hands the
  store to the result and the recorder, which build the
  ``TraceNote``s, ``DeadlineMiss``es and the ``speed_time`` dict on
  their first read, formatting floats with CPython's own formatter;
  twin tests pin the text to the interpreted engine's f-strings.
  Exceptions stay here: the core calls :func:`_miss` and the other
  raisers only to raise, so error types and messages are Python's
  own.  :func:`_mk_job` builds a ``Job`` only when Python code asks
  for one.  Nothing else costs a Python object per event (DESIGN.md
  §13.1): ``speed_time`` keys are computed exactly in C, and the
  simulator's ``_next_release`` and ``_next_index`` dicts are written
  only where Python can read them (the core's getters, before each
  hook that gets the context, and at the end of the run, an aborted
  one included).
* **Setup** — :class:`_Suite` holds what every run over one task
  tuple shares (the task columns, and the last demand tables), built
  by the suite's first compiled run; everything else, every
  eligibility check included, is read per run.  The interpreted loop
  builds its own state only for a run the core declined.
* **Kernels** — :func:`slack_kernels` hands ``repro.analysis.slack``
  and the clairvoyant policy the compiled kernels under the same
  enable switch, resolved once per run.
* **Decide** — :func:`_decide_fields` hands the core a policy's
  :class:`~repro.policies.base.DecideSpec` when the core can make the
  policy's speed decisions itself (DESIGN.md §13.4); after the run the
  policy takes its state back.
* **Draw** — :func:`_demand_tables` hands the core the execution
  model's per-task demand tables when the core can draw the demands
  itself, overrun faults included (DESIGN.md §13.4).
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import os
import sys
from contextlib import contextmanager
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from types import ModuleType, SimpleNamespace
from typing import TYPE_CHECKING, Iterator

from repro.analysis.slack import _flat_tasks
from repro.cpu.power import PolynomialPowerModel
from repro.cpu.processor import Processor
from repro.cpu.speed import ContinuousScale, DiscreteScale
from repro.cpu.transition import NoOverhead
from repro.errors import DeadlineMissError, PolicyError, SimulationError
from repro.faults.injectors import FaultyExecution
from repro.policies.base import DecideState as _DecideState, DvsPolicy
from repro.sim.results import DeadlineMiss
from repro.sim.tracing import TraceNote
from repro.tasks.arrivals import PeriodicArrival
from repro.tasks.execution import MIN_RATIO
from repro.tasks.job import Job
from repro.telemetry import TELEMETRY as _TELEMETRY, decide_label

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

#: Runs taken by each backend since process start, the compiled runs
#: whose demands were drawn in C, and the compiled runs whose policy
#: decided in C, per policy name (the gate's engagement probe and
#: ``repro doctor``'s evidence).
RUN_COUNTS: dict = {"compiled": 0, "interpreted": 0, "drawn": 0,
                    "decided": {}}


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
        "runs": {**RUN_COUNTS, "decided": dict(RUN_COUNTS["decided"])},
    }



def slack_kernels():
    """The compiled kernels module, or ``None`` when inactive.

    The switch is resolved at the start of every run (and by
    :func:`forced` / :func:`set_compiled_default`), not per call: the
    slack walks run hundreds of thousands of times per sweep.
    """
    return _EXT if _kernels_on else None


# ----------------------------------------------------------------------
# Helpers called from C: the Job constructor and the error raisers
# ----------------------------------------------------------------------

def _never(*_args):  # bound for never-taken callback slots
    raise SimulationError("fastcore callback invoked unexpectedly")


def _mk_job(task, index, work, release, allow_overrun):
    return Job.from_task(task, index, work, release=release,
                         allow_overrun=allow_overrun)


def _miss(result, task, index, deadline, detected_at):
    # Simulator._register_miss's error; the core has written the miss
    # record, the task's count and the note first.
    raise DeadlineMissError(
        f"job {task.name}#{index} missed its deadline {deadline:g} "
        f"(detected at t={detected_at:g}, policy={result.policy})",
        task=task.name, job_index=index, deadline=deadline,
        completion=detected_at)


def _governor_slack(slack):
    # SafetyGovernor.feasibility_floor's observation (telemetry on).
    _TELEMETRY.observe("governor.slack", slack)


def _governor_clamp(name, now, desired, floor):
    # SafetyGovernor.select_speed's clamp counters and event (telemetry
    # on); the core has written the note.
    _TELEMETRY.inc("governor.clamps")
    _TELEMETRY.observe("governor.clamp_magnitude", floor - desired)
    _TELEMETRY.emit("governor.clamp", job=name, t=now,
                    desired=round(desired, 6), floor=round(floor, 6))


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
    if type(sim) is not _engine_types()[0]:
        return f"subclassed simulator {type(sim).__name__}"
    if type(sim.processor) is not Processor:
        return f"processor {type(sim.processor).__name__}"
    return None


_ENGINE_TYPES: tuple = ()


def _engine_types() -> tuple:
    """``(Simulator, CoreContext)``, imported on first use (the engine
    module imports this one)."""
    global _ENGINE_TYPES
    if not _ENGINE_TYPES:
        from repro.sim.engine import CoreContext, Simulator
        _ENGINE_TYPES = (Simulator, CoreContext)
    return _ENGINE_TYPES


#: DecideSpec.kind -> the C core's decide kind (DK_* in _fastcore.c).
_DECIDE_KINDS = {"lpSTA": 1, "lpSEH": 2, "laEDF": 3, "feedback": 4,
                 "DRA": 5, "none": 6, "static": 6, "ccEDF": 7,
                 "lppsEDF": 8, "clairvoyant": 9}
#: The registry policies the compiled core decides for.
DECIDED_POLICIES = tuple(_DECIDE_KINDS)
#: Kinds decided in C only under inline periodic arrivals; clairvoyant
#: also needs the demands drawn in C (it reads future jobs).
_PERIODIC_KINDS = frozenset({"none", "static", "ccEDF", "lppsEDF",
                             "clairvoyant"})


class _Suite:
    """What every compiled run over one task tuple shares.

    The task part of the C init contract (names, columns, EDF name
    ranks), whether the tasks admit compiled draws, and the demand
    tables of the last execution model drawn for them.  Built by a
    suite's first run and pinned to the task tuple it was built from
    (tasks are frozen, so the tuple's identity is its content); the
    tables are pinned to their model, its table dict, seed and bounds.
    Per-run eligibility checks (patched hooks and models) still run
    for every run: this holds only what they cannot change.
    """

    __slots__ = ("tasks", "fields", "drawable", "tables_key", "tables")

    def __init__(self, tasks: tuple) -> None:
        names = tuple(task.name for task in tasks)
        rank = {name: i for i, name in enumerate(sorted(names))}
        self.tasks = tasks
        self.fields = dict(
            tasks=tasks, names=names,
            name2idx={name: i for i, name in enumerate(names)},
            period=tuple(float(task.period) for task in tasks),
            rel_deadline=tuple(float(task.deadline) for task in tasks),
            wcet=tuple(float(task.wcet) for task in tasks),
            name_rank=tuple(rank[name] for name in names))
        # Only float WCETs and BCETs draw in C (an int could make
        # work() return an int).
        self.drawable = all(type(task.wcet) is float
                            and type(task.bcet) is float for task in tasks)
        self.tables_key: tuple | None = None
        self.tables: tuple = ()


#: The one :class:`_Suite` held: the last task tuple run compiled.
_SUITE: _Suite | None = None


def _suite(tasks: tuple) -> _Suite:
    global _SUITE
    suite = _SUITE
    if suite is None or suite.tasks is not tasks:
        suite = _SUITE = _Suite(tasks)
    return suite


def _demand_tables(model, tasks: tuple) -> tuple | None:
    """One ``DemandTable`` per task of *tasks* when the core can draw
    *model*'s demands itself (DESIGN.md §13.4), else ``None``
    (``model.work()`` draws).

    The tables live on the execution model, so every run of a suite and
    the clairvoyant oracle draw each job once; the suite entry keeps
    the tuple.  Only models whose
    :meth:`~repro.tasks.execution.ExecutionModel.compiled_draw` holds
    qualify (checked on every call), and only float WCETs and BCETs.
    A :class:`~repro.faults.injectors.FaultyExecution` whose
    ``compiled_overrun()`` holds, over such a model, gets one fault
    table per task over the inner model's: a per-run view whose
    non-overrun jobs read the shared inner draws.
    """
    if type(model) is FaultyExecution:
        overrun = model.compiled_overrun()
        inner = (_demand_tables(model.inner, tasks)
                 if overrun is not None else None)
        if inner is None:
            return None
        seed, factor, probability = overrun
        return tuple(_EXT.fault_table(table, f"{seed}:{task.name}:".encode(),
                                      factor, probability)
                     for task, table in zip(tasks, inner))
    bounds = model.compiled_draw()
    if bounds is None:
        return None
    suite = _suite(tasks)
    if not suite.drawable:
        return None
    tables = model.demand_tables
    key = suite.tables_key
    if (key is not None and key[0] is model and key[1] is tables
            and key[2] == model.seed and key[3] == bounds):
        return suite.tables
    low, high = bounds
    out = []
    for task in tasks:
        table_key = (task.name, task.wcet, task.bcet)
        table = tables.get(table_key)
        if table is None:
            table = tables[table_key] = _EXT.DemandTable(
                f"{model.seed}:{task.name}:".encode(), low, high,
                task.wcet, task.bcet, MIN_RATIO)
        out.append(table)
    suite.tables_key = (model, tables, model.seed, bounds)
    suite.tables = tuple(out)
    return suite.tables


def _decide_fields(sim: "Simulator", tables: tuple | None,
                   label: str) -> dict:
    """The decide part of the C init contract (DESIGN.md §13.4).

    Kind 0 keeps the policy's own ``select_speed`` (and its release and
    completion hooks, skipped when they are the base class's no-ops).
    The compiled decide is taken only for the exact class that set the
    policy's :class:`~repro.policies.base.DecideSpec`, with every hook
    it mirrors unpatched, and for :data:`_PERIODIC_KINDS` only under
    inline periodic arrivals (clairvoyant: with *tables* too).  A spec
    with a :class:`~repro.policies.base.GovernorStage` (the safety
    governor's) decides its inner policy's kind, then the stage.
    Telemetry and the timers do not change the path: the core makes the
    same observations and opens the same timer regions as the hooks
    would.
    """
    policy = sim.policy
    spec = policy.decide_spec
    kind = (_DECIDE_KINDS[spec.kind]
            if spec is not None and policy.decides_unpatched() else 0)
    if kind and spec.kind in _PERIODIC_KINDS and (
            type(sim.arrival_model) is not PeriodicArrival
            or (spec.kind == "clairvoyant" and tables is None)):
        kind = 0
    stage = spec.stage if kind else None
    # The policy whose decide the kind mirrors: the governor's inner one.
    decider = policy.inner if stage is not None else policy
    timers = _TELEMETRY.timers
    fields = dict(
        _PYTHON_DECIDE, decide_kind=kind, gov_stage=int(stage is not None),
        observe_slack=decider.observe_slack,
        prof_push=_TELEMETRY.push if timers else None,
        prof_pop=_TELEMETRY.pop if timers else None,
        decide_label=label)
    if not kind:
        fields["on_release"] = (
            None if type(policy).on_release is DvsPolicy.on_release
            and "on_release" not in vars(policy) else policy.on_release)
        fields["on_completion"] = (
            None if type(policy).on_completion is DvsPolicy.on_completion
            and "on_completion" not in vars(policy)
            else policy.on_completion)
        return fields
    full = _flat_tasks(sim.taskset.tasks)
    scaled = _flat_tasks(spec.tasks) if spec.tasks is not None else full
    kp, ki, kd = spec.gains
    fields.update(
        decide_option=int(spec.option), decide_baseline=spec.baseline,
        decide_min_speed=float(policy.min_speed),
        decide_cap=(math.nan if spec.window_cap is None
                    else float(spec.window_cap)),
        decide_kp=kp, decide_ki=ki, decide_kd=kd,
        sc_wcet=scaled[3], sc_util=scaled[4], sc_corr=scaled[5],
        fu_util=full[4], fu_corr=full[5])
    if stage is not None:
        inflated = _flat_tasks(stage.tasks)
        fields.update(
            gov_cap=(math.nan if stage.window_cap is None
                     else float(stage.window_cap)),
            gov_wcet=inflated[3], gov_util=inflated[4],
            gov_corr=inflated[5])
    return fields


#: The decide fields of a run whose policy decides in Python; a
#: compiled decide overrides the ones it uses.
_PYTHON_DECIDE = dict(
    decide_option=0, decide_baseline=1.0, decide_min_speed=1.0,
    decide_cap=math.nan, decide_kp=0.0, decide_ki=0.0, decide_kd=0.0,
    sc_wcet=(), sc_util=(), sc_corr=(), fu_util=(), fu_corr=(),
    gov_cap=math.nan, gov_wcet=(), gov_util=(), gov_corr=(),
    gov_slack=_governor_slack, gov_clamp=_governor_clamp,
    on_release=None, on_completion=None)

#: The fields no run changes: the Job constructor, the error raisers and
#: the record types the core's store builds.
_HELPERS = dict(
    mk_job=_mk_job, miss=_miss, bad_speed=_bad_speed, bad_quant=_bad_quant,
    no_progress=_no_progress, overexec=_overexec, neg_exec=_neg_exec,
    trace_run=_trace_run, note_type=TraceNote, miss_type=DeadlineMiss)


def _build_namespace(sim: "Simulator") -> SimpleNamespace:
    """Flatten one reset-and-bound Simulator into the C init contract.

    The task part comes from the suite entry (:class:`_Suite`); the
    processor, the models, the policy and the run's own objects are
    read for every run.
    """
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
    suite = _suite(tasks)
    model = sim.execution_model
    arrival = sim.arrival_model
    policy = sim.policy
    result = sim._result
    trace = sim._trace
    faults = sim.faults
    tables = _demand_tables(model, tasks)
    faults_transitions = faults is not None and faults.affects_transitions
    label = decide_label(result.policy)
    return SimpleNamespace(
        **suite.fields, **_HELPERS,
        # shared objects (the core mutates result/trace/dicts in place)
        taskset=sim.taskset, processor=proc,
        execution_model=model, arrival_model=arrival,
        trace=trace, result=result,
        task_stats=tuple(result.task_stats.values()),
        next_release=sim._next_release, next_index=sim._next_index,
        # policy / model callbacks
        select_speed=_maybe_profiled(policy.select_speed, label),
        observe=policy.observe_decision,
        plan_idle=(sim.idle_policy.plan_idle
                   if sim.idle_policy is not None else _never),
        work=model.work,
        arrival=arrival.arrival_time,
        quantize=proc.quantize,
        active_energy=proc.active_energy,
        transition=proc.transition,
        transition_outcome=(faults.transition_outcome
                            if faults_transitions else _never),
        # where Python code adds its notes (the core counts them)
        notes=trace._notes,
        # scalars
        horizon=float(sim.horizon),
        q_min=float(q_min), p_alpha=float(p_alpha),
        p_dynamic=float(p_dynamic), p_static=float(p_static),
        idle_power=float(proc.idle_power),
        sleep_power=float(proc.sleep_power),
        wakeup_energy=float(proc.wakeup_energy),
        # flags
        telemetry_on=int(_TELEMETRY.enabled),
        allow_misses=int(sim.allow_misses),
        record_trace=int(sim.record_trace),
        faults_transitions=int(faults_transitions),
        allow_overrun=int(faults is not None),
        is_periodic=int(arrival.is_periodic),
        periodic_inline=int(type(arrival) is PeriodicArrival),
        quant_kind=quant_kind, power_kind=power_kind,
        trans_none=int(type(proc.transition_model) is NoOverhead),
        has_idle_policy=int(sim.idle_policy is not None),
        # per-task run state (task order)
        release0=tuple(sim._next_release.values()),
        q_levels=tuple(map(float, q_levels)),
        demand_tables=tables,
        **_decide_fields(sim, tables, label),
    )


def _maybe_profiled(select_speed, label: str):
    """Wrap the policy-decide callback in the timer region *label*.

    The compiled core never goes through ``Simulator._dispatch``, so
    the interpreted loop's ``policy.decide.<policy>`` seam would vanish
    under it; wrapping the callback the core calls back into keeps the
    attribution identical on both engines.  With the timers off the
    original bound method is handed over untouched — zero cost.
    """
    if not _TELEMETRY.timers:
        return select_speed

    def profiled(job, ctx):
        _TELEMETRY.push(label)
        try:
            return select_speed(job, ctx)
        finally:
            _TELEMETRY.pop()

    return profiled


def run_compiled(sim: "Simulator") -> bool:
    """Run *sim*'s main loop on the compiled core, if permitted.

    Called by :meth:`Simulator.run` after ``_reset()`` and policy
    binding, before the interpreted loop's own state is built.  Returns
    ``True`` when the compiled core executed the run (the result object
    is fully populated); ``False`` means the caller must run the
    interpreted loop.  Exceptions (deadline misses, policy errors)
    propagate exactly as from the interpreted engine.
    """
    if not _refresh_kernels() or _ineligible_reason(sim) is not None:
        RUN_COUNTS["interpreted"] += 1
        return False
    namespace = _build_namespace(sim)
    core = _EXT.CoreEngine(namespace)
    ctx = _engine_types()[1](core)
    RUN_COUNTS["compiled"] += 1
    drawn = namespace.demand_tables is not None
    RUN_COUNTS["drawn"] += drawn
    if namespace.decide_kind:
        decided = RUN_COUNTS["decided"]
        decided[sim._result.policy] = decided.get(sim._result.policy, 0) + 1
    if _TELEMETRY.enabled:
        # Unlike RUN_COUNTS these fold back across fork with the chunk
        # delta, so a parallel sweep can prove its workers ran C.
        _TELEMETRY.inc("engine.compiled_runs")
        if drawn:
            _TELEMETRY.inc("engine.compiled_draws")
        if namespace.decide_kind:
            _TELEMETRY.inc("engine.compiled_decides")
    finished = False
    try:
        core.run(ctx)
        finished = True
    finally:
        # The records stay in the core's store until read; an aborted
        # run's result.notes stays empty, like the interpreted engine's.
        sim._trace._records = core.records
        sim._result._defer(core.records, sim._trace, notes=finished)
        if namespace.decide_kind:
            sim.policy.absorb_decide_state(
                _DecideState(*core.decide_state()))
        # Mirror the engine attributes downstream introspection reads;
        # _next_release/_next_index are the shared dicts, which the core
        # writes when Python can read them and at the end of the run.
        # The jobs still active at the horizon are not mirrored: nothing
        # reads them after a run, and each would cost a Job.
        sim._now = core._now
        sim._current_speed = core._current_speed
        sim._release_version = core._release_version
    return True
