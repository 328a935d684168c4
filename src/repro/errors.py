"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything coming out of the simulator with one handler while
still being able to discriminate the common failure classes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An object was constructed with inconsistent or invalid parameters."""


class InfeasibleTaskSetError(ConfigurationError):
    """The task set cannot be scheduled even at maximum processor speed.

    Raised eagerly (before simulation starts) whenever a hard real-time
    guarantee would be impossible, e.g. total utilization above 1 under
    EDF with implicit deadlines.
    """


class DeadlineMissError(ReproError):
    """A job failed to complete by its absolute deadline.

    In a correct DVS policy this never happens; the simulator raises it
    (rather than silently recording the miss) unless the run was
    explicitly configured with ``allow_deadline_misses=True``.
    """

    def __init__(self, message: str, *, task: str | None = None,
                 job_index: int | None = None,
                 deadline: float | None = None,
                 completion: float | None = None) -> None:
        super().__init__(message)
        self.task = task
        self.job_index = job_index
        self.deadline = deadline
        self.completion = completion


class SimulationError(ReproError):
    """The simulation engine reached an internally inconsistent state."""


class TraceValidationError(ReproError):
    """A trace file cannot be read back: unreadable, empty, malformed,
    or of an unknown schema.  (Schedule invariants are not exceptions:
    :func:`repro.analysis.audit_trace` returns them as violations.)"""


class PolicyError(ReproError):
    """A DVS policy produced an invalid decision (e.g. speed out of range)."""


class ExperimentError(ReproError):
    """An experiment configuration or run failed."""


class UnitTimeoutError(ExperimentError):
    """One (cell, seed) unit exceeded its wall-clock deadline.

    Raised by the per-unit deadline installed with
    ``sweep(unit_timeout=...)``: the unit's simulation is interrupted
    (in the worker, via SIGALRM) the moment its budget expires, so a
    hung cell never stalls a sweep indefinitely.  Classified as
    *transient* by the retry logic — a timeout may be load-induced —
    so the unit is retried up to ``max_retries`` before it fails (or
    is quarantined).
    """

    def __init__(self, message: str, *, x: float | None = None,
                 workload_seed: int | None = None,
                 timeout: float | None = None) -> None:
        super().__init__(message)
        self.x = x
        self.workload_seed = workload_seed
        self.timeout = timeout


class WorkerCrashError(ExperimentError):
    """A worker process died (OOM kill, segfault) while running a unit.

    Synthesised by the parallel executor's supervision loop when a
    unit, dispatched *solo* after repeated pool breakage, takes its
    worker down with it — the only dispatch shape under which the
    crash is unambiguously attributable to one unit.
    """

    def __init__(self, message: str, *, x: float | None = None,
                 workload_seed: int | None = None,
                 crashes: int = 0) -> None:
        super().__init__(message)
        self.x = x
        self.workload_seed = workload_seed
        self.crashes = crashes


class SweepInterrupted(ExperimentError):
    """A sweep was stopped by SIGINT/SIGTERM after a graceful drain.

    By the time this propagates, in-flight work has been folded, every
    completed cell has been checkpointed and the run manifest flushed
    — so the sweep is resumable with ``resume=True`` (``--resume``)
    against the same checkpoint directory.
    """

    def __init__(self, message: str, *, signal_number: int | None = None,
                 completed_cells: int = 0,
                 checkpoint_dir: str | None = None) -> None:
        super().__init__(message)
        self.signal_number = signal_number
        self.completed_cells = completed_cells
        self.checkpoint_dir = checkpoint_dir


class SuiteExecutionError(ExperimentError):
    """One simulation inside an experiment suite failed.

    Carries the workload context (policy name, task-set seed, horizon)
    so a failing cell deep inside a long sweep can be reproduced with a
    single ad-hoc run instead of re-running the whole experiment.  The
    original failure is chained as ``__cause__``.
    """

    def __init__(self, message: str, *, policy: str | None = None,
                 workload_seed: int | None = None,
                 horizon: float | None = None) -> None:
        super().__init__(message)
        self.policy = policy
        self.workload_seed = workload_seed
        self.horizon = horizon
