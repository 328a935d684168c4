"""Arrival processes: periodic and sporadic job release patterns.

The paper's model is strictly periodic.  The natural hard-real-time
generalisation is the **sporadic** task: the period becomes a *minimum
inter-arrival separation* and actual gaps may be longer.  All hard
guarantees in this library remain valid because:

* feasibility analysis with minimum separations upper-bounds the demand
  of any actual sporadic arrival sequence, and
* online policies only ever see the *earliest possible* next release
  (``last arrival + period``, clamped to now) — the engine keeps the
  actual sampled arrival times to itself, exposing them solely to the
  clairvoyant oracle.

Like the execution-time models, arrival processes are deterministic
given ``(seed, task, index)`` — gaps are sampled independently per
index and arrival times are cached prefix sums — so runs are exactly
reproducible and oracle queries agree with the engine.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import ConfigurationError
from repro.tasks.execution import _job_rng
from repro.tasks.task import PeriodicTask
from repro.types import Time


class ArrivalModel(ABC):
    """Maps ``(task, index)`` to the job's actual arrival time."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._prefix: dict[str, list[Time]] = {}

    @abstractmethod
    def gap(self, task: PeriodicTask, index: int) -> Time:
        """Inter-arrival gap between jobs *index* and *index + 1*.

        Must be at least ``task.period`` (the minimum separation) —
        enforced by :meth:`arrival_time`.
        """

    @property
    def is_periodic(self) -> bool:
        """``True`` when every gap equals the period exactly."""
        return False

    def arrival_time(self, task: PeriodicTask, index: int) -> Time:
        """Absolute arrival time of the *index*-th job (0-based)."""
        if index < 0:
            raise ConfigurationError(f"index must be >= 0, got {index}")
        prefix = self._prefix.setdefault(task.name, [task.phase])
        while len(prefix) <= index:
            k = len(prefix) - 1
            gap = self.gap(task, k)
            if gap < task.period - 1e-9:
                raise ConfigurationError(
                    f"gap {gap} of {task.name}#{k} violates the minimum "
                    f"separation {task.period}")
            prefix.append(prefix[-1] + gap)
        return prefix[index]

    def describe(self) -> str:
        return type(self).__name__


class PeriodicArrival(ArrivalModel):
    """Strictly periodic releases — the paper's model and the default."""

    def gap(self, task: PeriodicTask, index: int) -> Time:
        return task.period

    @property
    def is_periodic(self) -> bool:
        return True

    def describe(self) -> str:
        return "periodic"


class UniformJitterArrival(ArrivalModel):
    """Sporadic: gaps uniform in ``[T, (1 + jitter) * T]``."""

    def __init__(self, jitter: float = 0.5, seed: int = 0) -> None:
        super().__init__(seed)
        if jitter < 0:
            raise ConfigurationError(f"jitter must be >= 0, got {jitter}")
        self.jitter = jitter

    def gap(self, task: PeriodicTask, index: int) -> Time:
        if self.jitter == 0:
            return task.period
        rng = _job_rng(self.seed ^ 0x5A5A, task.name, index)
        return task.period * (1.0 + self.jitter * float(rng.random()))

    @property
    def is_periodic(self) -> bool:
        return self.jitter == 0

    def describe(self) -> str:
        return f"uniform-jitter(jitter={self.jitter})"


class ExponentialGapArrival(ArrivalModel):
    """Sporadic: gaps are ``T + Exp(mean_extra * T)`` — long quiet tails."""

    def __init__(self, mean_extra: float = 0.5, seed: int = 0) -> None:
        super().__init__(seed)
        if mean_extra < 0:
            raise ConfigurationError(
                f"mean_extra must be >= 0, got {mean_extra}")
        self.mean_extra = mean_extra

    def gap(self, task: PeriodicTask, index: int) -> Time:
        if self.mean_extra == 0:
            return task.period
        rng = _job_rng(self.seed ^ 0x3C3C, task.name, index)
        return task.period * (
            1.0 + float(rng.exponential(self.mean_extra)))

    def describe(self) -> str:
        return f"exponential-gap(mean_extra={self.mean_extra})"


class BurstyArrival(ArrivalModel):
    """Sporadic bursts: runs of minimum-separation arrivals, then lulls.

    A two-state chain (reconstructed deterministically per index, like
    :class:`~repro.tasks.execution.MarkovExecution`): in the *burst*
    state gaps equal the minimum separation; in the *lull* state gaps
    stretch by ``lull_factor``.
    """

    def __init__(self, lull_factor: float = 3.0, p_stay: float = 0.8,
                 seed: int = 0) -> None:
        super().__init__(seed)
        if lull_factor < 1.0:
            raise ConfigurationError(
                f"lull_factor must be >= 1, got {lull_factor}")
        if not (0.0 <= p_stay <= 1.0):
            raise ConfigurationError(
                f"p_stay must be in [0, 1], got {p_stay}")
        self.lull_factor = lull_factor
        self.p_stay = p_stay
        #: Per task, the chain's states for indices 0, 1, ... so far.
        self._chains: dict[str, list[bool]] = {}

    def _in_burst(self, task_name: str, index: int) -> bool:
        chain = self._chains.setdefault(task_name, [])
        # Fill forward from the last state known, in a loop.
        while len(chain) <= index:
            k = len(chain)
            if k == 0:
                state = bool(
                    _job_rng(self.seed ^ 0x7E7E, task_name, 0).random() < 0.5)
            else:
                flip = float(
                    _job_rng(self.seed ^ 0x7E7E, task_name, k).random())
                state = chain[-1] if flip < self.p_stay else not chain[-1]
            chain.append(state)
        return chain[index]

    def gap(self, task: PeriodicTask, index: int) -> Time:
        if self._in_burst(task.name, index):
            return task.period
        return task.period * self.lull_factor

    def describe(self) -> str:
        return (f"bursty(lull_factor={self.lull_factor}, "
                f"p_stay={self.p_stay})")
