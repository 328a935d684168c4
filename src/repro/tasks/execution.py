"""Actual execution-time models.

DVS energy savings come from the gap between a job's worst-case budget
and its actual demand, so the *distribution* of actual execution times
is the main workload knob in every DVS-EDF evaluation.  Each model maps
``(task, job_index)`` to an actual demand in ``(0, wcet]`` — sampling is
**deterministic given the model seed**, independent of the order in
which jobs are queried.  That property lets the clairvoyant oracle
policy and the simulation engine agree on future demands without
sharing mutable RNG state.

All stochastic models are parameterised in terms of the *bc/wc ratio*:
the fraction of the WCET a job actually uses.  Ratios are clamped to
``[min_ratio, 1.0]`` so demands stay valid.
"""

from __future__ import annotations

import hashlib
import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from operator import is_

import numpy as np

from repro.errors import ConfigurationError
from repro.tasks.task import PeriodicTask
from repro.types import Work

#: Smallest admissible ratio of actual demand to WCET; demand must stay
#: strictly positive for a job to exist at all.
MIN_RATIO: float = 1e-3


def _job_rng(seed: int, task_name: str, index: int) -> np.random.Generator:
    """Deterministic per-job random generator.

    The stream is derived from a stable hash of ``(seed, task, index)``
    so two queries for the same job always agree, regardless of query
    order or of which other jobs were sampled in between.
    """
    digest = hashlib.blake2b(
        f"{seed}:{task_name}:{index}".encode(), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "little"))


def _clamp_ratio(ratio: float) -> float:
    """Clamp a demand ratio into the valid ``[MIN_RATIO, 1.0]`` band."""
    return min(1.0, max(MIN_RATIO, ratio))


#: What a compiled draw stands in for: the model's methods, and the
#: module's helpers they call.  Replacing any of them keeps the Python
#: path (see :meth:`ExecutionModel.compiled_draw`).
_DRAW_HOOKS = ("ratio", "work", "_uniform_bounds")
_DRAW_HELPERS = ("_job_rng", "_clamp_ratio")


def _draw_snapshot(cls: type) -> tuple:
    module = vars(sys.modules[__name__])
    return (*map(getattr, (cls,) * len(_DRAW_HOOKS), _DRAW_HOOKS),
            *map(module.__getitem__, _DRAW_HELPERS))


class ExecutionModel(ABC):
    """Maps jobs to actual execution demands."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._work_cache: dict[tuple[str, float, float, int], Work] = {}
        #: Per-task demand tables the compiled core draws into, keyed
        #: like the work cache without the index (``repro.sim.fastcore``):
        #: a suite's runs and its clairvoyant oracle share them.
        self.demand_tables: dict[tuple[str, float, float], object] = {}

    def __getstate__(self) -> dict:
        # The tables are a cache of compiled draws, rebuilt on demand.
        return {**vars(self), "demand_tables": {}}

    @abstractmethod
    def ratio(self, task: PeriodicTask, index: int) -> float:
        """Return the actual/WCET demand ratio for one job, in (0, 1]."""

    def work(self, task: PeriodicTask, index: int) -> Work:
        """Actual demand of the *index*-th job of *task*.

        Respects the task's ``bcet`` as a hard lower bound.  Samples
        are memoized: the map is a pure function of ``(seed, task,
        index)``, and one model instance typically serves every policy
        of a suite (plus the clairvoyant oracle), so caching skips the
        per-query hash-seeded RNG reconstruction on all but the first
        lookup.  The key carries the WCET/BCET so a model shared
        across differently-scaled task sets stays correct.  A miss
        reads the task's compiled demand table when the core has made
        one and the model still qualifies for it
        (:meth:`compiled_draw`): the same value, drawn once per suite.
        """
        key = (task.name, task.wcet, task.bcet, index)
        cached = self._work_cache.get(key)
        if cached is None:
            table = self.demand_tables.get(key[:3])
            if (table is not None and type(task.wcet) is float
                    and type(task.bcet) is float
                    and self.compiled_draw() is not None):
                cached = table.work(index)
            else:
                demand = _clamp_ratio(self.ratio(task, index)) * task.wcet
                cached = min(task.wcet,
                             max(demand, task.bcet, MIN_RATIO * task.wcet))
            self._work_cache[key] = cached
        return cached

    def _uniform_bounds(self) -> tuple[float, float] | None:
        """``(low, high)`` when :meth:`ratio` is
        ``_job_rng(seed, task, index).uniform(low, high)`` (a constant
        ratio is that draw with ``low == high``); ``None`` otherwise."""
        return None

    def compiled_draw(self) -> tuple[float, float] | None:
        """The uniform ``(low, high)`` the compiled core may draw this
        model's demands from, bit-identical to :meth:`work`; ``None``
        keeps :meth:`work`.

        Only an exact type that defines the draw qualifies, with its
        hooks as the class defined them: a subclass, or a patched
        method or helper on the class, module or instance, keeps the
        Python path.
        """
        reference = _DRAWN.get(type(self))
        if (reference is None
                or not all(map(is_, _draw_snapshot(type(self)), reference))
                or not vars(self).keys().isdisjoint(_DRAW_HOOKS)):
            return None
        return self._uniform_bounds()

    def describe(self) -> str:
        """One-line human description used in experiment reports."""
        return type(self).__name__


class ConstantExecution(ExecutionModel):
    """Every job consumes a fixed fraction of its WCET."""

    def __init__(self, ratio: float = 1.0, seed: int = 0) -> None:
        super().__init__(seed)
        if not (0.0 < ratio <= 1.0):
            raise ConfigurationError(f"ratio must be in (0, 1], got {ratio}")
        self._ratio = ratio

    def ratio(self, task: PeriodicTask, index: int) -> float:
        return self._ratio

    def _uniform_bounds(self) -> tuple[float, float]:
        return (float(self._ratio), float(self._ratio))

    def describe(self) -> str:
        return f"constant(ratio={self._ratio})"


class WorstCaseExecution(ConstantExecution):
    """Every job consumes exactly its WCET (ratio 1.0)."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__(1.0, seed)


class UniformExecution(ExecutionModel):
    """Demand ratio drawn uniformly from ``[low, high]`` per job.

    This is the standard workload of the DVS-EDF literature: the swept
    "bc/wc" parameter is ``low`` with ``high = 1.0``.
    """

    def __init__(self, low: float = 0.5, high: float = 1.0, seed: int = 0) -> None:
        super().__init__(seed)
        if not (0.0 < low <= high <= 1.0):
            raise ConfigurationError(
                f"need 0 < low <= high <= 1, got low={low} high={high}")
        self.low = low
        self.high = high

    def ratio(self, task: PeriodicTask, index: int) -> float:
        rng = _job_rng(self.seed, task.name, index)
        return float(rng.uniform(self.low, self.high))

    def _uniform_bounds(self) -> tuple[float, float]:
        return (float(self.low), float(self.high))

    def describe(self) -> str:
        return f"uniform(low={self.low}, high={self.high})"


class TruncatedNormalExecution(ExecutionModel):
    """Gaussian demand ratio truncated (by resampling) to ``[low, 1]``."""

    def __init__(self, mean: float = 0.6, std: float = 0.15,
                 low: float = MIN_RATIO, seed: int = 0) -> None:
        super().__init__(seed)
        if not (0.0 < mean <= 1.0):
            raise ConfigurationError(f"mean must be in (0, 1], got {mean}")
        if std < 0:
            raise ConfigurationError(f"std must be >= 0, got {std}")
        if not (0.0 < low <= 1.0):
            raise ConfigurationError(f"low must be in (0, 1], got {low}")
        self.mean = mean
        self.std = std
        self.low = low

    def ratio(self, task: PeriodicTask, index: int) -> float:
        rng = _job_rng(self.seed, task.name, index)
        for _ in range(64):
            value = float(rng.normal(self.mean, self.std))
            if self.low <= value <= 1.0:
                return value
        return min(1.0, max(self.low, self.mean))

    def describe(self) -> str:
        return f"normal(mean={self.mean}, std={self.std})"


class BimodalExecution(ExecutionModel):
    """Jobs are either light or heavy — a stress test for predictors.

    With probability ``p_heavy`` a job consumes ``heavy`` of its WCET,
    otherwise ``light``.  Feedback/prediction-based schemes degrade on
    this pattern while slack-analysis schemes keep their guarantees.
    """

    def __init__(self, light: float = 0.2, heavy: float = 1.0,
                 p_heavy: float = 0.3, seed: int = 0) -> None:
        super().__init__(seed)
        if not (0.0 < light <= heavy <= 1.0):
            raise ConfigurationError(
                f"need 0 < light <= heavy <= 1, got light={light} heavy={heavy}")
        if not (0.0 <= p_heavy <= 1.0):
            raise ConfigurationError(f"p_heavy must be in [0, 1], got {p_heavy}")
        self.light = light
        self.heavy = heavy
        self.p_heavy = p_heavy

    def ratio(self, task: PeriodicTask, index: int) -> float:
        rng = _job_rng(self.seed, task.name, index)
        if float(rng.random()) < self.p_heavy:
            return self.heavy
        return self.light

    def describe(self) -> str:
        return (f"bimodal(light={self.light}, heavy={self.heavy}, "
                f"p_heavy={self.p_heavy})")


class SinusoidalExecution(ExecutionModel):
    """Demand ratio follows a per-task sinusoid over the job index.

    Models a smoothly varying workload (e.g. an encoder whose frame
    complexity drifts): ``ratio = offset + amplitude * sin(2*pi*index/cycle
    + phase)``, optionally with uniform jitter.
    """

    def __init__(self, offset: float = 0.6, amplitude: float = 0.3,
                 cycle: int = 20, phase: float = 0.0,
                 jitter: float = 0.0, seed: int = 0) -> None:
        super().__init__(seed)
        if cycle <= 0:
            raise ConfigurationError(f"cycle must be > 0, got {cycle}")
        if amplitude < 0 or jitter < 0:
            raise ConfigurationError("amplitude and jitter must be >= 0")
        if offset - amplitude - jitter < 0 or offset + amplitude + jitter > 1.0 + 1e-12:
            raise ConfigurationError(
                "offset +/- (amplitude + jitter) must stay within [0, 1]")
        self.offset = offset
        self.amplitude = amplitude
        self.cycle = cycle
        self.phase = phase
        self.jitter = jitter

    def ratio(self, task: PeriodicTask, index: int) -> float:
        base = self.offset + self.amplitude * math.sin(
            2.0 * math.pi * index / self.cycle + self.phase)
        if self.jitter > 0:
            rng = _job_rng(self.seed, task.name, index)
            base += float(rng.uniform(-self.jitter, self.jitter))
        return base

    def describe(self) -> str:
        return (f"sinusoid(offset={self.offset}, amplitude={self.amplitude}, "
                f"cycle={self.cycle})")


class MarkovExecution(ExecutionModel):
    """Two-state Markov-modulated demand: bursty light/heavy phases.

    The per-task state chain is reconstructed deterministically from the
    job index (the chain for job ``k`` replays transitions ``0..k``,
    each once per model), so sampling stays order-independent.
    """

    def __init__(self, light: float = 0.3, heavy: float = 0.9,
                 p_stay: float = 0.9, seed: int = 0) -> None:
        super().__init__(seed)
        if not (0.0 < light <= heavy <= 1.0):
            raise ConfigurationError(
                f"need 0 < light <= heavy <= 1, got light={light} heavy={heavy}")
        if not (0.0 <= p_stay <= 1.0):
            raise ConfigurationError(f"p_stay must be in [0, 1], got {p_stay}")
        self.light = light
        self.heavy = heavy
        self.p_stay = p_stay
        #: Per task, the chain's states for indices 0, 1, ... so far.
        self._chains: dict[str, list[bool]] = {}

    def _state(self, task_name: str, index: int) -> bool:
        """Return True when the chain is in the heavy state at *index*."""
        chain = self._chains.setdefault(task_name, [])
        # Fill forward from the last state known (a loop: one frame
        # per index would overflow the stack on long horizons).
        while len(chain) <= index:
            k = len(chain)
            if k == 0:
                state = bool(_job_rng(self.seed, task_name, 0).random() < 0.5)
            else:
                flip = float(_job_rng(self.seed, task_name, k).random())
                state = chain[-1] if flip < self.p_stay else not chain[-1]
            chain.append(state)
        return chain[index]

    def ratio(self, task: PeriodicTask, index: int) -> float:
        return self.heavy if self._state(task.name, index) else self.light

    def describe(self) -> str:
        return (f"markov(light={self.light}, heavy={self.heavy}, "
                f"p_stay={self.p_stay})")


class TraceExecution(ExecutionModel):
    """Replay recorded demand ratios; repeats cyclically when exhausted."""

    def __init__(self, ratios: dict[str, list[float]] | list[float],
                 seed: int = 0) -> None:
        super().__init__(seed)
        if isinstance(ratios, list):
            if not ratios:
                raise ConfigurationError("trace must be non-empty")
            self._default: list[float] | None = list(ratios)
            self._per_task: dict[str, list[float]] = {}
        else:
            if not ratios:
                raise ConfigurationError("trace mapping must be non-empty")
            self._default = None
            self._per_task = {name: list(vals) for name, vals in ratios.items()}
            for name, vals in self._per_task.items():
                if not vals:
                    raise ConfigurationError(f"trace for {name!r} is empty")
        for vals in ([self._default] if self._default else self._per_task.values()):
            for v in vals:
                if not (0.0 < v <= 1.0):
                    raise ConfigurationError(
                        f"trace ratio {v} outside (0, 1]")

    def ratio(self, task: PeriodicTask, index: int) -> float:
        trace = self._per_task.get(task.name, self._default)
        if trace is None:
            raise ConfigurationError(
                f"no trace for task {task.name!r} and no default trace")
        return trace[index % len(trace)]

    def describe(self) -> str:
        return "trace-replay"


def model_for_bcwc_ratio(bcwc: float, seed: int = 0) -> ExecutionModel:
    """The canonical swept workload: uniform demand in ``[bcwc, 1]``·WCET."""
    if math.isclose(bcwc, 1.0):
        return WorstCaseExecution(seed=seed)
    return UniformExecution(low=bcwc, high=1.0, seed=seed)


#: The exact types whose demands the compiled core can draw, with their
#: draw hooks as defined (:meth:`ExecutionModel.compiled_draw`).
_DRAWN = {cls: _draw_snapshot(cls) for cls in
          (ConstantExecution, WorstCaseExecution, UniformExecution)}
