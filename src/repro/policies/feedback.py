"""Feedback-DVS: PID execution-time prediction with a hard safety net.

After the feedback-EDF lineage (Zhu & Mueller): each task carries a PID
predictor of its jobs' *actual* execution times; the dispatched job is
paced for its **predicted** remaining work — usually far below the
worst-case budget — so speeds dip deeper than budget-based schemes when
demand is steady.

The published feedback schemes guarantee deadlines by reserving the
unpredicted budget remainder at full speed; here the equivalent hard
guarantee comes from the paper's slack envelope: the final speed is
never below ``rem_wcet / (rem_wcet + slack_full)``, the exact
feasibility floor of the current state, so a wrong prediction costs
energy but never a deadline.  On truly random demand the predictor
learns nothing and the policy degrades toward lpSEH — the limitation
the slack-analysis paper holds against feedback schemes, reproducible
here with :class:`~repro.tasks.execution.BimodalExecution`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.schedulability import minimum_constant_speed
from repro.analysis.slack import heuristic_slack, scale_tasks
from repro.cpu.processor import Processor
from repro.errors import ConfigurationError
from repro.policies.base import DecideSpec, DecideState, DvsPolicy
from repro.tasks.job import Job
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet
from repro.types import Speed, Work

if TYPE_CHECKING:
    from repro.sim.engine import SimContext


@dataclass
class _PidState:
    """Per-task predictor state."""

    prediction: Work
    integral: float = 0.0
    last_error: float = 0.0


class FeedbackDvsPolicy(DvsPolicy):
    """PID-predicted pacing, floored by the exact slack envelope."""

    name = "feedback"

    def __init__(self, kp: float = 0.5, ki: float = 0.05,
                 kd: float = 0.1) -> None:
        super().__init__()
        for label, gain in (("kp", kp), ("ki", ki), ("kd", kd)):
            if gain < 0:
                raise ConfigurationError(
                    f"{label} must be >= 0, got {gain}")
        self.kp = kp
        self.ki = ki
        self.kd = kd
        self._pid: dict[str, _PidState] = {}
        self._baseline_speed: Speed = 1.0
        self._scaled_tasks: tuple[PeriodicTask, ...] = ()

    def bind(self, taskset: TaskSet, processor: Processor) -> None:
        super().bind(taskset, processor)
        self._baseline_speed = max(minimum_constant_speed(taskset),
                                   processor.min_speed, 1e-9)
        self._scaled_tasks = scale_tasks(taskset.tasks,
                                         self._baseline_speed)
        self.decide_spec = DecideSpec(
            FeedbackDvsPolicy, "feedback", self._baseline_speed,
            self._scaled_tasks, gains=(self.kp, self.ki, self.kd))

    def reset(self) -> None:
        assert self.taskset is not None
        # Cold-start at the worst case: safe and quickly corrected.
        self._pid = {t.name: _PidState(prediction=t.wcet)
                     for t in self.taskset}

    def absorb_decide_state(self, state: DecideState) -> None:
        assert self.taskset is not None
        for task, (prediction, integral, last_error) in zip(self.taskset,
                                                            state.pid):
            self._pid[task.name] = _PidState(prediction, integral,
                                             last_error)

    def prediction(self, task_name: str) -> Work:
        """Current execution-time prediction for one task."""
        return self._pid[task_name].prediction

    def on_completion(self, job: Job, ctx: "SimContext") -> None:
        state = self._pid[job.task.name]
        error = job.executed - state.prediction
        state.integral += error
        derivative = error - state.last_error
        state.last_error = error
        state.prediction += (self.kp * error + self.ki * state.integral
                             + self.kd * derivative)
        # Predictions outside (0, wcet] are meaningless.
        state.prediction = min(job.task.wcet,
                               max(1e-3 * job.task.wcet, state.prediction))

    def select_speed(self, job: Job, ctx: "SimContext") -> Speed:
        remaining = job.remaining_wcet
        if remaining <= 1e-12:
            return ctx.current_speed
        # Optimistic pace: spread the *predicted* remaining work over
        # the scaled allotment plus the (scaled) slack.
        predicted = self._pid[job.task.name].prediction
        w_hat = min(remaining, max(1e-9, predicted - job.executed))
        scaled_state = ctx.slack_state(
            baseline_speed=self._baseline_speed,
            scaled_tasks=self._scaled_tasks)
        slack_scaled = heuristic_slack(scaled_state)
        optimistic = w_hat / (w_hat / self._baseline_speed + slack_scaled)
        # Hard floor: the exact feasibility envelope of the worst case.
        slack_full = heuristic_slack(ctx.slack_state())
        required = remaining / (remaining + slack_full)
        return min(1.0, max(optimistic, required, self.min_speed))
