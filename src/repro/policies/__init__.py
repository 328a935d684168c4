"""DVS policies: the paper's slack-time-analysis algorithms + baselines."""

from repro.policies.base import DvsPolicy
from repro.policies.none import NoDvsPolicy
from repro.policies.static_edf import StaticEdfPolicy
from repro.policies.ccedf import CcEdfPolicy
from repro.policies.laedf import LaEdfPolicy
from repro.policies.lpps_edf import LppsEdfPolicy
from repro.policies.critical_speed import CriticalSpeedPolicy
from repro.policies.dra import DraPolicy
from repro.policies.feedback import FeedbackDvsPolicy
from repro.policies.governor import SafetyGovernor
from repro.policies.slack_sta import LpStaPolicy
from repro.policies.slack_seh import LpSehPolicy
from repro.policies.clairvoyant import ClairvoyantPolicy
from repro.policies.overhead_aware import OverheadAwarePolicy
from repro.policies.procrastination import (
    IdlePlan,
    IdlePolicy,
    NeverSleepIdlePolicy,
    SleepOnIdlePolicy,
    ProcrastinationIdlePolicy,
)
from repro.policies.registry import (
    POLICY_FACTORIES,
    ONLINE_POLICY_NAMES,
    ALL_POLICY_NAMES,
    make_policy,
)

__all__ = [
    "DvsPolicy",
    "NoDvsPolicy",
    "StaticEdfPolicy",
    "CcEdfPolicy",
    "LaEdfPolicy",
    "LppsEdfPolicy",
    "DraPolicy",
    "CriticalSpeedPolicy",
    "FeedbackDvsPolicy",
    "SafetyGovernor",
    "LpStaPolicy",
    "LpSehPolicy",
    "ClairvoyantPolicy",
    "OverheadAwarePolicy",
    "IdlePlan",
    "IdlePolicy",
    "NeverSleepIdlePolicy",
    "SleepOnIdlePolicy",
    "ProcrastinationIdlePolicy",
    "POLICY_FACTORIES",
    "ONLINE_POLICY_NAMES",
    "ALL_POLICY_NAMES",
    "make_policy",
]
