"""Policy registry: name -> factory.

Experiments and the CLI refer to policies by the names the figures use;
this module is the single source of truth for that mapping.
"""

from __future__ import annotations

from typing import Callable

from repro.policies.base import DvsPolicy
from repro.policies.ccedf import CcEdfPolicy
from repro.policies.clairvoyant import ClairvoyantPolicy
from repro.policies.critical_speed import CriticalSpeedPolicy
from repro.policies.dra import DraPolicy
from repro.policies.feedback import FeedbackDvsPolicy
from repro.policies.governor import SafetyGovernor
from repro.policies.laedf import LaEdfPolicy
from repro.policies.lpps_edf import LppsEdfPolicy
from repro.policies.none import NoDvsPolicy
from repro.policies.overhead_aware import OverheadAwarePolicy
from repro.policies.slack_seh import LpSehPolicy
from repro.policies.slack_sta import LpStaPolicy
from repro.policies.static_edf import StaticEdfPolicy

#: All selectable policies, in the canonical plotting order.
POLICY_FACTORIES: dict[str, Callable[[], DvsPolicy]] = {
    "none": NoDvsPolicy,
    "static": StaticEdfPolicy,
    "ccEDF": CcEdfPolicy,
    "lppsEDF": LppsEdfPolicy,
    "DRA": DraPolicy,
    "laEDF": LaEdfPolicy,
    "feedback": FeedbackDvsPolicy,
    "lpSEH": LpSehPolicy,
    "lpSTA": LpStaPolicy,
    "clairvoyant": ClairvoyantPolicy,
}

#: The online policies a deployment could actually choose from
#: (clairvoyant is an oracle, none/static are reference points).
ONLINE_POLICY_NAMES: tuple[str, ...] = (
    "ccEDF", "lppsEDF", "DRA", "laEDF", "feedback", "lpSEH", "lpSTA")

#: Everything, in figure order.
ALL_POLICY_NAMES: tuple[str, ...] = tuple(POLICY_FACTORIES)


def make_policy(name: str, *, overhead_aware: bool = False,
                reserve_factor: float = 2.0,
                hysteresis: float = 0.0,
                critical_speed_floor: bool = False,
                governed: bool = False,
                governor_margin: float = 1.0) -> DvsPolicy:
    """Instantiate a policy by registry name.

    ``overhead_aware=True`` wraps the policy so it stays safe and
    profitable under non-zero transition costs;
    ``critical_speed_floor=True`` additionally clamps speeds to the
    processor's leakage-aware critical speed (applied innermost);
    ``governed=True`` wraps the result (outermost) in a
    :class:`~repro.policies.governor.SafetyGovernor` with
    ``margin=governor_margin`` so even faulted workloads cannot miss
    deadlines the provisioned margin covers.
    """
    try:
        factory = POLICY_FACTORIES[name]
    except KeyError:
        known = ", ".join(POLICY_FACTORIES)
        raise KeyError(f"unknown policy {name!r}; known: {known}") from None
    policy = factory()
    if critical_speed_floor:
        policy = CriticalSpeedPolicy(policy)
    if overhead_aware:
        policy = OverheadAwarePolicy(policy, reserve_factor=reserve_factor,
                                     hysteresis=hysteresis)
    if governed:
        policy = SafetyGovernor(policy, margin=governor_margin)
    return policy
