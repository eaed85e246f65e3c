"""Message-agent domain types and the energy random-walk kernel.

A message in the network is modeled as an agent with an integer energy.
Per time unit an agent may receive a like, be reposted, both, or neither;
the energy moves by 0, +1, +2 or -1 accordingly and the agent dies when
the energy reaches 0.  The step distribution depends only on the current
energy (and static message attributes such as carrying an external link),
so per-agent energy trajectories form a Markov chain over the nonnegative
integers with 0 absorbing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "BehaviorParams",
    "DeltaDistribution",
    "delta_distribution",
    "transition_probability",
    "sample_delta",
    "effective_repost_prob",
]

_PROB_SUM_TOL = 1e-12


@dataclass
class BehaviorParams:
    """All model probabilities.

    ``like_prob`` and ``repost_prob`` map an energy value E > 0 to a
    probability; they are pluggable so energy-dependent behavior can be
    modeled, but the shipped default is constant in E (use
    :meth:`constant`).  ``link_boost`` multiplies the repost probability
    of link-carrying agents and ``rich_get_richer_gamma`` adds a
    preferential term growing with the agent's repost tally; boosted
    values are clamped to 1.
    """

    p_s: float
    e0: int
    like_prob: Callable[[int], float]
    repost_prob: Callable[[int], float]
    link_carrier_fraction: float = 0.0
    link_boost: float = 1.0
    rich_get_richer_gamma: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_s <= 1.0:
            raise ValueError(f"p_s must be in [0, 1], got {self.p_s}")
        if self.e0 < 1:
            raise ValueError(f"e0 must be >= 1, got {self.e0}")
        if not 0.0 <= self.link_carrier_fraction <= 1.0:
            raise ValueError(
                f"link_carrier_fraction must be in [0, 1], got {self.link_carrier_fraction}"
            )
        if self.link_boost < 1.0:
            raise ValueError(f"link_boost must be >= 1, got {self.link_boost}")
        if self.rich_get_richer_gamma < 0.0:
            raise ValueError(
                f"rich_get_richer_gamma must be >= 0, got {self.rich_get_richer_gamma}"
            )

    @classmethod
    def constant(
        cls,
        p_s: float,
        e0: int,
        p_like: float,
        p_repost: float,
        link_carrier_fraction: float = 0.0,
        link_boost: float = 1.0,
        rich_get_richer_gamma: float = 0.0,
    ) -> "BehaviorParams":
        """Params whose like/repost probabilities do not depend on energy."""
        if not 0.0 <= p_like <= 1.0:
            raise ValueError(f"p_like must be in [0, 1], got {p_like}")
        if not 0.0 <= p_repost <= 1.0:
            raise ValueError(f"p_repost must be in [0, 1], got {p_repost}")
        return cls(
            p_s=p_s,
            e0=e0,
            like_prob=lambda _e, _p=p_like: _p,
            repost_prob=lambda _e, _p=p_repost: _p,
            link_carrier_fraction=link_carrier_fraction,
            link_boost=link_boost,
            rich_get_richer_gamma=rich_get_richer_gamma,
        )


@dataclass(frozen=True)
class DeltaDistribution:
    """Distribution of the per-tick energy change over {2, 1, 0, -1}."""

    p_plus2: float
    p_plus1: float
    p_zero: float
    p_minus1: float

    def __post_init__(self) -> None:
        for name, p in (
            ("p_plus2", self.p_plus2),
            ("p_plus1", self.p_plus1),
            ("p_zero", self.p_zero),
            ("p_minus1", self.p_minus1),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        total = self.p_plus2 + self.p_plus1 + self.p_zero + self.p_minus1
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")


def _clamp01(p: float) -> float:
    return 0.0 if p < 0.0 else 1.0 if p > 1.0 else p


def effective_repost_prob(
    energy: int,
    params: BehaviorParams,
    has_link: bool = False,
    reposts_spawned: int = 0,
) -> float:
    """Repost probability after the link boost and preferential term.

    Only link-carrying agents are boosted: their base probability is
    multiplied by ``link_boost * (1 + gamma * reposts_spawned)`` and
    clamped to 1.
    """
    p = _clamp01(params.repost_prob(energy))
    if has_link:
        p = params.link_boost * p * (1.0 + params.rich_get_richer_gamma * reposts_spawned)
    return _clamp01(p)


def delta_distribution(
    energy: int,
    params: BehaviorParams,
    has_link: bool = False,
    reposts_spawned: int = 0,
) -> DeltaDistribution:
    """Conditional distribution of the energy step for a live agent.

    +2 means the agent was liked and reposted this tick, +1 reposted
    only, 0 liked only, -1 neither.  Requires ``energy > 0``; dead
    agents take no steps.
    """
    if energy <= 0:
        raise ValueError(f"delta distribution requires energy > 0, got {energy}")
    p_like = _clamp01(params.like_prob(energy))
    p_repost = effective_repost_prob(energy, params, has_link, reposts_spawned)
    return DeltaDistribution(
        p_plus2=p_like * p_repost,
        p_plus1=(1.0 - p_like) * p_repost,
        p_zero=p_like * (1.0 - p_repost),
        p_minus1=(1.0 - p_like) * (1.0 - p_repost),
    )


def transition_probability(i: int, j: int, params: BehaviorParams) -> float:
    """One-step probability of the energy chain moving from i to j.

    State 0 is absorbing.  Total function: any (i, j) pair outside the
    reachable moves returns 0.
    """
    if i < 0 or j < 0:
        return 0.0
    if i == 0:
        return 1.0 if j == 0 else 0.0
    step = j - i
    if step < -1 or step > 2:
        return 0.0
    dist = delta_distribution(i, params)
    if step == 2:
        return dist.p_plus2
    if step == 1:
        return dist.p_plus1
    if step == 0:
        return dist.p_zero
    return dist.p_minus1


def sample_delta(dist: DeltaDistribution, rng: random.Random) -> int:
    """Draw one energy step from ``dist``, consuming exactly one uniform."""
    u = rng.random()
    c = dist.p_plus2
    if u < c:
        return 2
    c += dist.p_plus1
    if u < c:
        return 1
    c += dist.p_zero
    if u < c:
        return 0
    return -1
