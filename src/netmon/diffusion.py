"""Message-agent behavior parameters and the energy step law.

A message in the network is modeled as an agent with an integer energy.
Per time unit an agent may receive a like, be reposted, both, or neither;
the energy moves by 0, +1, +2 or -1 accordingly and the agent dies when
the energy reaches 0.  The step distribution depends only on the current
energy (and static message attributes such as carrying an external link),
so per-agent energy trajectories form a Markov chain over the nonnegative
integers with 0 absorbing.

The law is written once, in array form: ``step_thresholds`` turns like
and repost probabilities into the cumulative thresholds one uniform draw
is compared against, and ``repost_probs`` applies the link carriers'
boost.  The engine in ``netmon.simulator`` steps agents with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "BehaviorParams",
    "effective_repost_prob",
    "is_finite",
    "repost_probs",
    "step_thresholds",
]


def is_finite(value) -> bool:
    """Whether a number is finite as a float (an integer too large for one is not)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


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
        if not (is_finite(self.link_boost) and self.link_boost >= 1.0):
            raise ValueError(f"link_boost must be finite and >= 1, got {self.link_boost}")
        if not (is_finite(self.rich_get_richer_gamma) and self.rich_get_richer_gamma >= 0.0):
            raise ValueError(
                f"rich_get_richer_gamma must be finite and >= 0, got {self.rich_get_richer_gamma}"
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


def _clamp01(p: float) -> float:
    return 0.0 if p < 0.0 else 1.0 if p > 1.0 else p


def effective_repost_prob(energy: int, params: BehaviorParams) -> float:
    """The base repost probability at ``energy``, clamped to [0, 1]."""
    return _clamp01(params.repost_prob(energy))


def repost_probs(p_repost, params: BehaviorParams, linked, reposts):
    """Repost probabilities after the link boost and preferential term.

    Only link carriers (``linked``) are boosted: their base probability
    ``p_repost`` is multiplied by ``link_boost * (1 + gamma * reposts)``,
    where ``reposts`` is the agent's repost tally, and clamped to 1.
    """
    boosted = np.clip(p_repost * params.link_boost
                      * (reposts * params.rich_get_richer_gamma + 1.0), 0.0, 1.0)
    return np.where(linked, boosted, p_repost)


def step_thresholds(p_like, p_repost):
    """The step thresholds (c2, c21, c210) of these probabilities.

    c2 = p_like * p_repost, c21 = c2 + (1 - p_like) * p_repost and
    c210 = c21 + p_like * (1 - p_repost): a draw below c2 is a like and
    a repost (+2), below c21 a repost (+1), below c210 a like (0),
    otherwise neither (-1).
    """
    c2 = p_like * p_repost
    c21 = c2 + (1 - p_like) * p_repost
    c210 = c21 + p_like * (1 - p_repost)
    return c2, c21, c210
