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

import numpy as np

__all__ = [
    "BehaviorParams",
    "effective_repost_prob",
    "is_finite",
    "prob_at",
    "repost_probs",
    "step_thresholds",
]


def is_finite(value) -> bool:
    """Whether a number is finite as a float (an integer too large for one is not)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class BehaviorParams:
    """All model probabilities, as plain data.

    ``p_like`` and ``p_repost`` are each a float, or a tuple of per-energy
    floats from energy 1 on whose last value holds above its end (a list
    is stored as a tuple); ``prob_at`` reads them, clamped to [0, 1].
    ``link_boost`` multiplies the repost probability of link-carrying
    agents and ``rich_get_richer_gamma`` adds a preferential term growing
    with the agent's repost tally; boosted values are clamped to 1.
    Equal params compare and hash equal, and survive pickle and a JSON
    round trip of ``dataclasses.asdict``.
    """

    p_s: float
    e0: int
    p_like: float | tuple[float, ...]
    p_repost: float | tuple[float, ...]
    link_carrier_fraction: float = 0.0
    link_boost: float = 1.0
    rich_get_richer_gamma: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_s <= 1.0:
            raise ValueError(f"p_s must be in [0, 1], got {self.p_s}")
        if self.e0 < 1:
            raise ValueError(f"e0 must be >= 1, got {self.e0}")
        for name in ("p_like", "p_repost"):
            value = getattr(self, name)
            table = isinstance(value, (list, tuple))
            probs = tuple(map(float, value)) if table else (float(value),)
            if not probs or any(map(math.isnan, probs)):
                raise ValueError(f"{name} must be a number or a non-empty table of "
                                 f"numbers, none NaN, got {value!r}")
            object.__setattr__(self, name, probs if table else probs[0])
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
        """Params whose like/repost probabilities, each in [0, 1], do not depend on energy."""
        if not 0.0 <= p_like <= 1.0:
            raise ValueError(f"p_like must be in [0, 1], got {p_like}")
        if not 0.0 <= p_repost <= 1.0:
            raise ValueError(f"p_repost must be in [0, 1], got {p_repost}")
        return cls(p_s, e0, p_like, p_repost, link_carrier_fraction, link_boost,
                   rich_get_richer_gamma)


def prob_at(probs: float | tuple[float, ...], energy: int) -> float:
    """The probability ``probs`` gives at ``energy`` >= 1, clamped to [0, 1].

    A float holds at every energy; a table holds its entry ``energy - 1``,
    or its last one past its end.
    """
    p = probs if isinstance(probs, float) else probs[min(energy, len(probs)) - 1]
    return 0.0 if p < 0.0 else 1.0 if p > 1.0 else p


def effective_repost_prob(energy: int, params: BehaviorParams) -> float:
    """The base repost probability at ``energy``, clamped to [0, 1]."""
    return prob_at(params.p_repost, energy)


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
