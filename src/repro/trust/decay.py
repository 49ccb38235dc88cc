"""Time decay of trust evidence.

Old evidence should matter less than recent evidence: peers change behaviour,
and a reputation system that never forgets punishes (or rewards) forever.
Decay models map the age of an observation to a multiplicative weight in
``[0, 1]`` that the trust models apply before aggregating.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

from repro.exceptions import TrustModelError

__all__ = ["DecayModel", "NoDecay", "ExponentialDecay"]


class DecayModel(abc.ABC):
    """Maps the age of a piece of evidence to a weight in ``[0, 1]``."""

    @abc.abstractmethod
    def weight(self, age: float) -> float:
        """Weight of evidence that is ``age`` time units old (age >= 0)."""

    def weight_at(self, event_time: float, now: float) -> float:
        """Convenience: weight of evidence recorded at ``event_time``."""
        age = max(0.0, now - event_time)
        return self.weight(age)


class NoDecay(DecayModel):
    """Evidence never loses weight."""

    def weight(self, age: float) -> float:
        if age < 0:
            raise TrustModelError(f"age must be >= 0, got {age}")
        return 1.0


@dataclass
class ExponentialDecay(DecayModel):
    """Exponential forgetting with a configurable half life."""

    half_life: float = 100.0

    def __post_init__(self) -> None:
        if self.half_life <= 0:
            raise TrustModelError(f"half_life must be > 0, got {self.half_life}")

    def weight(self, age: float) -> float:
        if age < 0:
            raise TrustModelError(f"age must be >= 0, got {age}")
        return math.pow(0.5, age / self.half_life)
