"""Evidence about past behaviour: observations and complaints.

Trust learning consumes two kinds of first-hand evidence produced by the
reputation management layer:

* :class:`Observation` — a graded record of one interaction ("peer ``q``
  behaved honestly / dishonestly towards me at time ``t``"), used by the
  Bayesian (beta) trust model of Mui et al. (2002), and
* :class:`Complaint` — the purely negative evidence unit of the
  complaint-based model of Aberer & Despotovic (CIKM 2001): a peer files a
  complaint about a partner after a bad interaction, and the *absence* of
  complaints is interpreted as good behaviour.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.exceptions import TrustModelError

__all__ = ["InteractionOutcome", "Observation", "Complaint"]


class InteractionOutcome(enum.Enum):
    """Binary judgement of a partner's behaviour in one interaction."""

    HONEST = "honest"
    DISHONEST = "dishonest"

    @property
    def is_honest(self) -> bool:
        return self is InteractionOutcome.HONEST


@dataclass(frozen=True)
class Observation:
    """A first-hand observation of a partner's behaviour.

    Attributes
    ----------
    observer_id:
        Peer that made the observation.
    subject_id:
        Peer whose behaviour was observed.
    outcome:
        Whether the subject behaved honestly.
    timestamp:
        Simulation time of the interaction (used for evidence decay).
    weight:
        Importance of the observation, e.g. the monetary value at stake.
    """

    observer_id: str
    subject_id: str
    outcome: InteractionOutcome
    timestamp: float = 0.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.observer_id or not self.subject_id:
            raise TrustModelError("observer_id and subject_id must be non-empty")
        if self.weight <= 0:
            raise TrustModelError(f"weight must be positive, got {self.weight}")

    @property
    def is_honest(self) -> bool:
        return self.outcome.is_honest

    @classmethod
    def honest(
        cls, observer_id: str, subject_id: str, timestamp: float = 0.0, weight: float = 1.0
    ) -> "Observation":
        return cls(observer_id, subject_id, InteractionOutcome.HONEST, timestamp, weight)

    @classmethod
    def dishonest(
        cls, observer_id: str, subject_id: str, timestamp: float = 0.0, weight: float = 1.0
    ) -> "Observation":
        return cls(
            observer_id, subject_id, InteractionOutcome.DISHONEST, timestamp, weight
        )


@dataclass(frozen=True)
class Complaint:
    """A complaint filed by one peer about another (negative evidence only)."""

    complainant_id: str
    accused_id: str
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if not self.complainant_id or not self.accused_id:
            raise TrustModelError("complainant_id and accused_id must be non-empty")
        if self.complainant_id == self.accused_id:
            raise TrustModelError("a peer cannot file a complaint about itself")
