"""Bayesian (beta) trust model.

Implements the probabilistic trust estimation the paper assumes as its
"theoretically well-founded solution" (Mui, Mohtashemi & Halberstadt, HICSS
2002): each peer's honesty is modelled as a Bernoulli parameter ``theta``
with a Beta prior; first-hand observations update the posterior, whose mean
is used as the trust estimate (probability of honest behaviour in the next
interaction).

The model supports

* weighted observations (e.g. weighting by the value at stake),
* evidence decay through a :class:`~repro.trust.decay.DecayModel`,
* credible intervals (exact when :mod:`scipy` is available, otherwise a
  normal approximation), and
* merging of second-hand (witness) evidence with discounting, see
  :mod:`repro.trust.aggregation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.exceptions import TrustModelError
from repro.trust.decay import DecayModel, NoDecay
from repro.trust.evidence import Observation

try:  # pragma: no cover - exercised implicitly depending on environment
    from scipy.stats import beta as _scipy_beta
except ImportError:  # pragma: no cover
    _scipy_beta = None

__all__ = ["BetaBelief", "BetaTrustModel"]


@dataclass(frozen=True)
class BetaBelief:
    """A Beta(alpha, beta) posterior over a peer's honesty probability."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise TrustModelError(
                f"Beta parameters must be positive, got ({self.alpha}, {self.beta})"
            )

    @property
    def mean(self) -> float:
        """Posterior mean — the trust estimate."""
        return self.alpha / (self.alpha + self.beta)

    @property
    def strength(self) -> float:
        """Total pseudo-count of evidence behind the belief."""
        return self.alpha + self.beta

    @property
    def variance(self) -> float:
        total = self.alpha + self.beta
        return (self.alpha * self.beta) / (total * total * (total + 1.0))

    def updated(self, honest: bool, weight: float = 1.0) -> "BetaBelief":
        """Posterior after observing one (possibly weighted) interaction."""
        if weight <= 0:
            raise TrustModelError(f"weight must be positive, got {weight}")
        if honest:
            return BetaBelief(self.alpha + weight, self.beta)
        return BetaBelief(self.alpha, self.beta + weight)

    def merged(self, other: "BetaBelief", discount: float = 1.0) -> "BetaBelief":
        """Combine with another belief's *evidence* (priors are not doubled).

        ``discount`` scales the other belief's evidence counts, which is the
        standard way of down-weighting second-hand reports by the trust put
        in the witness.
        """
        if not 0.0 <= discount <= 1.0:
            raise TrustModelError(f"discount must lie in [0, 1], got {discount}")
        return BetaBelief(
            self.alpha + discount * max(0.0, other.alpha - 1.0),
            self.beta + discount * max(0.0, other.beta - 1.0),
        )

    def credible_interval(self, level: float = 0.95) -> Tuple[float, float]:
        """Central credible interval for the honesty probability."""
        if not 0.0 < level < 1.0:
            raise TrustModelError(f"level must lie in (0, 1), got {level}")
        tail = (1.0 - level) / 2.0
        if _scipy_beta is not None:
            lower = float(_scipy_beta.ppf(tail, self.alpha, self.beta))
            upper = float(_scipy_beta.ppf(1.0 - tail, self.alpha, self.beta))
            return max(0.0, lower), min(1.0, upper)
        # Normal approximation fallback.
        z = _normal_quantile(1.0 - tail)
        spread = z * math.sqrt(self.variance)
        return max(0.0, self.mean - spread), min(1.0, self.mean + spread)


def _normal_quantile(p: float) -> float:
    """Acklam-style rational approximation of the standard normal quantile."""
    if not 0.0 < p < 1.0:
        raise TrustModelError(f"quantile probability must lie in (0, 1), got {p}")
    # Coefficients for the central region approximation.
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


class BetaTrustModel:
    """Per-subject Beta posteriors maintained by one peer.

    Parameters
    ----------
    prior_alpha, prior_beta:
        The prior pseudo-counts.  The default ``(1, 1)`` is the uniform
        prior, giving unknown peers a trust estimate of ``0.5``.
    decay:
        Optional evidence decay; when supplied, observation weights are
        multiplied by the decay weight of their age at query time.
    """

    def __init__(
        self,
        prior_alpha: float = 1.0,
        prior_beta: float = 1.0,
        decay: Optional[DecayModel] = None,
    ):
        if prior_alpha <= 0 or prior_beta <= 0:
            raise TrustModelError("priors must be positive")
        self._prior_alpha = prior_alpha
        self._prior_beta = prior_beta
        self._decay: DecayModel = decay if decay is not None else NoDecay()
        self._observations: Dict[str, List[Observation]] = {}

    # ------------------------------------------------------------------
    # Evidence intake
    # ------------------------------------------------------------------
    def record(self, observation: Observation) -> None:
        """Record a first-hand observation."""
        self._observations.setdefault(observation.subject_id, []).append(observation)

    def record_outcome(
        self,
        subject_id: str,
        honest: bool,
        observer_id: str = "self",
        timestamp: float = 0.0,
        weight: float = 1.0,
    ) -> None:
        """Convenience wrapper building and recording an :class:`Observation`."""
        observation = (
            Observation.honest(observer_id, subject_id, timestamp, weight)
            if honest
            else Observation.dishonest(observer_id, subject_id, timestamp, weight)
        )
        self.record(observation)

    def extend(self, observations: Iterable[Observation]) -> None:
        for observation in observations:
            self.record(observation)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def prior(self) -> BetaBelief:
        return BetaBelief(self._prior_alpha, self._prior_beta)

    def known_subjects(self) -> Tuple[str, ...]:
        return tuple(self._observations.keys())

    def observation_count(self, subject_id: str) -> int:
        return len(self._observations.get(subject_id, []))

    def belief(self, subject_id: str, now: Optional[float] = None) -> BetaBelief:
        """The posterior belief about ``subject_id`` (prior if unknown)."""
        alpha = self._prior_alpha
        beta = self._prior_beta
        for observation in self._observations.get(subject_id, []):
            weight = observation.weight
            if now is not None:
                weight *= self._decay.weight_at(observation.timestamp, now)
            if weight <= 0.0:
                continue
            if observation.is_honest:
                alpha += weight
            else:
                beta += weight
        return BetaBelief(alpha, beta)

    def trust(self, subject_id: str, now: Optional[float] = None) -> float:
        """Trust estimate: posterior probability of honest behaviour."""
        return self.belief(subject_id, now).mean

    def credible_interval(
        self, subject_id: str, level: float = 0.95, now: Optional[float] = None
    ) -> Tuple[float, float]:
        return self.belief(subject_id, now).credible_interval(level)

    def trust_snapshot(self, now: Optional[float] = None) -> Dict[str, float]:
        """Trust estimates for every known subject."""
        return {
            subject_id: self.trust(subject_id, now)
            for subject_id in self._observations
        }
