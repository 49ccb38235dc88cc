"""Decision-making module: risk averseness turned into accepted exposure.

Figure 1 of the paper places a *decision making* module between the trust
estimates and the actual interaction: given the predicted behaviour of the
partner and "risk averseness related inputs from the user" it decides whether
to interact and — in the trust-aware exchange of Section 3 — how much value
the party accepts to be indebted during the exchange.

The paper deliberately leaves the concrete mapping to the partners
("The question of how much to decrease the expected gains is left to the
partners themselves"), so this module provides a family of
:class:`RiskPolicy` implementations covering the natural design space, all
mapping a trust estimate (probability the partner behaves honestly) and the
potential gain of the exchange to a non-negative *accepted exposure*:

* :class:`ZeroExposurePolicy` — never accept any exposure (fully safe only).
* :class:`FractionalGainPolicy` — accept a fixed fraction of the potential
  gain, scaled by trust.
* :class:`ExpectedLossBudgetPolicy` — cap the *expected* loss at a fraction
  of the potential gain.
* :class:`RiskNeutralPolicy` — accept exposure as long as the expected value
  of the exchange stays non-negative.
* :class:`CaraPolicy` — constant-absolute-risk-aversion expected utility.
* :class:`TrustThresholdPolicy` — a simple gate: full exposure above a trust
  threshold, none below.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import DecisionError

__all__ = [
    "RiskPolicy",
    "ZeroExposurePolicy",
    "FractionalGainPolicy",
    "ExpectedLossBudgetPolicy",
    "RiskNeutralPolicy",
    "CaraPolicy",
    "TrustThresholdPolicy",
    "ExposureAssessment",
    "InteractionDecision",
    "DecisionMaker",
]


def _validate_inputs(trust: float, potential_gain: float) -> None:
    if not 0.0 <= trust <= 1.0:
        raise DecisionError(f"trust estimate must lie in [0, 1], got {trust}")
    if potential_gain < 0.0:
        raise DecisionError(
            f"potential gain must be non-negative, got {potential_gain}"
        )


def _validate_arrays(
    trusts: Sequence[float], potential_gains: Sequence[float]
) -> "tuple[np.ndarray, np.ndarray]":
    trusts_array = np.asarray(trusts, dtype=np.float64)
    gains_array = np.asarray(potential_gains, dtype=np.float64)
    if trusts_array.shape != gains_array.shape:
        raise DecisionError("trusts and potential_gains must have equal length")
    if ((trusts_array < 0.0) | (trusts_array > 1.0)).any():
        raise DecisionError("trust estimates must lie in [0, 1]")
    if (gains_array < 0.0).any():
        raise DecisionError("potential gains must be non-negative")
    return trusts_array, gains_array


class RiskPolicy(abc.ABC):
    """Maps (trust estimate, potential gain) to an accepted exposure."""

    @abc.abstractmethod
    def accepted_exposure(self, trust: float, potential_gain: float) -> float:
        """Largest partner temptation this party accepts to be exposed to."""

    def accepted_exposures(
        self, trusts: Sequence[float], potential_gains: Sequence[float]
    ) -> np.ndarray:
        """Vectorized accepted exposures for batches of candidate exchanges.

        The default falls back to one scalar call per element; policies with
        closed forms override it with a pure numpy implementation.  Used by
        the batched trust-backend data path to assess many candidate
        partners in one pass.
        """
        return np.fromiter(
            (
                self.accepted_exposure(float(trust), float(gain))
                for trust, gain in zip(trusts, potential_gains)
            ),
            dtype=np.float64,
            count=len(trusts),
        )

    def describe(self) -> str:
        """Short human readable name used in experiment output."""
        return type(self).__name__


class ZeroExposurePolicy(RiskPolicy):
    """Never accept any exposure: only fully safe schedules are acceptable."""

    def accepted_exposure(self, trust: float, potential_gain: float) -> float:
        _validate_inputs(trust, potential_gain)
        return 0.0


@dataclass
class FractionalGainPolicy(RiskPolicy):
    """Accept exposure up to ``fraction * trust * potential_gain``.

    A simple linear rule: the more the party stands to gain and the more it
    trusts the partner, the more it is willing to put at stake.  ``fraction``
    encodes risk averseness (0 = maximally averse, values above 1 are allowed
    and model risk-seeking parties).
    """

    fraction: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction < math.inf:
            raise DecisionError(
                f"fraction must be finite and >= 0, got {self.fraction}"
            )

    def accepted_exposure(self, trust: float, potential_gain: float) -> float:
        _validate_inputs(trust, potential_gain)
        return self.fraction * trust * potential_gain

    def accepted_exposures(
        self, trusts: Sequence[float], potential_gains: Sequence[float]
    ) -> np.ndarray:
        trusts_array, gains_array = _validate_arrays(trusts, potential_gains)
        return self.fraction * trusts_array * gains_array

    def describe(self) -> str:
        return f"fractional(fraction={self.fraction})"


@dataclass
class ExpectedLossBudgetPolicy(RiskPolicy):
    """Cap the expected loss at ``budget_fraction * potential_gain``.

    If the partner defects with probability ``1 - trust`` at the moment of
    maximal exposure ``B``, the expected loss is ``(1 - trust) * B``.  The
    policy accepts the largest ``B`` keeping that expected loss within the
    budget, optionally clipped at ``absolute_cap``.
    """

    budget_fraction: float = 0.5
    absolute_cap: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.budget_fraction < math.inf:
            raise DecisionError(
                "budget_fraction must be finite and >= 0, got "
                f"{self.budget_fraction}"
            )
        if self.absolute_cap is not None and not self.absolute_cap >= 0.0:
            raise DecisionError(
                f"absolute_cap must be >= 0, got {self.absolute_cap}"
            )

    def accepted_exposure(self, trust: float, potential_gain: float) -> float:
        _validate_inputs(trust, potential_gain)
        budget = self.budget_fraction * potential_gain
        if trust >= 1.0:
            exposure = math.inf
        else:
            exposure = budget / (1.0 - trust)
        if self.absolute_cap is not None:
            exposure = min(exposure, self.absolute_cap)
        if math.isinf(exposure):
            # A fully trusted partner with no cap: accept any exposure the
            # exchange could possibly create (bounded by gain/loss scale of
            # the caller); returning a huge finite number keeps the planner's
            # arithmetic well behaved.
            exposure = 1e12
        return exposure

    def accepted_exposures(
        self, trusts: Sequence[float], potential_gains: Sequence[float]
    ) -> np.ndarray:
        trusts_array, gains_array = _validate_arrays(trusts, potential_gains)
        budgets = self.budget_fraction * gains_array
        with np.errstate(divide="ignore", invalid="ignore"):
            exposures = np.where(
                trusts_array >= 1.0, np.inf, budgets / (1.0 - trusts_array)
            )
        if self.absolute_cap is not None:
            exposures = np.minimum(exposures, self.absolute_cap)
        return np.where(np.isinf(exposures), 1e12, exposures)

    def describe(self) -> str:
        return (
            f"expected-loss(budget={self.budget_fraction}, cap={self.absolute_cap})"
        )


@dataclass
class RiskNeutralPolicy(RiskPolicy):
    """Accept exposure while the exchange's expected value stays non-negative.

    A risk-neutral party facing exposure ``B`` and gain ``G`` with honesty
    probability ``t`` computes ``t * G - (1 - t) * B`` and accepts the largest
    ``B`` keeping it non-negative.
    """

    absolute_cap: Optional[float] = None

    def accepted_exposure(self, trust: float, potential_gain: float) -> float:
        _validate_inputs(trust, potential_gain)
        if trust >= 1.0:
            exposure = math.inf
        else:
            exposure = trust * potential_gain / (1.0 - trust)
        if self.absolute_cap is not None:
            exposure = min(exposure, self.absolute_cap)
        if math.isinf(exposure):
            exposure = 1e12
        return exposure

    def describe(self) -> str:
        return f"risk-neutral(cap={self.absolute_cap})"


@dataclass
class CaraPolicy(RiskPolicy):
    """Constant absolute risk aversion (CARA) expected-utility policy.

    Utility ``u(x) = (1 - exp(-a * x)) / a`` with risk aversion ``a > 0``.
    The accepted exposure is the largest ``B`` with
    ``t * u(G) + (1 - t) * u(-B) >= u(0) = 0``, which has the closed form
    ``B = ln(1 + t * (1 - exp(-a G)) / (1 - t)) / a``.
    As ``a -> 0`` this converges to the risk-neutral rule.
    """

    risk_aversion: float = 0.1
    absolute_cap: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.risk_aversion < math.inf:
            raise DecisionError(
                f"risk_aversion must be finite and > 0, got {self.risk_aversion}"
            )

    def accepted_exposure(self, trust: float, potential_gain: float) -> float:
        _validate_inputs(trust, potential_gain)
        a = self.risk_aversion
        if trust >= 1.0:
            exposure = math.inf
        else:
            gain_term = 1.0 - math.exp(-a * potential_gain)
            exposure = math.log1p(trust * gain_term / (1.0 - trust)) / a
        if self.absolute_cap is not None:
            exposure = min(exposure, self.absolute_cap)
        if math.isinf(exposure):
            exposure = 1e12
        return exposure

    def describe(self) -> str:
        return f"cara(a={self.risk_aversion}, cap={self.absolute_cap})"


@dataclass
class TrustThresholdPolicy(RiskPolicy):
    """All-or-nothing rule: accept a fixed exposure above a trust threshold."""

    trust_threshold: float = 0.8
    exposure_if_trusted: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.trust_threshold <= 1.0:
            raise DecisionError(
                f"trust_threshold must lie in [0, 1], got {self.trust_threshold}"
            )
        if not 0.0 <= self.exposure_if_trusted < math.inf:
            raise DecisionError(
                "exposure_if_trusted must be finite and >= 0, got "
                f"{self.exposure_if_trusted}"
            )

    def accepted_exposure(self, trust: float, potential_gain: float) -> float:
        _validate_inputs(trust, potential_gain)
        if trust >= self.trust_threshold:
            return self.exposure_if_trusted
        return 0.0

    def describe(self) -> str:
        return (
            f"threshold(trust>={self.trust_threshold}, "
            f"exposure={self.exposure_if_trusted})"
        )


@dataclass(frozen=True)
class ExposureAssessment:
    """A party's assessment of how much exposure it accepts for an exchange."""

    trust: float
    potential_gain: float
    accepted_exposure: float

    @property
    def expected_loss_bound(self) -> float:
        """Expected loss if the partner defects at the moment of full exposure."""
        return (1.0 - self.trust) * self.accepted_exposure


@dataclass(frozen=True)
class InteractionDecision:
    """Outcome of the decision-making module for one prospective exchange."""

    accept: bool
    reason: str
    expected_utility: float
    assessment: ExposureAssessment


@dataclass
class DecisionMaker:
    """The decision-making module of the reference model (Figure 1).

    Combines a :class:`RiskPolicy` with two gates:

    * a minimum trust level below which the party refuses to interact at all,
    * a requirement that the expected utility of the exchange (gain weighted
      by trust minus the planned exposure weighted by distrust) is
      non-negative.
    """

    risk_policy: RiskPolicy
    min_trust: float = 0.0
    require_nonnegative_expected_utility: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_trust <= 1.0:
            raise DecisionError(f"min_trust must lie in [0, 1], got {self.min_trust}")

    def assess(self, trust: float, potential_gain: float) -> ExposureAssessment:
        """Compute the exposure this party accepts for the prospective exchange."""
        exposure = self.risk_policy.accepted_exposure(trust, potential_gain)
        return ExposureAssessment(
            trust=trust, potential_gain=potential_gain, accepted_exposure=exposure
        )

    def assess_many(
        self, trusts: Sequence[float], potential_gains: Sequence[float]
    ) -> np.ndarray:
        """Vector of accepted exposures for a batch of candidate exchanges.

        The batched counterpart of :meth:`assess`, used with trust-score
        vectors read from a :class:`~repro.trust.backend.TrustBackend` to
        screen many prospective partners in one pass.
        """
        return self.risk_policy.accepted_exposures(trusts, potential_gains)

    def decide_many(
        self,
        trusts: Sequence[float],
        potential_gains: Sequence[float],
        planned_exposures: Sequence[float],
    ) -> np.ndarray:
        """Elementwise :meth:`decide`: which of a batch of exchanges to accept.

        Applies :meth:`decide`'s gates to every element with the same
        expected-utility expression and the same ``1e-9`` tolerances, so
        entry ``i`` is ``decide(trusts[i], potential_gains[i],
        planned_exposures[i]).accept``.
        """
        trusts_array, gains_array = _validate_arrays(trusts, potential_gains)
        planned = np.asarray(planned_exposures, dtype=np.float64)
        accepted = self.assess_many(trusts_array, gains_array)
        expected_utility = trusts_array * gains_array - (1.0 - trusts_array) * (
            np.where(planned > 0.0, planned, 0.0)
        )
        # Each gate negates decide's rejecting comparison, NaN included.
        accept = ~(trusts_array < self.min_trust)
        accept &= ~(planned > accepted + 1e-9)
        if self.require_nonnegative_expected_utility:
            accept &= ~(expected_utility < -1e-9)
        return accept

    def decide(
        self,
        trust: float,
        potential_gain: float,
        planned_exposure: float,
    ) -> InteractionDecision:
        """Decide whether to go ahead with an exchange.

        ``planned_exposure`` is the actual maximal partner temptation of the
        planned schedule (e.g. ``max_supplier_temptation`` from the consumer's
        point of view).
        """
        assessment = self.assess(trust, potential_gain)
        expected_utility = trust * potential_gain - (1.0 - trust) * max(
            0.0, planned_exposure
        )
        if trust < self.min_trust:
            return InteractionDecision(
                accept=False,
                reason=f"trust {trust:.3f} below minimum {self.min_trust:.3f}",
                expected_utility=expected_utility,
                assessment=assessment,
            )
        if planned_exposure > assessment.accepted_exposure + 1e-9:
            return InteractionDecision(
                accept=False,
                reason=(
                    f"planned exposure {planned_exposure:.3f} exceeds accepted "
                    f"exposure {assessment.accepted_exposure:.3f}"
                ),
                expected_utility=expected_utility,
                assessment=assessment,
            )
        if self.require_nonnegative_expected_utility and expected_utility < -1e-9:
            return InteractionDecision(
                accept=False,
                reason=f"expected utility {expected_utility:.3f} is negative",
                expected_utility=expected_utility,
                assessment=assessment,
            )
        return InteractionDecision(
            accept=True,
            reason="acceptable exposure and expected utility",
            expected_utility=expected_utility,
            assessment=assessment,
        )
