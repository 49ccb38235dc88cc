"""Unit tests for risk policies and the decision-making module."""

import math

import pytest

from repro.core.decision import (
    CaraPolicy,
    DecisionMaker,
    ExpectedLossBudgetPolicy,
    FractionalGainPolicy,
    RiskNeutralPolicy,
    TrustThresholdPolicy,
    ZeroExposurePolicy,
)
from repro.exceptions import DecisionError


class TestZeroExposurePolicy:
    def test_always_zero(self):
        policy = ZeroExposurePolicy()
        assert policy.accepted_exposure(0.0, 100.0) == 0.0
        assert policy.accepted_exposure(1.0, 100.0) == 0.0

    def test_invalid_trust_rejected(self):
        with pytest.raises(DecisionError):
            ZeroExposurePolicy().accepted_exposure(1.5, 10.0)
        with pytest.raises(DecisionError):
            ZeroExposurePolicy().accepted_exposure(-0.1, 10.0)

    def test_negative_gain_rejected(self):
        with pytest.raises(DecisionError):
            ZeroExposurePolicy().accepted_exposure(0.5, -1.0)


class TestFractionalGainPolicy:
    def test_scales_with_trust_and_gain(self):
        policy = FractionalGainPolicy(fraction=0.5)
        assert policy.accepted_exposure(1.0, 10.0) == pytest.approx(5.0)
        assert policy.accepted_exposure(0.5, 10.0) == pytest.approx(2.5)
        assert policy.accepted_exposure(0.0, 10.0) == 0.0

    def test_negative_fraction_rejected(self):
        with pytest.raises(DecisionError):
            FractionalGainPolicy(fraction=-0.1)

    def test_describe(self):
        assert "0.5" in FractionalGainPolicy(fraction=0.5).describe()


class TestExpectedLossBudgetPolicy:
    def test_budget_formula(self):
        policy = ExpectedLossBudgetPolicy(budget_fraction=0.5)
        # Expected loss (1 - t) * B must not exceed 0.5 * gain.
        exposure = policy.accepted_exposure(0.8, 10.0)
        assert exposure == pytest.approx(0.5 * 10.0 / 0.2)
        assert (1.0 - 0.8) * exposure <= 0.5 * 10.0 + 1e-9

    def test_full_trust_is_capped_but_large(self):
        policy = ExpectedLossBudgetPolicy(budget_fraction=0.5)
        exposure = policy.accepted_exposure(1.0, 10.0)
        assert exposure > 1e6
        assert math.isfinite(exposure)

    def test_absolute_cap(self):
        policy = ExpectedLossBudgetPolicy(budget_fraction=0.5, absolute_cap=7.0)
        assert policy.accepted_exposure(0.99, 10.0) == pytest.approx(7.0)

    def test_monotone_in_trust(self):
        policy = ExpectedLossBudgetPolicy(budget_fraction=0.3)
        exposures = [policy.accepted_exposure(t, 10.0) for t in (0.1, 0.5, 0.9)]
        assert exposures == sorted(exposures)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(budget_fraction=math.nan),
            dict(budget_fraction=math.inf),
            dict(absolute_cap=math.nan),
        ],
    )
    def test_non_finite_parameters_rejected(self, kwargs):
        with pytest.raises(DecisionError):
            ExpectedLossBudgetPolicy(**kwargs)

    def test_invalid_parameters(self):
        with pytest.raises(DecisionError):
            ExpectedLossBudgetPolicy(budget_fraction=-1.0)
        with pytest.raises(DecisionError):
            ExpectedLossBudgetPolicy(absolute_cap=-1.0)


class TestRiskNeutralPolicy:
    def test_expected_value_nonnegative_at_bound(self):
        policy = RiskNeutralPolicy()
        trust, gain = 0.75, 8.0
        exposure = policy.accepted_exposure(trust, gain)
        expected_value = trust * gain - (1.0 - trust) * exposure
        assert expected_value == pytest.approx(0.0, abs=1e-9)

    def test_zero_trust_zero_exposure(self):
        assert RiskNeutralPolicy().accepted_exposure(0.0, 10.0) == 0.0

    def test_cap_applies(self):
        policy = RiskNeutralPolicy(absolute_cap=3.0)
        assert policy.accepted_exposure(0.99, 100.0) == pytest.approx(3.0)


class TestCaraPolicy:
    def test_less_than_risk_neutral(self):
        # A risk-averse party accepts less exposure than a risk-neutral one.
        cara = CaraPolicy(risk_aversion=0.5)
        neutral = RiskNeutralPolicy()
        assert cara.accepted_exposure(0.8, 10.0) < neutral.accepted_exposure(0.8, 10.0)

    def test_converges_to_risk_neutral_for_small_aversion(self):
        cara = CaraPolicy(risk_aversion=1e-6)
        neutral = RiskNeutralPolicy()
        assert cara.accepted_exposure(0.6, 5.0) == pytest.approx(
            neutral.accepted_exposure(0.6, 5.0), rel=1e-2
        )

    def test_monotone_in_trust(self):
        policy = CaraPolicy(risk_aversion=0.2)
        exposures = [policy.accepted_exposure(t, 10.0) for t in (0.2, 0.5, 0.8)]
        assert exposures == sorted(exposures)

    def test_more_averse_accepts_less(self):
        mild = CaraPolicy(risk_aversion=0.1)
        strong = CaraPolicy(risk_aversion=1.0)
        assert strong.accepted_exposure(0.8, 10.0) < mild.accepted_exposure(0.8, 10.0)

    def test_invalid_aversion(self):
        with pytest.raises(DecisionError):
            CaraPolicy(risk_aversion=0.0)


class TestTrustThresholdPolicy:
    def test_gate(self):
        policy = TrustThresholdPolicy(trust_threshold=0.7, exposure_if_trusted=4.0)
        assert policy.accepted_exposure(0.69, 10.0) == 0.0
        assert policy.accepted_exposure(0.7, 10.0) == pytest.approx(4.0)

    def test_invalid_parameters(self):
        with pytest.raises(DecisionError):
            TrustThresholdPolicy(trust_threshold=1.5)
        with pytest.raises(DecisionError):
            TrustThresholdPolicy(exposure_if_trusted=-1.0)


class TestDecisionMaker:
    def test_accepts_within_exposure(self):
        maker = DecisionMaker(risk_policy=FractionalGainPolicy(fraction=1.0))
        decision = maker.decide(trust=0.9, potential_gain=10.0, planned_exposure=5.0)
        assert decision.accept
        assert decision.expected_utility > 0

    def test_rejects_excessive_exposure(self):
        maker = DecisionMaker(risk_policy=FractionalGainPolicy(fraction=0.1))
        decision = maker.decide(trust=0.9, potential_gain=10.0, planned_exposure=5.0)
        assert not decision.accept
        assert "exceeds accepted exposure" in decision.reason

    def test_rejects_below_min_trust(self):
        maker = DecisionMaker(
            risk_policy=FractionalGainPolicy(fraction=1.0), min_trust=0.5
        )
        decision = maker.decide(trust=0.3, potential_gain=10.0, planned_exposure=0.0)
        assert not decision.accept
        assert "below minimum" in decision.reason

    def test_rejects_negative_expected_utility(self):
        maker = DecisionMaker(risk_policy=FractionalGainPolicy(fraction=100.0))
        decision = maker.decide(trust=0.1, potential_gain=1.0, planned_exposure=8.0)
        assert not decision.accept
        assert "expected utility" in decision.reason

    def test_expected_utility_gate_can_be_disabled(self):
        maker = DecisionMaker(
            risk_policy=FractionalGainPolicy(fraction=100.0),
            require_nonnegative_expected_utility=False,
        )
        decision = maker.decide(trust=0.1, potential_gain=1.0, planned_exposure=5.0)
        assert decision.accept

    def test_assessment_expected_loss_bound(self):
        maker = DecisionMaker(risk_policy=FractionalGainPolicy(fraction=1.0))
        assessment = maker.assess(trust=0.8, potential_gain=10.0)
        assert assessment.accepted_exposure == pytest.approx(8.0)
        assert assessment.expected_loss_bound == pytest.approx(0.2 * 8.0)

    def test_invalid_min_trust(self):
        with pytest.raises(DecisionError):
            DecisionMaker(risk_policy=ZeroExposurePolicy(), min_trust=2.0)


class TestBatchedExposures:
    """The vectorized policy paths must agree with their scalar originals."""

    POLICIES = (
        ZeroExposurePolicy(),
        FractionalGainPolicy(fraction=0.7),
        ExpectedLossBudgetPolicy(budget_fraction=0.4),
        ExpectedLossBudgetPolicy(budget_fraction=0.4, absolute_cap=5.0),
        RiskNeutralPolicy(),
        CaraPolicy(risk_aversion=0.2),
        TrustThresholdPolicy(trust_threshold=0.6, exposure_if_trusted=3.0),
    )

    def test_vectorized_matches_scalar_for_every_policy(self):
        trusts = [0.0, 0.3, 0.6, 0.95, 1.0]
        gains = [0.0, 1.5, 10.0, 100.0, 7.0]
        for policy in self.POLICIES:
            batched = policy.accepted_exposures(trusts, gains)
            for index, (trust, gain) in enumerate(zip(trusts, gains)):
                assert batched[index] == pytest.approx(
                    policy.accepted_exposure(trust, gain), rel=1e-12
                ), policy.describe()

    def test_assess_many_matches_assess(self):
        maker = DecisionMaker(risk_policy=ExpectedLossBudgetPolicy())
        trusts = [0.2, 0.8]
        gains = [4.0, 9.0]
        batched = maker.assess_many(trusts, gains)
        for index, (trust, gain) in enumerate(zip(trusts, gains)):
            assert batched[index] == pytest.approx(
                maker.assess(trust, gain).accepted_exposure
            )

    def test_batch_validation_rejects_bad_inputs(self):
        policy = FractionalGainPolicy()
        with pytest.raises(DecisionError):
            policy.accepted_exposures([0.5, 1.5], [1.0, 1.0])
        with pytest.raises(DecisionError):
            policy.accepted_exposures([0.5, 0.5], [1.0, -1.0])
        with pytest.raises(DecisionError):
            policy.accepted_exposures([0.5], [1.0, 2.0])
