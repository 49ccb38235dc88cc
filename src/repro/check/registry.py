"""Rule registry: the shipped contract set, discoverable by id.

``default_rules()`` builds one fresh instance of every shipped rule;
``repro check --rule ID`` filters their findings to the named rules.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Type

from repro.check.engine import META_RULE_ID, Rule
from repro.check.rules.determinism import DeterminismRule
from repro.check.rules.dtype import CanonicalDtypeRule
from repro.check.rules.exceptions import ExceptionHygieneRule
from repro.check.rules.perf import NPlusOneRule
from repro.check.rules.telemetry import TelemetryRule

__all__ = ["RULE_CLASSES", "RULE_IDS", "default_rules", "rule_summaries"]

RULE_CLASSES: Tuple[Type[Rule], ...] = (
    DeterminismRule,
    TelemetryRule,
    NPlusOneRule,
    ExceptionHygieneRule,
    CanonicalDtypeRule,
)

RULE_IDS: Tuple[str, ...] = tuple(cls.rule_id for cls in RULE_CLASSES) + (
    META_RULE_ID,
)


def default_rules() -> List[Rule]:
    """Fresh instances of every shipped rule."""
    return [cls() for cls in RULE_CLASSES]


def rule_summaries() -> Dict[str, str]:
    summaries = {cls.rule_id: cls.summary for cls in RULE_CLASSES}
    summaries[META_RULE_ID] = "allow-marker without a justification"
    return summaries
