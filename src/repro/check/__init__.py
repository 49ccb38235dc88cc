"""Contract-enforcing static analysis for the repro codebase.

The ROADMAP states invariants that runtime tests only catch after the
fact: sharded runs must stay bit-identical to the baseline
(determinism), and ``telemetry=off`` must stay architecturally free
(``NULL_REGISTRY`` discipline).  This package enforces those
contracts *statically*: a dependency-free AST engine walks every module
under ``src/repro/``, dispatches typed visitors per rule, honours inline
suppressions (``# repro: allow(RULE-ID) — reason``) and a committed
baseline of grandfathered findings, and exits non-zero on any new
violation.  ``repro check`` is the CLI entry point; CI gates on it.

Shipped rules (see :mod:`repro.check.registry`):

========  =============================================================
DET001    no nondeterminism in simulation/trust paths (wall clocks,
          unseeded RNGs, ``os.urandom``; monotonic clocks only inside
          ``repro.obs`` timing sections)
TEL001    telemetry discipline outside ``repro.obs``: no per-call
          metric-name construction, no direct ``MetricsRegistry()``
PERF001   N+1 lint — scalar backend/decision calls inside loops where a
          batched API exists
EXC001    ``except Exception`` anywhere in the package must re-raise,
          forward the error, or carry a justified allow-marker
DTYPE001  snapshot and evidence paths emit canonical flat float64/int64
          (no narrow dtype literal anywhere in the package)
========  =============================================================
"""

from repro.check.baseline import (
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.check.engine import (
    CheckResult,
    Finding,
    Rule,
    Source,
    load_source,
    run_check,
    scan_tree,
)
from repro.check.registry import (
    RULE_IDS,
    default_rules,
    rule_summaries,
)
from repro.check.report import render_json, render_text

__all__ = [
    "CheckResult",
    "Finding",
    "Rule",
    "Source",
    "RULE_IDS",
    "apply_baseline",
    "default_rules",
    "fingerprint",
    "load_baseline",
    "load_source",
    "render_json",
    "render_text",
    "rule_summaries",
    "run_check",
    "scan_tree",
    "write_baseline",
]
