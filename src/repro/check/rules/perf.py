"""PERF001 — N+1 lint: scalar trust/decision calls inside loops.

Every batched API in this codebase exists because its scalar counterpart
was measured as the bottleneck (~30×/17×/400× for backend update/query,
~380× for witness aggregation — see ``BENCH_backend_batch.json``).  A
scalar call re-introduced inside a loop quietly undoes that: one numpy
dispatch per row instead of one per batch.  This rule flags known scalar
methods and functions called inside ``for``/``while`` bodies or
comprehensions when a batched equivalent exists on the same interface:

====================  =======================
scalar call           batched equivalent
====================  =======================
``assess``            ``assess_many``
``decide``            ``decide_many``
``belief``            ``scores_for``
``file_complaint``    ``record_complaints``
``counts``            ``metrics_for``
``trust_decision``    ``trust_decisions``
``score_of``          ``scores_for``
``plan_exchange``     ``plan_exchange_batch``
``trust_in``          ``trust_in_pairs``
``execute_sequence``  ``execute_many``
``run_exchange``      ``run_exchanges``
``will_defect``       ``execute_many``
====================  =======================

A call matches by the name it is made through, ``obj.plan_exchange(...)``
and ``plan_exchange(...)`` alike.

Loops that *implement* a batched API in terms of the scalar one (the
reference adapters) are the sanctioned exception — they carry a
justified ``# repro: allow(PERF001)`` marker.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.check.engine import Finding, Rule, Source

__all__ = ["NPlusOneRule", "SCALAR_TO_BATCH"]

SCALAR_TO_BATCH = {
    "assess": "assess_many",
    "decide": "decide_many",
    "belief": "scores_for",
    "file_complaint": "record_complaints",
    "counts": "metrics_for",
    "trust_decision": "trust_decisions",
    "score_of": "scores_for",
    "plan_exchange": "plan_exchange_batch",
    "trust_in": "trust_in_pairs",
    "execute_sequence": "execute_many",
    "run_exchange": "run_exchanges",
    "will_defect": "execute_many",
}

_LOOPS = (ast.For, ast.While, ast.AsyncFor)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


class _LoopVisitor(ast.NodeVisitor):
    def __init__(self) -> None:
        self.depth = 0
        self.hits: List[ast.Call] = []

    def _enter_loop(self, node: ast.AST, body_fields: List[ast.AST]) -> None:
        self.depth += 1
        for child in body_fields:
            self.visit(child)
        self.depth -= 1

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)  # evaluated once; not loop-hot
        self._enter_loop(node, list(node.body) + list(node.orelse))

    visit_AsyncFor = visit_For  # type: ignore[assignment]

    def visit_While(self, node: ast.While) -> None:
        self._enter_loop(
            node, [node.test] + list(node.body) + list(node.orelse)
        )

    def _visit_comp(self, node: ast.AST, elements: List[ast.AST]) -> None:
        generators = getattr(node, "generators", [])
        for comp in generators:
            self.visit(comp.iter)
        self.depth += 1
        for element in elements:
            self.visit(element)
        for comp in generators:
            for condition in comp.ifs:
                self.visit(condition)
        self.depth -= 1

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comp(node, [node.elt])

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comp(node, [node.elt])

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comp(node, [node.elt])

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comp(node, [node.key, node.value])

    def visit_Call(self, node: ast.Call) -> None:
        if self.depth > 0 and _called_name(node) in SCALAR_TO_BATCH:
            self.hits.append(node)
        self.generic_visit(node)


def _called_name(call: ast.Call) -> "str | None":
    """The name a call is made through: ``f`` of ``f(...)`` or ``obj.f(...)``."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


class NPlusOneRule(Rule):
    rule_id = "PERF001"
    summary = "scalar call in a loop where a batched API exists"

    def applies_to(self, source: Source) -> bool:
        if not source.in_package("repro"):
            return False
        return not source.in_package("repro.check")

    def check(self, source: Source) -> Iterator[Finding]:
        visitor = _LoopVisitor()
        visitor.visit(source.tree)
        for call in visitor.hits:
            scalar = _called_name(call)
            yield self.finding(
                source,
                call,
                "scalar {}() inside a loop; batch the whole iteration "
                "through {}() (or justify the scalar reference path with "
                "# repro: allow(PERF001))".format(
                    scalar, SCALAR_TO_BATCH[scalar]
                ),
            )
