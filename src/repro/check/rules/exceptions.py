"""EXC001 — no silent ``except Exception`` anywhere in the package.

The library's error model is that failures *surface*.  In the sharded
complaint store, for example, a live split that fails part-way rolls the
router back and re-raises, and a manifest the store cannot restore raises
before anything changes.  A broad handler that swallows silently breaks
that — a split that "succeeds" with half its complaint log re-filed is
exactly how score divergence sneaks past the bit-identity tests — and an
optional import guarded by ``except Exception`` hides real import-time
bugs behind the fallback.

In every ``repro`` module, every ``except Exception`` / ``except
BaseException`` / bare ``except`` handler must do at least one of:

* re-raise (a ``raise`` anywhere in the handler body);
* forward the exception — reference the bound name in a call or
  assignment (chaining it onto another raise, recording it);
* carry a justified ``# repro: allow(EXC001)`` marker explaining why
  dropping the error is correct there.

Narrow handlers (``except (KeyError, ValueError)``) are out of scope —
naming the expected failure set is the fix this rule pushes toward.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.engine import Finding, Rule, Source

__all__ = ["ExceptionHygieneRule"]

_BROAD = frozenset({"Exception", "BaseException"})


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:  # bare except
        return True
    if isinstance(handler.type, ast.Name) and handler.type.id in _BROAD:
        return True
    if isinstance(handler.type, ast.Tuple):
        return any(
            isinstance(element, ast.Name) and element.id in _BROAD
            for element in handler.type.elts
        )
    return False


def _handler_discharges(handler: ast.ExceptHandler) -> bool:
    """Whether the handler re-raises or forwards the bound exception."""
    bound = handler.name
    for node in handler.body:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Raise):
                return True
            if (
                bound is not None
                and isinstance(inner, ast.Name)
                and inner.id == bound
                and isinstance(inner.ctx, ast.Load)
            ):
                return True
    return False


class ExceptionHygieneRule(Rule):
    rule_id = "EXC001"
    summary = "broad except swallows errors silently"

    def applies_to(self, source: Source) -> bool:
        return source.in_package("repro")

    def check(self, source: Source) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node):
                continue
            if _handler_discharges(node):
                continue
            yield self.finding(
                source,
                node,
                "broad except swallows the error silently; name the "
                "expected exception types, re-raise, or forward it",
            )
