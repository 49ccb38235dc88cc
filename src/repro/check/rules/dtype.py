"""DTYPE001 — canonical float64/int64 everywhere in the package.

Snapshots are the interchange format of the whole system: every backend
and every shard count round-trips through the same canonical *flat
float64/int64* manifest — that is what makes re-sharded restores exact.
The evidence columns are declared once, with their canonical dtypes, in
``storage.COLUMNS``; backends name columns and never select a dtype
themselves.  A ``float32`` literal anywhere in the package is either a
snapshot path about to emit a non-canonical manifest or evidence math
about to fork from the bit-identical baseline.

Flagged in every ``repro`` module except the checker itself:
``np.float32`` / ``np.int32`` (and 16-bit and 8-bit variants) attribute
references, and ``dtype="float32"`` / ``dtype="int32"`` string keywords.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.engine import Finding, Rule, Source
from repro.check.rules import dotted_name, module_aliases

__all__ = ["CanonicalDtypeRule"]

_NARROW = frozenset({"float32", "int32", "float16", "int16", "int8", "uint8"})


class CanonicalDtypeRule(Rule):
    rule_id = "DTYPE001"
    summary = "narrow dtype literal in the package"

    def applies_to(self, source: Source) -> bool:
        if not source.in_package("repro"):
            return False
        return not source.in_package("repro.check")

    def check(self, source: Source) -> Iterator[Finding]:
        aliases = module_aliases(source.tree)
        numpy_names = {
            local for local, module in aliases.items() if module == "numpy"
        }
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Attribute) and node.attr in _NARROW:
                base = dotted_name(node.value)
                if base in numpy_names or base == "numpy":
                    yield self.finding(
                        source,
                        node,
                        "narrow dtype {}.{}; snapshot/evidence paths must "
                        "stay canonical flat float64/int64".format(
                            base, node.attr
                        ),
                    )
            elif isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if (
                        keyword.arg == "dtype"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value in _NARROW
                    ):
                        yield self.finding(
                            source,
                            keyword.value,
                            "narrow dtype={!r}; emit canonical "
                            "float64/int64 arrays".format(
                                keyword.value.value
                            ),
                        )
