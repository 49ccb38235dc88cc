"""Project-specific rules, one module per contract family.

Shared helpers live here: an import-alias map (so ``import numpy as
np`` and ``from random import choice`` both resolve) and dotted-name
flattening for attribute chains.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional

__all__ = ["dotted_name", "module_aliases", "from_imports"]


def dotted_name(node: ast.AST) -> Optional[str]:
    """Flatten ``a.b.c`` attribute chains to ``"a.b.c"`` (None if dynamic)."""
    parts = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def module_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> imported module for every ``import X [as Y]``."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
    return aliases


def from_imports(tree: ast.Module) -> Dict[str, str]:
    """Local name -> ``module.attr`` for every ``from M import A [as B]``."""
    imported: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                imported[alias.asname or alias.name] = (
                    node.module + "." + alias.name
                )
    return imported
