"""The rule-dispatch core of ``repro check``.

A :class:`Source` is one parsed module: its AST, its dotted module name
(derived from the scanned package root, so ``src/repro/trust/sharding.py``
checks as ``repro.trust.sharding``) and its inline suppression table.  A
:class:`Rule` contributes an ``applies_to`` scope predicate and a
``check`` pass producing :class:`Finding`s; :func:`run_check` walks a
tree, runs every applicable rule, filters suppressed and baselined
findings, and returns a deterministic :class:`CheckResult`.

Suppressions are justified or they do not count: ``# repro:
allow(RULE-ID) — reason`` on the offending line (or on a comment-only
line directly above it) silences that rule there, while an allow-marker
*without* a reason is itself reported as a ``CHECK000`` finding and
suppresses nothing.  The marker grammar accepts a comma-separated rule
list and either an em-dash or ``--`` before the reason.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "CheckResult",
    "Finding",
    "Rule",
    "Source",
    "load_source",
    "run_check",
    "scan_tree",
]

#: Meta-rule id for engine-level findings (malformed/unjustified allows).
META_RULE_ID = "CHECK000"

_ALLOW_PATTERN = re.compile(
    r"#\s*repro:\s*allow\(\s*(?P<rules>[A-Z]{2,10}\d{3}(?:\s*,\s*[A-Z]{2,10}\d{3})*)\s*\)"
    r"(?:\s*(?:—|–|--)\s*(?P<reason>\S.*))?"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location."""

    rule_id: str
    path: str  # repo-relative (or scan-root-relative) posix path
    line: int
    col: int
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)


@dataclass
class Suppression:
    """One parsed allow-marker and the lines it covers."""

    line: int
    rule_ids: Tuple[str, ...]
    reason: Optional[str]
    covers: Tuple[int, ...]


@dataclass
class Source:
    """One parsed module plus everything rules need to scope and report."""

    path: Path
    relpath: str
    module: str
    text: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    #: line -> rule ids silenced there by a *justified* allow-marker
    allows: Dict[int, Set[str]] = field(default_factory=dict)
    #: allow-markers missing a justification (reported as CHECK000)
    unjustified: List[Suppression] = field(default_factory=list)

    def is_suppressed(self, finding: Finding) -> bool:
        return finding.rule_id in self.allows.get(finding.line, ())

    def in_package(self, *prefixes: str) -> bool:
        """Whether the module sits under any of the dotted prefixes."""
        for prefix in prefixes:
            if self.module == prefix or self.module.startswith(prefix + "."):
                return True
        return False


class Rule:
    """Base class: one contract, one AST pass.

    Subclasses set :attr:`rule_id` and :attr:`summary`, narrow
    :meth:`applies_to` to the modules the contract governs, and yield
    :class:`Finding`s from :meth:`check`.
    """

    rule_id: str = "RULE000"
    summary: str = ""

    def applies_to(self, source: Source) -> bool:
        return True

    def check(self, source: Source) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, source: Source, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=source.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


@dataclass
class CheckResult:
    """The outcome of one engine run (deterministically ordered)."""

    findings: List[Finding]
    suppressed: int
    baselined: int
    stale_baseline: List[str]
    files_checked: int

    @property
    def clean(self) -> bool:
        return not self.findings


def _line_has_code(line: str) -> bool:
    stripped = line.strip()
    return bool(stripped) and not stripped.startswith("#")


def _parse_suppressions(
    text: str, lines: Sequence[str]
) -> Tuple[Dict[int, Set[str]], List[Suppression]]:
    """Extract allow-markers via the tokenizer (robust against strings)."""
    allows: Dict[int, Set[str]] = {}
    unjustified: List[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError):  # half-written file
        return allows, unjustified
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _ALLOW_PATTERN.search(token.string)
        if match is None:
            continue
        rule_ids = tuple(
            part.strip() for part in match.group("rules").split(",")
        )
        reason = match.group("reason")
        line = token.start[0]
        covers = [line]
        prefix = lines[line - 1][: token.start[1]] if line <= len(lines) else ""
        if not prefix.strip():
            # Standalone comment: it covers the next code-bearing line.
            for offset in range(line, min(line + 5, len(lines))):
                if _line_has_code(lines[offset]):
                    covers.append(offset + 1)
                    break
        suppression = Suppression(
            line=line, rule_ids=rule_ids, reason=reason, covers=tuple(covers)
        )
        if reason is None:
            unjustified.append(suppression)
            continue
        for covered in suppression.covers:
            allows.setdefault(covered, set()).update(rule_ids)
    return allows, unjustified


def module_name(path: Path, root: Path) -> str:
    """Dotted module name of ``path`` relative to the scanned root.

    When the root directory is itself a package (it contains an
    ``__init__.py``), its name heads the dotted path — scanning
    ``src/repro`` therefore yields ``repro.trust.sharding`` style names,
    which is what rule scopes are written against.
    """
    relative = path.relative_to(root)
    parts = list(relative.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if (root / "__init__.py").exists():
        parts = [root.name] + parts
    return ".".join(parts) if parts else root.name


def load_source(path: Path, root: Path) -> Source:
    """Parse one module into a :class:`Source` (raises on syntax errors)."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    lines = text.splitlines()
    allows, unjustified = _parse_suppressions(text, lines)
    return Source(
        path=path,
        relpath=path.relative_to(root).as_posix(),
        module=module_name(path, root),
        text=text,
        tree=tree,
        lines=lines,
        allows=allows,
        unjustified=unjustified,
    )


def scan_tree(root: Path) -> List[Source]:
    """Load every ``*.py`` module under ``root`` in deterministic order."""
    root = Path(root)
    if root.is_file():
        return [load_source(root, root.parent)]
    sources = []
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        sources.append(load_source(path, root))
    return sources


def _meta_findings(source: Source) -> Iterator[Finding]:
    for suppression in source.unjustified:
        yield Finding(
            rule_id=META_RULE_ID,
            path=source.relpath,
            line=suppression.line,
            col=0,
            message=(
                "allow({}) carries no justification; write "
                "'# repro: allow(ID) — reason' (the marker suppresses "
                "nothing until it says why)".format(
                    ", ".join(suppression.rule_ids)
                )
            ),
        )


def run_check(
    root: Path,
    rules: Sequence[Rule],
    rule_filter: Optional[Iterable[str]] = None,
    baseline: Optional[Dict[str, int]] = None,
) -> CheckResult:
    """Run ``rules`` over every module under ``root``.

    ``rule_filter`` restricts to the listed rule ids (``CHECK000`` meta
    findings are only emitted when unfiltered or explicitly selected);
    ``baseline`` is a fingerprint -> count map of grandfathered findings
    (see :mod:`repro.check.baseline`) subtracted before reporting.
    """
    from repro.check.baseline import apply_baseline

    selected = set(rule_filter) if rule_filter is not None else None
    sources = scan_tree(Path(root))
    raw: List[Finding] = []
    suppressed = 0
    for source in sources:
        if selected is None or META_RULE_ID in selected:
            raw.extend(_meta_findings(source))
        for rule in rules:
            if selected is not None and rule.rule_id not in selected:
                continue
            if not rule.applies_to(source):
                continue
            for finding in rule.check(source):
                if source.is_suppressed(finding):
                    suppressed += 1
                else:
                    raw.append(finding)
    raw.sort(key=Finding.sort_key)
    if baseline:
        kept, baselined, stale = apply_baseline(raw, baseline)
    else:
        kept, baselined, stale = raw, 0, []
    return CheckResult(
        findings=kept,
        suppressed=suppressed,
        baselined=baselined,
        stale_baseline=stale,
        files_checked=len(sources),
    )
