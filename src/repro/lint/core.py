"""reprolint infrastructure: findings, suppressions, and the driver.

``repro.lint`` is an AST-based static-analysis suite for contracts no
generic linter can see — determinism, dual-loop lockstep, hot-path
purity, the error taxonomy, the env-var registry, and more
(``repro lint --list-rules``; docs/LINTING.md has the catalogue).
This module holds the rule-independent machinery:

* :class:`Finding` — one diagnostic, with a stable ``RLxxx`` code and
  an autofix hint.
* :class:`Rule` — the base class; rules implement :meth:`Rule.check`
  per file and may emit whole-run findings from :meth:`Rule.finish`.
* suppressions — ``# reprolint: disable=RL002`` on (or immediately
  above) the offending line, ``# reprolint: disable-file=RL001`` for a
  whole module.
* :func:`lint_paths` / :func:`lint_source` — the drivers used by the
  CLI and the test fixtures respectively.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple


class Finding(NamedTuple):
    """One diagnostic emitted by a rule."""

    #: Stable rule code (``RLxxx``).
    code: str
    #: Path of the offending file, as given to the driver.
    path: str
    #: 1-based line of the offending node.
    line: int
    #: 0-based column of the offending node.
    col: int
    #: What is wrong.
    message: str
    #: How to fix it (autofix hint; empty when there is no canned fix).
    hint: str = ""

    def format(self) -> str:
        """``path:line:col: CODE message [fix: hint]`` render."""
        text = f"{self.path}:{self.line}:{self.col}: " \
               f"{self.code} {self.message}"
        if self.hint:
            text += f" [fix: {self.hint}]"
        return text


_DISABLE_RE = re.compile(
    r"#\s*reprolint:\s*(disable|disable-file)=([A-Z]{2}\d{3}"
    r"(?:\s*,\s*[A-Z]{2}\d{3})*)")


class Suppressions:
    """Per-file suppression state parsed from magic comments.

    ``# reprolint: disable=RLxxx[,RLyyy]`` suppresses those codes on
    the same physical line and on the line directly below (so a
    comment line can shield the statement it precedes);
    ``# reprolint: disable-file=RLxxx`` suppresses a code everywhere
    in the file.
    """

    def __init__(self, source: str) -> None:
        self.by_line: Dict[int, Set[str]] = {}
        self.file_wide: Set[str] = set()
        for lineno, line in enumerate(source.splitlines(), start=1):
            found = _DISABLE_RE.search(line)
            if not found:
                continue
            codes = {code.strip()
                     for code in found.group(2).split(",")}
            if found.group(1) == "disable-file":
                self.file_wide |= codes
            else:
                for target in (lineno, lineno + 1):
                    self.by_line.setdefault(target, set()).update(codes)

    def active(self, code: str, line: int) -> bool:
        """Whether ``code`` is suppressed at ``line``."""
        return (code in self.file_wide
                or code in self.by_line.get(line, ()))


class Rule:
    """Base class for reprolint rules.

    Subclasses set the class attributes and implement :meth:`check`;
    rules that need whole-run state (cross-file consistency checks)
    accumulate it on ``self`` and override :meth:`finish`.
    """

    #: Stable diagnostic code, ``RL`` + 3 digits.
    code: str = "RL000"
    #: Short kebab-case rule name.
    name: str = "base"
    #: One-line statement of the contract the rule enforces.
    description: str = ""
    #: Path-part subsequences the rule is scoped to (a file is in
    #: scope when any entry is a contiguous subsequence of its path
    #: parts).  Empty = every linted file.
    scope: Tuple[Tuple[str, ...], ...] = ()

    def applies_to(self, path: str) -> bool:
        """Whether ``path`` is inside this rule's enforcement scope."""
        if not self.scope:
            return True
        parts = _path_parts(path)
        return any(_contains(parts, entry) for entry in self.scope)

    def check(self, tree: ast.Module, source: str,
              path: str) -> List[Finding]:
        """Per-file pass; return this file's findings."""
        raise NotImplementedError

    def finish(self) -> List[Finding]:
        """Whole-run pass after every file was checked."""
        return []


def _path_parts(path: str) -> Tuple[str, ...]:
    return tuple(part for part in
                 os.path.normpath(path).replace(os.sep, "/").split("/")
                 if part not in ("", "."))


def _contains(parts: Sequence[str], entry: Sequence[str]) -> bool:
    span = len(entry)
    return any(tuple(parts[i:i + span]) == tuple(entry)
               for i in range(len(parts) - span + 1))


# ----------------------------------------------------------------------
# Shared AST helpers used by several rules.
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def import_map(tree: ast.Module) -> Dict[str, str]:
    """Local name → canonical dotted origin for every import."""
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = \
                    alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module \
                and not node.level:
            for alias in node.names:
                mapping[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return mapping


def resolve_dotted(node: ast.AST, imports: Dict[str, str]
                   ) -> Optional[str]:
    """Canonical dotted name of a reference, resolving import aliases
    (``from datetime import datetime as dt; dt.now`` →
    ``datetime.datetime.now``)."""
    raw = dotted_name(node)
    if raw is None:
        return None
    head, _, rest = raw.partition(".")
    origin = imports.get(head, head)
    return f"{origin}.{rest}" if rest else origin


def iter_parents(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    """Child → parent map for ancestor walks."""
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def module_constants(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` string assignments."""
    consts: Dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    consts[target.id] = node.value.value
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name) \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            consts[node.target.id] = node.value.value
    return consts


# ----------------------------------------------------------------------
# Drivers.
# ----------------------------------------------------------------------
class LintError(Exception):
    """A linted file could not be read or parsed."""


def _rules(select: Optional[Iterable[str]] = None) -> List[Rule]:
    from repro.lint.rules import default_rules

    rules = default_rules()
    if select is not None:
        wanted = set(select)
        unknown = wanted - {rule.code for rule in rules}
        if unknown:
            raise LintError(
                f"unknown rule code(s): {', '.join(sorted(unknown))}")
        rules = [rule for rule in rules if rule.code in wanted]
    return rules


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for base, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if d != "__pycache__"
                                 and not d.startswith("."))
                files.extend(os.path.join(base, name)
                             for name in sorted(names)
                             if name.endswith(".py"))
        elif os.path.isfile(path):
            files.append(path)
        else:
            raise LintError(f"no such file or directory: {path}")
    return files


def lint_files(files: Sequence[str],
               select: Optional[Iterable[str]] = None) -> List[Finding]:
    """Run the (selected) rules over ``files``; returns surviving
    findings sorted by location."""
    rules = _rules(select)
    findings: List[Finding] = []
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            tree = ast.parse(source, filename=path)
        except (OSError, SyntaxError, ValueError) as exc:
            raise LintError(f"cannot lint {path}: {exc}") from exc
        suppressions = Suppressions(source)
        for rule in rules:
            if not rule.applies_to(path):
                continue
            findings.extend(
                finding for finding in rule.check(tree, source, path)
                if not suppressions.active(finding.code, finding.line))
    for rule in rules:
        findings.extend(rule.finish())
    return sorted(findings,
                  key=lambda f: (f.path, f.line, f.col, f.code))


def lint_paths(paths: Sequence[str],
               select: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint files and directory trees (the CLI entry)."""
    return lint_files(collect_files(paths), select=select)


def lint_source(source: str, path: str = "src/repro/pipeline/snippet.py",
                select: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint an in-memory snippet as if it lived at ``path`` — the
    fixture harness used by ``tests/test_reprolint.py``.  Cross-file
    :meth:`Rule.finish` checks are skipped (they need a whole tree)."""
    rules = _rules(select)
    tree = ast.parse(source, filename=path)
    suppressions = Suppressions(source)
    findings: List[Finding] = []
    for rule in rules:
        if not rule.applies_to(path):
            continue
        findings.extend(
            finding for finding in rule.check(tree, source, path)
            if not suppressions.active(finding.code, finding.line))
    return sorted(findings,
                  key=lambda f: (f.path, f.line, f.col, f.code))
