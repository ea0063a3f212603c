"""reprolint: simulator-aware static analysis (``repro lint``).

AST-based rules enforce the contracts the test suite can only
spot-check; ``repro lint --list-rules`` prints them.  A rule stays
only while some realistic defect is caught by it and by nothing else
in tier-1 — docs/LINTING.md has the catalogue, the mutation table
that shows it, and the suppression syntax.
"""

from repro.lint.core import (Finding, LintError, Rule, lint_files,
                             lint_paths, lint_source)
from repro.lint.rules import LoopDispatch, default_rules, find_loop_dispatch

__all__ = [
    "Finding",
    "LintError",
    "LoopDispatch",
    "Rule",
    "default_rules",
    "find_loop_dispatch",
    "lint_files",
    "lint_paths",
    "lint_source",
]
