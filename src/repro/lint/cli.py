"""The ``repro lint`` command body.

``repro.cli`` owns the subcommand's parser and calls :func:`run`,
importing this module only when ``lint`` is the command.  Exit status:
0 clean, 1 findings, 2 usage/parse error — the contract the CI
``lint-strict`` job depends on.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.lint.core import LintError, lint_paths
from repro.lint.rules import default_rules


def run(paths: Sequence[str], select: Optional[str] = None,
        list_rules: bool = False) -> int:
    """Lint ``paths`` with the rules in comma-separated ``select``
    (default: all), or print the catalogue; returns the exit status."""
    if list_rules:
        for rule in default_rules():
            print(f"{rule.code} {rule.name:<18} {rule.description}")
        return 0
    codes: Optional[List[str]] = None
    if select is not None:
        codes = [code.strip() for code in select.split(",")
                 if code.strip()]
    try:
        findings = lint_paths(paths, select=codes)
    except LintError as exc:
        print(f"reprolint: error: {exc}")
        return 2
    for finding in findings:
        print(finding.format())
    if findings:
        print(f"reprolint: {len(findings)} finding"
              f"{'s' if len(findings) != 1 else ''} "
              "(suppress with '# reprolint: disable=RLxxx' "
              "where the rule is wrong)")
        return 1
    return 0
