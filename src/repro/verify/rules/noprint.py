"""Rule: no ``print()`` in library code.

Library modules report through return values, typed exceptions, and the
:mod:`repro.obs` observer — a stray ``print`` in protocol or simulator
code pollutes benchmark output, is invisible from worker processes, and
cannot be turned off by callers.  The package's command-line face
(``repro/__main__.py``) exists to print and is exempt; everything else
under ``src/repro/`` must not.
Deliberate exceptions carry ``# lint: ok`` with a reason.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..lint import LintFinding, LintRule

__all__ = ["NoPrintRule"]

#: CLI-facing modules whose whole purpose is terminal output.
_CLI_FACE = "__main__.py"


class NoPrintRule(LintRule):
    name = "no-print"
    description = (
        "library code must not print() (use return values, exceptions, or "
        "the repro.obs observer); CLI entry points are exempt"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath != _CLI_FACE

    def check(self, tree: ast.Module, relpath: str) -> Iterable[LintFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_print = (isinstance(func, ast.Name) and func.id == "print") or (
                isinstance(func, ast.Attribute)
                and func.attr == "print"
                and isinstance(func.value, ast.Name)
                and func.value.id == "builtins"
            )
            if is_print:
                yield self.finding(
                    relpath,
                    node,
                    "print() in library code: report via return values, "
                    "typed exceptions, or repro.obs metrics/spans instead",
                )
