"""Rule: every manually opened Observer span must be closed.

The tracer's ``begin()``/``end(token)`` pair is the low-level face of
``Observer.span(...)``; an unmatched ``begin()`` leaves the span open
forever, which skews self-time attribution and breaks the Chrome-trace
nesting the analyzer relies on.  Within a single function, every token
assigned from a ``.begin(...)`` call must be passed to an ``.end(...)``
call (the context-manager form never has this problem — prefer it).
Bare ``.begin(...)`` calls whose token is discarded are flagged
outright.  CLI faces are exempt, matching the other hygiene rules.

The check is intraprocedural by design: a token returned or stowed for
another function to close is almost always a latent leak, and the rare
legitimate hand-off can say so with ``# lint: ok``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..lint import LintFinding, LintRule

__all__ = ["SpanBalanceRule"]

_CLI_FACE = "__main__.py"


class SpanBalanceRule(LintRule):
    name = "span-balance"
    description = (
        "every span begin() needs a matching end() in the same function "
        "(or use the span() context manager)"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath != _CLI_FACE

    def check(self, tree: ast.Module, relpath: str) -> Iterable[LintFinding]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(node, relpath)

    def _check_function(self, func: ast.AST, relpath: str) -> Iterable[LintFinding]:
        begun: dict = {}  # token name -> the begin() call node
        ended: set = set()
        for node in ast.walk(func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
                continue  # nested defs get their own pass via check()
            call = None
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                call = node.value
            if (
                call is not None
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "begin"
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        begun[target.id] = call
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                inner = node.value
                if (
                    isinstance(inner.func, ast.Attribute)
                    and inner.func.attr == "begin"
                ):
                    yield self.finding(
                        relpath,
                        inner,
                        ".begin() token discarded — the span can never be "
                        "closed; keep the token and .end() it, or use the "
                        "span() context manager",
                    )
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "end":
                    for arg in node.args:
                        if isinstance(arg, ast.Name):
                            ended.add(arg.id)
        for name, call in begun.items():
            if name not in ended:
                yield self.finding(
                    relpath,
                    call,
                    f"span token '{name}' from .begin() is never passed to "
                    ".end() in this function — unbalanced span; close it or "
                    "use the span() context manager",
                )
