"""Rule: no broad ``except`` that swallows the exception.

A bare ``except:`` or ``except Exception:`` whose handler neither
re-raises, nor logs, nor even *looks at* the caught exception turns
protocol bugs into silent misbehaviour — the exact failure mode the
fault-tolerance layer exists to surface as typed errors.  The rule
flags such handlers anywhere under ``src/repro`` except the CLI faces
(which catch broadly at the top level to render an error message and an
exit code).

A handler is considered to *handle* the exception when its body
contains any of:

* a ``raise`` (re-raise or translation into a typed error);
* a call spelled like logging (``log``, ``warn[ing]``, ``error``,
  ``exception``, ``debug``, ``info``, ``critical``, or
  ``warnings.warn``);
* a use of the bound exception name (``except Exception as exc`` with
  ``exc`` referenced — recording or reporting it counts as handling).

Catching a *specific* exception type silently stays legal — that is a
deliberate, reviewable decision about one failure mode, not a net over
everything.  Deliberate broad catches carry ``# lint: ok`` with a
reason.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..lint import LintFinding, LintRule

__all__ = ["NoBroadExceptRule"]

#: CLI-facing modules: top-level catch-alls that print and exit are their job.
_CLI_FACE = "__main__.py"

_BROAD = ("Exception", "BaseException")

_LOG_NAMES = {
    "log",
    "warn",
    "warning",
    "error",
    "exception",
    "debug",
    "info",
    "critical",
}


def _is_broad(expr: ast.expr | None) -> bool:
    if expr is None:
        return True  # bare except:
    if isinstance(expr, ast.Name):
        return expr.id in _BROAD
    if isinstance(expr, ast.Tuple):
        return any(_is_broad(el) for el in expr.elts)
    return False


def _handles(handler: ast.ExceptHandler) -> bool:
    bound = handler.name
    for node in ast.walk(ast.Module(body=handler.body, type_ignores=[])):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else ""
            )
            if name in _LOG_NAMES:
                return True
        if (
            bound
            and isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id == bound
        ):
            return True
    return False


class NoBroadExceptRule(LintRule):
    name = "no-broad-except"
    description = (
        "bare except:/except Exception: must re-raise, log, or use the "
        "caught exception; CLI entry points are exempt"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath != _CLI_FACE

    def check(self, tree: ast.Module, relpath: str) -> Iterable[LintFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node.type):
                continue
            if _handles(node):
                continue
            what = "bare except:" if node.type is None else "except Exception:"
            yield self.finding(
                relpath,
                node,
                f"{what} swallows the exception — catch the specific type, "
                "re-raise as a typed error, or log what happened",
            )
