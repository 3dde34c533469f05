"""The rule registry for :mod:`repro.verify.lint`.

One module per rule family; add new rules by importing the class here
and appending it to ``RULES``.  Each rule's docstring and ``description``
explain the repo contract it enforces — the catalogue with paper
references lives in ``docs/verify.md``.
"""

from .asserts import NoBareAssertRule
from .broad_except import NoBroadExceptRule
from .determinism import NoUnseededRngRule, NoWallClockRule
from .dtypes import ExplicitDtypeRule
from .exports import ModuleExportsRule
from .mutable_defaults import NoMutableDefaultArgRule
from .noprint import NoPrintRule
from .sockets import SocketTimeoutRule
from .spans import SpanBalanceRule
from .timeouts import ExplicitTimeoutRule
from .unbounded_queue import NoUnboundedQueueRule

__all__ = [
    "RULES",
    "NoBareAssertRule",
    "NoBroadExceptRule",
    "NoWallClockRule",
    "NoUnseededRngRule",
    "ExplicitDtypeRule",
    "ModuleExportsRule",
    "ExplicitTimeoutRule",
    "NoMutableDefaultArgRule",
    "NoPrintRule",
    "NoUnboundedQueueRule",
    "SocketTimeoutRule",
    "SpanBalanceRule",
]

RULES = [
    NoBareAssertRule,
    NoBroadExceptRule,
    NoWallClockRule,
    NoUnseededRngRule,
    ExplicitDtypeRule,
    ModuleExportsRule,
    ExplicitTimeoutRule,
    NoMutableDefaultArgRule,
    NoPrintRule,
    NoUnboundedQueueRule,
    SocketTimeoutRule,
    SpanBalanceRule,
]
