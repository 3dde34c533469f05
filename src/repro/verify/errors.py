"""Typed exceptions for protocol-invariant violations.

This module is dependency-free on purpose: library code anywhere in
``repro`` (``allreduce``, ``net``, ``sparse``) imports
:class:`ProtocolInvariantError` from here without pulling the checker
machinery in :mod:`repro.verify.plan` / :mod:`repro.verify.flow`
along, so there are no import cycles.

The paper's predecessor work (Zhao & Canny, *Sparse Allreduce*) observes
that sparse-collective bugs manifest as silently wrong sums rather than
crashes.  A ``ProtocolInvariantError`` is the loud alternative: it is a
real exception, not a bare ``assert``, so the guard survives
``python -O`` and cannot be stripped in production.
"""

from __future__ import annotations

__all__ = ["ProtocolInvariantError"]


class ProtocolInvariantError(RuntimeError):
    """A structural invariant of the Kylix protocol does not hold.

    Raised by the plan checker (:class:`~repro.verify.flow.CertificationError`
    is a subclass) and by runtime guards in library code that used to be
    bare ``assert`` statements.  ``invariant`` names the violated property
    (e.g. ``"flow-slice-tiling"``); see ``docs/verify.md`` for the
    catalogue.
    """

    def __init__(self, message: str, *, invariant: str = ""):
        super().__init__(message)
        self.invariant = invariant
