"""Static verification of the Kylix protocol: one plan checker + custom lint.

Two engines, no simulation required for either:

* **Plan checker** — :func:`build_plans` constructs the full
  ``NodePlan``/``LayerPlan`` configuration state for any topology and
  degree stack synchronously; :mod:`repro.verify.invariants` checks the
  topology (range tiling and nesting, group symmetry) and the fault
  layers, and :mod:`repro.verify.flow`'s abstract-interpretation pass
  checks the plans: it replays the memoised splits, unions and maps,
  proves coverage and conservation end to end, and predicts the exact
  per-(phase, layer) traffic.  CLI: ``python -m repro verify`` (the
  static pass over every shipped stack) and ``python -m repro certify``
  (the certificate runtime stats are gated against).
* **AST lint** — :mod:`repro.verify.lint` walks the package source with
  repo-specific rules (determinism of ``simul``/``allreduce``, no bare
  asserts in library code, explicit accumulator dtypes, declared
  ``__all__``).  CLI: ``python -m repro lint``.

:class:`ProtocolInvariantError` is re-exported here; library modules
should import it from :mod:`repro.verify.errors` directly (that module
is dependency-free, so the import can never cycle).  The checker and
lint machinery load lazily for the same reason.
"""

from __future__ import annotations

from .errors import ProtocolInvariantError

__all__ = [
    "ProtocolInvariantError",
    "Violation",
    "check_topology",
    "check_fault_plan",
    "check_replication",
    "check_sequence_numbers",
    "format_report",
    "build_plans",
    "default_stacks",
    "synthetic_spec",
    "verify_stack",
    "verify_sizes",
    "LintFinding",
    "LintRule",
    "all_rules",
    "lint_file",
    "lint_paths",
    "Certificate",
    "CertificationError",
    "analyze_flow",
    "certify",
    "certificate_for_experiment",
    "check_traffic",
    "worst_case_loss",
    "mutant_plans",
    "plan_fingerprint",
    "density_spec",
    "emit_certificate_metrics",
]

_LAZY = {
    "Violation": "invariants",
    "check_topology": "invariants",
    "check_fault_plan": "invariants",
    "check_replication": "invariants",
    "check_sequence_numbers": "invariants",
    "format_report": "invariants",
    "build_plans": "plan",
    "default_stacks": "plan",
    "synthetic_spec": "plan",
    "verify_stack": "plan",
    "verify_sizes": "plan",
    "LintFinding": "lint",
    "LintRule": "lint",
    "all_rules": "lint",
    "lint_file": "lint",
    "lint_paths": "lint",
    "Certificate": "flow",
    "CertificationError": "flow",
    "analyze_flow": "flow",
    "certify": "flow",
    "certificate_for_experiment": "flow",
    "check_traffic": "flow",
    "worst_case_loss": "flow",
    "mutant_plans": "flow",
    "plan_fingerprint": "flow",
    "density_spec": "flow",
    "emit_certificate_metrics": "flow",
}


def __getattr__(name: str):
    # Lazy so that `from ..verify.errors import ProtocolInvariantError` in
    # allreduce/net code never re-enters repro.allreduce mid-import.
    if name in _LAZY:
        from importlib import import_module

        module = import_module(f".{_LAZY[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
