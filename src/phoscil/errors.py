"""Exception taxonomy shared across the package.

Numeric failures, I/O failures and invalid inputs are kept as distinct
branches so the CLI can map them to distinct exit codes.
"""
from __future__ import annotations

__all__ = [
    "PhoscilError",
    "DomainError",
    "ParameterFileError",
    "StiffnessError",
    "BudgetError",
    "EventBracketError",
    "NoPositiveEquilibriumError",
    "FoldSingularityError",
    "DerivativeConsistencyError",
    "SectionNoHitError",
    "PreconditionError",
    "MalformedCycleError",
]


class PhoscilError(Exception):
    """Base class for all package-specific failures."""


class DomainError(PhoscilError, ValueError):
    """An argument lies outside the mathematical domain of an evaluator."""


class ParameterFileError(PhoscilError, ValueError):
    """A parameter file is malformed: unknown, missing or non-numeric keys."""


class StiffnessError(PhoscilError, RuntimeError):
    """Step size underflowed; the integrator cannot resolve the dynamics."""


class BudgetError(PhoscilError, RuntimeError):
    """The accepted-step budget (max_steps) was exhausted."""


class EventBracketError(PhoscilError, RuntimeError):
    """A reported sign change could not be bracketed on dense output."""


class NoPositiveEquilibriumError(PhoscilError, ValueError):
    """alpha*K_h <= K_s: the model has no positive fixed point."""


class FoldSingularityError(PhoscilError, ZeroDivisionError):
    """A reduced slow flow was evaluated at its fold singularity."""


class DerivativeConsistencyError(PhoscilError, RuntimeError):
    """Analytic and finite-difference derivatives disagree beyond tolerance."""


class SectionNoHitError(PhoscilError, RuntimeError):
    """A trajectory failed to reach the requested section in the time budget."""


class PreconditionError(PhoscilError, ValueError):
    """A documented precondition of an analysis routine was violated."""


class MalformedCycleError(PhoscilError, RuntimeError):
    """A recorded cycle is missing the event hits needed for segment timing."""
