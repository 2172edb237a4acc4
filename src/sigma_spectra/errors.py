"""Exception types shared across the package."""

__all__ = [
    "SigmaSpectraError",
    "InvalidPartitionError",
    "DomainError",
    "NotApplicableError",
    "DimensionMismatchError",
    "InfeasibleShapeError",
    "InfeasibleError",
    "InstanceTooLargeError",
    "BudgetExceededError",
    "TheoremViolationError",
]


class SigmaSpectraError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPartitionError(SigmaSpectraError, ValueError):
    """A partition argument is empty or contains a non-positive part."""


class DomainError(SigmaSpectraError, ValueError):
    """A closed-form formula was called outside its stated domain."""


class NotApplicableError(SigmaSpectraError, ValueError):
    """A formula's applicability precondition does not hold for this instance."""


class DimensionMismatchError(SigmaSpectraError, ValueError):
    """A colouring's shape does not match the instance it is checked against."""


class InfeasibleShapeError(SigmaSpectraError, ValueError):
    """An edge shape asks for more vertices from a class than the class holds."""


class InfeasibleError(SigmaSpectraError, ValueError):
    """A requested construction does not exist for the given parameters."""


class InstanceTooLargeError(SigmaSpectraError, ValueError):
    """An instance is beyond the literal oracle's size cap, has more classes
    than the engine search's recursion depth allows, or, without edges,
    needs a witness past ``engine.WITNESS_VERTEX_LIMIT`` vertices (a
    spectrum: witnesses past ``engine.SPECTRUM_WITNESS_VERTEX_LIMIT`` in all)."""


class BudgetExceededError(SigmaSpectraError):
    """A search exceeded its node budget before reaching a verdict."""


class TheoremViolationError(SigmaSpectraError):
    """A recolouring walk produced a state the no-gap analysis rules out.

    This is a diagnostic, not a recoverable condition: it means either the
    walk preconditions were not met or an implementation bug exists.
    """
