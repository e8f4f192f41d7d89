"""Exception types shared across the package."""

__all__ = [
    "DecompositionError", "DimensionMismatchError", "DomainError",
    "FalsificationError", "ResourceGuardError",
]


class DimensionMismatchError(ValueError):
    """Operands live over different ground sets."""


class DecompositionError(ValueError):
    """A vector is not in the span of the given generators."""


class DomainError(ValueError):
    """An operation was applied outside its stated domain."""


class ResourceGuardError(RuntimeError):
    """A requested size exceeds the desk-scale guard (override with SBL_MAX_D)."""


class FalsificationError(AssertionError):
    """The computation contradicts a verified structural property.

    Raised when an internal certificate fails (a duplicate image, a cycle in
    the order, a non-unique distinguished element, ...).  Any occurrence is
    either an implementation bug or a genuine counterexample, so it carries
    the offending data in its message.
    """
