"""Exception types and the value-record base shared across the package."""

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


class Record:
    """A ``__slots__`` value record: fields set once, compared by value.

    A subclass lists its fields in ``__slots__`` and sets them in its own
    ``__init__`` with ``object.__setattr__``; assignment is then refused.  A
    record equals only a record of its own class with equal fields, hashes by
    its fields and spells them in its ``repr``.  Subclasses of a record take
    its fields, so one with ``__slots__ = ()`` compares the same fields.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__dict__.get("__slots__", ()))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({fields})"
