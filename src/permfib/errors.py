"""Exception types shared across the package."""


class PermfibError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(PermfibError, ValueError):
    """An argument violates a documented precondition (bad value or shape)."""


class UsageError(InvalidInputError):
    """A claim parameter or command-line argument outside its domain; the
    CLI reports it as a usage error."""


class ResourceLimitError(PermfibError, RuntimeError):
    """An enumeration would exceed its fixed size cap."""


class NotInLanguageError(PermfibError, ValueError):
    """A word does not belong to the regular language an operation requires."""


class NotInDomainError(PermfibError, ValueError):
    """An object lies outside the domain of a bijection."""


class SingularSeriesError(PermfibError, ArithmeticError):
    """A series operation needs an invertible (or unit) constant term."""
