"""Exception types shared across the package."""


class CalcError(Exception):
    """Base class for domain errors raised by this package."""


class InvalidPrimeError(CalcError):
    """A parameter that must be an odd prime is not."""


class ModulusMismatchError(CalcError):
    """Two cyclotomic values from different rings were combined."""


class UnsupportedPrimeError(CalcError):
    """The requested constant is pinned only for specific primes."""


class NonIntegralError(CalcError):
    """A denominator-free value was required but the reduced k is positive."""


class InconsistencyError(CalcError):
    """An internal cross-check failed; indicates a convention bug."""


class TooLargeError(CalcError):
    """An enumeration would exceed the configured cap."""


class CharacterDomainError(CalcError):
    """A character does not satisfy the preconditions of the operation."""
