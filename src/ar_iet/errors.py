"""Shared error types.

Every failure a caller can provoke through legal API use derives from
DomainError, so the CLI can map the whole family to exit code 1 with a
structured reason.  Internal consistency violations (which indicate a bug,
not bad input) raise plain RuntimeError instead.
"""
from __future__ import annotations


class DomainError(Exception):
    """Base class for input-domain failures; carries a machine-readable code."""

    code = "domain-error"

    def __init__(self, message: str, **detail):
        super().__init__(message)
        self.detail = detail


class NotInGasket(DomainError):
    """The renormalization step is undefined: d = a-b-c is nonpositive or ties b or c."""

    code = "not-in-gasket"


class InvalidSeed(DomainError):
    """Reconstruction seed is not an admissible triple."""

    code = "invalid-seed"


class PrefixTooLong(DomainError):
    """A directing prefix is longer than the reconstruction cap."""

    code = "prefix-too-long"


class IncompletePrefix(DomainError):
    """A trailing run of III is not closed by I or II."""

    code = "incomplete-prefix"


class WordOverflow(DomainError):
    """A materialized word would exceed the letter cap; names the offending stage."""

    code = "word-overflow"


class Inadmissible(DomainError):
    """Triple violates a > b > c > 0."""

    code = "inadmissible"


class OutOfDomain(DomainError):
    """Point lies in a gap or outside the map's intervals."""

    code = "out-of-domain"


class ReturnTimeCapExceeded(DomainError):
    """First-return search exceeded the safety cap; indicates a fault, not a slow orbit."""

    code = "return-time-cap-exceeded"


class NotAFactor(DomainError):
    """Target word is not a factor of the coding language (refinement emptied)."""

    code = "not-a-factor"
