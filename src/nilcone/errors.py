"""Exception types shared across the package."""

from __future__ import annotations


class NilconeError(Exception):
    """Base class for all errors raised by this package."""


class InadmissibleTypeError(NilconeError, ValueError):
    """The requested (family, rank) pair is not an irreducible root system."""

    def __init__(self, family: str, rank: int):
        self.family = family
        self.rank = rank
        super().__init__(f"no irreducible root system of type {family}_{rank}")


class NonDominantWeightError(NilconeError, ValueError):
    """An operation requiring a dominant highest weight got a non-dominant one."""

    def __init__(self, weight):
        self.weight = tuple(weight)
        super().__init__(f"weight {self.weight} is not dominant")


class WrongRootSystemError(NilconeError, ValueError):
    """An operation restricted to one root system type got another."""


class PositivityViolationError(NilconeError):
    """A subregular graded multiplicity came out negative.

    The exact-sequence argument guarantees positivity, so this can only
    mean an implementation bug; it must never fire on correct code.
    """

    def __init__(self, weight, degree: int, value: int):
        self.weight = tuple(weight)
        self.degree = degree
        self.value = value
        super().__init__(
            f"subregular multiplicity t_{degree}({self.weight}) = {value} < 0"
        )


class InternalInconsistencyError(NilconeError):
    """A quantity that is nonnegative by theory came out negative."""


class CacheFormatError(NilconeError):
    """A cache file that cannot be used: it is for another type, was
    built with another root ordering, or disagrees with values already
    held (exit code 1).  An unreadable or outdated file is the subclass
    ``StaleCacheError`` and counts as a cache miss instead."""


class StaleCacheError(CacheFormatError):
    """A cache file is unreadable, from another schema version, or holds
    records that fail their digest or shape check.

    Nothing in it can be trusted, but nothing is lost by recomputing, so
    the loaders treat it as a miss and let the next save overwrite it.
    """
