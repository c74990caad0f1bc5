"""Exception types shared across the package.

The errors of bad input are exactly the ``ValueError`` subclasses, and
the command line exits 2 on them; it exits 4 on every other error that
reaches it.  ``StaleCacheError`` never reaches it: a cache file that
cannot be used is a miss.  Every error and warning the package prints
goes through ``report``.
"""

import sys


def report(*lines) -> None:
    """Print lines to stderr, or nothing when sys.stderr is None (the
    process started with descriptor 2 closed), where print would write
    them to stdout."""
    if sys.stderr is not None:
        print(*lines, sep="\n", file=sys.stderr)


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
    """A quantity that is nonnegative by theory came out negative, or a
    profile that ``GradedCalculator.hilbert_series`` folds came out
    nonzero outside ``sweep_domain(m)``, where it vanishes by theory."""


class StaleCacheError(NilconeError):
    """A partition cache file that cannot be used: it cannot be read,
    has no schema header or is from another schema version, is for
    another type, was built with another root ordering, has record lines
    that fail their digest, holds a malformed or repeated record, or
    disagrees with a value the table already holds.

    Nothing in it is used, but nothing is lost by recomputing, so
    ``partition.load_table`` treats it as a miss: one warning, and the
    next save overwrites it.
    """
