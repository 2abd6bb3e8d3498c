"""Exception hierarchy.

Three tiers, mirroring the CLI exit codes:

* bad input / malformed request        -> plain ValueError or argparse, exit 1
* domain verdict (NormTowerError)      -> exit 2
* internal invariant (InternalCheckError) -> exit 3; these fire only when a
  quantity the library itself derived fails a consistency check, i.e. a bug.
"""


class NonIntegerEntries(ValueError):
    """A matrix entry that is not an int (a bool is not one): bad input, exit 1.
    A reader of a file catches it to name the field the entries came from."""


class NormTowerError(Exception):
    """Base class for all domain-level failures."""


class OrderViolation(NormTowerError):
    """A matrix claimed to generate a cyclic p-group has the wrong order."""


class NotInvertible(NormTowerError):
    pass


class NotRealizable(NormTowerError):
    """A Jordan profile that no module of the given kind can produce."""


class InvalidShape(NormTowerError):
    """A decomposition shape violating the structural constraints."""


class NotACocycle(NormTowerError):
    pass


class SearchSpaceTooLarge(NormTowerError):
    """An exhaustive search was requested above its safety bound."""


class InadmissibleSpec(NormTowerError):
    """Tower parameters outside the family the construction covers."""


class NotFoundBelowLimit(NormTowerError):
    """A bounded search ran to its limit without a witness."""


class CrossCheckMismatch(NormTowerError):
    """Two independent routes to the same invariant disagree."""

    def __init__(self, first, second):
        self.first = first
        self.second = second
        super().__init__(f"cross-check mismatch: {first!r} vs {second!r}")


class MissingRootOfUnity(NormTowerError):
    """The base field lacks the root of unity the construction needs."""


class FactorizationError(NormTowerError):
    """An integer resisted factorization within the trial bound, or its
    primality could not be proved."""


class InternalCheckError(NormTowerError):
    """A self-consistency assertion on derived data failed."""
