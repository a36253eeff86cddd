"""Error types shared across the package.

Every exception names the violated clause via its class name; the CLI
prints `<clause>: <message>` on stderr and exits with status 2.
"""


class CichonError(Exception):
    """Base class for all domain errors."""


class MalformedInput(CichonError, ValueError):
    """Input of the wrong JSON shape or type, or an argument out of range."""


class HorizonMismatch(CichonError):
    """Two finite-horizon objects were compared at different horizons."""


class EmptyFamily(CichonError):
    """An operation requiring at least one family member got none."""


class HorizonTooShort(CichonError):
    """The input does not cover the positions of the blocks."""


class ShapeMismatch(CichonError):
    """Block data does not agree with its width profile."""


class KindMismatch(CichonError):
    """A poset operation was applied to conditions of the wrong kind."""


class InvalidCondition(CichonError):
    """A condition failed its structural validity checks."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class NotBelowProjection(CichonError):
    """The target condition does not strengthen the projected condition."""


class FamilyTooLarge(CichonError):
    """The side family is too large for the prefix positions involved."""


class RankTooLarge(CichonError):
    """A stem value's avoidance rank cannot be encoded mod its position."""


class UnknownForcing(CichonError):
    """No knowledge-base entry is recorded under the requested name."""
