"""Exception types shared across the package.

Every error carries enough context in its message to be printed by the
CLI without a traceback.  The exit-code mapping lives in ``cli``.
"""


class RepspaceError(Exception):
    """Base class for all package errors."""


class CompositionNotZero(RepspaceError):
    """Two consecutive boundary maps do not compose to zero."""


class ActionInvalid(RepspaceError):
    """A purported group action fails one of its compatibility laws."""


class NotPrime(RepspaceError):
    """A mod-p computation was requested at a composite or invalid p."""


class ResourceGuard(RepspaceError):
    """A construction was refused because its size exceeds the budget."""


def range_error(value: int, low: int, message: str) -> Exception:
    """The error for a parameter outside its valid range, which starts at low.

    Below the range the request is malformed (ValueError, bad input);
    above it the request is well-formed but too big (ResourceGuard).
    """
    return ValueError(message) if value < low else ResourceGuard(message)


class UnknownSpace(RepspaceError):
    """A space descriptor does not parse, or names no catalog entry."""


class Unsupported(RepspaceError):
    """A factor-catalog lookup outside the implemented (group, n) range."""

    def __init__(self, group, n):
        super().__init__(f"no catalog entry for group {group!r} at n={n}")
        self.group = group
        self.n = n


class NotAlmostCommuting(RepspaceError):
    """Some commutator of the tuple is not within tolerance of the center."""

    def __init__(self, i, j, distance):
        super().__init__(
            f"commutator of elements {i} and {j} is {distance:.3e} from ±1"
        )
        self.i = i
        self.j = j
        self.distance = distance


class BadBasePair(RepspaceError):
    """The designated base pair commutes, so it cannot generate a sign."""


class TypeMismatch(RepspaceError):
    """The requested sign matrix cannot be produced from the base pair."""


class NotCommutingInSO3(RepspaceError):
    """Projected rotations fail to commute within tolerance."""
