"""Exception types shared across the package, and the integer check the
config dataclasses share."""

import numbers


class EsnodeError(Exception):
    """Base class for all package-specific failures."""


class NonFinite(EsnodeError):
    """A computed quantity became NaN or infinite."""


class DimensionMismatch(EsnodeError):
    """Array shapes are inconsistent with the operation's contract."""


class LengthMismatch(EsnodeError):
    """Sequences that must align have different lengths."""


class DegenerateMatrix(EsnodeError):
    """A matrix required to be nonzero (for norm scaling) is zero."""


class SingularSystem(EsnodeError):
    """A linear solve failed because the system matrix is singular."""


class TrialDiverged(EsnodeError):
    """The trial integration blew up before training could start."""


def require_int(name: str, value) -> None:
    """Raise ValueError naming the field unless value is an integer.

    bool is an int subclass but never a count or a seed, so it is refused.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
