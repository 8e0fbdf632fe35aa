"""Exception types shared across the package, and the checks they share."""

import numpy as np


class MultifragError(Exception):
    """Base class for all multifrag errors; ``exit_code`` is the CLI's exit
    status for one: 4 (numeric failure) unless a subclass says otherwise."""

    exit_code = 4


# --- typed partition construction -------------------------------------------

class NegativeMass(MultifragError):
    pass


class TypeOutOfRange(MultifragError):
    pass


class MassSumExceedsOne(MultifragError):
    pass


class ZeroMassWithNonzeroType(MultifragError):
    pass


class EmptyGroundSet(MultifragError):
    pass


class GroundSizeMismatch(MultifragError):
    pass


class GroundSizeTooSmall(MultifragError):
    exit_code = 3


# --- model specification ------------------------------------------------------

class SpecValidationError(MultifragError):
    """Carries every violation found, not just the first.

    Each violation is a (code, message) pair; codes are stable strings
    such as "AtomAtUnit" or "NonConservativeAtom".
    """

    exit_code = 3

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"{code}: {msg}" for code, msg in self.violations)
        super().__init__(f"invalid fragmentation spec ({lines})")

    def codes(self):
        return [code for code, _ in self.violations]


class NotConservative(MultifragError):
    exit_code = 3


class ThetaOutOfDomain(MultifragError):
    pass


class DistinctErosionCoefficients(MultifragError):
    exit_code = 3


class PartitionWithErosion(MultifragError):
    exit_code = 3


# --- spectral computations ----------------------------------------------------

class NotIrreducible(MultifragError):
    pass


class NoConvergence(MultifragError):
    pass


class MaximumAtBracketEdge(MultifragError):
    pass


# --- statistics ---------------------------------------------------------------

class InvalidWindow(MultifragError):
    pass


# --- library arguments --------------------------------------------------------

class InvalidArgument(MultifragError, ValueError):
    """A library call got an argument outside its domain."""

    exit_code = 2


def check_count(value, name: str, least: int | None = 1) -> int:
    """``value`` as an int: an int or numpy integer, never a bool, of at
    least ``least`` unless that is None; else InvalidArgument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidArgument(f"{name} = {value!r} is not an integer")
    if least is not None and value < least:
        raise InvalidArgument(f"{name} = {value} < {least}")
    return int(value)


def check_real(value, name: str):
    """``value`` if it is an int, a float or a numpy real, never a bool;
    else InvalidArgument.  A NaN passes: the domain check refuses it."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise InvalidArgument(f"{name} = {value!r} is not a real number")
    return value


def check_square(value, name: str) -> np.ndarray:
    """``value`` as a square float matrix of finite entries; else
    InvalidArgument."""
    try:
        matrix = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise InvalidArgument(f"{name} is not a matrix of numbers") from None
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InvalidArgument(f"{name} of shape {matrix.shape} is not square")
    if not np.isfinite(matrix).all():
        raise InvalidArgument(f"{name} has a non-finite entry")
    return matrix


# --- driver -------------------------------------------------------------------

class ParseError(MultifragError):
    exit_code = 2


class ResourceCapExceeded(MultifragError):
    exit_code = 5


MAX_RUN_BYTES = 2 ** 30


def admit(items, item_bytes: int, what: str) -> int:
    """Refuse items past MAX_RUN_BYTES // item_bytes and return that count;
    item_bytes is a tracemalloc peak on the worst shape, named at the call."""
    most = int(MAX_RUN_BYTES // item_bytes)
    if not items <= most:
        raise ResourceCapExceeded(f"more than {most} {what} at {item_bytes:g} "
                                  f"bytes each pass the run budget")
    return most


# --- warnings: a filter that turns them into errors gets exit 4 -------------

class ThetaAboveCritical(MultifragError, UserWarning):
    """theta >= theta_bar: the additive martingale may degenerate."""


class LatticeJumpSizes(MultifragError, UserWarning):
    """All log-mass jump sizes look commensurable; sharp count asymptotics
    assume a non-lattice walk."""
