"""Exception hierarchy shared across the package, and the parameter check they back."""

from __future__ import annotations

import math
import sys


class ForkcastError(Exception):
    """Base class for all package errors."""


class QuadratureError(ForkcastError):
    """Base class for numerical-integration failures."""


class NonConvergent(QuadratureError):
    """Refinement level ``quadrature.MAX_LEVEL`` passed before the requested tolerance."""


class NonFinite(QuadratureError):
    """An integrand returned NaN or infinity at an evaluation point."""


class InvalidFamily(ForkcastError, ValueError):
    """A distribution family violates its parameter constraints."""


class InvalidModel(ForkcastError, ValueError):
    """A hash-rate model, or a computation asked of it, is unusable.

    For example a sampled rate is non-positive, or a simulation or
    confidence band has too few rounds or draws.
    """


class InvalidDelay(ForkcastError, ValueError):
    """A delay, fork rate or transform argument is out of its domain.

    Delays and fork rates must be 0 or positive normal floats; a transform
    argument must be finite and >= 0.
    """


class ShareSumViolation(ForkcastError, ValueError):
    """Shares passed to a concentration measure do not sum to one."""


class DegenerateHHI(ForkcastError, ValueError):
    """Concentration index of exactly one makes the inversion singular."""


class DegenerateMinerSet(InvalidModel):
    """Fewer than two miners remain where the math needs competition."""


class InvalidMoments(ForkcastError, ValueError):
    """Moment pair cannot be mapped to the requested family."""


class InvalidBits(ForkcastError, ValueError):
    """Compact target encoding decodes to a non-positive or out-of-range target."""


class NonContiguous(ForkcastError, ValueError):
    """Block stream has a height gap."""

    def __init__(self, gap_height: int):
        super().__init__(f"non-contiguous block stream: gap at height {gap_height}")
        self.gap_height = gap_height


class EmptyPeriod(ForkcastError, ValueError):
    """A period has no usable rows for the requested statistic."""


class ParseError(ForkcastError, ValueError):
    """A data file could not be parsed; carries file path and line number."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


def check_positive(value, name: str, error: type[ForkcastError]):
    """Return ``value``; raise ``error`` naming ``name`` unless it is a positive normal float.

    Outside the normal range, a parameter that later arithmetic scales,
    divides or inverts turns into infinities, zeros or lost digits.
    """
    if not sys.float_info.min <= value < math.inf:
        raise error(f"{name} must be a positive normal float, got {value!r}")
    return value
