"""Exception types shared across the package.

Every error raised on purpose derives from KGFLRWError so callers can catch
package failures without masking genuine bugs.
"""

from __future__ import annotations


class KGFLRWError(Exception):
    """Base class for package-specific errors."""


class NegativeTime(KGFLRWError):
    """Scale factor evaluated at t < 0."""


class TimeBeyondHorizon(KGFLRWError):
    """Scale factor evaluated at or past the end of its domain of validity."""


class NoAdmissibleT0(KGFLRWError):
    """No start time can satisfy the expansion-rate threshold."""


class ComplexInputToRealNonlinearity(KGFLRWError):
    """A real-only nonlinearity received complex data (any imaginary part)."""


class GridMismatch(KGFLRWError):
    """Two fields live on different grids."""


class WidthTooLarge(KGFLRWError):
    """Localized profile width does not fit inside the box."""


class WidthTooSmall(KGFLRWError):
    """Localized profile width is unresolvable on the grid (under 4 cells)."""


class TooFewSamples(KGFLRWError):
    """Too few recorded rows above the tail threshold to fit a blow-up time."""


class HorizonTooShort(KGFLRWError):
    """No certificate applies, and one would if its bound did not fall past
    the background's horizon."""


class WrapAroundRisk(KGFLRWError):
    """The support of localized data already fills the box, so the run
    cannot start. A margin exhausted mid-run is not an error: the trace ends
    there with the blow-up reason "wrap_around"."""


class NoVanishBeforeT(KGFLRWError):
    """The concavity ODE solution stayed positive up to the target time."""


class ParseError(KGFLRWError):
    """Malformed config or report text. ``line`` is 1-based when known."""

    def __init__(self, msg: str, line: int | None = None):
        super().__init__(msg if line is None else f"line {line}: {msg}")
        self.line = line


class UnknownKey(ParseError):
    """Config key is not part of the schema."""


class InvariantViolation(KGFLRWError):
    """A module-level invariant failed. ``module`` names the offender."""

    def __init__(self, module: str, msg: str):
        super().__init__(f"{module}: {msg}")
        self.module = module
