"""Exception hierarchy shared by all numerical modules."""

from __future__ import annotations


class OscflagError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(OscflagError):
    """Operands have incompatible dimensions or jet signatures."""


class SingularityError(OscflagError):
    """An analytic operation was applied outside its domain (e.g. 1/x at 0)."""


class DataError(OscflagError):
    """Input data contains NaN/Inf or is otherwise unusable."""


class DomainError(OscflagError):
    """A chart was evaluated outside its declared coordinate box."""


class CapabilityError(OscflagError):
    """A derivative order beyond the chart's declared analytic order was requested."""


class NotImmersionError(OscflagError):
    """The Jacobian dropped rank at an evaluation point."""


class RegularityError(OscflagError):
    """A normal-flag rank is ambiguous across the tolerance band.

    ``level`` names the offending flag stage (1 = first normal space).
    """

    def __init__(self, message: str, level: int | None = None):
        super().__init__(message)
        self.level = level


class ContainmentError(OscflagError):
    """A subspace expected to be contained in another is not.

    ``residual`` carries the worst projection residual observed.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class ParameterError(OscflagError):
    """An argument is outside its documented range."""


class FrameError(OscflagError):
    """A pivoted projection frame lost rank across a stencil."""


class NumericalRankError(OscflagError):
    """A computed rank violates a dimension bound beyond tolerance."""


class LRankError(NumericalRankError):
    """L is not a normal subbundle with 0 < rank L < N - n at a point."""


class GammaBandError(NumericalRankError):
    """dim Gamma leaves the band n - d <= k <= n - d + ell."""


class DegenerateExtensionError(OscflagError):
    """No tubular radius above the floor keeps the extension an immersion."""


class DegeneracyError(OscflagError):
    """A verification run could not find enough usable sample points."""


class UsageError(OscflagError):
    """Bad command line or run configuration."""
