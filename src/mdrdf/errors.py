"""Exception and warning types raised by the mdrdf library."""


class MdrdfError(Exception):
    """Base class for all mdrdf errors."""


class NonPositiveSpectrum(MdrdfError):
    """A spectrum required to be strictly positive has a value <= 0."""


class LagTooLarge(MdrdfError, ValueError):
    """Requested autocorrelation lag exceeds what the grid supports.

    Also a ValueError: a grid too short for the filter orders is a
    configuration error, not a numeric failure.
    """


class SingularToeplitz(MdrdfError):
    """Levinson recursion produced |kappa| >= 1 (degenerate spectrum)."""


class DegenerateDistortion(MdrdfError):
    """Distortion pair lies outside the non-degenerate region."""


class RegionViolation(MdrdfError):
    """Noise-variance pair lies outside its admissible region."""


class ZeroNoise(MdrdfError):
    """A noise variance that must be positive is zero."""


class DomainError(MdrdfError):
    """Arguments outside the open domain of the objective."""


class TargetInfeasible(MdrdfError):
    """No multiplier pair within the search bounds meets the targets."""


class NoConvergence(MdrdfError):
    """Iterative fit did not reach the requested tolerance."""


class MaskExceedsSource(MdrdfError):
    """Distortion mask exceeds the source spectrum somewhere."""


class NegativeRadicand(MdrdfError):
    """Filter magnitude formula received a negative radicand."""


class SignalTooShort(MdrdfError):
    """Signal too short for the requested spectral estimate."""


class KernelUnavailableWarning(RuntimeWarning):
    """The compiled kernel could not be built or loaded; Python and scipy run."""
