"""Sampled power spectral densities and linear prediction.

Spectra are stored on a midpoint frequency grid over (0, pi),
omega_k = (k + 1/2) * pi / N, with even symmetry over [-pi, pi] implied.
All integrals (1/2pi) int_{-pi}^{pi} f(omega) d omega become (1/N) sum_k f_k
on this half grid (evenness folds the factor 2). The midpoint rule never
samples omega = 0 or omega = pi, so spectra with isolated endpoint zeros
stay strictly positive on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import LagTooLarge, NonPositiveSpectrum, SingularToeplitz

DEFAULT_GRID_SIZE = 4096


def midpoint_omega(grid_size: int) -> NDArray[np.float64]:
    """Midpoint frequency grid (k + 1/2) * pi / N over (0, pi)."""
    return (np.arange(grid_size) + 0.5) * np.pi / grid_size


@dataclass(frozen=True)
class Spectrum:
    """Nonnegative power spectral density sampled on the midpoint grid."""

    values: NDArray[np.float64]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("spectrum values must be a nonempty 1-D array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("spectrum values must be finite")
        if np.any(vals < 0.0):
            raise ValueError("spectrum values must be nonnegative")
        object.__setattr__(self, "values", vals)

    @property
    def grid_size(self) -> int:
        return self.values.size

    @property
    def omega(self) -> NDArray[np.float64]:
        return midpoint_omega(self.grid_size)

    @property
    def variance(self) -> float:
        """Total variance sigma^2 = (1/N) sum values."""
        return float(np.mean(self.values))


def flat_spectrum(variance: float, grid_size: int = DEFAULT_GRID_SIZE) -> Spectrum:
    """White-source spectrum, constant equal to its variance."""
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    return Spectrum(np.full(grid_size, float(variance)))


@dataclass(frozen=True)
class PredictorCoeffs:
    """Finite-order one-step predictor a_1..a_P and its error variance.

    The predictor forms xhat[n] = sum_k a_k x[n-k]; innovation_variance is
    the order-P prediction-error variance. 1 - A(z) is minimum phase for
    coefficients produced by the Levinson recursion (all |kappa| < 1).
    """

    coeffs: NDArray[np.float64]
    innovation_variance: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.float64))
        object.__setattr__(self, "coeffs", c)
        if self.innovation_variance <= 0:
            raise ValueError("innovation variance must be positive")

    @property
    def order(self) -> int:
        return self.coeffs.size

    def is_minimum_phase(self) -> bool:
        """True when every reflection coefficient satisfies |kappa| < 1.

        Steps the Levinson recursion down from the last coefficient, which
        is the last kappa, and stops at the first kappa outside (-1, 1).
        """
        a = self.coeffs
        for i in range(a.size, 0, -1):
            k = a[i - 1]
            if not -1.0 < k < 1.0:
                return False
            a = (a[: i - 1] + k * a[: i - 1][::-1]) / (1.0 - k * k)
        return True


def entropy_power(spectrum: Spectrum) -> float:
    """exp of the mean log of the spectrum (midpoint-rule log integral).

    Raises NonPositiveSpectrum when any grid value is <= 0; regularize
    first for spectra that touch zero.
    """
    vals = spectrum.values
    if np.any(vals <= 0.0):
        raise NonPositiveSpectrum("spectrum has nonpositive values; regularize first")
    return float(np.exp(np.mean(np.log(vals))))


def autocorrelation(spectrum: Spectrum, lags: int) -> NDArray[np.float64]:
    """Autocorrelation r[0..lags] of the spectrum on the grid.

    r[m] = (1/N) sum_k S_k cos(m omega_k); r[0] is the variance. On the
    midpoint grid this is a DCT-II of S, taken as one 2N-point rfft whose
    bin m is turned by the half-bin phase exp(-i m pi / 2N).
    """
    if lags < 0:
        raise ValueError("lags must be nonnegative")
    n = spectrum.grid_size
    if lags > n // 2:
        raise LagTooLarge(f"lags={lags} exceeds N/2={n // 2}")
    turn = np.exp(-0.5j * np.pi * np.arange(lags + 1) / n)
    return (np.fft.rfft(spectrum.values, 2 * n)[: lags + 1] * turn).real / n


def _levinson(r: NDArray[np.float64], order: int):
    a = np.zeros(order)
    e = float(r[0])
    for i in range(1, order + 1):
        if e <= 0.0:
            raise SingularToeplitz("prediction error variance vanished")
        acc = r[i] - np.dot(a[: i - 1], r[i - 1 : 0 : -1])
        k = acc / e
        if abs(k) >= 1.0:
            raise SingularToeplitz(f"|kappa_{i}| = {abs(k):.3g} >= 1")
        a_prev = a[: i - 1].copy()
        a[i - 1] = k
        a[: i - 1] = a_prev - k * a_prev[::-1]
        e *= 1.0 - k * k
    return a, e


def optimal_predictor(spectrum: Spectrum, order: int) -> PredictorCoeffs:
    """Levinson-Durbin solution of the Yule-Walker system for the spectrum.

    The innovation variance is nonincreasing in the order and tends to the
    entropy power as the order grows.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if np.any(spectrum.values <= 0.0):
        raise NonPositiveSpectrum("spectrum must be strictly positive")
    r = autocorrelation(spectrum, order)
    a, e = _levinson(r, order)
    return PredictorCoeffs(coeffs=a, innovation_variance=e)


def spectrum_from_predictor(
    coeffs: PredictorCoeffs, grid_size: int = DEFAULT_GRID_SIZE
) -> Spectrum:
    """AR spectrum innovation_variance / |1 - A(e^{j omega})|^2 on the grid."""
    om = midpoint_omega(grid_size)
    denom = np.ones(grid_size, dtype=complex)
    for k, a_k in enumerate(coeffs.coeffs, start=1):
        denom -= a_k * np.exp(-1j * k * om)
    return Spectrum(coeffs.innovation_variance / np.abs(denom) ** 2)


def regularize(spectrum: Spectrum, eps: float):
    """Clip the spectrum below at eps (Paley-Wiener guard).

    Returns (clipped spectrum, distortion credit d_eps) where
    d_eps = (1/N) sum max(0, eps - S_k) is the mean power the clip adds.
    The credit is reported, not applied: callers compute distortions and
    meet distortion targets on the clipped spectrum, and report d_eps
    beside the result (the CLI's `d_eps` field). Idempotent for fixed eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    clipped = np.maximum(spectrum.values, eps)
    d_eps = float(np.mean(np.maximum(0.0, eps - spectrum.values)))
    return Spectrum(clipped), d_eps
