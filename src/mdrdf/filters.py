"""Filter construction for the time-domain coding structures.

Builds the interleaved upsampled-rate noise spectrum, the recursive
noise shaper 1 + C(z) = 1/(1 - Q(z)) from the mask predictor Q, and the
pre/post magnitude responses F and G. F and G are zero phase: real and
even in omega, so their impulse responses are real. The simulator applies
them, and its ideal half-band interpolator and decoder, on the FFT grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import MaskExceedsSource, NegativeRadicand
from .rdf import NoiseSpectra
from .spectra import PredictorCoeffs, Spectrum, optimal_predictor


@dataclass(frozen=True)
class PrePostFilters:
    """Zero-phase magnitude responses of the pre filter F and post filter G."""

    f_mag: NDArray[np.float64]
    g_mag: NDArray[np.float64]


def interleave_theta(noise: NoiseSpectra) -> Spectrum:
    """Interleave (theta_plus, theta_minus) into the upsampled-rate mask.

    On the length-2N midpoint grid the lowpass half carries the
    frequency-compressed symmetric noise, the first N bins 2 theta_plus in
    order, and the highpass half the antisymmetric noise, the last N bins
    2 theta_minus reversed; both halves then alias back onto the source
    grid bin-for-bin, without mirroring, after downsampling by two.
    """
    tp = np.asarray(noise.theta_plus, dtype=np.float64)
    tm = np.asarray(noise.theta_minus, dtype=np.float64)
    return Spectrum(np.concatenate([2.0 * tp, 2.0 * tm[::-1]]))


def noise_shaper(mask: Spectrum, order: int) -> PredictorCoeffs:
    """Mask predictor Q of the recursive noise shaper 1 + C(z) = 1/(1 - Q(z)).

    White noise of power innovation_variance through 1/(1 - Q) has the
    order-`order` autoregressive fit of the mask as its spectrum
    (spectrum_from_predictor). A flat mask needs no shaping and gives
    order 0.
    """
    pred = optimal_predictor(mask, order)
    if not np.any(np.abs(pred.coeffs) > 1e-14):
        return PredictorCoeffs(np.zeros(0), pred.innovation_variance)
    return pred


def pre_post_filters(source: Spectrum, noise: NoiseSpectra) -> PrePostFilters:
    """|F|^2 = (S - tp - tm)/S and |G|^2 = S (S - tp - tm)/(S - tm)^2."""
    S = source.values
    resid = S - noise.theta_plus - noise.theta_minus
    if np.any(resid < -1e-12 * np.maximum(S, 1.0)):
        raise NegativeRadicand("theta_plus + theta_minus exceeds the source spectrum")
    resid = np.maximum(resid, 0.0)
    f_mag = np.sqrt(resid / S)
    g_mag = np.sqrt(S * resid) / (S - noise.theta_minus)
    return PrePostFilters(f_mag=f_mag, g_mag=g_mag)


def sd_prefilter(source: Spectrum, mask: Spectrum) -> NDArray[np.float64]:
    """Single-description pre-filter magnitude |F| = sqrt((S - D)/S)."""
    S, D = source.values, mask.values
    if np.any(D > S * (1.0 + 1e-12)):
        raise MaskExceedsSource("distortion mask exceeds the source spectrum")
    return np.sqrt(np.maximum(S - D, 0.0) / S)
