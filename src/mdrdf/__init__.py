"""Symmetric two-description rate-distortion analysis for Gaussian spectra.

Closed-form per-frequency solutions parametrized by two multipliers,
white-source closed forms, filter construction, and sample-level
simulation of the prediction / noise-shaping coding structures.
"""

__version__ = "0.1.0"

from .rdf import NoiseSpectra, RdfPoint, evaluate, fit_lambdas, sweep
from .spectra import (
    DEFAULT_GRID_SIZE,
    PredictorCoeffs,
    Spectrum,
    autocorrelation,
    entropy_power,
    flat_spectrum,
    midpoint_omega,
    optimal_predictor,
    regularize,
    spectrum_from_predictor,
)
from .spectral_solver import LagrangePair, solve_spectrum
from .white_md import (
    DistortionPair,
    ThetaPair,
    is_nondegenerate,
    ozarow_rate,
    r0,
    theta_to_distortions,
)

__all__ = [
    "DEFAULT_GRID_SIZE",
    "DistortionPair",
    "LagrangePair",
    "NoiseSpectra",
    "PredictorCoeffs",
    "RdfPoint",
    "Spectrum",
    "ThetaPair",
    "autocorrelation",
    "entropy_power",
    "evaluate",
    "fit_lambdas",
    "flat_spectrum",
    "is_nondegenerate",
    "midpoint_omega",
    "optimal_predictor",
    "ozarow_rate",
    "r0",
    "regularize",
    "solve_spectrum",
    "spectrum_from_predictor",
    "sweep",
    "theta_to_distortions",
]
