"""Closed-form per-frequency (white-source) two-description quantities.

Everything here concerns a single Gaussian variance sigma2 and a symmetric
pair of descriptions. Rates are in nats; convert to bits at presentation.
The (theta_plus, theta_minus) pair parametrizes the side noises: the
symmetric component theta_plus survives central averaging, the
antisymmetric component theta_minus cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateDistortion, RegionViolation, ZeroNoise

# Closed inequalities admit boundary points (zero-rate corner, SD-optimal edge).
REGION_TOL = 1e-12


@dataclass(frozen=True)
class ThetaPair:
    """Variances of the symmetric (plus) and antisymmetric (minus) noises."""

    theta_plus: float
    theta_minus: float

    def __post_init__(self):
        if self.theta_plus < 0 or self.theta_minus < 0:
            raise ValueError("noise variances must be nonnegative")


@dataclass(frozen=True)
class DistortionPair:
    """Side and central mean squared errors."""

    d_side: float
    d_central: float

    def __post_init__(self):
        if self.d_side < 0 or self.d_central < 0:
            raise ValueError("distortions must be nonnegative")
        if self.d_central > self.d_side * (1.0 + 1e-12):
            raise ValueError("central distortion cannot exceed side distortion")


def is_nondegenerate(sigma2: float, d: DistortionPair) -> bool:
    """True when neither constraint of the admissible region is slack.

    The three inequalities are D_S <= sigma2, D_C >= 2 D_S - sigma2 and
    1/D_C >= 2/D_S - 1/sigma2, all closed with a small tolerance. The third
    is checked in the cleared-denominator form
    D_S sigma2 + D_C D_S - 2 D_C sigma2 >= 0 so zero distortions need no
    special casing.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    tol = REGION_TOL * sigma2
    ds, dc = d.d_side, d.d_central
    if ds > sigma2 + tol:
        return False
    if dc < 2.0 * ds - sigma2 - tol:
        return False
    return ds * sigma2 + dc * ds - 2.0 * dc * sigma2 >= -tol * sigma2


def ozarow_rate(sigma2: float, d: DistortionPair) -> float:
    """Minimum symmetric per-description rate for a white source, in nats.

    R = (1/4) log( sigma2 (sigma2 - D_C)^2 / (4 D_C (D_S - D_C)(sigma2 - D_S)) ),
    valid on the non-degenerate region.
    """
    if not is_nondegenerate(sigma2, d):
        raise DegenerateDistortion(f"({sigma2}, {d}) outside the admissible region")
    ds, dc = d.d_side, d.d_central
    tol = REGION_TOL * sigma2
    if ds >= sigma2 - tol and dc >= sigma2 - tol:
        return 0.0  # zero-rate corner
    if dc <= 0.0 or ds - dc <= 0.0 or sigma2 - ds <= 0.0:
        return math.inf
    ratio = sigma2 * (sigma2 - dc) ** 2 / (4.0 * dc * (ds - dc) * (sigma2 - ds))
    return max(0.25 * math.log(ratio), 0.0)


def _check_region(sigma2: float, t: ThetaPair) -> None:
    tol = REGION_TOL * max(1.0, sigma2)
    if not (t.theta_plus <= t.theta_minus + tol and t.theta_minus <= 0.5 * sigma2 + tol):
        raise RegionViolation(
            f"(theta_plus, theta_minus)=({t.theta_plus}, {t.theta_minus}) outside "
            f"0 <= theta_plus <= theta_minus <= sigma2/2 = {0.5 * sigma2}"
        )


def theta_to_distortions(sigma2: float, t: ThetaPair) -> DistortionPair:
    """Distortions induced by a noise pair inside the triangular region.

    D_S = theta_plus + theta_minus; D_C = sigma2 theta_plus / (sigma2 - theta_minus).
    """
    _check_region(sigma2, t)
    d_side = t.theta_plus + t.theta_minus
    d_central = sigma2 * t.theta_plus / (sigma2 - t.theta_minus)
    return DistortionPair(d_side=d_side, d_central=min(d_central, d_side))


def r0(sigma2: float, t: ThetaPair) -> float:
    """Rate (1/2) log( sigma2 / (2 sqrt(theta_plus theta_minus)) ), in nats."""
    if t.theta_plus <= 0.0 or t.theta_minus <= 0.0:
        raise ZeroNoise("both noise variances must be positive")
    return 0.5 * math.log(sigma2 / (2.0 * math.sqrt(t.theta_plus * t.theta_minus)))
