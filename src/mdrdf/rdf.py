"""Full-spectrum rate-distortion points from per-frequency solutions.

evaluate() sweeps the closed-form per-frequency solver across the grid and
integrates rate and distortions by the midpoint rule; fit_lambdas() inverts
the map from multipliers to distortions, returning the exact edge point
with one zero multiplier when a distortion constraint is slack; sweep()
tabulates operating points for CSV emission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError, NoConvergence, TargetInfeasible
from .spectra import Spectrum
from .spectral_solver import LagrangePair, solve_spectrum
from .white_md import DistortionPair, ThetaPair

# clamp of the equality root-find's multipliers
FIT_BOUNDS = (1e-8, 1e8)


@dataclass(frozen=True)
class NoiseSpectra:
    """Optimal noise spectra on the source grid, with the zero-rate mask."""

    theta_plus: NDArray[np.float64]
    theta_minus: NDArray[np.float64]
    boundary_mask: NDArray[np.bool_]


@dataclass(frozen=True)
class RdfPoint:
    """One solved operating point; rate is per description in nats/sample."""

    lambdas: LagrangePair
    rate: float
    d_side: float
    d_central: float
    spectra: NoiseSpectra

    @property
    def rate_bits(self) -> float:
        return self.rate / math.log(2.0)


def rate_density(S: float, theta_plus: float, theta_minus: float) -> float:
    """Per-frequency rate (1/2) log(S / (2 sqrt(tp tm))), zero at the corner."""
    half = 0.5 * S
    if theta_plus == half and theta_minus == half:
        return 0.0
    if not (0.0 < theta_plus <= theta_minus <= half * (1.0 + 1e-12)):
        raise DomainError(f"(tp, tm)=({theta_plus}, {theta_minus}) outside the triangle")
    return 0.5 * math.log(S / (2.0 * math.sqrt(theta_plus * theta_minus)))


def evaluate(spectrum: Spectrum, lam: LagrangePair) -> RdfPoint:
    """Solve every grid frequency and integrate rate and distortions.

    Boundary (zero-rate) frequencies contribute rate 0 and distortion
    densities D_S = D_C = S exactly.
    """
    S = spectrum.values
    tp, tm, boundary = solve_spectrum(S, lam)
    with np.errstate(divide="ignore"):
        dens = 0.5 * np.log(S / (2.0 * np.sqrt(tp * tm)))
    dens = np.where(boundary, 0.0, dens)
    rate = float(np.mean(dens))
    d_side = float(np.mean(tp + tm))
    d_central = float(np.mean(S * tp / (S - tm)))
    return RdfPoint(
        lambdas=lam,
        rate=max(rate, 0.0),
        d_side=d_side,
        d_central=min(d_central, d_side),
        spectra=NoiseSpectra(tp, tm, boundary),
    )


def high_rate_approx(lam: LagrangePair) -> ThetaPair:
    """Flat high-rate noise pair tm = 1/(4 l1), tp = 1/(4 (l1 + l2)).

    Needs lambda1 > 0: with a slack side constraint tm is unbounded.
    """
    if lam.lambda1 == 0.0:
        raise ValueError("high-rate approximation needs lambda1 > 0")
    return ThetaPair(
        theta_plus=0.25 / (lam.lambda1 + lam.lambda2),
        theta_minus=0.25 / lam.lambda1,
    )


def sweep(
    spectrum: Spectrum,
    lambda1_values: Sequence[float],
    lambda2_values: Sequence[float],
) -> list[RdfPoint]:
    """evaluate() over the product grid of multipliers, row-major in lambda1."""
    return [
        evaluate(spectrum, LagrangePair(l1, l2))
        for l1 in lambda1_values
        for l2 in lambda2_values
    ]


def _water_level(values: NDArray[np.float64], target: float) -> float:
    """Level t with mean(min(t, values)) == target over sorted values.

    Returns the largest value once target reaches the mean of values.
    """
    n = values.size
    below = np.concatenate(([0.0], np.cumsum(values)[:-1]))  # sum of values[:k]
    reach = (below + (n - np.arange(n)) * values) / n  # mean(min(values[k], values))
    k = int(np.searchsorted(reach, target))
    if k == n:
        return float(values[-1])
    return float((n * target - below[k]) / (n - k))


def fit_lambdas(spectrum: Spectrum, target: DistortionPair, tol: float = 1e-6) -> RdfPoint:
    """Find the minimum-rate multiplier pair for the distortion targets.

    By KKT a slack constraint has a zero multiplier, and on each slack
    edge the optimum is a single reverse water level on S/2:

        lambda2 = 0:  tp = tm = min(w, S/2),       lambda1 = 1/(4 w)
        lambda1 = 0:  tm = S/2, tp = min(v, S/2),  lambda2 = 1/(8 v)

    w puts D_S at its target on the first edge, where the rate is the
    single-description R(D_S); v puts D_C at its target on the second,
    where twice the rate is R(D_C). Neither rate can be beaten, so when
    the first point also has D_C <= dc, or the second D_S <= ds (each
    within tol), that edge point is returned with one multiplier exactly
    0. Otherwise both constraints are active, and a Newton root-find on
    log-multipliers solves (D_S, D_C) = targets, started from the
    stationarity inversion at the average power and then from three
    seeds built from w and v.
    """
    sigma2 = spectrum.variance
    ds, dc = target.d_side, target.d_central
    if not (0.0 < dc <= ds):
        raise TargetInfeasible(f"need 0 < D_C <= D_S, got ({ds}, {dc})")
    if ds > sigma2 * (1.0 + 1e-9):
        raise TargetInfeasible(f"D_S={ds} exceeds the source variance {sigma2}")

    half = np.sort(0.5 * spectrum.values)
    w = _water_level(half, 0.5 * ds)
    t = np.minimum(w, half)
    if float(np.mean(2.0 * half * t / (2.0 * half - t))) <= dc + tol:
        return evaluate(spectrum, LagrangePair(0.25 / w, 0.0))
    v = _water_level(half, 0.5 * dc)
    if float(np.mean(half + np.minimum(v, half))) <= ds + tol:
        return evaluate(spectrum, LagrangePair(0.0, 0.125 / v))

    l1, l2 = 0.25 / w, 0.125 / v  # the two edge points' multipliers
    for seed in (_analytic_seed(sigma2, ds, dc), (l1, 1e-3 * l1), (l1, l2), (1e-3 * l2, l2)):
        pt = None if seed is None else _newton_fit(spectrum, ds, dc, seed, tol)
        if pt is not None:
            return pt
    raise NoConvergence(f"fit stalled above tol={tol} for targets ({ds}, {dc})")


def _analytic_seed(sigma2, ds, dc):
    """Invert the per-frequency stationarity conditions at the average
    power sigma2; exact for white spectra, a good start elsewhere."""
    lo, hi = FIT_BOUNDS
    if sigma2 <= dc:
        return None
    tm = sigma2 * (ds - dc) / (sigma2 - dc)
    if not 0.0 < tm < 0.5 * sigma2:
        return None
    tp = ds - tm
    if not (0.0 < tp < tm and sigma2 - tm - tp > 0):
        return None
    l2 = (0.25 / tp - 0.25 / tm) * (sigma2 - tm) ** 2 / (sigma2 * (sigma2 - tm - tp))
    l1 = 0.25 / tp - l2 * sigma2 / (sigma2 - tm)
    if not (l1 > 0 and l2 > 0):
        return None
    return min(max(l1, lo), hi), min(max(l2, lo), hi)


def _newton_fit(spectrum, ds, dc, seed, tol):
    from scipy import optimize

    lo, hi = FIT_BOUNDS

    # soft clamp: keeps exp() finite without flattening the Jacobian at the
    # search bounds the way a hard clamp would
    u_lo, u_hi = math.log(lo) - 30.0, math.log(hi) + 30.0

    def residual(u):
        l1 = math.exp(min(max(u[0], u_lo), u_hi))
        l2 = math.exp(min(max(u[1], u_lo), u_hi))
        pt = evaluate(spectrum, LagrangePair(l1, l2))
        return [
            math.log(max(pt.d_side, 1e-300) / ds),
            math.log(max(pt.d_central, 1e-300) / dc),
        ]

    sol = optimize.root(
        residual, x0=np.log(np.asarray(seed)), method="hybr", options={"xtol": 1e-13}
    )
    l1 = math.exp(min(max(sol.x[0], math.log(lo)), math.log(hi)))
    l2 = math.exp(min(max(sol.x[1], math.log(lo)), math.log(hi)))
    pt = evaluate(spectrum, LagrangePair(l1, l2))
    if abs(pt.d_side - ds) <= tol and abs(pt.d_central - dc) <= tol:
        return pt
    return None
