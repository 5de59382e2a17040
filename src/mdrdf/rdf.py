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

from .errors import NoConvergence, TargetInfeasible
from .spectra import Spectrum
from .spectral_solver import LagrangePair, lagrangian_hessian, solve_spectrum
from .white_md import DistortionPair

# The equality fit stops once both distortions are within this fraction of
# their targets, a few ulps of the integrals, or once a step no longer
# shrinks a residual that already meets tol.
FIT_RTOL = 1e-12
FIT_MAX_EVALUATIONS = 60
# first and largest trust radius in log-multiplier coordinates
FIT_RADIUS = 1.5
FIT_MAX_RADIUS = 10.0
# fraction of the dual's predicted rise that a step must realize
FIT_MIN_GAIN_RATIO = 1e-4


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


def densities(S: NDArray[np.float64], noise: NoiseSpectra):
    """Per-bin rate (nats), D_S and D_C densities of the noise spectra.

    Boundary (zero-rate) bins have rate 0 and D_S = S, with D_C = S to an ulp.
    """
    tp, tm = noise.theta_plus, noise.theta_minus
    with np.errstate(divide="ignore"):
        rate = 0.5 * np.log(S / (2.0 * np.sqrt(tp * tm)))
    return np.where(noise.boundary_mask, 0.0, rate), tp + tm, S * tp / (S - tm)


def evaluate(spectrum: Spectrum, lam: LagrangePair) -> RdfPoint:
    """Solve every grid frequency and integrate rate and distortions."""
    noise = NoiseSpectra(*solve_spectrum(spectrum.values, lam))
    rate, d_side, d_central = (float(np.mean(d)) for d in densities(spectrum.values, noise))
    return RdfPoint(
        lambdas=lam,
        rate=rate,
        d_side=d_side,
        # a zero-rate bin's S (S/2) / (S - S/2) can round one ulp above its D_S = S
        d_central=min(d_central, d_side),
        spectra=noise,
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


def distortion_jacobian(spectrum: Spectrum, point: RdfPoint) -> NDArray[np.float64]:
    """Exact J = d(D_S, D_C)/d(lambda1, lambda2) at an evaluated point.

    By the envelope theorem J is the Hessian of the concave dual
    g(lambda) = mean_k min_theta L_k - lambda1 ds - lambda2 dc, so it is
    symmetric and negative semidefinite. Per bin:

    - interior: implicit differentiation of grad_theta L = 0 gives
      -B^T H^-1 B, with H the objective's 2x2 Hessian in (tp, tm) and
      B = d(grad_theta L)/d(lambda), columns (1, 1) and
      (S/(S - tm), S tp/(S - tm)^2);
    - pinned at tm = S/2: tp = 1/(4 (lambda1 + 2 lambda2)) gives
      -4 tp^2 [[1, 2], [2, 4]];
    - zero-rate corner: 0.

    Off the corner, bins are pinned only at lambda1 = 0, where all of them
    are; lambda1 cannot fall there, and only J's lambda2 column is a
    derivative. Built from the point's noise spectra; no further solve.
    """
    S = spectrum.values
    tp, tm = point.spectra.theta_plus, point.spectra.theta_minus
    corner = point.spectra.boundary_mask
    edge = ~corner & (tm >= 0.5 * S)
    inner = ~corner & ~edge
    S, tp, tm = S[inner], tp[inner], tm[inner]
    b1 = S / (S - tm)  # second column of B
    b2 = b1 * tp / (S - tm)
    h11, h12, h22 = lagrangian_hessian(S, tp, tm, point.lambdas)
    det = h11 * h22 - h12 * h12
    # x^T H^-1 y for the columns x, y of B
    j11 = (h11 + h22 - 2.0 * h12) / det
    j12 = (h22 * b1 - h12 * (b1 + b2) + h11 * b2) / det
    j22 = (h22 * b1 * b1 - 2.0 * h12 * b1 * b2 + h11 * b2 * b2) / det
    e = 4.0 * np.sum(point.spectra.theta_plus[edge] ** 2)
    n = spectrum.grid_size
    return -np.array(
        [
            [np.sum(j11) + e, np.sum(j12) + 2.0 * e],
            [np.sum(j12) + 2.0 * e, np.sum(j22) + 4.0 * e],
        ]
    ) / n


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
    0. Otherwise both constraints are active and one trust-region Newton
    iteration maximizes the concave dual
    g(lambda) = R + lambda1 (D_S - ds) + lambda2 (D_C - dc), whose
    gradient is the distortion residual and whose Hessian is
    distortion_jacobian(). It starts from the stationarity inversion at
    the average power, or from the edge multipliers (1/(4 w), 1/(8 v))
    where that inversion has no positive solution, and iterates until
    the residual is at rounding level. NoConvergence is raised if it
    ends with a residual above tol, which must be positive and finite,
    or if an edge point misses its binding target by more than tol.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
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
        return _edge_point(spectrum, LagrangePair(0.25 / w, 0.0), ds, dc, tol)
    v = _water_level(half, 0.5 * dc)
    if float(np.mean(half + np.minimum(v, half))) <= ds + tol:
        return _edge_point(spectrum, LagrangePair(0.0, 0.125 / v), ds, dc, tol)
    seed = _analytic_seed(sigma2, ds, dc) or (0.25 / w, 0.125 / v)
    return _newton_fit(spectrum, ds, dc, seed, tol)


def _edge_point(spectrum, lam, ds, dc, tol):
    """The slack-edge point at lam, checked as the Newton result is: its
    binding distortion within tol of its target, and the slack one at most
    tol above its own. A target above the variance, which the fit admits
    to rounding, binds at the variance."""
    pt = evaluate(spectrum, lam)
    if lam.lambda2 == 0.0:
        binding, target, slack, limit = pt.d_side, ds, pt.d_central, dc
    else:
        binding, target, slack, limit = pt.d_central, dc, pt.d_side, ds
    if abs(binding - min(target, spectrum.variance)) <= tol and slack <= limit + tol:
        return pt
    raise NoConvergence(
        f"slack-edge point at multipliers ({lam.lambda1:.3g}, {lam.lambda2:.3g}) has "
        f"(D_S, D_C) = ({pt.d_side:.3g}, {pt.d_central:.3g}), off the targets "
        f"({ds}, {dc}) by more than tol={tol}"
    )


def _analytic_seed(sigma2, ds, dc):
    """Invert the per-frequency stationarity conditions at the average
    power sigma2; exact for white spectra, a good start elsewhere."""
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
    return l1, l2


def _newton_fit(spectrum, ds, dc, seed, tol):
    """Maximize the dual g from seed by trust-region Newton steps in log lambda.

    In u = log lambda the gradient of g is b = lambda * r, and
    A = -diag(lambda) J diag(lambda) is positive definite, so the model
    b^T s - s^T A s / 2 has its maximum at the Newton step A^-1 b, which
    is the Newton step in lambda divided by lambda. A step is the dogleg
    maximizer of the model within the trust radius; moving along u keeps
    both multipliers positive. A trial point is taken if g rises by more
    than FIT_MIN_GAIN_RATIO of the model's prediction, up to rounding,
    and keeps a bin off the zero-rate corner, where J would vanish. The
    radius shrinks after a poor prediction and doubles, up to
    FIT_MAX_RADIUS, after a good one.
    """
    d = np.array([ds, dc])

    def at(lam):
        """The point, its residual, the dual, and the size of the dual's
        terms, which sets the rounding slack of a gain."""
        pt = evaluate(spectrum, LagrangePair(*lam))
        dist = np.array([pt.d_side, pt.d_central])
        return pt, dist - d, pt.rate + lam @ (dist - d), pt.rate + lam @ (dist + d)

    lam = np.asarray(seed, dtype=np.float64)
    pt, r, g, scale = at(lam)
    evaluations = 1
    radius = FIT_RADIUS
    while np.any(np.abs(r) > FIT_RTOL * d) and evaluations < FIT_MAX_EVALUATIONS:
        A = -lam[:, None] * distortion_jacobian(spectrum, pt) * lam
        b = lam * r
        try:
            step = _dogleg(A, b, radius)
        except np.linalg.LinAlgError:  # a seed with every bin at the corner
            break
        trial = lam * np.exp(step)
        trial_pt, trial_r, trial_g, trial_scale = at(trial)
        evaluations += 1
        ratio = -math.inf
        if not np.all(trial_pt.spectra.boundary_mask):
            ratio = (trial_g - g + 1e-13 * scale) / (b @ step - 0.5 * step @ A @ step)
        length = math.hypot(*step)
        if ratio < 0.25:
            radius = 0.25 * length
        elif ratio > 0.75 and length > 0.99 * radius:
            radius = min(2.0 * radius, FIT_MAX_RADIUS)
        if ratio <= FIT_MIN_GAIN_RATIO:
            continue
        if np.all(np.abs(r) <= tol) and np.max(np.abs(trial_r) / d) >= np.max(np.abs(r) / d):
            break  # at rounding level: a step no longer shrinks the residual
        lam, pt, r, g, scale = trial, trial_pt, trial_r, trial_g, trial_scale
    if np.all(np.abs(r) <= tol):
        return pt
    raise NoConvergence(
        f"fit stalled at residual ({r[0]:.3g}, {r[1]:.3g}) above tol={tol} "
        f"for targets ({ds}, {dc}) after {evaluations} evaluations"
    )


def _dogleg(A, b, radius):
    """Dogleg maximizer of b^T s - s^T A s / 2 over |s| <= radius, A > 0."""
    newton = np.linalg.solve(A, b)
    if math.hypot(*newton) <= radius:
        return newton
    cauchy = (b @ b) / (b @ A @ b) * b  # the model's maximum along b
    to_newton = newton - cauchy
    # |cauchy + tau to_newton| = radius, tau in [0, 1], or cut the gradient leg
    qa, qb = to_newton @ to_newton, cauchy @ to_newton
    qc = cauchy @ cauchy - radius * radius
    if qc >= 0.0:
        return radius / math.hypot(*cauchy) * cauchy
    tau = -qc / (qb + math.sqrt(qb * qb - qa * qc))
    return cauchy + tau * to_newton
