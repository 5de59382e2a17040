"""Independent references for the benchmark's correctness checks.

Nothing here imports mdrdf. Each function restates a closed form or a
one-level water-filling from the definitions, so a fault in the package
cannot also hide in the check that judges it.

Conventions match the package: spectra are sampled on the midpoint grid
omega_k = (k + 1/2) pi / N, every integral is the plain mean over that
grid, and rates are in nats per description per source sample.

The per-frequency objective is

    L = (1/2) log(S / (2 sqrt(tp tm))) + l1 (tp + tm) + l2 S tp / (S - tm)

over the triangle 0 < tp <= tm <= S/2, whose zero-rate corner is
tp = tm = S/2. Its two slack edges have one-level water-filling solutions:

    l2 = 0:  tp = tm = min(w, S/2),      w = 1/(4 l1)
    l1 = 0:  tm = S/2, tp = min(v, S/2), v = 1/(8 l2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def midpoint_omega(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) * np.pi / n


def cosine_spectrum(n: int) -> np.ndarray:
    """S(omega) = 1 + cos(omega): unit variance, a zero at omega = pi."""
    return 1.0 + np.cos(midpoint_omega(n))


def ar1_spectrum(a: float, innovation_variance: float, n: int) -> np.ndarray:
    """AR(1) spectrum innovation_variance / |1 - a e^{-j omega}|^2."""
    om = midpoint_omega(n)
    return innovation_variance / (1.0 - 2.0 * a * np.cos(om) + a * a)


def water_level(values: np.ndarray, target: float) -> float:
    """Level t with mean(min(t, values)) == target, by sorting.

    Returns max(values) when target reaches the mean of values.
    """
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.size
    if target >= v.mean():
        return float(v[-1])
    if target <= 0.0:
        raise ValueError("target must be positive")
    # with the k smallest values below the level: sum(v[:k]) + (n - k) t = n target
    below = np.concatenate([[0.0], np.cumsum(v)])[:-1]
    levels = (n * target - below) / (n - np.arange(n))
    lower = np.concatenate([[0.0], v[:-1]])
    k = np.nonzero((levels >= lower) & (levels <= v))[0][0]
    return float(levels[k])


def sd_rate(S: np.ndarray, D: float) -> float:
    """Single-description reverse water-filling rate R(D) in nats."""
    if D >= S.mean():
        return 0.0
    theta = water_level(S, D)
    return float(np.mean(0.5 * np.log(S / np.minimum(theta, S))))


@dataclass(frozen=True)
class EdgePoint:
    """A point on one slack edge, with its integrated rate and distortions."""

    rate: float
    d_side: float
    d_central: float


def edge_lambda2_zero(S: np.ndarray, w: float) -> EdgePoint:
    """tp = tm = min(w, S/2): each description at its own SD optimum."""
    t = np.minimum(w, 0.5 * S)
    dens = np.where(t < 0.5 * S, 0.5 * np.log(S / (2.0 * t)), 0.0)
    return EdgePoint(
        float(np.mean(dens)),
        float(np.mean(2.0 * t)),
        float(np.mean(S * t / (S - t))),
    )


def edge_lambda1_zero(S: np.ndarray, v: float) -> EdgePoint:
    """tm = S/2, tp = min(v, S/2): the central description alone is tight."""
    tp = np.minimum(v, 0.5 * S)
    dens = np.where(tp < 0.5 * S, 0.25 * np.log(S / (2.0 * tp)), 0.0)
    return EdgePoint(
        float(np.mean(dens)),
        float(np.mean(0.5 * S + tp)),
        float(np.mean(2.0 * tp)),
    )


def _level_for_central_lambda2_zero(S: np.ndarray, dc: float) -> float:
    """Level w on the lambda2 = 0 edge whose D_C equals dc (bisection)."""
    lo, hi = 0.0, float(np.max(S)) * 0.5
    if edge_lambda2_zero(S, hi).d_central <= dc:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if edge_lambda2_zero(S, mid).d_central > dc:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * hi:
            break
    return lo


@dataclass(frozen=True)
class EdgeBounds:
    """What the two slack edges say about the targets (ds, dc).

    kind is "slack_central" when the lambda2 = 0 point with D_S = ds
    already has D_C <= dc, "slack_side" when the lambda1 = 0 point with
    D_C = dc already has D_S <= ds, and "equality" otherwise. For a slack
    kind, `optimum` is that edge point, which is the exact minimum rate.
    `upper` is the lowest rate among the largest feasible level on each
    edge: every feasible edge point bounds the minimum rate from above.
    """

    kind: str
    upper: float
    optimum: EdgePoint | None
    feasible: tuple[EdgePoint, ...]


def edge_bounds(S: np.ndarray, ds: float, dc: float) -> EdgeBounds:
    half = 0.5 * S
    # lambda2 = 0: D_S = mean(2 min(w, S/2)) and D_C are both increasing in w
    w_side = water_level(half, 0.5 * ds)
    w_central = _level_for_central_lambda2_zero(S, dc)
    at_side = edge_lambda2_zero(S, w_side)
    feasible = [edge_lambda2_zero(S, min(w_side, w_central))]
    optimum = None
    kind = "equality"
    if at_side.d_central <= dc:
        kind, optimum = "slack_central", at_side
    # lambda1 = 0: D_S = mean(S/2 + tp) >= var/2, D_C = mean(2 tp)
    v_central = water_level(half, 0.5 * dc)
    at_central = edge_lambda1_zero(S, v_central)
    if ds > float(np.mean(half)):
        v_side = water_level(half, ds - float(np.mean(half)))
        feasible.append(edge_lambda1_zero(S, min(v_side, v_central)))
        if at_central.d_side <= ds and optimum is None:
            kind, optimum = "slack_side", at_central
    return EdgeBounds(kind, min(p.rate for p in feasible), optimum, tuple(feasible))


def objective(S, tp, tm, l1: float, l2: float):
    """The per-frequency Lagrangian L, elementwise."""
    return (
        0.5 * np.log(S / (2.0 * np.sqrt(tp * tm)))
        + l1 * (tp + tm)
        + l2 * S * tp / (S - tm)
    )


def gradient(S, tp, tm, l1: float, l2: float):
    """(dL/dtp, dL/dtm) and the magnitude of their largest terms."""
    r = S - tm
    g_tp = -0.25 / tp + l1 + l2 * S / r
    g_tm = -0.25 / tm + l1 + l2 * S * tp / (r * r)
    scale_tp = 0.25 / tp + l1 + l2 * S / r
    scale_tm = 0.25 / tm + l1 + l2 * S * tp / (r * r)
    return g_tp, g_tm, scale_tp, scale_tm


def corner_objective(S, l1: float, l2: float):
    """L at tp = tm = S/2: rate 0, D_S density S, D_C density S."""
    return (l1 + l2) * S


def mesh_objective_min(S: np.ndarray, l1: float, l2: float, points: int = 48):
    """Smallest L per bin over a geometric mesh of the triangle.

    tm = a S/2 and tp = b tm with a, b on a log grid in [1e-6, 1]; the
    mesh includes the edge tm = S/2 and the corner itself.
    """
    g = np.geomspace(1e-6, 1.0, points)
    a, b = np.meshgrid(g, g, indexing="ij")
    tm = 0.5 * S[:, None] * a.ravel()[None, :]
    tp = tm * b.ravel()[None, :]
    return np.min(objective(S[:, None], tp, tm, l1, l2), axis=1)


def entropy_power(values: np.ndarray) -> float:
    return float(np.exp(np.mean(np.log(values))))


def entropy_power_rate(S: np.ndarray, tp: np.ndarray, tm: np.ndarray) -> float:
    """(1/2) log(P_e(S) / P_e(mask)) for the interleaved upsampled mask.

    The mask on the 2N grid holds 2 tp and 2 tm (order does not change its
    entropy power); the paper equates this with the MD rate.
    """
    mask = np.concatenate([2.0 * tp, 2.0 * tm])
    return 0.5 * (math.log(entropy_power(S)) - math.log(entropy_power(mask)))
