"""Per-frequency closed-form minimization of the two-multiplier objective.

For a source power S at one frequency and nonnegative multipliers
(lambda1, lambda2), not both zero, the objective

    L = (1/2) log( S / (2 sqrt(tp tm)) ) + lambda1 (tp + tm)
        + lambda2 S tp / (S - tm)

is minimized over the triangle 0 <= tp <= tm <= S/2. The stationary tm is
a root of a monic cubic whose real roots are all positive; the admissible
root is the smallest real root, which is the paper's x2 when the
discriminant is negative and x1 otherwise. Frequencies outside the
support set fall back to the zero-rate corner tp = tm = S/2; those that
fail the support test even at tm = S/2 are never put through the cubic.

The solver takes the dominant root x1, which has no cancellation, and
deflates it by Vieta's relations to get the smallest root from a
cancellation-free quadratic formula, with Newton polishing of both. It
does not depend on the sign of the discriminant, which rounding loses
when lambda2 >> lambda1; the tests check it against a 60-digit reference
for S in [1e-6, 1e6] and multipliers in [1e-8, 1e8]. This module is the
production path only; the paper's closed forms (Cardano, the
trigonometric roots, the appendix roots in lambda2) and the brute-force
oracle live in mdrdf.verify. solve_spectrum is the one per-frequency
solve: it takes a scalar source power or an array of any shape, returns
outputs of the input's shape, and gives each bin the same bits whatever
that shape. The other functions accept scalars or numpy arrays
elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError

# Interior solutions this close to the zero-rate corner snap to it. The
# corner is tp = tm = S/2 and tp <= tm, so closeness is judged on tp: a
# stationary tm at S/2 with a smaller tp is an edge point of positive rate.
CORNER_SNAP_RTOL = 1e-12
# solve_spectrum works through longer inputs in blocks of at most this many
# bins, the leaves of numpy's pairwise-summation tree
SOLVE_BLOCK = 8192


@dataclass(frozen=True)
class LagrangePair:
    """Finite nonnegative rate-distortion trade-off multipliers, not both zero.

    A zero multiplier marks its distortion constraint as slack: lambda1 = 0
    for the side constraint, lambda2 = 0 for the central one.
    """

    lambda1: float
    lambda2: float

    def __post_init__(self):
        l1, l2 = self.lambda1, self.lambda2
        if not (0.0 <= l1 < math.inf and 0.0 <= l2 < math.inf and l1 + l2 > 0.0):
            raise ValueError("multipliers must be finite, nonnegative and not both zero")


def cubic_coeffs(S, lam: LagrangePair):
    """Coefficients (a2, a1, a0) of the monic cubic in the stationary tm."""
    l1, l2 = lam.lambda1, lam.lambda2
    a2 = -(4.0 * l1 * l2 * S + 8.0 * l1 * l1 * S + l1) / (4.0 * l1 * l1)
    a1 = (2.0 * l1 * S + 2.0 * l2 * S + 4.0 * l1 * l2 * S * S + 4.0 * l1 * l1 * S * S) / (
        4.0 * l1 * l1
    )
    a0 = -S * S * (l2 + l1) / (4.0 * l1 * l1)
    return a2, a1, a0


def _newton_step(x, a2, a1, a0):
    """One guarded Newton step against the monic cubic, vectorized."""
    poly = ((x + a2) * x + a1) * x + a0
    dpoly = (3.0 * x + 2.0 * a2) * x + a1
    with np.errstate(divide="ignore", invalid="ignore"):
        step = poly / dpoly
    return np.where(np.abs(step) <= 0.5 * (1.0 + np.abs(x)), x - step, x)


def _psi_array(S, lam: LagrangePair):
    """Vectorized admissible stationary root: the smallest real root.

    All real roots are positive (Descartes: a2 < 0, a1 > 0, a0 < 0), so
    the smallest real root is the paper's x2 on three real roots and x1
    on one. The dominant root x1 comes from its closed form (for xi < 0,
    2 sqrt(-p) cos(phi/3) - a2/3, a sum of two nonnegative terms with no
    cancellation) and a Newton polish. Deflating it by Vieta from the
    low-order coefficients gives the other two roots' product
    c = -a0/x1 and sum s = (a1 - c)/x1 without cancellation, and the
    smaller of them is c / ((s + sqrt(s^2 - 4c))/2), polished once more.
    A negative s^2 - 4c means the pair is complex and x1 is the only real
    root. Where Cardano's real root is smaller than the modulus of the
    other pair it is taken as -a0 / |pair|^2 instead, and is itself the
    answer. Nothing depends on the sign of xi except which closed form
    gives the largest root, so a sign lost to rounding near a double root
    does not change the root returned.
    """
    S = np.asarray(S, dtype=np.float64)
    a2, a1, a0 = cubic_coeffs(S, lam)
    # reduced cubic in units of the shift m = -a2/3 > 0, so that p, q and
    # xi stay O(1) where p^3 and q^2 themselves would overflow
    m = -a2 / 3.0
    u = a1 / m / m
    p = u / 3.0 - 1.0
    q = 1.0 - 0.5 * u - 0.5 * (a0 / m / m / m)
    xi = q * q + p * p * p
    pos = xi >= 0.0
    # xi >= 0: Cardano's real root 1 + t and, for the other pair, the
    # squared modulus of 1 - t/2 +- i (sqrt(3)/2)(s1 - s2), in units of m
    root = np.sqrt(np.where(pos, xi, 0.0))
    s1 = np.cbrt(q + root)
    s2 = np.cbrt(q - root)
    t = s1 + s2
    pair_sq = (1.0 - 0.5 * t) ** 2 + 0.75 * (s1 - s2) ** 2
    # xi < 0: the largest of three real roots
    phi = np.arctan2(np.sqrt(np.where(pos, 0.0, -xi)), q)
    trig = 2.0 * np.sqrt(np.maximum(-p, 0.0)) * np.cos(phi / 3.0)
    # a real root below the pair's modulus cancels in 1 + t; Vieta's
    # product of the three roots gives it without cancellation
    dominant = ~pos | ((1.0 + t) ** 2 >= pair_sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        x1 = np.where(dominant, m * (1.0 + np.where(pos, t, trig)), -(a0 / m / m) / pair_sq)
    x1 = _newton_step(x1, a2, a1, a0)

    with np.errstate(divide="ignore", invalid="ignore"):
        c = -a0 / x1
        s = (a1 - c) / x1
        disc = s * s - 4.0 * c
        small = 2.0 * c / (s + np.sqrt(disc))
    psi = np.where(dominant & (disc >= 0.0) & (s > 0.0), small, x1)
    return _newton_step(psi, a2, a1, a0)


def solve_spectrum(S_values, lam: LagrangePair, *, integrand=None):
    """Globally optimal noise pairs at a scalar or an array of source powers.

    Returns (theta_plus, theta_minus, on_boundary) in the input's shape:
    0-d arrays for a scalar. Each bin is the interior stationary solution
    when it exists and the frequency is in the support set, and the
    zero-rate corner tp = tm = S/2 otherwise. At lambda1 = 0
    the cubic does not exist (its coefficients divide by lambda1^2) and
    the closed form tm = S/2, tp = min(1/(8 lambda2), S/2) is used. At
    lambda2 = 0 the cubic is (x - w)(x - S)^2 with w = 1/(4 lambda1), and
    its smallest root gives tp = tm = min(w, S/2).

    The input is solved flattened to one dimension, so a bin's bits do not
    depend on the input's shape: a 0-d input would go through numpy's
    scalar math, which can round differently from its array loops.
    The solve is some 150 elementwise array operations. On a long input
    each of them would stream full-length temporaries through memory, so
    an input longer than SOLVE_BLOCK bins is split as numpy's pairwise
    summation splits an array: n bins into the first (n // 2) // 8 * 8
    and the rest, until each block has at most SOLVE_BLOCK bins, a
    working set that stays in the L2 cache. Each block is solved into
    preallocated outputs; shorter inputs are solved in one pass. Every
    operation is elementwise, so the outputs do not depend on the block
    size, bit for bit. The input is checked once, before any block.

    integrand, if given, maps one block's (S, theta_plus, theta_minus,
    on_boundary) to a sequence of per-bin arrays, and a fourth output is
    returned: the array of their sums over the input. Each block's arrays
    are summed by np.sum and the block sums added up the same tree, so
    each sum equals np.sum of the full-length array bit for bit, and that
    array is never built.
    """
    S = np.asarray(S_values, dtype=np.float64)
    if np.any(S <= 0.0):
        raise DomainError("source spectrum must be strictly positive")
    flat = S.reshape(-1)
    if S.size <= SOLVE_BLOCK:
        outputs = _solve_block(flat, lam)
        sums = _block_sums(integrand, flat, outputs)
    else:
        outputs = (np.empty(S.size), np.empty(S.size), np.empty(S.size, dtype=bool))

        def block_sums(block):
            result = _solve_block(flat[block], lam)
            for out, part in zip(outputs, result):
                out[block] = part
            return _block_sums(integrand, flat[block], result)

        sums = _pairwise_sum(block_sums, 0, S.size)
    outputs = tuple(out.reshape(S.shape) for out in outputs)
    return outputs if integrand is None else (*outputs, sums)


def _pairwise_sum(block_sums, start: int, stop: int):
    """block_sums(block) added up numpy's pairwise-summation tree of
    [start, stop), whose leaves are the blocks of at most SOLVE_BLOCK bins.
    SOLVE_BLOCK is at least numpy's own unrolled leaf of 128 elements, so
    every split is one numpy makes."""
    n = stop - start
    if n <= SOLVE_BLOCK:
        return block_sums(slice(start, stop))
    middle = start + n // 2 // 8 * 8
    return _pairwise_sum(block_sums, start, middle) + _pairwise_sum(block_sums, middle, stop)


def _block_sums(integrand, S, noise):
    """np.sum of each of integrand(S, *noise), or 0.0 with no integrand."""
    if integrand is None:
        return 0.0
    return np.array([np.sum(d) for d in integrand(S, *noise)])


def _solve_block(S: NDArray[np.float64], lam: LagrangePair):
    """solve_spectrum on positive source powers, in one pass.

    At lambda1 > 0 only the bins that pass the screen
    2 lambda1 S + 8 lambda2 (S/2) > 1 are solved. The screen is the
    support test of _solve_unscreened with psi_c at its upper bound S/2;
    rounding is monotone, so a bin that fails it fails the support test
    too, whatever its root, and is the zero-rate corner (S/2, S/2, True).
    """
    l1, l2 = lam.lambda1, lam.lambda2
    half = 0.5 * S
    if l1 == 0.0:
        interior = 0.125 / l2 < half * (1.0 - CORNER_SNAP_RTOL)
        return np.where(interior, 0.125 / l2, half), half, ~interior
    live = 2.0 * l1 * S + 8.0 * l2 * half > 1.0
    if live.all():
        return _solve_unscreened(S, lam)
    theta_plus, theta_minus, boundary = np.copy(half), np.copy(half), np.ones(S.shape, dtype=bool)
    theta_plus[live], theta_minus[live], boundary[live] = _solve_unscreened(S[live], lam)
    return theta_plus, theta_minus, boundary


def _solve_unscreened(S: NDArray[np.float64], lam: LagrangePair):
    """_solve_block at lambda1 > 0 with every bin put through the cubic."""
    l1, l2 = lam.lambda1, lam.lambda2
    half = 0.5 * S
    psi = _psi_array(S, lam)

    valid = (psi > 0.0) & (psi <= half * (1.0 + CORNER_SNAP_RTOL))
    psi_c = np.minimum(psi, half)
    # psi_c <= S/2 makes denom >= 2 S (l1 + 2 l2) > 0, so tp > 0
    denom = 4.0 * S * (l1 + l2) - 4.0 * l1 * psi_c
    tp = (S - psi_c) / denom
    valid &= tp <= psi_c * (1.0 + 1e-9)
    tp = np.minimum(tp, psi_c)
    support = 2.0 * l1 * S + 8.0 * l2 * psi_c > 1.0
    interior = valid & support & (tp < half * (1.0 - CORNER_SNAP_RTOL))

    theta_minus = np.where(interior, psi_c, half)
    theta_plus = np.where(interior, tp, half)
    return theta_plus, theta_minus, ~interior


def lagrangian_gradient(S: float, theta_plus: float, theta_minus: float, lam: LagrangePair):
    """Partial derivatives (dL/dtp, dL/dtm) of the objective."""
    g_plus = (
        -1.0 / (4.0 * theta_plus)
        + lam.lambda1
        + lam.lambda2 * S / (S - theta_minus)
    )
    g_minus = (
        -1.0 / (4.0 * theta_minus)
        + lam.lambda1
        + lam.lambda2 * S * theta_plus / (S - theta_minus) ** 2
    )
    return g_plus, g_minus


def lagrangian_hessian(S, theta_plus, theta_minus, lam: LagrangePair):
    """Second partials (d2L/dtp2, d2L/dtp dtm, d2L/dtm2) of the objective."""
    h12 = lam.lambda2 * S / (S - theta_minus) ** 2
    h11 = 0.25 / (theta_plus * theta_plus)
    h22 = 0.25 / (theta_minus * theta_minus) + 2.0 * h12 * theta_plus / (S - theta_minus)
    return h11, h12, h22
