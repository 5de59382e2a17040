"""Per-frequency closed-form minimization of the two-multiplier objective.

For a source power S at one frequency and nonnegative multipliers
(lambda1, lambda2), not both zero, the objective

    L = (1/2) log( S / (2 sqrt(tp tm)) ) + lambda1 (tp + tm)
        + lambda2 S tp / (S - tm)

is minimized over the triangle 0 <= tp <= tm <= S/2. The stationary tm is
a root of a monic cubic whose real roots are all positive; the admissible
root is the smallest real root, which is the paper's x2 when the
discriminant is negative and x1 otherwise. Frequencies outside the
support set fall back to the zero-rate corner tp = tm = S/2.

The solver takes the dominant root x1, which has no cancellation, and
deflates it by Vieta's relations to get the smallest root from a
cancellation-free quadratic formula, with Newton polishing of both. It
does not depend on the sign of the discriminant, which rounding loses
when lambda2 >> lambda1; the tests check it against a 60-digit reference
for S in [1e-6, 1e6] and multipliers in [1e-8, 1e8]. The paper's closed
forms (Cardano with real cube roots for a nonnegative discriminant,
trigonometric forms for a negative one, and the appendix roots in
lambda2) are kept for verification. Functions accept scalars or numpy
arrays elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .errors import DenominatorSignError, DomainError

# In cubic_roots, |xi| below this relative threshold is treated as the
# xi >= 0 branch; avoids branch chatter at the crossover.
XI_ZERO_RTOL = 1e-12
# Interior solutions this close to the zero-rate corner snap to it. The
# corner is tp = tm = S/2 and tp <= tm, so closeness is judged on tp: a
# stationary tm at S/2 with a smaller tp is an edge point of positive rate.
CORNER_SNAP_RTOL = 1e-12


@dataclass(frozen=True)
class LagrangePair:
    """Nonnegative rate-distortion trade-off multipliers, not both zero.

    A zero multiplier marks its distortion constraint as slack: lambda1 = 0
    for the side constraint, lambda2 = 0 for the central one.
    """

    lambda1: float
    lambda2: float

    def __post_init__(self):
        l1, l2 = self.lambda1, self.lambda2
        if not (l1 >= 0.0 and l2 >= 0.0 and l1 + l2 > 0.0):
            raise ValueError("multipliers must be nonnegative and not both zero")


@dataclass(frozen=True)
class CubicDiagnostics:
    """Monic cubic coefficients and reduced-cubic quantities.

    xi = q^2 + p^3 is the discriminant; phi is the trigonometric phase in
    [0, pi], defined (non-NaN) only when xi < 0.
    """

    a2: float
    a1: float
    a0: float
    p: float
    q: float
    xi: float
    phi: float


@dataclass(frozen=True)
class FrequencySolution:
    """Optimal noise pair at one frequency, with solver diagnostics.

    diagnostics is None at lambda1 = 0, where there is no cubic.
    """

    theta_plus: float
    theta_minus: float
    on_boundary: bool
    diagnostics: Optional[CubicDiagnostics]


def cubic_coeffs(S, lam: LagrangePair):
    """Coefficients (a2, a1, a0) of the monic cubic in the stationary tm."""
    l1, l2 = lam.lambda1, lam.lambda2
    a2 = -(4.0 * l1 * l2 * S + 8.0 * l1 * l1 * S + l1) / (4.0 * l1 * l1)
    a1 = (2.0 * l1 * S + 2.0 * l2 * S + 4.0 * l1 * l2 * S * S + 4.0 * l1 * l1 * S * S) / (
        4.0 * l1 * l1
    )
    a0 = -S * S * (l2 + l1) / (4.0 * l1 * l1)
    return a2, a1, a0


def _pq_closed_form(S, l1, l2):
    """Reduced-cubic p and q in their expanded closed forms."""
    S2 = S * S
    S3 = S2 * S
    p = -(
        -8.0 * l1 * S
        - 16.0 * l2 * S
        + 16.0 * l1 * l2 * S2
        + 16.0 * l1 * l1 * S2
        + 16.0 * S2 * l2 * l2
        + 1.0
    ) / (144.0 * l1 * l1)
    q = -(
        96.0 * l1 * l2 * S2
        - 48.0 * l1 * l1 * S2
        - 64.0 * l2**3 * S3
        - 96.0 * l2 * l2 * S3 * l1
        + 96.0 * l2 * l2 * S2
        + 96.0 * l2 * S3 * l1 * l1
        + 24.0 * l2 * S
        + 64.0 * l1**3 * S3
        + 12.0 * l1 * S
        - 1.0
    ) / (1728.0 * l1**3)
    return p, q


def discriminant(S, lam: LagrangePair) -> CubicDiagnostics:
    """Reduced-cubic quantities p, q, discriminant xi and trig phase phi."""
    a2, a1, a0 = cubic_coeffs(S, lam)
    p, q = _pq_closed_form(S, lam.lambda1, lam.lambda2)
    xi = q * q + p * p * p
    # arctan2(sqrt(-xi), q) realizes the quadrant rule: arctan for q > 0,
    # pi + arctan for q < 0, pi/2 at q = 0; phi lies in [0, pi].
    with np.errstate(invalid="ignore"):
        phi = np.where(xi < 0.0, np.arctan2(np.sqrt(np.maximum(-xi, 0.0)), q), np.nan)
    if np.ndim(S) == 0:
        return CubicDiagnostics(
            a2=float(a2), a1=float(a1), a0=float(a0),
            p=float(p), q=float(q), xi=float(xi), phi=float(phi),
        )
    return CubicDiagnostics(a2=a2, a1=a1, a0=a0, p=p, q=q, xi=xi, phi=phi)


def _xi_is_nonnegative(diag: CubicDiagnostics):
    """xi >= 0 branch test with the near-zero snap."""
    scale = np.maximum(diag.q * diag.q, np.abs(diag.p) ** 3)
    return (diag.xi >= 0.0) | (np.abs(diag.xi) < XI_ZERO_RTOL * scale)


def _newton_root_polish(x, a2, a1, a0, iters: int = 2):
    """Newton refinement against the monic cubic; skipped near double roots."""
    for _ in range(iters):
        poly = ((x + a2) * x + a1) * x + a0
        dpoly = (3.0 * x + 2.0 * a2) * x + a1
        if dpoly == 0:
            break
        step = poly / dpoly
        if abs(step) > 0.5 * (1.0 + abs(x)):
            break
        x = x - step
    return x


def cubic_roots(diag: CubicDiagnostics):
    """All three roots (x1, x2, x3) of the monic cubic.

    xi >= 0: Cardano with real cube roots; x2, x3 may be complex
    conjugates. xi < 0: trigonometric forms, three real roots ordered
    x1 >= x3 >= x2. Each closed-form root gets a short Newton polish to
    hold the residual at double-precision level across extreme scales.
    """
    if not _xi_is_nonnegative(diag):
        sq = math.sqrt(abs(diag.p))
        cosv = math.cos(diag.phi / 3.0)
        sinv = math.sin(diag.phi / 3.0)
        shift = -diag.a2 / 3.0
        x1 = 2.0 * sq * cosv + shift
        x2 = -sq * (cosv + math.sqrt(3.0) * sinv) + shift
        x3 = -sq * (cosv - math.sqrt(3.0) * sinv) + shift
    else:
        root = math.sqrt(max(diag.xi, 0.0))
        s1 = math.copysign(abs(diag.q + root) ** (1.0 / 3.0), diag.q + root)
        s2 = math.copysign(abs(diag.q - root) ** (1.0 / 3.0), diag.q - root)
        shift = -diag.a2 / 3.0
        x1 = (s1 + s2) + shift
        re = -0.5 * (s1 + s2) + shift
        im = 0.5 * math.sqrt(3.0) * (s1 - s2)
        x2, x3 = complex(re, im), complex(re, -im)
    return tuple(_newton_root_polish(x, diag.a2, diag.a1, diag.a0) for x in (x1, x2, x3))


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


def theta_plus_of_psi(S: float, lam: LagrangePair, psi: float) -> float:
    """tp = (S - psi) / (4 S (lambda1 + lambda2) - 4 lambda1 psi)."""
    denom = 4.0 * S * (lam.lambda1 + lam.lambda2) - 4.0 * lam.lambda1 * psi
    if denom <= 0.0:
        raise DenominatorSignError(
            f"nonpositive denominator {denom}; psi={psi} inconsistent with lambdas"
        )
    return (S - psi) / denom


def solve_frequency(S: float, lam: LagrangePair) -> FrequencySolution:
    """Globally optimal noise pair at one frequency.

    Interior stationary solution when it exists and the frequency is in
    the support set; the zero-rate corner tp = tm = S/2 otherwise. A
    one-element solve_spectrum call plus the cubic diagnostics.
    """
    if S <= 0.0:
        raise DomainError("S must be positive")
    tp, tm, boundary = solve_spectrum(np.array([S], dtype=np.float64), lam)
    diag = discriminant(S, lam) if lam.lambda1 > 0.0 else None
    return FrequencySolution(float(tp[0]), float(tm[0]), bool(boundary[0]), diag)


def solve_spectrum(S_values: NDArray[np.float64], lam: LagrangePair):
    """Optimal noise pairs over an array of source powers.

    Returns (theta_plus, theta_minus, on_boundary) arrays. At lambda1 = 0
    the cubic does not exist (its coefficients divide by lambda1^2) and
    the closed form tm = S/2, tp = min(1/(8 lambda2), S/2) is used. At
    lambda2 = 0 the cubic is (x - w)(x - S)^2 with w = 1/(4 lambda1), and
    its smallest root gives tp = tm = min(w, S/2).
    """
    S = np.asarray(S_values, dtype=np.float64)
    if np.any(S <= 0.0):
        raise DomainError("source spectrum must be strictly positive")
    l1, l2 = lam.lambda1, lam.lambda2
    half = 0.5 * S
    if l1 == 0.0:
        interior = 0.125 / l2 < half * (1.0 - CORNER_SNAP_RTOL)
        return np.where(interior, 0.125 / l2, half), half, ~interior
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


def lagrangian(S: float, theta_plus: float, theta_minus: float, lam: LagrangePair) -> float:
    """Objective value at (tp, tm); domain is tp > 0, tm > 0, tm < S."""
    if not (theta_plus > 0.0 and theta_minus > 0.0 and theta_minus < S):
        raise DomainError(
            f"(tp, tm)=({theta_plus}, {theta_minus}) outside the open domain for S={S}"
        )
    rate = 0.5 * math.log(S / (2.0 * math.sqrt(theta_plus * theta_minus)))
    return (
        rate
        + lam.lambda1 * (theta_plus + theta_minus)
        + lam.lambda2 * S * theta_plus / (S - theta_minus)
    )


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


def _lagrangian_uv(u, v, S, l1, l2):
    """Objective on the (u, v) chart tp = u v, tm = v; +inf off-domain."""
    tp = u * v
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = 0.5 * np.log(S / (2.0 * np.sqrt(tp * v)))
        val = rate + l1 * (tp + v) + l2 * S * tp / (S - v)
    return np.where((tp > 0.0) & (v > 0.0) & (v < S), val, np.inf)


def _gradient_newton_polish(S, lam, tp, tm, iters: int = 30):
    """Drive the objective gradient to zero from an interior seed.

    Uses only the analytic gradient and Hessian of the objective, never
    the cubic closed form, so the brute-force oracle stays independent.
    Stops at the triangle boundary or on a non-convex Hessian.
    """
    for _ in range(iters):
        gp, gm = lagrangian_gradient(S, tp, tm, lam)
        h11, h12, h22 = lagrangian_hessian(S, tp, tm, lam)
        det = h11 * h22 - h12 * h12
        if det <= 0.0:
            break
        dtp = -(h22 * gp - h12 * gm) / det
        dtm = -(h11 * gm - h12 * gp) / det
        ntp, ntm = tp + dtp, tm + dtm
        if not (0.0 < ntp <= ntm and ntm < 0.5 * S):
            break
        tp, tm = ntp, ntm
        if max(abs(gp), abs(gm)) < 1e-14 / max(S, 1.0):
            break
    return tp, tm


def brute_force_frequency(S: float, lam: LagrangePair, grid: int = 200):
    """Exhaustive minimization of the objective over the closed triangle.

    A grid x grid mesh on the chart (u, v) -> (tp, tm) = (u v, v) is
    scanned, then one local refinement pass (bounded quasi-Newton plus a
    gradient polish from the mesh argmin) pins the minimizer down.
    Independent of the closed-form root selection; intended as a test
    oracle.
    """
    if grid < 100:
        raise ValueError("grid must be >= 100")
    from scipy import optimize

    l1, l2 = lam.lambda1, lam.lambda2
    u = np.linspace(0.0, 1.0, grid)[1:]
    v = np.linspace(0.0, 0.5 * S, grid)[1:]
    uu, vv = np.meshgrid(u, v, indexing="ij")
    vals = _lagrangian_uv(uu, vv, S, l1, l2)
    i, j = np.unravel_index(np.argmin(vals), vals.shape)

    res = optimize.minimize(
        lambda w: float(_lagrangian_uv(w[0], w[1], S, l1, l2)),
        x0=np.array([uu[i, j], vv[i, j]]),
        method="L-BFGS-B",
        bounds=[(1e-12, 1.0), (1e-12 * S, 0.5 * S)],
        options={"ftol": 1e-18, "gtol": 1e-14, "maxiter": 500},
    )
    candidates = [
        (float(vals[i, j]), uu[i, j] * vv[i, j], vv[i, j]),
        (float(_lagrangian_uv(res.x[0], res.x[1], S, l1, l2)), res.x[0] * res.x[1], res.x[1]),
        # the zero-rate corner is always admissible
        ((l1 + l2) * S, 0.5 * S, 0.5 * S),
    ]
    score, tp, tm = min(candidates, key=lambda c: c[0])
    if 0.0 < tp < tm < 0.5 * S * (1.0 - 1e-9):
        ptp, ptm = _gradient_newton_polish(S, lam, tp, tm)
        polished = _lagrangian_uv(ptp / ptm, ptm, S, l1, l2)
        if polished <= score + 1e-12 * max(1.0, abs(score)):
            tp, tm = ptp, ptm
    return tp, tm


def count_mesh_minima(S: float, lam: LagrangePair, grid: int = 200) -> int:
    """Distinct interior local minima of the objective on the mesh.

    Strict 8-neighbor minima within a few cells of each other are one
    flat-valley minimum discretized twice, so nearby hits are clustered
    before counting.
    """
    u = np.linspace(0.0, 1.0, grid)[1:]
    v = np.linspace(0.0, 0.5 * S, grid)[1:]
    uu, vv = np.meshgrid(u, v, indexing="ij")
    vals = _lagrangian_uv(uu, vv, S, lam.lambda1, lam.lambda2)
    inner = vals[1:-1, 1:-1]
    strict = np.ones_like(inner, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == dj == 0:
                continue
            nb = vals[1 + di : vals.shape[0] - 1 + di, 1 + dj : vals.shape[1] - 1 + dj]
            strict &= inner < nb
    hits = np.argwhere(strict & np.isfinite(inner))
    stationary: list[tuple[float, float]] = []
    for i, j in hits:
        tp0 = uu[i + 1, j + 1] * vv[i + 1, j + 1]
        tm0 = vv[i + 1, j + 1]
        tp, tm = _gradient_newton_polish(S, lam, tp0, tm0)
        gp, gm = lagrangian_gradient(S, tp, tm, lam)
        if max(abs(gp), abs(gm)) > 1e-8:
            continue  # valley cell that drains to the boundary, not a minimum
        if not any(
            abs(tp - a) <= 1e-6 * S and abs(tm - b) <= 1e-6 * S for a, b in stationary
        ):
            stationary.append((tp, tm))
    return len(stationary)


def discriminant_product_form(S, l1, l2):
    """xi recomputed from its quartic factorization over the lambda2 roots."""
    roots = appendix_roots(S, l1)
    x0, x1, x2, x3 = roots["xi_disc"]
    lead = -(S**4) * (4.0 * l1 * l1 * S * S + 1.0) / (432.0 * l1**6)
    return lead * (l2 - x0) * (l2 - x1) * (l2 - x2) * (l2 - x3)


def appendix_roots(S, l1):
    """Closed-form lambda2-roots of the discriminant and of q.

    Returns a dict with 'xi_disc' = (0, -lambda1, xi2, xi3), 'xi_q' =
    (xi0_q, xi1_q, xi2_q) and the phase 'phi_q'.
    """
    if not (S > 0 and l1 > 0):
        raise ValueError("S and lambda1 must be positive")
    S2, S3 = S * S, S**3
    w = 2.0 * S2 * l1 * l1 + 1.0
    num_common = 2.0 * S * l1 + 8.0 * S3 * l1**3 - 16.0 * S2 * l1 * l1 - 3.0
    den = 4.0 * S * (4.0 * S2 * l1 * l1 + 1.0)
    sq = 2.0 * math.sqrt(2.0 * w**3)
    xi2 = -(num_common + sq) / den
    xi3 = -(num_common - sq) / den

    phi_q = math.atan(
        math.sqrt(768.0 * S3 * S3 * l1**6 + 1152.0 * S2 * S2 * l1**4 + 576.0 * S2 * l1 * l1 + 15.0)
        / 9.0
    )
    amp = math.sqrt(6.0) * math.sqrt(w)
    base = -0.5 * l1 + 0.5 / S
    c3 = math.cos(phi_q / 3.0)
    s3 = math.sin(phi_q / 3.0)
    xi0_q = amp * c3 / (2.0 * S) + base
    xi1_q = -amp * (math.sqrt(3.0) * s3 + c3) / (4.0 * S) + base
    # third trig root of the cubic: (sqrt(3) sin - cos) * amp/(4S) + base;
    # verified against a direct root scan of q(lambda2)
    xi2_q = amp * (math.sqrt(3.0) * s3 - c3) / (4.0 * S) + base
    return {
        "xi_disc": (0.0, -l1, xi2, xi3),
        "xi_q": (xi0_q, xi1_q, xi2_q),
        "phi_q": phi_q,
    }
