"""The paper's reference forms, and the property suites behind `mdrdf verify`.

The production solver (mdrdf.spectral_solver) takes the admissible root
by deflation from the dominant root and never branches on the
discriminant. The paper's closed forms are kept here, to check it:
Cardano with real cube roots for a nonnegative discriminant, the
trigonometric roots for a negative one, the discriminant's product form
over its roots in lambda2 and the appendix roots, the flat high-rate
noise pair, and an independent brute-force oracle over the triangle.

Each check_* suite returns (passed, detail), and run_all pairs it with
the suite's name. These duplicate the heart of
the test suite in a form that runs from an installed package without
pytest, as a post-install smoke check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral_solver as ss
from .errors import DomainError
from .rdf import evaluate
from .spectra import flat_spectrum
from .spectral_solver import (
    LagrangePair,
    lagrangian_gradient,
    lagrangian_hessian,
    solve_spectrum,
)
from .white_md import ThetaPair, ozarow_rate, r0, theta_to_distortions

# In cubic_roots, |xi| below this relative threshold is treated as the
# xi >= 0 branch; avoids branch chatter at the crossover.
XI_ZERO_RTOL = 1e-12


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


def discriminant(S: float, lam: LagrangePair) -> CubicDiagnostics:
    """Reduced-cubic quantities p, q, discriminant xi and trig phase phi."""
    # through the module, so that a patched ss.cubic_coeffs reaches it too
    a2, a1, a0 = ss.cubic_coeffs(S, lam)
    p, q = _pq_closed_form(S, lam.lambda1, lam.lambda2)
    xi = q * q + p * p * p
    # arctan2(sqrt(-xi), q) realizes the quadrant rule: arctan for q > 0,
    # pi + arctan for q < 0, pi/2 at q = 0; phi lies in [0, pi].
    with np.errstate(invalid="ignore"):
        phi = np.where(xi < 0.0, np.arctan2(np.sqrt(np.maximum(-xi, 0.0)), q), np.nan)
    return CubicDiagnostics(
        a2=float(a2), a1=float(a1), a0=float(a0),
        p=float(p), q=float(q), xi=float(xi), phi=float(phi),
    )


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


def _random_triples(rng, count, s_range=(0.01, 100.0), l_range=(0.01, 100.0)):
    S = np.exp(rng.uniform(math.log(s_range[0]), math.log(s_range[1]), count))
    l1 = np.exp(rng.uniform(math.log(l_range[0]), math.log(l_range[1]), count))
    l2 = np.exp(rng.uniform(math.log(l_range[0]), math.log(l_range[1]), count))
    return zip(S, l1, l2)


def _relative_residual(diag, x) -> float:
    poly = x**3 + diag.a2 * x**2 + diag.a1 * x + diag.a0
    scale = max(1.0, abs(diag.a0), abs(diag.a1 * x), abs(diag.a2 * x * x), abs(x) ** 3)
    return abs(poly) / scale


def check_cubic_residuals(count=2000, seed=11):
    worst = 0.0
    for S, l1, l2 in _random_triples(np.random.default_rng(seed), count):
        diag = discriminant(S, LagrangePair(l1, l2))
        for x in cubic_roots(diag):
            worst = max(worst, _relative_residual(diag, x))
    return worst < 1e-9, f"worst relative residual {worst:.3g}"


def check_root_ordering(count=2000, seed=12):
    checked = 0
    for S, l1, l2 in _random_triples(np.random.default_rng(seed), count):
        diag = discriminant(S, LagrangePair(l1, l2))
        if diag.xi >= 0:
            continue
        x1, x2, x3 = cubic_roots(diag)
        checked += 1
        if not (x1 >= x3 >= x2):
            return False, f"ordering violated at S={S}, l=({l1},{l2})"
        if not (x3 > 0.5 * S):
            return False, f"x3 <= S/2 at S={S}, l=({l1},{l2})"
    return True, f"{checked} negative-discriminant cases"


def check_appendix_roots(count=400, seed=13):
    rng = np.random.default_rng(seed)
    for S, l1, _ in _random_triples(rng, count):
        roots = appendix_roots(S, l1)
        _, _, xi2, xi3 = roots["xi_disc"]
        want = 1.0 / (4.0 * S) - l1
        if xi3 <= 0:
            return False, f"xi3 <= 0 at S={S}, l1={l1}"
        if abs(want) > 1e-9 and math.copysign(1, xi2) != math.copysign(1, want):
            return False, f"sign(xi2) mismatch at S={S}, l1={l1}"
        for lam2 in (xi2, xi3):
            if lam2 <= 0:
                continue
            diag = discriminant(S, LagrangePair(l1, lam2))
            scale = max(diag.q * diag.q, abs(diag.p) ** 3)
            if abs(diag.xi) > 1e-8 * scale:
                return False, f"xi({lam2}) != 0 at S={S}, l1={l1}"
    return True, f"{count} sweeps"


def check_discriminant_consistency(count=800, seed=14):
    worst = 0.0
    for S, l1, l2 in _random_triples(np.random.default_rng(seed), count):
        diag = discriminant(S, LagrangePair(l1, l2))
        prod = discriminant_product_form(S, l1, l2)
        scale = max(abs(diag.xi), abs(prod), diag.q * diag.q, abs(diag.p) ** 3)
        if scale > 0:
            worst = max(worst, abs(diag.xi - prod) / scale)
        # p, q closed forms against the coefficient forms
        p_ab = diag.a1 / 3.0 - diag.a2**2 / 9.0
        q_ab = (diag.a1 * diag.a2 - 3.0 * diag.a0) / 6.0 - diag.a2**3 / 27.0
        sp = max(1.0, abs(diag.p))
        sq = max(1.0, abs(diag.q))
        worst = max(worst, abs(diag.p - p_ab) / sp, abs(diag.q - q_ab) / sq)
    return worst < 1e-8, f"worst relative gap {worst:.3g}"


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


def check_high_rate_limits():
    lam = LagrangePair(1e4, 1e6)
    S = np.array([0.5, 1.0, 2.0])
    ref = high_rate_approx(lam)
    for S_k, tp, tm, _ in zip(S, *solve_spectrum(S, lam)):
        if lam.lambda1 * abs(tm - ref.theta_minus) >= 1e-2:
            return False, f"lambda1*theta_minus off at S={S_k}"
        if (lam.lambda1 + lam.lambda2) * abs(tp - ref.theta_plus) >= 1e-2:
            return False, f"(l1+l2)*theta_plus off at S={S_k}"
    tp, tm, _ = solve_spectrum(2.0, LagrangePair(4.0, 3.0))
    tm_db = 10.0 * math.log10(tm)
    tp_db = 10.0 * math.log10(tp)
    if abs(tm_db - (-12.04)) > 1.0 or abs(tp_db - (-14.47)) > 1.0:
        return False, f"asymptotes ({tm_db:.2f}, {tp_db:.2f}) dB out of range"
    # lambda2 -> inf at fixed lambda1: tm tends to the smaller root of
    # 4 l1 tm^2 - (4 l1 S + 2) tm + S = 0
    S = np.array([0.5, 2.0])
    for l1 in (0.3, 2.0):
        _, tm, boundary = solve_spectrum(S, LagrangePair(l1, 1e8))
        want = (2.0 * S * l1 + 1.0 - np.sqrt(1.0 + 4.0 * S * S * l1 * l1)) / (4.0 * l1)
        off = boundary | (np.abs(tm - want) > 1e-4 * want)
        if off.any():
            return False, f"fixed-lambda1 limit off at S={S[off][0]}, l1={l1}"
    return True, "Prop-5 limits, the S=2 asymptotes and the fixed-lambda1 limit"


def check_white_reduction(count=50, seed=15, grid_size=64):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        sigma2 = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        lam = LagrangePair(
            math.exp(rng.uniform(math.log(0.05), math.log(50.0))),
            math.exp(rng.uniform(math.log(0.05), math.log(50.0))),
        )
        pt = evaluate(flat_spectrum(sigma2, grid_size), lam)
        if pt.rate <= 0:
            continue
        oz = ozarow_rate(sigma2, theta_to_distortions(
            sigma2, ThetaPair(float(pt.spectra.theta_plus[0]), float(pt.spectra.theta_minus[0]))
        ))
        r0v = r0(sigma2, ThetaPair(
            float(pt.spectra.theta_plus[0]), float(pt.spectra.theta_minus[0])
        ))
        worst = max(worst, abs(pt.rate - oz), abs(pt.rate - r0v))
    return worst < 1e-6, f"worst rate gap {worst:.3g} nats"


def check_gradient_residuals(count=500, seed=16):
    worst = 0.0
    for S, l1, l2 in _random_triples(np.random.default_rng(seed), count):
        lam = LagrangePair(l1, l2)
        tp, tm, boundary = solve_spectrum(S, lam)
        if boundary:
            continue
        gp, gm = lagrangian_gradient(S, tp, tm, lam)
        worst = max(worst, abs(gp), abs(gm))
    return worst < 1e-8, f"worst gradient residual {worst:.3g}"


def check_oracle_equivalence(count=60, seed=17):
    worst = 0.0
    for S, l1, l2 in _random_triples(np.random.default_rng(seed), count):
        lam = LagrangePair(l1, l2)
        tp, tm, _ = solve_spectrum(S, lam)
        tp_b, tm_b = brute_force_frequency(S, lam, grid=200)
        worst = max(worst, abs(tp - tp_b), abs(tm - tm_b))
    return worst < 1e-6, f"worst |theta| gap {worst:.3g} over {count} triples"


SUITES = [
    ("cubic-residuals", check_cubic_residuals),
    ("root-ordering", check_root_ordering),
    ("appendix-roots", check_appendix_roots),
    ("discriminant-consistency", check_discriminant_consistency),
    ("high-rate-limits", check_high_rate_limits),
    ("white-source-reduction", check_white_reduction),
    ("gradient-residuals", check_gradient_residuals),
    ("oracle-equivalence", check_oracle_equivalence),
]


def run_all():
    """Run every suite; a suite that raises counts as failed."""
    results = []
    for name, fn in SUITES:
        try:
            ok, detail = fn()
        except Exception as e:  # a suite crash is a failure, not an abort
            ok, detail = False, f"exception: {e!r}"
        results.append((name, ok, detail))
    return results
