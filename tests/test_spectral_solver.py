import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdrdf import LagrangePair, Spectrum, evaluate, solve_spectrum
from mdrdf import spectral_solver
from mdrdf.errors import DomainError
from mdrdf.spectral_solver import (
    SOLVE_BLOCK,
    _solve_block,
    _solve_unscreened,
    cubic_coeffs,
    lagrangian_gradient,
    lagrangian_hessian,
)
from mdrdf.verify import (
    _pq_closed_form,
    appendix_roots,
    brute_force_frequency,
    count_mesh_minima,
    cubic_roots,
    discriminant,
    discriminant_product_form,
    lagrangian,
)

from conftest import ar1_spectrum


def random_triples(seed, count, s_range=(0.01, 100.0), l_range=(0.01, 100.0)):
    rng = np.random.default_rng(seed)
    S = np.exp(rng.uniform(math.log(s_range[0]), math.log(s_range[1]), count))
    l1 = np.exp(rng.uniform(math.log(l_range[0]), math.log(l_range[1]), count))
    l2 = np.exp(rng.uniform(math.log(l_range[0]), math.log(l_range[1]), count))
    return list(zip(S, l1, l2))


def rel_residual(diag, x):
    poly = ((x + diag.a2) * x + diag.a1) * x + diag.a0
    scale = max(1.0, abs(diag.a0), abs(diag.a1 * x), abs(diag.a2 * x * x), abs(x) ** 3)
    return abs(poly) / scale


class TestCubicCoefficients:
    def test_symbolic_reference_point(self):
        a2, a1, a0 = cubic_coeffs(1.0, LagrangePair(1.0, 1.0))
        assert a2 == pytest.approx(-13.0 / 4.0, rel=1e-15)
        assert a1 == pytest.approx(3.0, rel=1e-15)
        assert a0 == pytest.approx(-0.5, rel=1e-15)

    def test_admissible_root_satisfies_cubic(self):
        for S, l1, l2 in random_triples(21, 300):
            lam = LagrangePair(l1, l2)
            _, tm, boundary = solve_spectrum(S, lam)
            if boundary:
                continue
            assert rel_residual(discriminant(S, lam), tm) < 1e-9


class TestDiscriminant:
    def test_sign_change_matches_worked_example(self):
        # S = 2, lambda1 = 3: the discriminant flips sign near lambda2 = 0.52
        roots = appendix_roots(2.0, 3.0)
        xi3 = roots["xi_disc"][3]
        assert xi3 == pytest.approx(0.52, abs=5e-3)
        assert discriminant(2.0, LagrangePair(3.0, xi3 * 0.98)).xi > 0
        assert discriminant(2.0, LagrangePair(3.0, xi3 * 1.02)).xi < 0

    def test_negative_for_large_lambda2(self):
        for S, l1, _ in random_triples(22, 50):
            assert discriminant(S, LagrangePair(l1, 1e4 / S + 10 * l1)).xi < 0

    def test_product_form_consistency(self):
        for S, l1, l2 in random_triples(23, 300):
            diag = discriminant(S, LagrangePair(l1, l2))
            prod = discriminant_product_form(S, l1, l2)
            scale = max(abs(diag.xi), abs(prod), diag.q**2, abs(diag.p) ** 3)
            assert abs(diag.xi - prod) <= 1e-8 * scale

    def test_pq_match_coefficient_forms(self):
        for S, l1, l2 in random_triples(24, 300):
            diag = discriminant(S, LagrangePair(l1, l2))
            p_ab = diag.a1 / 3.0 - diag.a2**2 / 9.0
            q_ab = (diag.a1 * diag.a2 - 3.0 * diag.a0) / 6.0 - diag.a2**3 / 27.0
            assert diag.p == pytest.approx(p_ab, rel=1e-10, abs=1e-12)
            assert diag.q == pytest.approx(q_ab, rel=1e-10, abs=1e-12)

    def test_xi_identity(self):
        for S, l1, l2 in random_triples(25, 100):
            diag = discriminant(S, LagrangePair(l1, l2))
            assert diag.xi == pytest.approx(diag.q**2 + diag.p**3, rel=1e-10, abs=1e-300)


class TestCubicRoots:
    def test_residuals_all_roots(self):
        for S, l1, l2 in random_triples(26, 500):
            diag = discriminant(S, LagrangePair(l1, l2))
            for x in cubic_roots(diag):
                assert rel_residual(diag, x) < 1e-9

    def test_ordering_and_exclusion_when_negative(self):
        checked = 0
        for S, l1, l2 in random_triples(27, 500):
            diag = discriminant(S, LagrangePair(l1, l2))
            if diag.xi >= 0:
                continue
            x1, x2, x3 = cubic_roots(diag)
            checked += 1
            assert x1 >= x3 >= x2
            assert x3 > S / 2  # the middle root never enters the triangle
        assert checked > 50


class TestStationaryPoint:
    def test_gradient_vanishes_at_interior_solutions(self):
        for S, l1, l2 in random_triples(28, 400):
            lam = LagrangePair(l1, l2)
            tp, tm, boundary = solve_spectrum(S, lam)
            if boundary:
                continue
            gp, gm = lagrangian_gradient(S, tp, tm, lam)
            assert abs(gp) < 1e-8
            assert abs(gm) < 1e-8

    def test_gradient_formulas_match_finite_differences(self):
        lam = LagrangePair(0.7, 1.3)
        S, tp, tm = 1.5, 0.2, 0.4
        gp, gm = lagrangian_gradient(S, tp, tm, lam)
        h = 1e-7
        fd_p = (lagrangian(S, tp + h, tm, lam) - lagrangian(S, tp - h, tm, lam)) / (2 * h)
        fd_m = (lagrangian(S, tp, tm + h, lam) - lagrangian(S, tp, tm - h, lam)) / (2 * h)
        assert gp == pytest.approx(fd_p, rel=1e-6)
        assert gm == pytest.approx(fd_m, rel=1e-6)
        # the Hessian against differences of the gradient
        h11, h12, h22 = lagrangian_hessian(S, tp, tm, lam)
        up_p, down_p = lagrangian_gradient(S, tp + h, tm, lam), lagrangian_gradient(S, tp - h, tm, lam)
        up_m, down_m = lagrangian_gradient(S, tp, tm + h, lam), lagrangian_gradient(S, tp, tm - h, lam)
        assert h11 == pytest.approx((up_p[0] - down_p[0]) / (2 * h), rel=1e-6)
        assert h12 == pytest.approx((up_p[1] - down_p[1]) / (2 * h), rel=1e-6)
        assert h12 == pytest.approx((up_m[0] - down_m[0]) / (2 * h), rel=1e-6)
        assert h22 == pytest.approx((up_m[1] - down_m[1]) / (2 * h), rel=1e-6)

    def test_example1_limit_at_low_frequency(self, example1_point, cosine):
        # as omega -> 0 the cosine spectrum tends to 2; the single-frequency
        # solve at S=2 must agree with the first grid bin of the full solve
        tp, tm, boundary = solve_spectrum(2.0, LagrangePair(0.2380, 2.700))
        assert not boundary
        assert tp == pytest.approx(example1_point.spectra.theta_plus[0], rel=1e-4)
        assert tm == pytest.approx(example1_point.spectra.theta_minus[0], rel=1e-4)

    def test_uniqueness_no_second_interior_minimum(self):
        for S, l1, l2 in random_triples(29, 25):
            assert count_mesh_minima(S, LagrangePair(l1, l2), grid=200) <= 1

    def test_fixed_lambda1_limit_of_second_multiplier(self):
        # as lambda2 grows at fixed lambda1, the stationary tm tends to
        # (2 S l1 + 1 - sqrt(1 + 4 S^2 l1^2)) / (4 l1)
        S = np.array([0.5, 2.0])
        for l1 in (0.3, 2.0):
            _, tm, boundary = solve_spectrum(S, LagrangePair(l1, 1e8))
            want = (2 * S * l1 + 1 - np.sqrt(1 + 4 * S * S * l1 * l1)) / (4 * l1)
            assert not boundary.any()
            assert tm == pytest.approx(want, rel=1e-4)


class TestThetaPlus:
    def test_high_rate_limit(self):
        lam = LagrangePair(1e4, 1e6)
        tp, _, _ = solve_spectrum(np.array([0.5, 1.0, 2.0]), lam)
        assert tp == pytest.approx(0.25 / (lam.lambda1 + lam.lambda2), rel=0.01)


class TestSupportSet:
    def test_always_supported_when_s_large(self):
        # 2 lambda1 S = 2 > 1 already, whatever lambda2 and the root
        for l2 in (0.0, 1e-3, 1.0, 1e3):
            assert not solve_spectrum(1.0, LagrangePair(1.0, l2))[2]

    def test_example1_zero_rate_band(self, example1_point):
        mask = example1_point.spectra.boundary_mask
        assert not mask[0]  # rate at low frequencies
        assert mask[-1]  # no rate near the spectral null
        flips = np.count_nonzero(mask[1:] != mask[:-1])
        assert flips == 1  # single threshold for a monotone spectrum

    def test_boundary_continuity_at_threshold(self):
        # crossing the support threshold in lambda2 changes the rate
        # density continuously through zero
        S, l1 = 1.0, 0.2

        def rate_density_of(l2):
            tp, tm, boundary = solve_spectrum(S, LagrangePair(l1, l2))
            if boundary:
                return 0.0, True
            r = 0.5 * math.log(S / (2 * math.sqrt(tp * tm)))
            return r, False

        lo, hi = 1e-3, 1.0
        assert rate_density_of(lo)[1] and not rate_density_of(hi)[1]
        for _ in range(50):
            mid = math.sqrt(lo * hi)
            if rate_density_of(mid)[1]:
                lo = mid
            else:
                hi = mid
        rate_above, boundary = rate_density_of(hi)
        assert not boundary
        assert rate_above < 1e-6


class TestLagrangianObjective:
    def test_corner_value(self):
        lam = LagrangePair(0.8, 1.7)
        S = 2.0
        assert lagrangian(S, S / 2, S / 2, lam) == pytest.approx(
            (lam.lambda1 + lam.lambda2) * S, rel=1e-12
        )

    def test_interior_solution_beats_mesh(self):
        for S, l1, l2 in random_triples(30, 20):
            lam = LagrangePair(l1, l2)
            tp, tm, boundary = solve_spectrum(S, lam)
            if boundary:
                continue
            val = lagrangian(S, tp, tm, lam)
            u = np.linspace(1e-3, 1.0, 60)
            v = np.linspace(1e-3 * S, 0.5 * S, 60)
            uu, vv = np.meshgrid(u, v)
            mesh = np.min(
                0.5 * np.log(S / (2 * np.sqrt(uu * vv * vv)))
                + l1 * (uu * vv + vv)
                + l2 * S * uu * vv / (S - vv)
            )
            assert val <= mesh + 1e-9

    def test_not_symmetric_in_thetas(self):
        lam = LagrangePair(1.0, 1.0)
        assert lagrangian(1.0, 0.1, 0.3, lam) != lagrangian(1.0, 0.3, 0.1, lam)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            lagrangian(1.0, 0.0, 0.3, LagrangePair(1.0, 1.0))


class TestBruteForceOracle:
    def test_agrees_with_closed_form(self):
        for S, l1, l2 in random_triples(31, 80):
            lam = LagrangePair(l1, l2)
            tp, tm, _ = solve_spectrum(S, lam)
            tp_b, tm_b = brute_force_frequency(S, lam, grid=200)
            assert abs(tp - tp_b) < 1e-6
            assert abs(tm - tm_b) < 1e-6

    def test_boundary_detection(self):
        # sub-threshold multipliers park the minimum at the corner
        S, l1, l2 = 1.0, 0.1, 0.01
        assert solve_spectrum(S, LagrangePair(l1, l2))[2]
        tp_b, tm_b = brute_force_frequency(S, LagrangePair(l1, l2), grid=150)
        assert tp_b == pytest.approx(S / 2, rel=1e-9)
        assert tm_b == pytest.approx(S / 2, rel=1e-9)

    def test_diagonal_descent_direction(self):
        # along theta_plus = theta_minus = t the inward normal derivative
        # lambda2 S (2t - S) / (S - t)^2 is negative for t < S/2
        lam = LagrangePair(0.9, 1.4)
        S = 1.0
        for t in (0.1, 0.25, 0.45):
            gp, gm = lagrangian_gradient(S, t, t, lam)
            formula = lam.lambda2 * S * (2 * t - S) / (S - t) ** 2
            assert gm - gp == pytest.approx(formula, rel=1e-9)
            assert gm - gp < 0


class TestAppendixRoots:
    def test_fixed_roots(self):
        roots = appendix_roots(1.7, 0.4)
        assert roots["xi_disc"][0] == 0.0
        assert roots["xi_disc"][1] == -0.4

    def test_sign_of_xi2(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            S = math.exp(rng.uniform(math.log(0.01), math.log(100)))
            l1 = math.exp(rng.uniform(math.log(0.01), math.log(100)))
            roots = appendix_roots(S, l1)
            want = 1.0 / (4.0 * S) - l1
            if abs(want) < 1e-9:
                continue
            assert math.copysign(1, roots["xi_disc"][2]) == math.copysign(1, want)

    def test_xi3_positive(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            S = math.exp(rng.uniform(math.log(0.01), math.log(100)))
            l1 = math.exp(rng.uniform(math.log(0.01), math.log(100)))
            assert appendix_roots(S, l1)["xi_disc"][3] > 0

    def test_discriminant_vanishes_at_its_roots(self):
        for S, l1, _ in random_triples(35, 100):
            roots = appendix_roots(S, l1)
            for lam2 in roots["xi_disc"][2:]:
                if lam2 <= 0:
                    continue
                diag = discriminant(S, LagrangePair(l1, lam2))
                scale = max(diag.q**2, abs(diag.p) ** 3)
                assert abs(diag.xi) <= 1e-8 * scale

    def test_q_vanishes_at_its_roots(self):
        for S, l1, _ in random_triples(36, 100):
            roots = appendix_roots(S, l1)
            for lam2 in roots["xi_q"]:
                p, q = _pq_closed_form(S, l1, lam2)
                assert abs(q) <= 1e-8 * max(1e-300, abs(p) ** 1.5, abs(q))


class TestVectorizedSolve:
    def test_matches_scalar_path(self):
        # a scalar solve of S[k] gives element k of the array solve, bit for
        # bit, as 0-d arrays
        rng = np.random.default_rng(37)
        S = np.exp(rng.uniform(math.log(0.01), math.log(100), 200))
        # numpy's scalar math rounded these bins one ulp off the array loops,
        # at lambda = (0.7, 2.3) and (0.7, 0) respectively
        S = np.append(S, [0.23948223328635088, 54.97287656619494])
        # interior bins; slack side and central constraints; and a row whose
        # bins below S = 1 / (2 lambda1 + 4 lambda2) fail the corner screen
        for lambdas in [(0.7, 2.3), (0.0, 2.3), (0.7, 0.0), (0.05, 0.01)]:
            lam = LagrangePair(*lambdas)
            solved = solve_spectrum(S, lam)
            for k in range(S.size):
                for got, want in zip(solve_spectrum(float(S[k]), lam), solved):
                    assert got.shape == ()
                    assert got.dtype == want.dtype
                    assert got == want[k], (S[k], lambdas)
        screened = 2.0 * 0.05 * S + 4.0 * 0.01 * S <= 1.0
        assert screened.any() and not screened.all()

    def test_triangle_membership(self):
        for S, l1, l2 in random_triples(38, 10):
            vals = np.linspace(S / 3, S, 64)
            tp, tm, _ = solve_spectrum(vals, LagrangePair(l1, l2))
            assert np.all(tp >= 0)
            assert np.all(tp <= tm + 1e-15)
            assert np.all(tm <= vals / 2 + 1e-12 * vals)


BLOCK_SIZES = [1, SOLVE_BLOCK - 1, SOLVE_BLOCK, SOLVE_BLOCK + 1, 3 * SOLVE_BLOCK + 17]


def cosine_across_block_edge(n):
    """1 + cos over half a period, its zero between bins SOLVE_BLOCK - 1 and
    SOLVE_BLOCK (or in the middle of a shorter input)."""
    edge = SOLVE_BLOCK if n > SOLVE_BLOCK else n // 2
    return 1.0 - np.cos((np.arange(n) - edge + 0.5) * np.pi / n)


def ar1_values(n):
    return ar1_spectrum(n=n).values


class TestBlockedSolve:
    """Blocks of SOLVE_BLOCK bins give the one-pass result bit for bit."""

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize(
        "values, lambdas",
        [
            (cosine_across_block_edge, (0.2380, 2.700)),
            (ar1_values, (0.2380, 2.700)),
            (cosine_across_block_edge, (0.0, 2.700)),
            (cosine_across_block_edge, (0.2380, 0.0)),
        ],
        ids=["cosine", "ar1", "lambda1=0", "lambda2=0"],
    )
    def test_matches_one_pass(self, monkeypatch, n, values, lambdas):
        S, lam = values(n), LagrangePair(*lambdas)
        blocked = solve_spectrum(S, lam)
        point = evaluate(Spectrum(S), lam)
        monkeypatch.setattr(spectral_solver, "SOLVE_BLOCK", n + 1)
        one_pass = solve_spectrum(S, lam)
        one_pass_point = evaluate(Spectrum(S), lam)
        for got, want in zip(blocked, one_pass):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert point.rate == one_pass_point.rate
        assert point.d_side == one_pass_point.d_side
        assert point.d_central == one_pass_point.d_central
        if n > SOLVE_BLOCK and values is cosine_across_block_edge and lam.lambda2 > 0.0:
            boundary = blocked[2]
            assert boundary[SOLVE_BLOCK - 1] and boundary[SOLVE_BLOCK]
            assert not np.all(boundary)

    def test_zero_bin_in_last_block_raises_before_solving(self, monkeypatch):
        S = np.ones(3 * SOLVE_BLOCK + 17)
        S[3 * SOLVE_BLOCK + 5] = 0.0
        blocks = []
        monkeypatch.setattr(
            spectral_solver, "_solve_block", lambda *args: blocks.append(args)
        )
        with pytest.raises(DomainError, match="^source spectrum must be strictly positive$"):
            solve_spectrum(S, LagrangePair(0.2380, 2.700))
        assert blocks == []


def mp_objective(S, lam, tp, tm):
    """The per-frequency objective at 60 digits."""
    with mpmath.workdps(60):
        S, l1, l2 = mpmath.mpf(S), mpmath.mpf(lam.lambda1), mpmath.mpf(lam.lambda2)
        tp, tm = mpmath.mpf(tp), mpmath.mpf(tm)
        rate = mpmath.log(S / (2 * mpmath.sqrt(tp * tm))) / 2
        return rate + l1 * (tp + tm) + l2 * S * tp / (S - tm)


def mp_admissible_point(S, lam):
    """Reference (tp, tm) from the smallest real root at 60 digits.

    None when that root leaves (0, S/2], its tp leaves [0, tm], or the
    frequency is outside the support set: the optimum is then the corner.
    """
    with mpmath.workdps(60):
        S, l1, l2 = mpmath.mpf(S), mpmath.mpf(lam.lambda1), mpmath.mpf(lam.lambda2)
        a2 = -(4 * l1 * l2 * S + 8 * l1 * l1 * S + l1) / (4 * l1 * l1)
        a1 = (2 * l1 * S + 2 * l2 * S + 4 * l1 * l2 * S * S + 4 * l1 * l1 * S * S) / (4 * l1 * l1)
        a0 = -S * S * (l2 + l1) / (4 * l1 * l1)
        roots = mpmath.polyroots([1, a2, a1, a0], maxsteps=400, extraprec=400)
        real = [mpmath.re(r) for r in roots if abs(mpmath.im(r)) <= 1e-40 * abs(r)]
        tm = min(real)
        if not 0 < tm <= S / 2:
            return None
        tp = (S - tm) / (4 * S * (l1 + l2) - 4 * l1 * tm)
        if not (0 <= tp <= tm and 2 * l1 * S + 8 * l2 * tm > 1):
            return None
        return float(tp), float(tm)


log_uniform = st.floats(min_value=-1.0, max_value=1.0)


class TestWideRangeProperty:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        S=log_uniform.map(lambda u: 10.0 ** (6.0 * u)),
        l1=log_uniform.map(lambda u: 10.0 ** (8.0 * u)),
        l2=log_uniform.map(lambda u: 10.0 ** (8.0 * u)),
    )
    # tm within 1e-13 of S/2 while tp is not: an edge point, not the corner
    @example(S=6.320437769587735e-05, l1=2.49469354426317e-08, l2=4147.513740821292)
    # lambda2 >> lambda1, where the float discriminant loses its sign
    @example(S=0.5, l1=0.3, l2=1e8)
    # beyond the drawn box: one real root far below the complex pair's
    # modulus, and a shift whose cube overflows the unscaled p^3 and q^2
    @example(S=35.14857373974737, l1=2.9222400869541277e-23, l2=0.014270874378503492)
    @example(S=1.0, l1=1e-30, l2=1e30)
    def test_matches_mpmath_reference(self, S, l1, l2):
        lam = LagrangePair(l1, l2)
        tp, tm, boundary = solve_spectrum(np.array([S]), lam)
        tp, tm, boundary = float(tp[0]), float(tm[0]), bool(boundary[0])
        ref = mp_admissible_point(S, lam)
        corner = mp_objective(S, lam, S / 2, S / 2)
        slack = 1e-9 * max(1.0, abs(corner))
        if not boundary and ref is not None:
            assert tm == pytest.approx(ref[1], rel=1e-9)
            assert tp == pytest.approx(ref[0], rel=1e-9)
        elif boundary and ref is not None:
            # a corner answer may differ from the reference only where the
            # interior point is no better than the corner
            assert mp_objective(S, lam, *ref) >= corner - slack
        elif not boundary:
            assert mp_objective(S, lam, tp, tm) <= corner + slack


def screen_edge_bins(lam, ulps):
    """Source powers the given numbers of ulps from the corner screen's edge
    S (2 lambda1 + 4 lambda2) = 1."""
    edge = 1.0 / (2.0 * lam.lambda1 + 4.0 * lam.lambda2)
    return edge + np.asarray(ulps, dtype=np.float64) * np.spacing(edge)


class TestCornerScreen:
    """_solve_block solves only the bins that pass its corner screen, and
    gives the bytes of _solve_unscreened, which solves every bin."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        l1=log_uniform.map(lambda u: 10.0 ** (8.0 * u)),
        l2=st.one_of(st.just(0.0), log_uniform.map(lambda u: 10.0 ** (8.0 * u))),
        ulps=st.lists(st.integers(-6, 6), min_size=1, max_size=24),
        powers=st.lists(log_uniform.map(lambda u: 10.0 ** (6.0 * u)), max_size=24),
    )
    def test_matches_unscreened(self, l1, l2, ulps, powers):
        lam = LagrangePair(l1, l2)
        S = np.concatenate((screen_edge_bins(lam, ulps), powers))
        screened = _solve_block(S, lam)
        unscreened = _solve_unscreened(S, lam)
        for got, want in zip(screened, unscreened):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lambdas", [(1e-8, 1e-8), (1.0, 0.0), (0.238, 2.7), (1e8, 1e8)])
    def test_extreme_powers(self, lambdas):
        # the cubic's coefficients overflow at S = 1e300 (ROADMAP item 4);
        # screened or not, the same bins come out
        lam = LagrangePair(*lambdas)
        S = np.array([1e-300, 1e-200, 1e200, 1e300])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            screened = _solve_block(S, lam)
            unscreened = _solve_unscreened(S, lam)
        for got, want in zip(screened, unscreened):
            assert got.tobytes() == want.tobytes()

    def test_edge_bins_straddle_the_screen(self):
        lam = LagrangePair(0.2380, 2.700)
        S = screen_edge_bins(lam, range(-6, 7))
        live = 2.0 * lam.lambda1 * S + 8.0 * lam.lambda2 * (0.5 * S) > 1.0
        assert live.any() and not live.all()
        assert np.all(_solve_block(S, lam)[2][~live])
