import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdrdf import (
    DistortionPair,
    LagrangePair,
    ThetaPair,
    evaluate,
    fit_lambdas,
    flat_spectrum,
    ozarow_rate,
    r0,
    sweep,
    theta_to_distortions,
)
from mdrdf import rdf
from mdrdf.errors import NoConvergence, TargetInfeasible
from mdrdf.rdf import _analytic_seed, distortion_jacobian
from mdrdf.spectral_solver import SOLVE_BLOCK, solve_spectrum
from mdrdf.verify import high_rate_approx

from conftest import ar1_spectrum, cosine_spectrum

SPECTRA = {"cosine": cosine_spectrum(), "ar1": ar1_spectrum(), "flat": flat_spectrum(1.0, 4096)}


def fit_counting(spectrum, target, tol=1e-6):
    """fit_lambdas, and the number of evaluate() calls it made."""
    calls = []

    def counted(*args):
        calls.append(None)
        return evaluate(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rdf, "evaluate", counted)
        pt = fit_lambdas(spectrum, target, tol=tol)
    return pt, len(calls)


class TestEvaluate:
    def test_worked_example_cosine(self, example1_point):
        pt = example1_point
        assert pt.rate_bits == pytest.approx(0.7468, abs=1e-3)
        assert pt.d_side == pytest.approx(0.4000, abs=1e-3)
        assert pt.d_central == pytest.approx(0.0801, abs=1e-3)

    def test_flat_source_matches_single_frequency(self):
        lam = LagrangePair(0.9, 1.7)
        pt = evaluate(flat_spectrum(1.0, 512), lam)
        tp = pt.spectra.theta_plus
        tm = pt.spectra.theta_minus
        assert np.ptp(tp) == 0.0 and np.ptp(tm) == 0.0  # flat optimal spectra
        assert pt.rate == pytest.approx(r0(1.0, ThetaPair(tp[0], tm[0])), rel=1e-12)

    def test_tiny_multipliers_zero_rate(self):
        # at sigma2 = 2.9 the corner's S (S/2) / (S - S/2) rounds above S
        for sigma2 in (2.0, 2.9):
            pt = evaluate(flat_spectrum(sigma2, 256), LagrangePair(1e-9, 1e-9))
            assert pt.rate == 0.0
            assert pt.d_side == pytest.approx(sigma2, rel=1e-12)
            assert pt.d_central == pytest.approx(sigma2, rel=1e-12)
            assert pt.d_central <= pt.d_side
            assert np.all(pt.spectra.boundary_mask)

    def test_invariants_on_random_points(self, cosine):
        rng = np.random.default_rng(40)
        for _ in range(20):
            lam = LagrangePair(
                math.exp(rng.uniform(-3, 3)), math.exp(rng.uniform(-3, 3))
            )
            pt = evaluate(cosine, lam)
            assert 0.0 <= pt.d_central <= pt.d_side <= cosine.variance * (1 + 1e-9)
            assert pt.rate >= 0.0

    def test_white_source_reduction_to_closed_form(self):
        # for flat spectra the rate equals the closed form at the induced pair
        rng = np.random.default_rng(41)
        for _ in range(50):
            sigma2 = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
            lam = LagrangePair(
                math.exp(rng.uniform(math.log(0.05), math.log(30.0))),
                math.exp(rng.uniform(math.log(0.05), math.log(30.0))),
            )
            pt = evaluate(flat_spectrum(sigma2, 128), lam)
            if pt.rate == 0.0:
                continue
            oz = ozarow_rate(sigma2, DistortionPair(pt.d_side, pt.d_central))
            assert abs(pt.rate - oz) < 1e-6

    def test_fine_grid_peak_memory(self):
        # solving 2^20 bins in one pass peaks at 27.4 float64 arrays of that
        # length; in blocks, at 7.1: the solver's outputs and the densities
        n = 1 << 20
        spectrum = cosine_spectrum(n)
        tracemalloc.start()
        try:
            evaluate(spectrum, LagrangePair(0.2380, 2.700))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 8 * n


class TestIntegralsAreMeans:
    """evaluate sums its densities block by block along numpy's
    pairwise-summation tree, and so gets np.mean of the full-length
    densities bit for bit. This fails if numpy ever sums another way."""

    @pytest.mark.parametrize("n", [1, SOLVE_BLOCK, SOLVE_BLOCK + 1, 100000, 3 * SOLVE_BLOCK + 17])
    @pytest.mark.parametrize(
        "make, lambdas",
        [(cosine_spectrum, (0.2380, 2.700)), (ar1_spectrum, (0.05, 0.5))],
        ids=["cosine", "ar1"],
    )
    def test_equal_np_mean(self, n, make, lambdas):
        spectrum = make(n=n)
        pt = evaluate(spectrum, LagrangePair(*lambdas))
        rate, d_side, d_central = rdf.densities(spectrum.values, pt.spectra)
        assert pt.rate == float(np.mean(rate))
        assert pt.d_side == float(np.mean(d_side))
        assert pt.d_central == min(float(np.mean(d_central)), pt.d_side)

    def test_fine_grid_holds_no_full_length_densities(self):
        # the outputs, two float64 arrays and one bool array of 2^20 bins,
        # take 17.8 MB; one block's densities and solver temporaries, not
        # five full-length densities (41.9 MB), come on top
        spectrum = cosine_spectrum(1 << 20)
        tracemalloc.start()
        try:
            evaluate(spectrum, LagrangePair(0.2380, 2.700))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6


class TestRateDensity:
    def test_one_bit(self):
        # lambda2 = 0 on a flat source: tp = tm = 1/(4 lambda1) = 1/8
        pt = evaluate(flat_spectrum(1.0, 8), LagrangePair(2.0, 0.0))
        assert pt.rate == pytest.approx(math.log(2), rel=1e-12)


class TestFit:
    def test_example1_inverse(self, cosine):
        pt = fit_lambdas(cosine, DistortionPair(0.4, 0.08), tol=1e-9)
        assert pt.lambdas.lambda1 == pytest.approx(0.238, rel=0.02)
        assert pt.lambdas.lambda2 == pytest.approx(2.70, rel=0.02)
        assert pt.rate_bits <= 0.7468 + 1e-3
        assert pt.d_side == pytest.approx(0.4, abs=1e-9)
        assert pt.d_central == pytest.approx(0.08, abs=1e-9)

    def test_flat_matches_closed_form(self):
        target = theta_to_distortions(1.0, ThetaPair(0.1, 0.1))
        pt = fit_lambdas(flat_spectrum(1.0, 128), target, tol=1e-9)
        want = ozarow_rate(1.0, target)
        assert abs(pt.rate - want) < 1e-4

    def test_zero_rate_target(self):
        pt = fit_lambdas(flat_spectrum(1.0, 128), DistortionPair(1.0, 1.0))
        assert pt.rate == 0.0

    def test_infeasible_targets(self):
        with pytest.raises(TargetInfeasible):
            fit_lambdas(flat_spectrum(1.0, 128), DistortionPair(1.5, 0.5))

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tol_not_positive_finite(self, tol):
        # an infinite tol would accept the side edge point whatever its D_C
        with pytest.raises(ValueError, match="tol"):
            fit_lambdas(cosine_spectrum(), DistortionPair(0.5, 0.01), tol=tol)

    def test_slack_central_constraint_returns_feasible_min_rate(self):
        # (0.5, 0.45) has the central constraint inactive: no equality fit
        # exists, the result must still satisfy both as inequalities
        pt = fit_lambdas(flat_spectrum(1.0, 128), DistortionPair(0.5, 0.45), tol=1e-6)
        assert pt.d_side <= 0.5 + 1e-6
        assert pt.d_central <= 0.45 + 1e-6

    @pytest.mark.parametrize(
        "source, target, slack, want",
        [
            # side slack: the lambda1 = 0 point with D_C = 0.2 has D_S = 1/2 + 0.2/2
            ("cosine", (0.9, 0.2), "lambda1", (0.6, 0.2)),
            # central slack: tp = tm = 1/4 gives D_S = 1/2 and D_C = 1/3
            ("flat", (0.5, 0.45), "lambda2", (0.5, 1.0 / 3.0)),
        ],
    )
    def test_slack_target_returns_edge_point(self, cosine, source, target, slack, want):
        spectrum = cosine if source == "cosine" else flat_spectrum(1.0, 128)
        pt = fit_lambdas(spectrum, DistortionPair(*target))
        assert getattr(pt.lambdas, slack) == 0.0
        assert abs(pt.d_side - want[0]) <= 1e-12
        assert abs(pt.d_central - want[1]) <= 1e-12

    @pytest.mark.parametrize(
        "source, target", [("cosine", (1e-200, 1e-200)), ("flat", (1e-200, 1e-201))]
    )
    def test_off_target_edge_point_raises(self, source, target):
        # the side edge's lambda1 = 5e199 overflows the per-frequency
        # solver, which returns the zero-rate corner, D_S = D_C = variance
        with pytest.warns(RuntimeWarning), pytest.raises(NoConvergence, match="slack-edge"):
            fit_lambdas(SPECTRA[source], DistortionPair(*target))

    def test_target_above_variance_binds_at_variance(self):
        # the fit admits a target up to 1e-9 above the variance; the edge
        # point reaches the variance, which a large variance puts more than
        # tol below the target
        var = 1e4
        ds = var * (1.0 + 5e-10)
        pt = fit_lambdas(flat_spectrum(var, 128), DistortionPair(ds, ds), tol=1e-6)
        assert (pt.rate, pt.d_side, pt.d_central) == (0.0, var, var)

    @pytest.mark.parametrize("source, u, v", [("cosine", 0.15, 0.09), ("ar1", 0.1, 0.07)])
    def test_equality_target_without_analytic_seed(self, cosine, ar1, source, u, v):
        # (D_S, D_C) = (u, v) times the variance; no stationarity-inversion seed
        spectrum = cosine if source == "cosine" else ar1
        ds, dc = u * spectrum.variance, v * spectrum.variance
        assert _analytic_seed(spectrum.variance, ds, dc) is None
        tol = 1e-6
        pt = fit_lambdas(spectrum, DistortionPair(ds, dc), tol=tol)
        assert abs(pt.d_side - ds) <= tol
        assert abs(pt.d_central - dc) <= tol

    @pytest.mark.parametrize("source, u, v", [("cosine", 0.75, 0.8), ("ar1", 0.95, 0.95)])
    def test_step_control_targets(self, source, u, v):
        # (D_S, D_C) = (u, u v) times the variance. A log step scaled to
        # length 2 stalls on AR(1) (the Newton step drives lambda2 towards
        # 0 while lambda1 hardly moves); a log step clipped to 2 per
        # component stalls on cosine
        spectrum = SPECTRA[source]
        ds, dc = u * spectrum.variance, u * v * spectrum.variance
        tol = 1e-6
        pt, evaluations = fit_counting(spectrum, DistortionPair(ds, dc), tol)
        assert pt.lambdas.lambda1 > 0.0 and pt.lambdas.lambda2 > 0.0
        assert abs(pt.d_side - ds) <= tol
        assert abs(pt.d_central - dc) <= tol
        assert evaluations <= 30

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        source=st.sampled_from(["cosine", "ar1", "flat"]),
        u=st.floats(0.05, 0.95),
        v=st.floats(0.05, 0.95),
    )
    def test_targets_met_in_few_evaluations(self, source, u, v):
        # (D_S, D_C) = (u, u v) times the variance
        spectrum = SPECTRA[source]
        ds, dc = u * spectrum.variance, u * v * spectrum.variance
        tol = 1e-6
        pt, evaluations = fit_counting(spectrum, DistortionPair(ds, dc), tol)
        if pt.lambdas.lambda1 > 0.0 and pt.lambdas.lambda2 > 0.0:
            assert abs(pt.d_side - ds) <= tol
            assert abs(pt.d_central - dc) <= tol
            assert evaluations <= 30
        else:  # a slack target: its edge point in one evaluation
            assert pt.d_side <= ds + tol and pt.d_central <= dc + tol
            assert evaluations == 1

    def test_lower_envelope(self, cosine, example1_point):
        # no multiplier pair meeting the solved point's distortions beats its rate
        target_ds = example1_point.d_side
        target_dc = example1_point.d_central
        fitted = fit_lambdas(cosine, DistortionPair(target_ds, target_dc), tol=1e-9)
        rng = np.random.default_rng(42)
        for _ in range(40):
            lam = LagrangePair(
                math.exp(rng.uniform(-4, 4)), math.exp(rng.uniform(-4, 4))
            )
            pt = evaluate(cosine, lam)
            if pt.d_side <= target_ds + 1e-9 and pt.d_central <= target_dc + 1e-9:
                assert pt.rate >= fitted.rate - 1e-6


class TestMultipliersAreSlopes:
    """R(D_S, D_C) is the concave dual's maximum, so grad R = -(lambda1, lambda2)."""

    @staticmethod
    def ozarow_gradient(sigma2, ds, dc):
        return (
            0.25 * (1.0 / (sigma2 - ds) - 1.0 / (ds - dc)),
            0.25 * (1.0 / (ds - dc) - 1.0 / dc - 2.0 / (sigma2 - dc)),
        )

    @pytest.mark.parametrize("ds, dc", [(0.5, 0.3), (0.3, 0.1), (0.2, 0.05)])
    def test_gradient_is_ozarows(self, ds, dc):
        # central differences at h = 1e-6 carry a rounding error of about
        # eps R / h = 3e-10 against slopes of order 0.3, and a truncation
        # error of order h^2
        def R(s, c):
            return ozarow_rate(1.0, DistortionPair(s, c))

        h = 1e-6
        slopes = ((R(ds + h, dc) - R(ds - h, dc)) / (2 * h), (R(ds, dc + h) - R(ds, dc - h)) / (2 * h))
        assert slopes == pytest.approx(self.ozarow_gradient(1.0, ds, dc), rel=1e-8)

    @pytest.mark.parametrize("ds, dc", [(0.5, 0.3), (0.3, 0.1), (0.2, 0.05)])
    def test_white_fit_multipliers(self, ds, dc):
        # on a white source the fit's seed is the exact stationary point and
        # it stops at a residual of FIT_RTOL = 1e-12 (measured: 1.1e-15)
        pt = fit_lambdas(flat_spectrum(1.0, 4096), DistortionPair(ds, dc))
        g1, g2 = self.ozarow_gradient(1.0, ds, dc)
        assert pt.lambdas.lambda1 == pytest.approx(-g1, rel=1e-12)
        assert pt.lambdas.lambda2 == pytest.approx(-g2, rel=1e-12)
        assert pt.rate == pytest.approx(ozarow_rate(1.0, DistortionPair(ds, dc)), abs=1e-14)


class TestDistortionJacobian:
    @staticmethod
    def central_differences(spectrum, lambdas, column):
        lam = list(lambdas)
        h = 1e-6 * lam[column]
        lam[column] += h
        up = evaluate(spectrum, LagrangePair(*lam))
        lam[column] -= 2.0 * h
        down = evaluate(spectrum, LagrangePair(*lam))
        return np.array([up.d_side - down.d_side, up.d_central - down.d_central]) / (2.0 * h)

    @staticmethod
    def bin_counts(spectrum, pt):
        """Interior, tm = S/2 edge and zero-rate corner bins."""
        corner = pt.spectra.boundary_mask
        edge = ~corner & (pt.spectra.theta_minus == 0.5 * spectrum.values)
        return int(np.sum(~corner & ~edge)), int(np.sum(edge)), int(np.sum(corner))

    @pytest.mark.parametrize(
        "source, lambdas, has_corner",
        [
            ("cosine", (0.238, 2.7), True),
            ("cosine", (10.0, 0.01), True),
            ("ar1", (0.238, 2.7), False),
            ("ar1", (0.02, 0.2), True),
        ],
    )
    def test_interior_and_corner_bins(self, source, lambdas, has_corner):
        spectrum = SPECTRA[source]
        pt = evaluate(spectrum, LagrangePair(*lambdas))
        interior, edge, corner = self.bin_counts(spectrum, pt)
        assert interior > 0 and edge == 0 and (corner > 0) == has_corner
        J = distortion_jacobian(spectrum, pt)
        fd = np.column_stack([self.central_differences(spectrum, lambdas, k) for k in (0, 1)])
        assert np.allclose(J, fd, rtol=0.0, atol=1e-6 * np.max(np.abs(J)))
        assert J[0, 1] == J[1, 0]
        assert np.all(np.linalg.eigvalsh(J) < 0.0)

    @pytest.mark.parametrize("source, lambda2", [("cosine", 0.5), ("ar1", 0.05)])
    def test_edge_bins(self, source, lambda2):
        # at lambda1 = 0 every bin off the corner sits at tm = S/2; there
        # lambda1 cannot fall, so only the lambda2 column is a derivative
        spectrum = SPECTRA[source]
        lambdas = (0.0, lambda2)
        pt = evaluate(spectrum, LagrangePair(*lambdas))
        interior, edge, corner = self.bin_counts(spectrum, pt)
        assert interior == 0 and edge > 0 and corner > 0
        J = distortion_jacobian(spectrum, pt)
        fd = self.central_differences(spectrum, lambdas, 1)
        assert np.allclose(J[:, 1], fd, rtol=1e-6, atol=0.0)
        assert J[0, 1] == J[1, 0]


class TestSlackEdges:
    @pytest.mark.parametrize(
        "lambdas, tp, tm",
        [
            # lambda1 = 0: tm = S/2, tp = min(1/(8 lambda2), S/2)
            ((0.0, 0.5), lambda S: np.minimum(0.25, S / 2), lambda S: S / 2),
            # lambda2 = 0: tp = tm = min(1/(4 lambda1), S/2)
            ((0.5, 0.0), lambda S: np.minimum(0.5, S / 2), lambda S: np.minimum(0.5, S / 2)),
        ],
        ids=["lambda1=0", "lambda2=0"],
    )
    def test_solver_matches_closed_form(self, lambdas, tp, tm):
        S = np.geomspace(1e-3, 1e3, 241)
        got_tp, got_tm, boundary = solve_spectrum(S, LagrangePair(*lambdas))
        assert np.allclose(got_tp, tp(S), rtol=1e-13, atol=0.0)
        assert np.allclose(got_tm, tm(S), rtol=1e-13, atol=0.0)
        assert np.array_equal(boundary, got_tp == S / 2)

    @pytest.mark.parametrize(
        "l1, l2",
        [(0.0, 0.0), (-1.0, 1.0), (1.0, -1e-9), (math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf)],
    )
    def test_invalid_multipliers(self, l1, l2):
        with pytest.raises(ValueError):
            LagrangePair(l1, l2)


class TestHighRateApprox:
    def test_formula(self):
        t = high_rate_approx(LagrangePair(4.0, 3.0))
        assert t.theta_minus == pytest.approx(1.0 / 16.0, rel=1e-15)
        assert t.theta_plus == pytest.approx(1.0 / 28.0, rel=1e-15)

    def test_slack_side_constraint_rejected(self):
        with pytest.raises(ValueError):
            high_rate_approx(LagrangePair(0.0, 1.0))

    def test_limits_against_exact(self):
        from mdrdf import solve_frequency

        lam = LagrangePair(1e4, 1e6)
        for S in (0.5, 1.0, 2.0):
            sol = solve_frequency(S, lam)
            assert abs(lam.lambda1 * sol.theta_minus - 0.25) < 1e-2
            assert abs((lam.lambda1 + lam.lambda2) * sol.theta_plus - 0.25) < 1e-2

    def test_error_decreases_along_diagonal(self):
        from mdrdf import solve_frequency

        errs = []
        for t in (10.0, 100.0, 1000.0):
            lam = LagrangePair(t, t)
            sol = solve_frequency(1.0, lam)
            approx = high_rate_approx(lam)
            errs.append(
                abs(sol.theta_minus - approx.theta_minus) / approx.theta_minus
                + abs(sol.theta_plus - approx.theta_plus) / approx.theta_plus
            )
        assert errs[0] > errs[1] > errs[2]


class TestSweep:
    def test_row_count_and_invariants(self, cosine):
        grid1 = [0.1, 1.0, 10.0]
        grid2 = [0.5, 5.0]
        points = sweep(cosine, grid1, grid2)
        assert len(points) == 6
        for pt in points:
            assert 0.0 <= pt.d_central <= pt.d_side <= cosine.variance * (1 + 1e-9)
            assert pt.rate >= 0.0

    def test_monotone_distortions(self, cosine):
        # D_S nonincreasing in lambda1 at fixed lambda2 = 3, and D_C
        # nonincreasing in lambda2 at fixed lambda1 = 3; rate nondecreasing
        l1s = np.exp(np.linspace(math.log(0.05), math.log(30), 12))
        pts = [evaluate(cosine, LagrangePair(l1, 3.0)) for l1 in l1s]
        ds = [p.d_side for p in pts]
        rates = [p.rate for p in pts]
        assert all(a >= b - 1e-12 for a, b in zip(ds, ds[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))
        l2s = np.exp(np.linspace(math.log(0.05), math.log(30), 12))
        pts = [evaluate(cosine, LagrangePair(3.0, l2)) for l2 in l2s]
        dc = [p.d_central for p in pts]
        rates = [p.rate for p in pts]
        assert all(a >= b - 1e-12 for a, b in zip(dc, dc[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_zero_rate_band_contract(self, cosine, example1_point):
        # boundary frequencies contribute zero rate and D = S exactly
        mask = example1_point.spectra.boundary_mask
        tp = example1_point.spectra.theta_plus[mask]
        tm = example1_point.spectra.theta_minus[mask]
        S = cosine.values[mask]
        assert np.allclose(tp, S / 2) and np.allclose(tm, S / 2)
