import math

import numpy as np
import pytest
from scipy import optimize

from mdrdf import (
    DistortionPair,
    ThetaPair,
    flat_spectrum,
    is_nondegenerate,
    ozarow_rate,
    r0,
    theta_to_distortions,
)
from mdrdf.errors import DegenerateDistortion, RegionViolation, ZeroNoise
from mdrdf.filters import pre_post_filters
from mdrdf.rdf import NoiseSpectra


def min_rate_over_triangle(sigma2, ds, dc, grid=100_000):
    """Oracle: minimize r0 over noise pairs whose distortions stay within
    the targets. The rate decreases in theta_plus at fixed theta_minus, so
    the best feasible theta_plus is explicit and the search is a dense 1-D
    scan over theta_minus followed by a bounded Brent polish."""

    def best_tp(tm):
        return np.minimum(np.minimum(ds - tm, dc * (sigma2 - tm) / sigma2), tm)

    def rate_of_tm(tm):
        tp = best_tp(tm)
        if np.ndim(tm) == 0 and tp <= 0:
            return np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            r = 0.5 * np.log(sigma2 / (2.0 * np.sqrt(tp * tm)))
        return np.where(tp > 0, r, np.inf) if np.ndim(tm) else float(r)

    tm = np.linspace(1e-9, sigma2 / 2, grid)
    rates = rate_of_tm(tm)
    k = int(np.argmin(rates))
    lo = tm[max(k - 2, 0)]
    hi = tm[min(k + 2, grid - 1)]
    res = optimize.minimize_scalar(
        rate_of_tm, bounds=(lo, hi), method="bounded", options={"xatol": 1e-14}
    )
    return min(float(rates[k]), float(res.fun))


class TestOzarowRate:
    def test_reference_point_against_triangle_oracle(self):
        got = ozarow_rate(1.0, DistortionPair(0.1, 0.05))
        assert got == pytest.approx(1.1520, abs=1e-4)
        assert got / math.log(2) == pytest.approx(1.662, abs=1e-3)
        oracle = min_rate_over_triangle(1.0, 0.1, 0.05)
        assert got == pytest.approx(oracle, abs=1e-6)

    def test_second_point_matches_parametrization_minimum(self):
        got = ozarow_rate(1.0, DistortionPair(0.5, 0.3))
        oracle = min_rate_over_triangle(1.0, 0.5, 0.3)
        assert got == pytest.approx(oracle, abs=1e-6)

    def test_zero_rate_corner(self):
        assert ozarow_rate(1.0, DistortionPair(1.0, 1.0)) == 0.0

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateDistortion):
            ozarow_rate(1.0, DistortionPair(0.1, 0.053))

    def test_monotone_in_each_distortion(self):
        # nonincreasing in d_side and d_central over the admissible region
        sigma2 = 1.0
        for dc in (0.05, 0.1, 0.2):
            rates = []
            for ds in np.linspace(2 * dc, 0.9, 15):
                d = DistortionPair(ds, dc)
                if is_nondegenerate(sigma2, d):
                    rates.append(ozarow_rate(sigma2, d))
            assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
        for ds in (0.2, 0.4):
            rates = []
            for dc in np.linspace(0.52 * ds, ds * 0.999, 15):
                d = DistortionPair(ds, dc)
                if is_nondegenerate(sigma2, d):
                    rates.append(ozarow_rate(sigma2, d))
            assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))


class TestNondegeneracy:
    @pytest.mark.parametrize(
        "sigma2,ds,dc,want",
        [
            (1.0, 0.1, 0.05, True),
            (1.0, 0.1, 0.052, True),
            (1.0, 0.1, 0.053, False),
            (1.0, 1.5, 0.5, False),
        ],
    )
    def test_examples(self, sigma2, ds, dc, want):
        assert is_nondegenerate(sigma2, DistortionPair(ds, dc)) is want

    def test_triangle_maps_into_region(self):
        rng = np.random.default_rng(3)
        sigma2 = 2.0
        for _ in range(500):
            tm = rng.uniform(0, sigma2 / 2)
            tp = rng.uniform(0, tm)
            d = theta_to_distortions(sigma2, ThetaPair(tp, tm))
            assert is_nondegenerate(sigma2, d)


class TestThetaParametrization:
    def test_zero_noise(self):
        d = theta_to_distortions(1.0, ThetaPair(0.0, 0.0))
        assert (d.d_side, d.d_central) == (0.0, 0.0)

    def test_symmetric_tenth(self):
        d = theta_to_distortions(1.0, ThetaPair(0.1, 0.1))
        assert d.d_side == pytest.approx(0.2, rel=1e-12)
        assert d.d_central == pytest.approx(0.1111, abs=1e-4)

    def test_zero_rate_corner(self):
        d = theta_to_distortions(1.0, ThetaPair(0.5, 0.5))
        assert d.d_side == pytest.approx(1.0, rel=1e-12)
        assert d.d_central == pytest.approx(1.0, rel=1e-12)

    def test_region_guard(self):
        with pytest.raises(RegionViolation):
            theta_to_distortions(1.0, ThetaPair(0.3, 0.6))

    def test_high_resolution_merge(self):
        sigma2 = 1.0
        rng = np.random.default_rng(4)
        for _ in range(100):
            tm = rng.uniform(1e-6, 1e-3 * sigma2)
            tp = rng.uniform(0, tm)
            d = theta_to_distortions(sigma2, ThetaPair(tp, tm))
            assert d.d_central == pytest.approx(tp, rel=2e-3)


def prepost_factors(sigma2, t):
    """Scalar pre/post factors (alpha_side, alpha_central) of the test
    channel: F and G of a one-bin flat spectrum."""
    one = np.ones(1)
    noise = NoiseSpectra(t.theta_plus * one, t.theta_minus * one, np.zeros(1, dtype=bool))
    pp = pre_post_filters(flat_spectrum(sigma2, 1), noise)
    return float(pp.f_mag[0]), float(pp.g_mag[0])


class TestPrePostFactors:
    def test_lossless_limit(self):
        assert prepost_factors(1.0, ThetaPair(0.0, 0.0)) == (1.0, 1.0)

    def test_reference_values(self):
        a_s, a_c = prepost_factors(1.0, ThetaPair(0.1, 0.1))
        assert a_s == pytest.approx(math.sqrt(0.8), rel=1e-12)
        assert a_c == pytest.approx(math.sqrt(0.8) / 0.9, rel=1e-12)

    def test_monte_carlo_channel_oracle(self):
        # the scalar double-branch channel with these factors realizes the
        # claimed side and central distortions
        rng = np.random.default_rng(11)
        n = 1 << 20
        sigma2, tp, tm = 1.5, 0.2, 0.45
        a_s, a_c = prepost_factors(sigma2, ThetaPair(tp, tm))
        x = rng.normal(0, math.sqrt(sigma2), n)
        z_plus = rng.normal(0, math.sqrt(tp), n)
        z_minus = rng.normal(0, math.sqrt(tm), n)
        u = a_s * x
        v1 = u + z_plus + z_minus
        v2 = u + z_plus - z_minus
        xh1 = a_s * v1
        xh_c = a_c * 0.5 * (v1 + v2)
        want = theta_to_distortions(sigma2, ThetaPair(tp, tm))
        assert np.mean((xh1 - x) ** 2) == pytest.approx(want.d_side, rel=0.01)
        assert np.mean((xh_c - x) ** 2) == pytest.approx(want.d_central, rel=0.01)


class TestR0:
    def test_one_bit_point(self):
        got = r0(1.0, ThetaPair(0.125, 0.125))
        assert got == pytest.approx(math.log(2.0), rel=1e-12)

    def test_zero_rate(self):
        assert r0(1.0, ThetaPair(0.5, 0.5)) == pytest.approx(0.0, abs=1e-15)

    def test_zero_noise_guard(self):
        with pytest.raises(ZeroNoise):
            r0(1.0, ThetaPair(0.0, 0.1))

    def test_matches_ozarow_through_distortions(self):
        # parametrization consistency over the whole region
        rng = np.random.default_rng(12)
        for _ in range(300):
            sigma2 = math.exp(rng.uniform(math.log(0.1), math.log(10)))
            tm = rng.uniform(1e-6, 0.5 * sigma2)
            tp = rng.uniform(1e-9, tm)
            pair = ThetaPair(tp, tm)
            oz = ozarow_rate(sigma2, theta_to_distortions(sigma2, pair))
            assert abs(r0(sigma2, pair) - oz) < 1e-9
