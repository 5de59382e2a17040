import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from mdrdf import (
    Spectrum,
    autocorrelation,
    entropy_power,
    flat_spectrum,

    optimal_predictor,
    regularize,
    spectrum_from_predictor,
)
from mdrdf.errors import LagTooLarge, NonPositiveSpectrum, SingularToeplitz
from mdrdf.spectra import PredictorCoeffs

from conftest import ar1_spectrum, cosine_spectrum


def quad_log_mean(fn):
    """Oracle: (1/pi) int_0^pi log fn(w) dw by adaptive quadrature."""
    val, _ = integrate.quad(lambda w: np.log(fn(w)), 0.0, np.pi, limit=400)
    return val / np.pi


class TestEntropyPower:
    def test_flat(self):
        assert entropy_power(flat_spectrum(2.0, 256)) == pytest.approx(2.0, abs=1e-12)

    def test_cosine_against_quadrature_oracle(self):
        oracle = np.exp(quad_log_mean(lambda w: np.cos(w) + 1.0))
        assert oracle == pytest.approx(0.5, abs=1e-9)  # analytic value
        got = entropy_power(cosine_spectrum(4096))
        assert got == pytest.approx(oracle, rel=1e-3)

    def test_ar1_innovation_variance(self):
        oracle = np.exp(quad_log_mean(lambda w: 1.0 / np.abs(1 - 0.9 * np.exp(-1j * w)) ** 2))
        assert oracle == pytest.approx(1.0, abs=1e-9)
        assert entropy_power(ar1_spectrum()) == pytest.approx(1.0, rel=1e-6)

    def test_rejects_nonpositive(self):
        vals = np.ones(64)
        vals[3] = 0.0
        with pytest.raises(NonPositiveSpectrum):
            entropy_power(Spectrum(vals))

    def test_am_gm_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = Spectrum(rng.uniform(0.1, 3.0, 128))
            assert entropy_power(s) <= s.variance + 1e-12


class TestAutocorrelation:
    def test_white(self):
        r = autocorrelation(flat_spectrum(1.0, 256), 2)
        assert r == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)

    def test_cosine_analytic_pair(self):
        r = autocorrelation(cosine_spectrum(4096), 1)
        # (1/2pi) int (cos w + 1) cos(m w) dw: 1 at lag 0, 1/2 at lag 1
        assert r == pytest.approx([1.0, 0.5], abs=1e-6)

    def test_ar1_analytic_oracle(self):
        a = 0.9
        r = autocorrelation(ar1_spectrum(a), 1)
        want = [1.0 / (1 - a * a), a / (1 - a * a)]  # r_m = a^m / (1 - a^2)
        assert r == pytest.approx(want, rel=1e-4)
        assert r[0] == pytest.approx(5.263, abs=1e-3)
        assert r[1] == pytest.approx(4.737, abs=1e-3)

    def test_lag_guard(self):
        with pytest.raises(LagTooLarge):
            autocorrelation(flat_spectrum(1.0, 64), 33)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        n=st.integers(2, 4096),
        lag_share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=4095, lag_share=1.0, seed=0)  # odd N at the largest lag
    @example(n=3, lag_share=1.0, seed=1)
    @example(n=2, lag_share=1.0, seed=2)
    def test_fft_matches_cosine_sums(self, n, lag_share, seed):
        # the oracle is the direct cosine sum the one-FFT form replaces
        values = np.random.default_rng(seed).uniform(0.01, 10.0, n)
        lags = int(lag_share * (n // 2))
        om = (np.arange(n) + 0.5) * np.pi / n
        want = np.cos(np.outer(np.arange(lags + 1), om)) @ values / n
        got = autocorrelation(Spectrum(values), lags)
        assert got.shape == (lags + 1,)
        assert np.max(np.abs(got - want)) <= 1e-13 * want[0]


class TestOptimalPredictor:
    def test_ar1_recovery(self):
        pred = optimal_predictor(ar1_spectrum(0.9), 8)
        assert pred.coeffs[0] == pytest.approx(0.9, abs=1e-3)
        assert np.max(np.abs(pred.coeffs[1:])) < 1e-3
        assert pred.innovation_variance == pytest.approx(1.0, abs=1e-3)
        assert pred.is_minimum_phase()

    def test_white_unpredictable(self):
        pred = optimal_predictor(flat_spectrum(2.5, 512), 4)
        assert np.max(np.abs(pred.coeffs)) < 1e-12
        assert pred.innovation_variance == pytest.approx(2.5, abs=1e-12)

    def test_cosine_converges_to_entropy_power(self):
        pred = optimal_predictor(cosine_spectrum(4096), 32)
        assert pred.innovation_variance == pytest.approx(0.5, rel=0.05)

    def test_innovation_nonincreasing_in_order(self):
        s = cosine_spectrum(1024)
        vars_ = [optimal_predictor(s, p).innovation_variance for p in (1, 2, 4, 8, 16)]
        assert all(a >= b - 1e-12 for a, b in zip(vars_, vars_[1:]))
        assert vars_[-1] >= entropy_power(s) - 1e-9

    def test_singular_spectrum_raises(self):
        # a pure line spectrum is perfectly predictable: |kappa| -> 1
        vals = np.full(512, 1e-30)
        vals[100] = 512.0
        with pytest.raises(SingularToeplitz):
            optimal_predictor(Spectrum(vals), 8)


class TestSpectrumFromPredictor:
    def test_empty_coeffs_flat(self):
        s = spectrum_from_predictor(PredictorCoeffs(np.zeros(0), 1.0), 128)
        assert s.values == pytest.approx(np.ones(128), abs=1e-12)

    def test_ar1_magnitude(self):
        s = spectrum_from_predictor(PredictorCoeffs(np.array([0.9]), 1.0), 4096)
        om = s.omega
        want = 1.0 / np.abs(1 - 0.9 * np.exp(-1j * om)) ** 2
        assert s.values == pytest.approx(want, rel=1e-12)
        # value at omega -> 0 approaches 1/0.01 = 100
        assert s.values[0] == pytest.approx(100.0, rel=1e-3)

    def test_ma1_factorization_oracle(self):
        # 0.5 |1 + e^{-jw}|^2 = cos w + 1; the coeff -1 predictor has the
        # reciprocal structure, so the product of the two spectra is flat
        s = spectrum_from_predictor(PredictorCoeffs(np.array([-1.0]), 0.5), 2048)
        cos_vals = cosine_spectrum(2048).values
        assert s.values * cos_vals == pytest.approx(np.full(2048, 0.25), rel=1e-9)

    def test_roundtrip_ar3(self):
        rng = np.random.default_rng(7)
        # reflection coefficients in (-1, 1) guarantee minimum phase
        kappas = rng.uniform(-0.8, 0.8, 3)
        a = np.zeros(0)
        for k in kappas:
            a = np.r_[a - k * a[::-1], k]
        pred = PredictorCoeffs(coeffs=a, innovation_variance=0.7)
        s = spectrum_from_predictor(pred, 4096)
        back = optimal_predictor(s, 3)
        assert back.coeffs == pytest.approx(pred.coeffs, abs=1e-6)
        assert back.innovation_variance == pytest.approx(0.7, rel=1e-6)
        s2 = spectrum_from_predictor(back, 4096)
        assert np.max(np.abs(s2.values - s.values)) < 1e-6 * np.max(s.values)


class TestRegularize:
    def test_noop_when_positive(self):
        s = flat_spectrum(1.0, 64)
        s2, d = regularize(s, 1e-3)
        assert d == 0.0
        assert np.array_equal(s2.values, s.values)

    def test_zero_band_credit(self):
        # zero band of measure pi/2 on the full circle = quarter of the grid
        vals = np.ones(400)
        vals[300:] = 0.0
        _, d = regularize(Spectrum(vals), 0.01)
        assert d == pytest.approx(0.0025, abs=1e-12)

    def test_cosine_tiny_credit(self):
        s2, d = regularize(cosine_spectrum(4096), 1e-6)
        assert 0.0 <= d < 1e-6
        assert np.all(s2.values >= 1e-6)

    def test_idempotent(self):
        vals = np.linspace(0.0, 2.0, 128)
        s1, d1 = regularize(Spectrum(vals), 0.05)
        s2, d2 = regularize(s1, 0.05)
        assert np.array_equal(s1.values, s2.values)
        assert d2 == 0.0
