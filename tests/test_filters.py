import numpy as np
import pytest

from mdrdf import Spectrum, entropy_power, flat_spectrum, midpoint_omega, spectrum_from_predictor
from mdrdf.errors import MaskExceedsSource, NegativeRadicand
from mdrdf.filters import (
    interleave_theta,
    noise_shaper,
    pre_post_filters,
    sd_prefilter,
)
from mdrdf.rdf import NoiseSpectra

from conftest import ar1_spectrum


def flat_noise(tp, tm, n):
    return NoiseSpectra(
        np.full(n, tp), np.full(n, tm), np.zeros(n, dtype=bool)
    )


def two_step_mask(low, high, n):
    vals = np.full(2 * n, low)
    vals[n:] = high
    return Spectrum(vals)


def shaped_response(shaper, grid_size):
    # |1 + C|^2 = 1/|1 - Q|^2 times the innovation power
    return spectrum_from_predictor(shaper, grid_size).values


class TestInterleave:
    def test_flat_pair(self):
        tilde = interleave_theta(flat_noise(0.05, 0.05, 64))
        assert np.all(tilde.values == 0.1)
        assert entropy_power(tilde) == pytest.approx(0.1, rel=1e-12)

    def test_two_step_for_white_source(self):
        tilde = interleave_theta(flat_noise(0.05, 0.2, 64))
        assert np.all(tilde.values[:64] == 0.1)
        assert np.all(tilde.values[64:] == 0.4)
        want = 2.0 * np.sqrt(0.05 * 0.2)
        assert entropy_power(tilde) == pytest.approx(want, rel=1e-12)

    def test_entropy_power_identity_example1(self, example1_point):
        spectra = example1_point.spectra
        tilde = interleave_theta(spectra)
        want = 2.0 * np.sqrt(
            entropy_power(Spectrum(spectra.theta_plus))
            * entropy_power(Spectrum(spectra.theta_minus))
        )
        assert entropy_power(tilde) == pytest.approx(want, rel=1e-6)

    def test_orientation_folds_back_onto_source_grid(self):
        # downsampling by two must map both halves bin-for-bin: the lowpass
        # half in order, the highpass half reversed
        tp = np.linspace(0.1, 0.2, 8)
        tm = np.linspace(0.3, 0.5, 8)
        tilde = interleave_theta(NoiseSpectra(tp, tm, np.zeros(8, bool)))
        assert np.allclose(tilde.values[:8], 2 * tp)
        assert np.allclose(tilde.values[8:], 2 * tm[::-1])


class TestNoiseShaper:
    def test_flat_mask_no_shaping(self):
        shaper = noise_shaper(flat_spectrum(0.2, 128), 16)
        assert shaper.order == 0
        assert shaper.innovation_variance == pytest.approx(0.2, rel=1e-12)

    def test_dqc_identity_for_ar_mask(self):
        # an AR(1)-shaped mask is matched exactly by a first-order
        # predictor, so |1 + C|^2 times the innovation power is the mask
        mask = Spectrum(0.3 * ar1_spectrum(0.5, 1.0, 512).values / 1.0)
        shaper = noise_shaper(mask, 8)
        got = shaped_response(shaper, 512)
        assert got == pytest.approx(mask.values, rel=1e-6)

    def test_two_step_mask_within_five_percent_in_band(self):
        mask = two_step_mask(0.1, 0.4, 512)
        shaper = noise_shaper(mask, 64)
        got = shaped_response(shaper, 1024)
        om = midpoint_omega(1024)
        in_band = (np.abs(om - np.pi / 2) > 0.1 * np.pi) & (om > 0.05 * np.pi) & (
            om < 0.95 * np.pi
        )
        rel = np.abs(got[in_band] - mask.values[in_band]) / mask.values[in_band]
        assert np.max(rel) < 0.05

    def test_roundtrip_error_decreases_with_order(self):
        mask = two_step_mask(0.1, 0.4, 512)
        errs = []
        for order in (16, 64, 256):
            shaper = noise_shaper(mask, order)
            got = shaped_response(shaper, 1024)
            errs.append(np.max(np.abs(got - mask.values)))
        assert errs[0] > errs[1] > errs[2]


class TestPrePostFilters:
    def test_zero_noise_identity(self):
        s = flat_spectrum(1.0, 32)
        pp = pre_post_filters(s, flat_noise(0.0, 0.0, 32))
        assert np.all(pp.f_mag == 1.0)
        assert np.all(pp.g_mag == 1.0)

    def test_zero_rate_corner_blanks(self):
        s = flat_spectrum(1.0, 32)
        pp = pre_post_filters(s, flat_noise(0.5, 0.5, 32))
        assert np.all(pp.f_mag == 0.0)
        assert np.all(pp.g_mag == 0.0)

    def test_magnitude_formulas(self, cosine, example1_point):
        pp = pre_post_filters(cosine, example1_point.spectra)
        S = cosine.values
        tp = example1_point.spectra.theta_plus
        tm = example1_point.spectra.theta_minus
        assert pp.f_mag**2 == pytest.approx((S - tp - tm) / S, abs=1e-12)
        assert pp.g_mag**2 == pytest.approx(S * (S - tp - tm) / (S - tm) ** 2, abs=1e-12)

    def test_triangle_guard(self):
        with pytest.raises(NegativeRadicand):
            pre_post_filters(flat_spectrum(1.0, 32), flat_noise(0.4, 0.7, 32))


class TestSdPrefilter:
    def test_full_mask_blanks(self):
        s = flat_spectrum(1.0, 32)
        assert np.all(sd_prefilter(s, s) == 0.0)

    def test_tiny_mask_transparent(self):
        s = flat_spectrum(1.0, 32)
        f = sd_prefilter(s, flat_spectrum(1e-9, 32))
        assert f == pytest.approx(np.ones(32), abs=1e-9)

    def test_mask_guard(self):
        with pytest.raises(MaskExceedsSource):
            sd_prefilter(flat_spectrum(1.0, 32), flat_spectrum(1.5, 32))
