import json
import math
import sys
import warnings

import numpy as np
import pytest
from scipy import stats

from mdrdf import (
    DistortionPair,
    LagrangePair,
    Spectrum,
    entropy_power,
    evaluate,
    fit_lambdas,
    flat_spectrum,
    midpoint_omega,
    sim,
)
from mdrdf.errors import KernelUnavailableWarning, MaskExceedsSource, SignalTooShort
from mdrdf.filters import interleave_theta, noise_shaper
from mdrdf.rdf import NoiseSpectra
from mdrdf.sim import (
    MODES,
    PREDICTOR_ORDER,
    QuantizerState,
    SimConfig,
    _apply_predictor_error,
    _decoder_spectra,
    _dsq_loop,
    _half_sample,
    _interpolate,
    _on_fft_grid,
    _path_errors,
    run_md_channel,
    run_md_codec,
    run_sd_mask_channel,
    welch_psd,
)
from mdrdf.spectra import optimal_predictor
from mdrdf.spectral_solver import SOLVE_BLOCK

from conftest import ar1_spectrum, band_means, ecdq_quantize, needs_cc


def flat_noise(tp, tm, n):
    return NoiseSpectra(np.full(n, tp), np.full(n, tm), np.zeros(n, dtype=bool))


@pytest.fixture
def fresh_kernel():
    """Forget the loaded kernel before and after the test, so that the test
    sees its own cache and compiler, and later tests see theirs."""
    sim.dsq_kernel.load.cache_clear()
    yield sim.dsq_kernel.load
    sim.dsq_kernel.load.cache_clear()


def record_loop(monkeypatch):
    """Record (args, kwargs, result) of every ecdq loop the simulators run."""
    calls = []
    real = sim._ecdq_loop

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(sim, "_ecdq_loop", spy)
    return calls


def assert_matches_reference(got, want):
    """Indices and Y exactly equal; V to 1e-12 of its scale (the kernel's
    dot products may round differently from np.dot's)."""
    (V, Y, idx), (V_ref, Y_ref, idx_ref) = got, want
    np.testing.assert_array_equal(idx, idx_ref)
    np.testing.assert_array_equal(Y, Y_ref)
    assert np.max(np.abs(V - V_ref)) <= 1e-12 * np.max(np.abs(V_ref))


def assert_reports_close(got, want, rtol=1e-12):
    """Every report field within rtol of want's, relative to its scale."""
    got = got.to_dict()
    for key, w in want.to_dict().items():
        g = got[key]
        if isinstance(w, dict):
            g, w = np.asarray(g["values"]), np.asarray(w["values"])
        if w is None:
            assert g is None, key
        else:
            assert np.max(np.abs(np.subtract(g, w))) <= rtol * np.max(np.abs(w)), key


def anchor_point(spectrum):
    """The benchmark's operating point (D_S, D_C) = (0.4, 0.08) variance."""
    var = spectrum.variance
    return fit_lambdas(spectrum, DistortionPair(0.4 * var, 0.08 * var), tol=1e-6)


class TestEcdqQuantize:
    def test_zero_dither_rounding(self):
        state = QuantizerState(step=1.0, rng=np.random.default_rng(0))
        arr = np.asarray(1.3)
        index = np.floor((arr + 0.0) / state.step + 0.5)
        recon = index * state.step - 0.0
        assert index == 1 and recon == 1.0
        # and through the public op the identity recon = idx*step - dither holds
        idx, rec = ecdq_quantize(1.3, state)
        assert rec == pytest.approx(idx * 1.0 - (idx * 1.0 - rec), rel=1e-12)

    def test_error_uniform_chi_squared(self):
        state = QuantizerState(step=0.7, rng=np.random.default_rng(1))
        x = np.random.default_rng(2).normal(0, 2.0, 1_000_000)
        _, recon = ecdq_quantize(x, state)
        err = recon - x
        assert np.all(err > -0.35 - 1e-12) and np.all(err <= 0.35 + 1e-12)
        assert np.var(err) == pytest.approx(0.7**2 / 12.0, rel=0.01)
        counts, _ = np.histogram(err, bins=32, range=(-0.35, 0.35))
        expected = err.size / 32.0
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 < stats.chi2.ppf(0.99, 31)

    def test_error_independent_of_input(self):
        state = QuantizerState(step=0.5, rng=np.random.default_rng(3))
        x = np.random.default_rng(4).normal(0, 1.0, 200_000)
        _, recon = ecdq_quantize(x, state)
        err = recon - x
        corr = np.corrcoef(x, err)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(x.size)


class TestWelch:
    def test_white_noise_flat(self):
        x = np.random.default_rng(5).standard_normal(1 << 20)
        psd = welch_psd(x, 512)
        assert np.max(np.abs(psd.values - 1.0)) < 0.05

    def test_sinusoid_dominant_bin(self):
        n = 1 << 16
        t = np.arange(n)
        x = np.sin(0.3 * np.pi * t)
        psd = welch_psd(x, 1024)
        k = int(np.argmax(psd.values))
        assert abs(psd.omega[k] - 0.3 * np.pi) < 0.02

    def test_ar1_matches_analytic(self):
        from scipy import signal as sig

        x = sig.lfilter([1.0], [1.0, -0.9], np.random.default_rng(6).standard_normal(1 << 19))
        psd = welch_psd(x[4096:], 1024)
        want = 1.0 / np.abs(1 - 0.9 * np.exp(-1j * psd.omega)) ** 2
        got_b = band_means(psd, 16)
        want_b = band_means(Spectrum(want), 16)
        rel = np.abs(got_b - want_b) / want_b
        assert np.max(rel[:14]) < 0.05  # in-band; skip the last bands near pi

    def test_too_short_guard(self):
        with pytest.raises(SignalTooShort):
            welch_psd(np.zeros(1000), 512)


class TestDsqLoop:
    def test_recursive_shaper_is_exact(self):
        # stride-2 loop on a colored (two-step) interleaved mask with an
        # AR(1) source predictor: the noise the loop adds to its input,
        # V - U = E/(1 - Q), must whiten back to a quantization error E
        # inside the cell, and Y must be the prediction error of V
        from scipy import signal as sig

        q = noise_shaper(interleave_theta(flat_noise(0.05, 0.2, 256)), 96)
        assert q.order == 96
        a = np.array([0.9])
        n = 1 << 14
        rng = np.random.default_rng(24)
        u = sig.lfilter([1.0], [1.0, -0.9], rng.standard_normal(n))
        state = QuantizerState(step=math.sqrt(12.0 * q.innovation_variance), rng=rng)
        V, Y, _ = _dsq_loop(u, a, q.coeffs, 2, state.draw_dither(n), state.step)
        E = sig.lfilter(np.r_[1.0, -q.coeffs], [1.0], V - u)
        assert np.max(np.abs(E)) <= state.step / 2 + 1e-12
        assert np.var(E) == pytest.approx(q.innovation_variance, rel=0.05)
        assert Y == pytest.approx(_apply_predictor_error(V, a, 2), abs=1e-9)


class TestCompiledLoop:
    @needs_cc
    @pytest.mark.parametrize("source", ["cosine", "ar1"])
    def test_md_codec_loop_matches_reference(self, source, request, monkeypatch):
        spectrum = request.getfixturevalue(source)
        calls = record_loop(monkeypatch)
        cfg = SimConfig(num_samples=1 << 16, seed=7, mode="ecdq")
        run_md_codec(spectrum, anchor_point(spectrum).spectra, cfg)
        assert sim.dsq_kernel.load() is not None
        (args, kwargs, got), = calls
        assert kwargs["stride"] == 2 and args[0].size == 1 << 17
        assert_matches_reference(got, _dsq_loop(*args, **kwargs))

    @needs_cc
    def test_sd_channel_loop_matches_reference(self, cosine, monkeypatch):
        spectra = anchor_point(cosine).spectra
        mask = Spectrum(spectra.theta_plus + spectra.theta_minus)
        calls = record_loop(monkeypatch)
        cfg = SimConfig(num_samples=1 << 16, seed=7, mode="ecdq")
        run_sd_mask_channel(cosine, mask, cfg)
        assert sim.dsq_kernel.load() is not None
        (args, kwargs, got), = calls
        assert kwargs["stride"] == 1 and args[0].size == 1 << 16
        assert_matches_reference(got, _dsq_loop(*args, **kwargs))

    @needs_cc
    @pytest.mark.parametrize(
        "source, noise, has_taps",
        [
            ("flat", (0.08, 0.15), (False, True)),  # white source: empty a
            ("ar1", (0.1, 0.1), (True, False)),  # flat mask: empty q
            ("flat", (0.1, 0.1), (False, False)),
        ],
    )
    def test_degenerate_orders(self, source, noise, has_taps, ar1, monkeypatch):
        spectrum = ar1 if source == "ar1" else flat_spectrum(1.0, ar1.grid_size)
        calls = record_loop(monkeypatch)
        cfg = SimConfig(num_samples=1 << 16, seed=8, mode="ecdq")
        run_md_codec(spectrum, flat_noise(*noise, spectrum.grid_size), cfg)
        assert sim.dsq_kernel.load() is not None
        (args, kwargs, got), = calls
        assert (args[1].size > 0, args[2].size > 0) == has_taps
        assert_matches_reference(got, _dsq_loop(*args, **kwargs))

    @staticmethod
    def stable_taps(order, rng):
        """Minimum-phase taps of the given order, from a random positive spectrum."""
        return optimal_predictor(Spectrum(rng.uniform(0.2, 5.0, 256)), order).coeffs

    @needs_cc
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("order", [1, 3, 5, 33, 97])
    def test_partial_sum_remainders(self, order, stride):
        # orders that leave 1-3 lags after the kernel's four partial sums,
        # from sample 0 on: below order * stride fewer lags exist than taps
        rng = np.random.default_rng(100 * order + stride)
        a, q = self.stable_taps(order, rng), self.stable_taps(order, rng)
        n = 2048
        args = (3.0 * rng.standard_normal(n), a, q, stride, rng.uniform(-0.25, 0.25, n), 0.5)
        assert_matches_reference(sim.dsq_kernel.load().dsq_loop(*args), _dsq_loop(*args))

    @needs_cc
    @pytest.mark.parametrize("order", [1, 3, 5, 33, 97])
    def test_allpole_partial_sum_remainders(self, order):
        # at stride s each phase x[k::s] is its own all-pole filter; 2048 is
        # not a multiple of 3, so the phases at stride 3 differ in length
        rng = np.random.default_rng(order)
        a, x = self.stable_taps(order, rng), rng.standard_normal(2048)
        for stride in (1, 2, 3):
            y = sim.dsq_kernel.load().allpole(x, a, stride)
            for k in range(stride):
                assert_allpole_matches_lfilter(y[k::stride], x[k::stride], a)

    def test_fallback_without_compiler(self, tmp_path, ar1, monkeypatch, fresh_kernel):
        # ecdq on a white source, whose loop has nothing to predict, so the
        # indices are exact; awgn on AR(1), where the shaper and the decoder
        # run as lfilter instead of the kernel
        src = flat_spectrum(1.0, 512)
        noise = flat_noise(0.08, 0.15, 512)
        ecdq = SimConfig(num_samples=1 << 16, seed=9, mode="ecdq")
        awgn = SimConfig(num_samples=1 << 16, seed=9, mode="awgn")
        ar_noise = flat_noise(0.08, 0.15, ar1.grid_size)
        runs = [(run_md_codec, src, noise, ecdq), (run_md_codec, ar1, ar_noise, awgn),
                (run_md_channel, ar1, ar_noise, awgn)]
        calls = record_loop(monkeypatch)
        compiled = [run(*args) for run, *args in runs]
        fresh_kernel.cache_clear()
        empty = tmp_path / "bin"
        empty.mkdir()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("PATH", str(empty))
        with pytest.warns(KernelUnavailableWarning) as warned:
            fallback = [run(*args) for run, *args in runs]
            sim._ecdq_loop(np.zeros(8), np.zeros(0), np.zeros(0), 1, np.zeros(8), 1.0)
            # lfilter's per-phase decoder keeps a lost description's NaN out
            # of the kept one
            checked = spy_decoder(monkeypatch, "lose_desc2")
            run_md_codec(ar1, ar_noise, SimConfig(num_samples=1 << 16, seed=9,
                                                  erasure="lose_desc2"))
        assert sum(issubclass(w.category, KernelUnavailableWarning) for w in warned) == 1
        assert fresh_kernel() is None
        assert len(checked) == 1 and checked[0] <= 1e-12
        np.testing.assert_array_equal(calls[1][2][2], calls[0][2][2])
        assert fallback[0].rate_empirical > 0
        for got, want in zip(fallback, compiled):
            assert_reports_close(got, want)

    @needs_cc
    def test_warm_cache_loads_without_compiler(self, tmp_path, monkeypatch, fresh_kernel):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert fresh_kernel() is not None
        cached = list((tmp_path / "mdrdf").iterdir())
        assert len(cached) == 1 and cached[0].suffix == ".so"
        fresh_kernel.cache_clear()

        def no_compiler(*args, **kwargs):
            raise AssertionError("the compiler ran although the cache was warm")

        empty = tmp_path / "bin"
        empty.mkdir()
        monkeypatch.setenv("PATH", str(empty))
        monkeypatch.setattr(sim.dsq_kernel.subprocess, "run", no_compiler)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = fresh_kernel()
        assert kernel is not None
        rng = np.random.default_rng(10)
        args = (rng.standard_normal(4096), np.array([0.5, -0.2]), np.array([0.3]), 2,
                rng.uniform(-0.5, 0.5, 4096), 1.0)
        assert_matches_reference(kernel.dsq_loop(*args), _dsq_loop(*args))
        x, a = rng.standard_normal(4096), np.array([0.5, -0.2])
        assert_allpole_matches_lfilter(kernel.allpole(x, a), x, a)


def assert_allpole_matches_lfilter(y, x, a, rtol=1e-12):
    from scipy import signal as sig

    want = sig.lfilter([1.0], np.r_[1.0, -a], x)
    assert np.max(np.abs(y - want)) <= rtol * np.max(np.abs(want))


class TestScipyEquivalence:
    """The numpy and compiled filters against the scipy.signal calls they replace."""

    @staticmethod
    def scipy_welch(x, segment):
        from scipy import signal as sig

        freqs, pxx = sig.welch(x, fs=2.0 * np.pi, window="hann", nperseg=segment,
                               noverlap=segment // 2, detrend=False, return_onesided=True)
        pxx[[0, -1]] *= 2.0
        return np.interp(midpoint_omega(segment // 2), freqs, pxx * np.pi)

    @pytest.mark.parametrize("segment", [256, 512, 1024, 2048, 4096])
    def test_welch(self, segment):
        x = np.random.default_rng(40).standard_normal(1 << 16)
        x[1:] += 0.9 * x[:-1]  # colored, so every bin differs
        for signal in (x, x[1::2]):  # contiguous, and a strided view
            want = self.scipy_welch(signal, segment)
            got = welch_psd(signal, segment).values
            assert np.max(np.abs(got / want - 1.0)) <= 1e-12

    @needs_cc
    @pytest.mark.parametrize("order", [0, 1, 32, 96])
    def test_allpole(self, order, cosine):
        # stable all-pole filters of each order the simulators run: AR(1),
        # the source predictor and the two-step mask's noise shaper
        a = {
            0: np.zeros(0),
            1: np.array([0.9]),
            32: optimal_predictor(cosine, PREDICTOR_ORDER).coeffs,
            96: noise_shaper(interleave_theta(flat_noise(0.05, 0.2, 256)), 96).coeffs,
        }[order]
        assert a.size == order
        x = np.random.default_rng(43).standard_normal(1 << 16)
        assert_allpole_matches_lfilter(sim.dsq_kernel.load().allpole(x, a), x, a)


def interpolate(x):
    return np.fft.irfft(_interpolate(np.fft.rfft(x), x.size), 2 * x.size)


def decode_central(v_up):
    n = v_up.size // 2
    return np.fft.irfft(_decoder_spectra(np.fft.rfft(v_up), n, _half_sample(n))[2], n)


class TestIdealHalfband:
    """The ideal zero-phase interpolator and central decoder, at an even
    length (with a Nyquist bin) and an odd one (without)."""

    @pytest.mark.parametrize("n", [5000, 5001])
    def test_even_outputs_are_input(self, n):
        x = np.random.default_rng(41).standard_normal(n)
        assert np.max(np.abs(interpolate(x)[0::2] - x)) <= 1e-13 * np.max(np.abs(x))

    @pytest.mark.parametrize("n", [5000, 5001])
    def test_interpolation_is_band_limited(self, n):
        x = np.random.default_rng(42).standard_normal(n)
        spec = np.abs(np.fft.rfft(interpolate(x)))
        # bins above n/2 of the 2n-point spectrum lie above pi/2
        assert np.max(spec[n // 2 + 1 :]) <= 1e-13 * np.max(spec)

    @pytest.mark.parametrize("n", [5000, 5001])
    def test_decoder_undoes_interpolation(self, n):
        x = np.random.default_rng(43).standard_normal(n)
        assert np.max(np.abs(decode_central(interpolate(x)) - x)) <= 1e-13 * np.max(np.abs(x))

    @pytest.mark.parametrize("n", [5000, 5001])
    def test_decoder_is_lowpass_at_even_samples(self, n):
        v_up = np.random.default_rng(44).standard_normal(2 * n)
        spec = np.fft.rfft(v_up)
        spec[n // 2 + 1 :] = 0.0  # keep 0 <= omega <= pi/2 of the 2n-point grid
        want = np.fft.irfft(spec, 2 * n)[0::2]
        got = decode_central(v_up)
        assert got.shape == (n,)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(v_up))


class TestComposedFilters:
    """Each composed spectral path against the chain of separate transforms
    it replaces: a zero-phase filter as its own rfft and irfft, the
    interpolator as its own rfft and irfft at 2n, and the central decoder
    as its own rfft of the upsampled signal, at an even and an odd length."""

    @staticmethod
    def zero_phase(x, mag):
        return np.fft.irfft(np.fft.rfft(x) * mag, x.size)

    @staticmethod
    def old_interpolate(x):
        X = np.fft.rfft(x)
        if x.size % 2 == 0:
            X[-1] *= 0.5
        return 2.0 * np.fft.irfft(X, 2 * x.size)

    @staticmethod
    def old_decode_central(v_up):
        n = v_up.size // 2
        V = np.fft.rfft(v_up)[: n // 2 + 1]
        if n % 2 == 0:
            V[-1] *= 2.0
        return 0.5 * np.fft.irfft(V, n)

    @staticmethod
    def assert_close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [5000, 5001])
    def test_encoder_paths(self, n):
        rng = np.random.default_rng(45)
        x, F = rng.standard_normal(n), rng.uniform(0.1, 2.0, n // 2 + 1)
        got = np.fft.irfft(_interpolate(np.fft.rfft(x) * F, n), 2 * n)
        self.assert_close(got, self.old_interpolate(self.zero_phase(x, F)))

    @pytest.mark.parametrize("n", [5000, 5001])
    def test_decoder_paths(self, n):
        rng = np.random.default_rng(46)
        x, v_up = rng.standard_normal(n), rng.standard_normal(2 * n)
        F, G = rng.uniform(0.1, 2.0, (2, n // 2 + 1))
        err = _path_errors(np.fft.rfft(x), v_up, F, G, [0, 1, 2])
        ref = self.old_interpolate(x)
        for k in (0, 1):
            self.assert_close(err[k], self.zero_phase(v_up[k::2], F) - ref[k::2])
        self.assert_close(err[2], self.zero_phase(self.old_decode_central(v_up), G) - x)

    @pytest.mark.parametrize("n", [5000, 5001])
    def test_perfect_channel_has_no_error(self, n):
        # V the ideally interpolated source: each decoder gives back the
        # source, which pins the closed-form references to the decoders
        x = np.random.default_rng(47).standard_normal(n)
        X = np.fft.rfft(x)
        v_up = np.fft.irfft(_interpolate(X, n), 2 * n)
        unit = np.ones(n // 2 + 1)
        err = _path_errors(X, v_up, unit, unit, [0, 1, 2])
        for k in (0, 1, 2):
            assert np.max(np.abs(err[k])) <= 1e-13 * np.max(np.abs(x)), k

    def test_one_split_per_run(self, ar1, monkeypatch):
        # a two-description run splits V into its decoders' inputs once, and
        # interpolates only the encoder's input
        callers = {}
        for name in ("_decoder_spectra", "_interpolate"):
            real = getattr(sim, name)

            def counted(*args, _real=real, _name=name):
                callers.setdefault(_name, []).append(sys._getframe(1).f_code.co_name)
                return _real(*args)

            monkeypatch.setattr(sim, name, counted)
        noise = flat_noise(0.05, 0.2, ar1.grid_size)
        for mode in MODES:
            cfg = SimConfig(num_samples=1 << 16, seed=48, mode=mode)
            for run in (run_md_codec, run_md_channel):
                callers.clear()
                run(ar1, noise, cfg)
                want = {"_decoder_spectra": ["_path_errors"], "_interpolate": ["_encode"]}
                assert callers == want

    def test_full_length_transforms(self, ar1, monkeypatch):
        # each signal is transformed once, and each decoder path's error is
        # one irfft; the smaller transforms (the predictor fits'
        # autocorrelations, Welch's 2-D frames) are not counted
        n = 1 << 16
        counts = {}
        for name in ("rfft", "irfft"):
            real = getattr(np.fft, name)

            def counted(a, *args, _real=real, _name=name, **kwargs):
                out = _real(a, *args, **kwargs)
                length = a.size if _name == "rfft" else out.size
                if np.ndim(a) == 1 and length >= n:
                    counts[_name] = counts.get(_name, 0) + 1
                return out

            monkeypatch.setattr(np.fft, name, counted)
        noise = flat_noise(0.05, 0.2, ar1.grid_size)
        for mode in MODES:
            cfg = SimConfig(num_samples=n, seed=47, mode=mode)
            for run in (run_md_codec, run_md_channel):
                counts.clear()
                run(ar1, noise, cfg)
                assert counts == {"rfft": 2, "irfft": 4}
            counts.clear()
            run_sd_mask_channel(ar1, flat_spectrum(0.1, ar1.grid_size), cfg)
            assert counts == {"rfft": 2, "irfft": 2}

    def test_allpole_passes(self, ar1, monkeypatch):
        # the source is drawn on the FFT grid, so the only all-pole passes
        # are awgn mode's noise shaper and the codec's decoder
        calls = []
        real = sim._allpole

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sim, "_allpole", counted)
        noise = flat_noise(0.05, 0.2, ar1.grid_size)
        mask = flat_spectrum(0.1, ar1.grid_size)
        want = {"ecdq": {run_md_channel: 0, run_md_codec: 1, run_sd_mask_channel: 0},
                "awgn": {run_md_channel: 1, run_md_codec: 2, run_sd_mask_channel: 1}}
        for mode, runs in want.items():
            cfg = SimConfig(num_samples=1 << 16, seed=49, mode=mode)
            for run, count in runs.items():
                calls.clear()
                run(ar1, mask if run is run_sd_mask_channel else noise, cfg)
                assert len(calls) == count, (mode, run.__name__)


class TestFftGrid:
    @pytest.mark.parametrize("n", [5000, 5001])
    def test_filter_read_at_bin_frequencies(self, n):
        # a filter linear in omega reads back as its bins' frequencies
        # 2 pi k / n, at an odd n too, which has no bin at pi
        omega = midpoint_omega(256)
        got = _on_fft_grid(1.0 + omega, omega, n)
        bins = 2.0 * np.pi * np.arange(n // 2 + 1) / n
        inner = (bins >= omega[0]) & (bins <= omega[-1])
        assert got.shape == (n // 2 + 1,)
        np.testing.assert_allclose(got[inner], 1.0 + bins[inner], rtol=1e-13)


class TestDrawnSource:
    """The source is a periodic Gaussian process with its spectrum S on
    every rfft bin: X_k = W_k sqrt(S(omega_k)) for the rfft W of n white
    normals."""

    @pytest.mark.parametrize("n", [1 << 16, (1 << 16) + 1])
    def test_periodogram_matches_spectrum(self, cosine, n):
        # each complex bin's |X_k|^2 / (n S(omega_k)) is Exp(1), so the mean
        # of a band of B bins over K seeds is Gamma(K B) / (K B): its
        # relative standard deviation is 1 / sqrt(K B). The bound is that
        # law's two-sided quantile at 1e-4 shared by the bands, and the last
        # band ends next to the null of S at pi.
        seeds, n_bands, alpha = 16, 64, 1e-4
        S = _on_fft_grid(cosine.values, cosine.omega, n)
        F = np.ones(n // 2 + 1)
        mask = flat_spectrum(0.1, cosine.grid_size)
        inner = np.arange(1, (n + 1) // 2)  # bin 0 and an even n's n / 2 are real
        ratio = []
        for seed in range(seeds):
            X = sim._encode(cosine, mask, F, 1, SimConfig(num_samples=n, seed=seed))[0]
            assert X[0].imag == 0.0
            assert n % 2 or X[n // 2].imag == 0.0
            ratio.append(np.abs(X[inner]) ** 2 / (n * S[inner]))
        for band in np.array_split(np.asarray(ratio), n_bands, axis=1):
            terms = band.size
            lo, hi = stats.gamma.ppf([alpha / (2 * n_bands), 1 - alpha / (2 * n_bands)],
                                     terms, scale=1.0 / terms)
            assert lo < np.mean(band) < hi


class TestSeedContract:
    """The README's seed contract for the dithers: each loop's dither stream
    is a fixed child of the one seed, whichever structure runs it."""

    def test_stride_one_dither(self, ar1, monkeypatch):
        calls = record_loop(monkeypatch)
        cfg = SimConfig(num_samples=1 << 16, seed=31, mode="ecdq")
        report = run_sd_mask_channel(ar1, flat_spectrum(0.1, ar1.grid_size), cfg)
        (_, kwargs, _), = calls
        assert kwargs["stride"] == 1
        assert kwargs["step"] == math.sqrt(12.0 * report.noise_variance)
        state = QuantizerState(kwargs["step"], np.random.default_rng([31, 2]))
        np.testing.assert_array_equal(kwargs["dither"], state.draw_dither(1 << 16))

    def test_stride_two_dithers(self, ar1, monkeypatch):
        calls = record_loop(monkeypatch)
        cfg = SimConfig(num_samples=1 << 16, seed=32, mode="ecdq")
        report = run_md_codec(ar1, flat_noise(0.05, 0.2, ar1.grid_size), cfg)
        (_, kwargs, _), = calls
        assert kwargs["stride"] == 2
        assert kwargs["step"] == math.sqrt(12.0 * report.noise_variance)
        # even samples carry description 1's dither, odd ones description 2's
        for k, stream in ((0, 3), (1, 4)):
            state = QuantizerState(kwargs["step"], np.random.default_rng([32, stream]))
            np.testing.assert_array_equal(kwargs["dither"][k::2], state.draw_dither(1 << 16))


class TestOneReport:
    """Every structure is measured over one window of each description:
    the empirical rate is the mean of the descriptions' index entropies,
    and the description process is the first kept description's."""

    @pytest.mark.parametrize("n", [1 << 16, (1 << 16) + 1])
    @pytest.mark.parametrize(
        "run, erasure",
        [(run_sd_mask_channel, "none")]
        + [(run, e) for run in (run_md_codec, run_md_channel) for e in sim.ERASURES],
    )
    def test_window_and_descriptions(self, ar1, monkeypatch, n, run, erasure):
        calls = record_loop(monkeypatch)
        cfg = SimConfig(num_samples=n, seed=33, mode="ecdq", erasure=erasure)
        if run is run_sd_mask_channel:
            report = run(ar1, flat_spectrum(0.1, ar1.grid_size), cfg)
        else:
            report = run(ar1, flat_noise(0.05, 0.2, ar1.grid_size), cfg)
        (_, kwargs, (_, Y, idx)), = calls
        stride, window = kwargs["stride"], slice(sim.WARMUP, n - sim.WARMUP)
        assert stride == (1 if run is run_sd_mask_channel else 2)
        rates = [sim._empirical_entropy(idx[k::stride][window]) for k in range(stride)]
        assert report.rate_empirical == np.mean(rates)
        first = 1 if erasure == "lose_desc1" else 0
        assert report.y_variance == np.var(Y[first::stride][window])


class TestSdMaskChannel:
    def test_flat_mask_on_ar1(self, ar1):
        cfg = SimConfig(num_samples=1 << 17, seed=10)
        report = run_sd_mask_channel(ar1, flat_spectrum(0.1, ar1.grid_size), cfg)
        assert report.d_central == pytest.approx(0.1, rel=0.04)
        assert report.rate_analytical == pytest.approx(0.5 * math.log(1.0 / 0.1), rel=1e-3)
        # the channel output is white at the source innovation power
        assert report.y_variance == pytest.approx(1.0, rel=0.03)
        bands = band_means(report.psd_y, 16)
        assert np.max(np.abs(bands - 1.0)) < 0.05

    def test_full_mask_reconstructs_zero(self, ar1):
        cfg = SimConfig(num_samples=1 << 16, seed=11)
        report = run_sd_mask_channel(ar1, ar1, cfg)
        got = band_means(report.psd_err_central, 8)
        want = band_means(ar1, 8)
        assert got == pytest.approx(want, rel=0.10)

    def test_two_step_mask_on_white_source(self):
        n = 2048
        vals = np.full(n, 0.05)
        vals[n // 2 :] = 0.3
        mask = Spectrum(vals)
        cfg = SimConfig(num_samples=1 << 18, seed=12)
        report = run_sd_mask_channel(flat_spectrum(1.0, n), mask, cfg)
        got = band_means(report.psd_err_central, 16)
        want = band_means(mask, 16)
        sel = np.r_[0:7, 9:16]  # skip the step transition bands
        assert np.max(np.abs(got[sel] - want[sel]) / want[sel]) < 0.05
        assert report.d_central == pytest.approx(np.mean(vals), rel=0.03)

    def test_mask_guard(self, ar1):
        with pytest.raises(MaskExceedsSource):
            run_sd_mask_channel(ar1, flat_spectrum(100.0, ar1.grid_size), SimConfig())

    def test_ecdq_mode_matches_awgn(self, ar1):
        mask = flat_spectrum(0.1, ar1.grid_size)
        a = run_sd_mask_channel(ar1, mask, SimConfig(num_samples=1 << 17, seed=13, mode="awgn"))
        b = run_sd_mask_channel(ar1, mask, SimConfig(num_samples=1 << 17, seed=13, mode="ecdq"))
        assert b.d_central == pytest.approx(a.d_central, rel=0.03)
        assert b.rate_empirical is not None
        # scalar entropy-coded quantization pays a granular-noise premium
        # above the analytical rate, about a quarter bit
        assert b.rate_empirical > b.rate_analytical


class TestMdChannel:
    def test_white_flat_thetas(self):
        n = 1024
        cfg = SimConfig(num_samples=1 << 17, seed=14)
        report = run_md_channel(flat_spectrum(1.0, n), flat_noise(0.1, 0.1, n), cfg)
        assert report.d_side_1 == pytest.approx(0.2, rel=0.03)
        assert report.d_side_2 == pytest.approx(0.2, rel=0.03)
        assert report.d_central == pytest.approx(1.0 / 9.0, rel=0.03)
        assert report.rate_analytical == pytest.approx(0.5 * math.log(1.0 / 0.2), rel=1e-6)

    def test_description_whiteness(self):
        n = 1024
        cfg = SimConfig(num_samples=1 << 18, seed=15)
        report = run_md_channel(flat_spectrum(1.0, n), flat_noise(0.05, 0.2, n), cfg)
        # the ideal interpolator has no transition band, so the top band
        # near pi is as white as the rest
        bands = band_means(report.psd_y, 25)
        assert np.max(np.abs(bands - 1.0)) < 0.05
        assert report.y_variance == pytest.approx(1.0, rel=0.03)

    def test_error_spectra_match_analytics(self, ar1):
        n = ar1.grid_size
        noise = flat_noise(0.05, 0.2, n)
        cfg = SimConfig(num_samples=1 << 18, seed=16)
        report = run_md_channel(ar1, noise, cfg)
        # side error density is theta_plus + theta_minus = 0.25 flat
        got_s = band_means(report.psd_err_side, 20)
        assert np.max(np.abs(got_s[:19] - 0.25) / 0.25) < 0.05
        # central error density is S * tp / (S - tm)
        want_c = ar1.values * 0.05 / (ar1.values - 0.2)
        got_c = band_means(report.psd_err_central, 20)
        want_cb = band_means(Spectrum(want_c), 20)
        rel = np.abs(got_c[:19] - want_cb[:19]) / want_cb[:19]
        assert np.max(rel) < 0.05

    def test_antisymmetric_noise_cancels_centrally(self):
        n = 512
        cfg = SimConfig(num_samples=1 << 17, seed=17)
        report = run_md_channel(flat_spectrum(1.0, n), flat_noise(0.02, 0.3, n), cfg)
        assert report.d_central < report.d_side_1 / 3.0

    def test_rate_is_evaluate_rate_on_a_blocked_grid(self):
        # the report takes np.mean of the rate density; evaluate sums it
        # block by block along numpy's tree, to the same bits
        spectrum = ar1_spectrum(n=3 * SOLVE_BLOCK + 17)
        pt = evaluate(spectrum, LagrangePair(0.05, 0.5))
        report = run_md_channel(spectrum, pt.spectra, SimConfig(num_samples=1 << 16, seed=16))
        assert report.rate_analytical == pt.rate


def spy_decoder(monkeypatch, erasure):
    """Make the codec's decoder check that each kept description's V comes
    back from its own Y alone: the lost description's Y is replaced by NaN
    before decoding. Returns the list of each kept description's largest
    error relative to its V, filled as the codec runs."""
    checked = []
    real = sim._decode_descriptions

    def spy(a, v_up, y_up):
        y_kept = y_up.copy()
        for k in (0, 1):
            if erasure == f"lose_desc{k + 1}":
                y_kept[k::2] = np.nan
        rebuilt = real(a, v_up, y_kept)
        for k in (0, 1):
            if erasure != f"lose_desc{k + 1}":
                err = np.max(np.abs(rebuilt[k::2] - v_up[k::2]))
                checked.append(err / np.max(np.abs(v_up[k::2])))
        return real(a, v_up, y_up)

    monkeypatch.setattr(sim, "_decode_descriptions", spy)
    return checked


class TestMdCodec:
    def test_awgn_codec_equals_channel(self, cosine, example1_point):
        noise = example1_point.spectra
        cfg = SimConfig(num_samples=1 << 16, seed=18)
        ch = run_md_channel(cosine, noise, cfg)
        cd = run_md_codec(cosine, noise, cfg)
        assert cd.d_side_1 == pytest.approx(ch.d_side_1, rel=1e-9)
        assert cd.d_side_2 == pytest.approx(ch.d_side_2, rel=1e-9)
        assert cd.d_central == pytest.approx(ch.d_central, rel=1e-9)

    def test_ecdq_matches_awgn(self):
        n = 512
        src = flat_spectrum(1.0, n)
        noise = flat_noise(0.1, 0.1, n)
        a = run_md_codec(src, noise, SimConfig(num_samples=1 << 17, seed=19, mode="awgn"))
        b = run_md_codec(src, noise, SimConfig(num_samples=1 << 17, seed=19, mode="ecdq"))
        assert b.d_side_1 == pytest.approx(a.d_side_1, rel=0.03)
        assert b.d_central == pytest.approx(a.d_central, rel=0.03)
        assert b.rate_empirical is not None

    def test_quantizer_step_second_moment(self):
        n = 512
        src = flat_spectrum(1.0, n)
        noise = flat_noise(0.1, 0.1, n)
        report = run_md_codec(src, noise, SimConfig(num_samples=1 << 16, seed=20, mode="ecdq"))
        tilde = interleave_theta(noise)
        assert report.noise_variance == pytest.approx(entropy_power(tilde), rel=1e-9)

    def test_erasure_lose_desc2(self):
        n = 512
        report = run_md_codec(
            flat_spectrum(1.0, n),
            flat_noise(0.1, 0.1, n),
            SimConfig(num_samples=1 << 16, seed=21, erasure="lose_desc2"),
        )
        assert report.d_side_2 is None
        assert report.d_central is None
        assert report.d_side_1 == pytest.approx(0.2, rel=0.05)

    def test_erasure_lose_desc1(self):
        n = 512
        report = run_md_codec(
            flat_spectrum(1.0, n),
            flat_noise(0.1, 0.1, n),
            SimConfig(num_samples=1 << 16, seed=22, erasure="lose_desc1"),
        )
        assert report.d_side_1 is None
        assert report.d_central is None
        assert report.d_side_2 == pytest.approx(0.2, rel=0.05)

    def test_odd_length(self):
        # at an odd n the source-rate FFT grid has no Nyquist bin for the
        # interpolator to split or the decoder to fold
        n = 512
        report = run_md_codec(
            flat_spectrum(1.0, n),
            flat_noise(0.1, 0.1, n),
            SimConfig(num_samples=(1 << 16) + 1, seed=24),
        )
        assert report.d_side_1 == pytest.approx(0.2, rel=0.05)
        assert report.d_side_2 == pytest.approx(0.2, rel=0.05)
        assert report.d_central == pytest.approx(1.0 / 9.0, rel=0.05)

    def test_determinism_bit_identical(self):
        n = 512
        src = flat_spectrum(1.0, n)
        noise = flat_noise(0.08, 0.15, n)
        cfg = SimConfig(num_samples=1 << 16, seed=23, mode="ecdq")
        a = run_md_codec(src, noise, cfg)
        b = run_md_codec(src, noise, cfg)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    @pytest.mark.parametrize(
        "mode, erasure",
        [("awgn", "none"), ("ecdq", "none"), ("ecdq", "lose_desc1"), ("awgn", "lose_desc2")],
    )
    def test_decoder_rebuilds_encoder_v(self, cosine, monkeypatch, mode, erasure):
        checked = spy_decoder(monkeypatch, erasure)
        cfg = SimConfig(num_samples=1 << 16, seed=25, mode=mode, erasure=erasure)
        run_md_codec(cosine, anchor_point(cosine).spectra, cfg)
        assert len(checked) == (2 if erasure == "none" else 1)
        assert max(checked) <= 1e-12


class TestAnalyticRate:
    """The simulators report the spectral rate of `evaluate`, which the
    paper identifies with the entropy-power rate of the interleaved mask."""

    LAMBDAS = [(0.01, 0.01), (0.238, 2.7), (0.05, 0.5), (2.0, 20.0)]

    @pytest.mark.parametrize("source", ["cosine", "ar1"])
    @pytest.mark.parametrize("lambdas", LAMBDAS, ids=["all-corner", "example", "low", "high"])
    def test_rate_is_entropy_power_ratio(self, source, lambdas, request):
        # (0.01, 0.01) puts every bin at the zero-rate corner tp = tm = S/2.
        # Both sides are means of 4096 logarithms, each rounded to an ulp,
        # so they agree to a few ulps of rates below 2 nats
        spectrum = request.getfixturevalue(source)
        point = evaluate(spectrum, LagrangePair(*lambdas))
        mask = interleave_theta(point.spectra)
        want = 0.5 * math.log(entropy_power(spectrum) / entropy_power(mask))
        assert point.rate == pytest.approx(want, rel=0, abs=1e-14)

    def test_md_channel_reports_evaluates_rate(self, ar1):
        point = evaluate(ar1, LagrangePair(0.05, 0.5))
        report = run_md_channel(ar1, point.spectra, SimConfig(num_samples=1 << 16, seed=26))
        assert report.rate_analytical == point.rate

    def test_sd_channel_reports_edge_rate(self, ar1):
        # on the lambda2 = 0 edge the solver puts tp = tm = 1/(4 lambda1) =
        # 0.05 wherever S/2 exceeds it, which is every AR(1) bin: the mask
        # D = 2 tp is the flat 0.1 up to the solver's rounding
        point = evaluate(ar1, LagrangePair(5.0, 0.0))
        tp, tm = point.spectra.theta_plus, point.spectra.theta_minus
        dev = float(np.max(np.abs(np.log(2.0 * np.sqrt(tp * tm) / 0.1))))
        assert dev <= 1e-14
        cfg = SimConfig(num_samples=1 << 16, seed=27)
        report = run_sd_mask_channel(ar1, flat_spectrum(0.1, ar1.grid_size), cfg)
        # per bin the two rates differ by at most dev / 2, and each mean
        # adds a rounding error of a few ulps of the rate
        bound = 0.5 * dev + 8.0 * np.finfo(float).eps * point.rate
        assert abs(report.rate_analytical - point.rate) <= bound


class TestSimConfig:
    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            SimConfig(num_samples=1 << 10)

    def test_mode_and_erasure_validation(self):
        with pytest.raises(ValueError):
            SimConfig(mode="bogus")
        with pytest.raises(ValueError):
            SimConfig(erasure="lose_both")
        with pytest.raises(ValueError, match="power of two"):
            SimConfig(welch_segment=1000)
        # 65536 - 2 * 2048 = 61440 samples hold 7 segments of 8192
        with pytest.raises(ValueError, match="8 segments"):
            SimConfig(num_samples=1 << 16, welch_segment=8192)

    def test_welch_segment_fills_shortest_window(self):
        # at n = 2^16 + 4096 the measured window, n - 4096 samples, holds
        # exactly 8 segments of 8192; one sample fewer (an odd n) is
        # rejected up front
        n = 512
        cfg = SimConfig(num_samples=(1 << 16) + 4096, welch_segment=8192)
        report = run_md_channel(flat_spectrum(1.0, n), flat_noise(0.1, 0.1, n), cfg)
        assert report.psd_err_side.grid_size == 4096
        assert report.psd_err_central.grid_size == 4096
        with pytest.raises(ValueError, match="8 segments"):
            SimConfig(num_samples=(1 << 16) + 4095, welch_segment=8192)
