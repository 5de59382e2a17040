"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run).
"""

import contextlib
import math
import time

import numpy as np
import pytest
from scipy import stats

from mdrdf import (
    DistortionPair,
    LagrangePair,
    NoiseSpectra,
    ThetaPair,
    evaluate,
    fit_lambdas,
    flat_spectrum,
    ozarow_rate,
    solve_spectrum,
    theta_to_distortions,
)
from mdrdf.sim import (
    QuantizerState,
    SimConfig,
    run_md_channel,
    run_md_codec,
    run_sd_mask_channel,
)
from mdrdf.spectral_solver import lagrangian_gradient
from mdrdf.verify import (
    appendix_roots,
    brute_force_frequency,
    count_mesh_minima,
    cubic_roots,
    discriminant,
    discriminant_product_form,
)

from conftest import ar1_spectrum, band_means, cosine_spectrum, ecdq_quantize


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def random_triples(seed, count):
    rng = np.random.default_rng(seed)
    S = np.exp(rng.uniform(math.log(0.01), math.log(100.0), count))
    l1 = np.exp(rng.uniform(math.log(0.01), math.log(100.0), count))
    l2 = np.exp(rng.uniform(math.log(0.01), math.log(100.0), count))
    return list(zip(S, l1, l2))


def test_criterion_1_worked_example():
    with criterion(1, "worked-example reproduction"):
        t0 = time.perf_counter()
        spectrum = cosine_spectrum(4096)
        pt = evaluate(spectrum, LagrangePair(0.2380, 2.700))
        elapsed = time.perf_counter() - t0
        assert abs(pt.d_side - 0.4000) < 1e-3
        assert abs(pt.d_central - 0.0801) < 1e-3
        assert abs(pt.rate_bits - 0.7468) < 1e-3
        assert elapsed < 1.0


def test_criterion_2_inverse_fit(cosine):
    with criterion(2, "inverse fit"):
        t0 = time.perf_counter()
        pt = fit_lambdas(cosine, DistortionPair(0.4, 0.08), tol=1e-9)
        elapsed = time.perf_counter() - t0
        assert abs(pt.lambdas.lambda1 / 0.238 - 1.0) < 0.02
        assert abs(pt.lambdas.lambda2 / 2.70 - 1.0) < 0.02
        assert pt.rate_bits <= 0.7468 + 1e-3
        assert elapsed < 30.0


def test_criterion_3_white_source_reduction():
    with criterion(3, "white-source reduction"):
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 100:
            sigma2 = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
            tm = rng.uniform(0.02, 0.48) * sigma2
            tp = rng.uniform(0.05, 0.98) * tm
            target = theta_to_distortions(sigma2, ThetaPair(tp, tm))
            pt = fit_lambdas(flat_spectrum(sigma2, 64), target, tol=1e-9)
            want = ozarow_rate(sigma2, target)
            assert abs(pt.rate - want) < 1e-6, (sigma2, tp, tm)
            checked += 1


def test_criterion_4_high_rate_limits():
    with criterion(4, "high-rate limits"):
        lam = LagrangePair(1e4, 1e6)
        tp, tm, _ = solve_spectrum(np.array([0.5, 1.0, 2.0]), lam)
        assert np.all(np.abs(lam.lambda1 * tm - 0.25) < 1e-2)
        assert np.all(np.abs((lam.lambda1 + lam.lambda2) * tp - 0.25) < 1e-2)
        tp, tm, _ = solve_spectrum(2.0, LagrangePair(4.0, 3.0))
        assert abs(10 * math.log10(tm) - (-12.04)) < 1.0
        assert abs(10 * math.log10(tp) - (-14.47)) < 1.0


def test_criterion_5_oracle_equivalence():
    with criterion(5, "closed form vs brute force"):
        triples = random_triples(102, 1000)
        for S, l1, l2 in triples:
            lam = LagrangePair(l1, l2)
            tp, tm, boundary = solve_spectrum(S, lam)
            tp_b, tm_b = brute_force_frequency(S, lam, grid=200)
            assert abs(tp - tp_b) < 1e-6, (S, l1, l2)
            assert abs(tm - tm_b) < 1e-6, (S, l1, l2)
            if not boundary:
                gp, gm = lagrangian_gradient(S, tp, tm, lam)
                assert abs(gp) < 1e-8 and abs(gm) < 1e-8, (S, l1, l2)
        for S, l1, l2 in triples[:100]:
            assert count_mesh_minima(S, LagrangePair(l1, l2), grid=200) <= 1, (S, l1, l2)


def test_criterion_6_appendix_properties():
    with criterion(6, "cubic root and discriminant properties"):
        for S, l1, l2 in random_triples(103, 1000):
            diag = discriminant(S, LagrangePair(l1, l2))
            for x in cubic_roots(diag):
                poly = ((x + diag.a2) * x + diag.a1) * x + diag.a0
                scale = max(
                    1.0, abs(diag.a0), abs(diag.a1 * x), abs(diag.a2 * x * x), abs(x) ** 3
                )
                assert abs(poly) / scale < 1e-9, (S, l1, l2)
            prod = discriminant_product_form(S, l1, l2)
            scale = max(abs(diag.xi), abs(prod), diag.q**2, abs(diag.p) ** 3)
            assert abs(diag.xi - prod) <= 1e-8 * scale, (S, l1, l2)
            if diag.xi < 0:
                x1, x2, x3 = cubic_roots(diag)
                assert x1 >= x3 >= x2, (S, l1, l2)
                assert x3 > S / 2, (S, l1, l2)
            roots = appendix_roots(S, l1)
            want = 1.0 / (4.0 * S) - l1
            if abs(want) > 1e-9:
                assert math.copysign(1.0, roots["xi_disc"][2]) == math.copysign(1.0, want)


def test_criterion_7_sd_mask_channel():
    with criterion(7, "single-description mask channel"):
        t0 = time.perf_counter()
        source = ar1_spectrum(0.9, 1.0, 4096)
        cfg = SimConfig(num_samples=1 << 20, seed=104)
        report = run_sd_mask_channel(source, flat_spectrum(0.1, 4096), cfg)
        elapsed = time.perf_counter() - t0
        assert abs(report.d_central / 0.1 - 1.0) < 0.03
        bands = band_means(report.psd_y, 24)
        assert np.max(np.abs(bands - 1.0)) < 0.05  # white at P_e(S) = 1
        assert abs(report.y_variance - 1.0) < 0.03
        assert elapsed < 60.0


def test_criterion_8_md_channel_and_codec(cosine, example1_point):
    with criterion(8, "two-description channel and codec"):
        n = 4096
        white = flat_spectrum(1.0, n)
        noise_white = NoiseSpectra(np.full(n, 0.1), np.full(n, 0.1), np.zeros(n, dtype=bool))
        t0 = time.perf_counter()
        rep_awgn = run_md_codec(white, noise_white, SimConfig(num_samples=1 << 20, seed=105))
        t_a = time.perf_counter() - t0
        assert abs(rep_awgn.d_side_1 / 0.2 - 1.0) < 0.03
        assert abs(rep_awgn.d_side_2 / 0.2 - 1.0) < 0.03
        assert abs(rep_awgn.d_central / (1.0 / 9.0) - 1.0) < 0.03

        t0 = time.perf_counter()
        rep_ecdq = run_md_codec(
            white, noise_white, SimConfig(num_samples=1 << 20, seed=105, mode="ecdq")
        )
        t_b = time.perf_counter() - t0
        assert abs(rep_ecdq.d_side_1 / rep_awgn.d_side_1 - 1.0) < 0.02
        assert abs(rep_ecdq.d_side_2 / rep_awgn.d_side_2 - 1.0) < 0.02
        assert abs(rep_ecdq.d_central / rep_awgn.d_central - 1.0) < 0.02

        t0 = time.perf_counter()
        rep_ex1 = run_md_channel(
            cosine, example1_point.spectra, SimConfig(num_samples=1 << 20, seed=106)
        )
        t_c = time.perf_counter() - t0
        assert abs(rep_ex1.d_side_1 / 0.4000 - 1.0) < 0.05
        assert abs(rep_ex1.d_side_2 / 0.4000 - 1.0) < 0.05
        assert abs(rep_ex1.d_central / 0.0801 - 1.0) < 0.05

        cfg_small = SimConfig(num_samples=1 << 17, seed=107)
        t0 = time.perf_counter()
        ch = run_md_channel(cosine, example1_point.spectra, cfg_small)
        cd = run_md_codec(cosine, example1_point.spectra, cfg_small)
        t_d = time.perf_counter() - t0
        assert abs(cd.d_side_1 / ch.d_side_1 - 1.0) < 0.01
        assert abs(cd.d_side_2 / ch.d_side_2 - 1.0) < 0.01
        assert abs(cd.d_central / ch.d_central - 1.0) < 0.01
        assert max(t_a, t_b, t_c, t_d) < 60.0


def test_criterion_9_out_of_scope_substitutes():
    # Optimality of the infinite-dimensional quantizer is out of scope at
    # desk scale; the stand-ins are the dither-independence test, the
    # whiteness and error-spectrum checks (criteria 7 and 8) and the
    # analytical rate reporting asserted here.
    with criterion(9, "out-of-scope substitution suite"):
        state = QuantizerState(step=0.6, rng=np.random.default_rng(108))
        x = np.random.default_rng(109).normal(0.0, 1.5, 1_000_000)
        _, recon = ecdq_quantize(x, state)
        err = recon - x
        counts, _ = np.histogram(err, bins=40, range=(-0.3, 0.3))
        expected = err.size / 40.0
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 < stats.chi2.ppf(0.99, 39)  # uniform at 1% significance
        assert abs(np.corrcoef(x, err)[0, 1]) < 3.0 / math.sqrt(x.size)

        n = 512
        report = run_md_codec(
            flat_spectrum(1.0, n),
            NoiseSpectra(np.full(n, 0.1), np.full(n, 0.1), np.zeros(n, dtype=bool)),
            SimConfig(num_samples=1 << 16, seed=110, mode="ecdq"),
        )
        assert report.rate_analytical == pytest.approx(0.5 * math.log(1.0 / 0.2), rel=1e-9)
        # the scalar quantizer pays a positive empirical-entropy premium
        assert report.rate_empirical > report.rate_analytical
