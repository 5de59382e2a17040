"""Sample-level simulation of the prediction / noise-shaping structures.

Three structures are simulated: the single-description distortion-mask
channel, the two-description equivalent channel (upsampled prediction
inside a common noise-shaping loop), and the nested encoder/decoder codec
with per-description prediction loops. Noise injection is either white
Gaussian (awgn mode) or a scalar subtractive-dither uniform quantizer
(ecdq mode); both have identical second moments when step^2/12 equals the
injected variance, which is what every measured quantity depends on.

The noise shaper is the recursive filter 1 + C = 1/(1 - Q) of the mask
predictor Q. Only ecdq mode runs the sequential loop, because the
quantizer makes it nonlinear. In awgn mode the loop algebra collapses to
V = U + Z/(1 - Q) and Y = (1 - A) V, which both two-description
structures and the single-description channel evaluate by vectorized
filtering.

The ecdq loop runs as a compiled C kernel (`dsq_kernel`). The first ecdq
run builds it with the system compiler `cc` into `$XDG_CACHE_HOME/mdrdf`
(default `~/.cache/mdrdf`); later runs and processes reuse the cached
library. Without a C compiler, or if the build fails, one
`KernelUnavailableWarning` is issued and the Python reference loop
`_dsq_loop` runs instead, with the same quantizer indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.typing import NDArray
from scipy import signal as _sig

from . import dsq_kernel
from .errors import LengthMismatch, MaskExceedsSource, SignalTooShort
from .filters import (
    halfband_interpolator,
    interleave_theta,
    noise_shaper,
    pre_post_filters,
    sd_prefilter,
)
from .rdf import NoiseSpectra
from .spectra import PredictorCoeffs, Spectrum, entropy_power, midpoint_omega, optimal_predictor

MODES = ("awgn", "ecdq")
ERASURES = ("none", "lose_desc1", "lose_desc2")


@dataclass(frozen=True)
class SimConfig:
    """Run parameters for the time-domain simulations."""

    num_samples: int = 1 << 18
    seed: int = 0
    mode: str = "awgn"
    warmup: Optional[int] = None
    erasure: str = "none"
    welch_segment: int = 4096
    predictor_order: int = 32
    shaper_order: int = 96
    interp_taps: int = 511
    decoder_taps: int = 1023
    mask_floor: float = 1e-5

    def __post_init__(self):
        if self.num_samples < (1 << 16):
            raise ValueError("num_samples must be at least 2^16")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.erasure not in ERASURES:
            raise ValueError(f"erasure must be one of {ERASURES}")
        if self.warmup is not None and self.warmup > self.num_samples // 8:
            raise ValueError("warmup leaves too few samples")
        # equal tap parity keeps the total interpolator group delay even,
        # which pins the central path to the integer sample grid
        if self.interp_taps % 4 != self.decoder_taps % 4:
            raise ValueError("interp_taps and decoder_taps must agree modulo 4")


@dataclass(frozen=True)
class QuantizerState:
    """Scalar subtractive-dither quantizer: step and dither source."""

    step: float
    rng: np.random.Generator = field(repr=False)

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")

    def draw_dither(self, size: int) -> NDArray[np.float64]:
        """Dither uniform on (-step/2, step/2], independent across calls."""
        return -self.rng.uniform(-0.5 * self.step, 0.5 * self.step, size)


@dataclass(frozen=True)
class SimReport:
    """Measured rates, distortions and PSDs from one simulation run."""

    d_side_1: Optional[float]
    d_side_2: Optional[float]
    d_central: Optional[float]
    rate_analytical: float
    rate_empirical: Optional[float]
    psd_y: Optional[Spectrum]
    psd_err_side: Optional[Spectrum]
    psd_err_central: Optional[Spectrum]
    y_variance: Optional[float]
    noise_variance: float

    def to_dict(self) -> dict:
        def spec(s):
            return None if s is None else {
                "grid_size": s.grid_size,
                "values": [float(v) for v in s.values],
            }

        return {
            "d_side_1": self.d_side_1,
            "d_side_2": self.d_side_2,
            "d_central": self.d_central,
            "rate_analytical_nats": self.rate_analytical,
            "rate_analytical_bits": self.rate_analytical / math.log(2.0),
            "rate_empirical_nats": self.rate_empirical,
            "y_variance": self.y_variance,
            "noise_variance": self.noise_variance,
            "psd_y": spec(self.psd_y),
            "psd_err_side": spec(self.psd_err_side),
            "psd_err_central": spec(self.psd_err_central),
        }


def ecdq_quantize(x, state: QuantizerState):
    """Subtractive-dither uniform quantization of x (scalar or array).

    index = round((x + dither)/step); reconstruction = index*step - dither.
    The error is uniform on (-step/2, step/2] and independent of x.
    """
    arr = np.asarray(x, dtype=np.float64)
    dither = state.draw_dither(arr.size).reshape(arr.shape)
    if arr.ndim == 0:
        dither = float(dither)
    index = np.floor((arr + dither) / state.step + 0.5)
    recon = index * state.step - dither
    if arr.ndim == 0:
        return int(index), float(recon)
    return index.astype(np.int64), recon


def welch_psd(x: NDArray[np.float64], segment: int) -> Spectrum:
    """Hann-windowed averaged periodogram on the midpoint grid.

    50% overlap; scaled so white noise of variance v estimates a flat
    spectrum at level v.
    """
    x = np.asarray(x, dtype=np.float64)
    if segment < 2 or segment & (segment - 1):
        raise ValueError("segment length must be a power of two")
    if segment > x.size // 8:
        raise SignalTooShort(f"need at least 8 segments of {segment}, have {x.size}")
    freqs, pxx = _sig.welch(
        x,
        fs=2.0 * np.pi,
        window="hann",
        nperseg=segment,
        noverlap=segment // 2,
        detrend=False,
        return_onesided=True,
    )
    # undo the one-sided halving of the DC and Nyquist bins so the density
    # is level across the whole grid before interpolating
    pxx = pxx.copy()
    pxx[0] *= 2.0
    pxx[-1] *= 2.0
    om = midpoint_omega(segment // 2)
    return Spectrum(np.interp(om, freqs, pxx * np.pi))


def band_means(spectrum: Spectrum, n_bands: int, omega_max: float = np.pi):
    """Mean PSD per equal-width band over [0, omega_max]; helper for tests."""
    om = spectrum.omega
    edges = np.linspace(0.0, omega_max, n_bands + 1)
    means = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (om >= lo) & (om < hi)
        means.append(float(np.mean(spectrum.values[sel])))
    return np.array(means)


def measure_distortions(x, xhat1, xhat2, xhat_c, warmup: int):
    """Mean squared errors against x after discarding warmup samples."""
    x = np.asarray(x, dtype=np.float64)

    def mse(est):
        if est is None:
            return None
        est = np.asarray(est, dtype=np.float64)
        if est.size != x.size:
            raise LengthMismatch(f"length {est.size} != {x.size}")
        d = (est - x)[warmup:]
        return float(np.mean(d * d))

    return mse(xhat1), mse(xhat2), mse(xhat_c)


def _trim_taps(coeffs: NDArray[np.float64], tol: float = 1e-14) -> NDArray[np.float64]:
    nz = np.nonzero(np.abs(coeffs) > tol)[0]
    return coeffs[: nz[-1] + 1] if nz.size else np.zeros(0)


def _synth_source(spectrum: Spectrum, order: int, rng: np.random.Generator, n: int):
    """AR(order) realization of the spectrum: innovation filtering."""
    pred = optimal_predictor(spectrum, order)
    a = _trim_taps(pred.coeffs)
    innov = rng.standard_normal(n) * math.sqrt(pred.innovation_variance)
    if a.size == 0:
        return innov, a, pred.innovation_variance
    x = _sig.lfilter([1.0], np.r_[1.0, -a], innov)
    return x, a, pred.innovation_variance


def _zero_phase(x: NDArray[np.float64], mag: NDArray[np.float64], omega) -> NDArray[np.float64]:
    """Apply a zero-phase filter given its magnitude on the midpoint grid."""
    X = np.fft.rfft(x)
    w = np.linspace(0.0, np.pi, X.size)
    m = np.interp(w, omega, mag, left=mag[0], right=mag[-1])
    return np.fft.irfft(X * m, x.size)


def _dsq_loop(
    u: NDArray[np.float64],
    a: NDArray[np.float64],
    q: NDArray[np.float64],
    stride: int,
    dither: NDArray[np.float64],
    step: float,
):
    """Sequential ecdq prediction / noise-shaping loop: the reference
    implementation of the compiled kernel in `dsq_kernel`, and its
    fallback when no C compiler is available.

    At each sample: b predicts from reconstructions at lags stride,
    2*stride, ...; the shaping term et = sum_k q_k G[m-k] feeds back the
    shaped-noise history G = E + et, so that V - U = G = E/(1 - Q) for the
    quantization error E; the quantizer input is u - b + et; the
    reconstruction is y + b. Returns (V, Y, indices).
    """
    n = u.size
    P, L = a.size, q.size
    V = np.zeros(n)
    Y = np.zeros(n)
    G = np.zeros(n)
    idx = np.zeros(n, dtype=np.int64)
    for m in range(n):
        b = 0.0
        if P:
            lags = V[m - stride :: -stride][:P] if m >= stride else V[0:0]
            if lags.size:
                b = float(np.dot(a[: lags.size], lags))
        et = 0.0
        if L and m:
            hist = G[m - 1 :: -1][:L]
            et = float(np.dot(q[: hist.size], hist))
        d = u[m] - b + et
        k = math.floor((d + dither[m]) / step + 0.5)
        y = k * step - dither[m]
        idx[m] = k
        G[m] = y - d + et
        V[m] = y + b
        Y[m] = y
    return V, Y, idx


def _ecdq_loop(u, a, q, stride: int, dither, step: float):
    """The ecdq loop: the compiled kernel, or `_dsq_loop` if it is unavailable."""
    loop = dsq_kernel.load() or _dsq_loop
    return loop(u, a, q, stride, dither, step)


def _apply_predictor_error(v: NDArray[np.float64], a: NDArray[np.float64], stride: int):
    """Y = (1 - A(z^stride)) V."""
    if a.size == 0:
        return v
    taps = np.zeros(stride * a.size + 1)
    taps[0] = 1.0
    taps[stride::stride] = -a
    return _sig.lfilter(taps, [1.0], v)


def _empirical_entropy(indices: NDArray[np.int64]) -> float:
    """Plug-in entropy of the index stream, nats per sample."""
    _, counts = np.unique(indices, return_counts=True)
    p = counts / counts.sum()
    return float(-np.sum(p * np.log(p)))


def _auto_warmup(cfg: SimConfig, shaper_order: int, interpolated: bool = True) -> int:
    transient = max(cfg.predictor_order, shaper_order)
    if interpolated:
        transient += (cfg.interp_taps + cfg.decoder_taps) // 2
    if cfg.warmup is not None:
        if cfg.warmup < transient:
            raise ValueError(
                f"warmup {cfg.warmup} is below the filter transient length {transient}"
            )
        return cfg.warmup
    w = max(
        2048,
        cfg.interp_taps + cfg.decoder_taps if interpolated else 0,
        8 * cfg.predictor_order,
        2 * shaper_order,
    )
    return min(max(w, transient), cfg.num_samples // 8)


def _shaper_for_mask(mask_values: NDArray[np.float64], cfg: SimConfig) -> PredictorCoeffs:
    floored = Spectrum(np.maximum(mask_values, cfg.mask_floor))
    return noise_shaper(floored, cfg.shaper_order)


def _analytic_rate(source: Spectrum, mask_values: NDArray[np.float64], floor: float) -> float:
    vals = mask_values if np.all(mask_values > 0) else np.maximum(mask_values, floor)
    return 0.5 * math.log(entropy_power(source) / entropy_power(Spectrum(vals)))


def run_sd_mask_channel(source: Spectrum, mask: Spectrum, cfg: SimConfig) -> SimReport:
    """Single-description coding subject to a distortion mask.

    Pre-filter F, prediction with the source predictor, noise shaping with
    the mask predictor, injected noise of the mask innovation power. The
    reconstruction error spectrum reproduces the mask; the channel output
    is white at the source innovation power.
    """
    if np.any(mask.values > source.values * (1.0 + 1e-12)):
        raise MaskExceedsSource("mask exceeds the source spectrum")
    n = cfg.num_samples
    om = source.omega
    rng_src = np.random.default_rng([cfg.seed, 1])
    rng_noise = np.random.default_rng([cfg.seed, 2])

    x, a, _ = _synth_source(source, cfg.predictor_order, rng_src, n)
    shaper = _shaper_for_mask(mask.values, cfg)
    sz2 = shaper.innovation_variance
    f_mag = sd_prefilter(source, mask)
    u = _zero_phase(x, f_mag, om)

    if cfg.mode == "awgn":
        z = rng_noise.standard_normal(n) * math.sqrt(sz2)
        v = u + _sig.lfilter([1.0], np.r_[1.0, -shaper.coeffs], z)
        indices = None
    else:
        state = QuantizerState(step=math.sqrt(12.0 * sz2), rng=rng_noise)
        dither = state.draw_dither(n)
        v, _, indices = _ecdq_loop(u, a, shaper.coeffs, stride=1, dither=dither, step=state.step)
    y = _apply_predictor_error(v, a, stride=1)
    xhat = _zero_phase(v, f_mag, om)

    # one measured window for the distortion, the PSDs and the rate
    warm = _auto_warmup(cfg, shaper.order, interpolated=False)
    sl = slice(warm, n - warm)
    err = (xhat - x)[sl]
    y_trim = y[sl]
    report = SimReport(
        d_side_1=None,
        d_side_2=None,
        d_central=float(np.mean(err * err)),
        rate_analytical=_analytic_rate(source, mask.values, cfg.mask_floor),
        rate_empirical=_empirical_entropy(indices[sl]) if indices is not None else None,
        psd_y=welch_psd(y_trim, cfg.welch_segment),
        psd_err_side=None,
        psd_err_central=welch_psd(err, cfg.welch_segment),
        y_variance=float(np.var(y_trim)),
        noise_variance=sz2,
    )
    return report


def _md_encode(source: Spectrum, noise: NoiseSpectra, cfg: SimConfig):
    """Shared encoder of the two-description structures.

    Front end (source, pre filter F, interpolation to the upsampled rate),
    noise streams and the upsampled-rate loop: vectorized in awgn mode,
    the sequential loop in ecdq mode. Returns
    (x, a, tilde, shaper, pp, ref, V, Y, indices).
    """
    n = cfg.num_samples
    om = source.omega
    rng_src = np.random.default_rng([cfg.seed, 1])

    x, a, _ = _synth_source(source, cfg.predictor_order, rng_src, n)
    tilde = interleave_theta(noise)
    shaper = _shaper_for_mask(tilde.values, cfg)
    pp = pre_post_filters(source, noise)

    xf = _zero_phase(x, pp.f_mag, om)
    h_enc = 2.0 * halfband_interpolator(cfg.interp_taps)
    u0 = np.zeros(2 * n)
    u0[::2] = xf
    u = _sig.lfilter(h_enc, [1.0], u0)
    r0 = np.zeros(2 * n)
    r0[::2] = x
    ref = _sig.lfilter(h_enc, [1.0], r0)

    sz2 = shaper.innovation_variance
    if cfg.mode == "awgn":
        rng_noise = np.random.default_rng([cfg.seed, 2])
        z = rng_noise.standard_normal(2 * n) * math.sqrt(sz2)
        v_up = u + _sig.lfilter([1.0], np.r_[1.0, -shaper.coeffs], z)
        y_up = _apply_predictor_error(v_up, a, stride=2)
        indices = None
    else:
        step = math.sqrt(12.0 * sz2)
        s1 = QuantizerState(step=step, rng=np.random.default_rng([cfg.seed, 3]))
        s2 = QuantizerState(step=step, rng=np.random.default_rng([cfg.seed, 4]))
        dither = np.zeros(2 * n)
        dither[0::2] = s1.draw_dither(n)
        dither[1::2] = s2.draw_dither(n)
        v_up, y_up, indices = _ecdq_loop(u, a, shaper.coeffs, stride=2, dither=dither, step=step)
    return x, a, tilde, shaper, pp, ref, v_up, y_up, indices


def _md_measure(source, cfg, x, tilde, shaper, pp, ref, v_up, y_up, indices):
    """Decode side and central paths from the upsampled loop output."""
    n = cfg.num_samples
    om = source.omega
    me = (cfg.interp_taps - 1) // 2
    md = (cfg.decoder_taps - 1) // 2

    v1, v2 = v_up[0::2], v_up[1::2]
    r1, r2 = ref[0::2], ref[1::2]
    want_1 = cfg.erasure != "lose_desc1"
    want_2 = cfg.erasure != "lose_desc2"
    want_c = want_1 and want_2

    h_dec = halfband_interpolator(cfg.decoder_taps)
    warm = _auto_warmup(cfg, shaper.order)

    d1 = d2 = dc = None
    err1 = errc = None
    if want_1:
        xh1 = _zero_phase(v1, pp.f_mag, om)
        err1_full = xh1 - r1
        err1 = err1_full[warm : n - warm]
        d1 = float(np.mean(err1 * err1))
    if want_2:
        xh2 = _zero_phase(v2, pp.f_mag, om)
        err2_full = xh2 - r2
        err2 = err2_full[warm : n - warm]
        d2 = float(np.mean(err2 * err2))
        if err1 is None:
            err1 = err2
    if want_c:
        w = _sig.lfilter(h_dec, [1.0], v_up)
        n_central = n - (me + md) // 2 - 1
        pick = 2 * np.arange(n_central) + me + md
        wc = w[pick]
        xhc = _zero_phase(wc, pp.g_mag, om)
        errc_full = xhc - x[:n_central]
        errc = errc_full[warm : n_central - warm]
        dc = float(np.mean(errc * errc))

    # description process at the source rate
    y_desc = y_up[0::2] if want_1 else y_up[1::2]
    y_trim = y_desc[warm : n - warm]

    rate_emp = None
    if indices is not None:
        sl = slice(2 * warm, 2 * (n - warm))
        rate_emp = 0.5 * (
            _empirical_entropy(indices[sl][0::2]) + _empirical_entropy(indices[sl][1::2])
        )

    return SimReport(
        d_side_1=d1,
        d_side_2=d2,
        d_central=dc,
        rate_analytical=_analytic_rate(source, tilde.values, cfg.mask_floor),
        rate_empirical=rate_emp,
        psd_y=welch_psd(y_trim, cfg.welch_segment),
        psd_err_side=welch_psd(err1, cfg.welch_segment) if err1 is not None else None,
        psd_err_central=welch_psd(errc, cfg.welch_segment) if errc is not None else None,
        y_variance=float(np.var(y_trim)),
        noise_variance=shaper.innovation_variance,
    )


def run_md_channel(source: Spectrum, noise: NoiseSpectra, cfg: SimConfig) -> SimReport:
    """Two-description equivalent channel: the decoders read V directly."""
    x, _, tilde, shaper, pp, ref, v_up, y_up, indices = _md_encode(source, noise, cfg)
    return _md_measure(source, cfg, x, tilde, shaper, pp, ref, v_up, y_up, indices)


def run_md_codec(source: Spectrum, noise: NoiseSpectra, cfg: SimConfig) -> SimReport:
    """Nested encoder (per-description prediction loops inside a common
    noise-shaping loop) followed by the matching decoder.

    The encoder is the channel's: the sample-by-sample loop in ecdq mode,
    vectorized filtering in awgn mode. The decoder reconstructs each
    description independently by its own prediction filter before
    re-interleaving for the central path, so surviving a description
    erasure needs nothing from the lost stream.
    """
    x, a, tilde, shaper, pp, ref, _, y_up, indices = _md_encode(source, noise, cfg)
    den = np.r_[1.0, -a]
    v_up = np.zeros_like(y_up)
    v_up[0::2] = _sig.lfilter([1.0], den, y_up[0::2])
    v_up[1::2] = _sig.lfilter([1.0], den, y_up[1::2])
    return _md_measure(source, cfg, x, tilde, shaper, pp, ref, v_up, y_up, indices)
