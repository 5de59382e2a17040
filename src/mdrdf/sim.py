"""Sample-level simulation of the prediction / noise-shaping structures.

Three structures are simulated: the single-description distortion-mask
channel, the two-description equivalent channel (upsampled prediction
inside a common noise-shaping loop), and the nested encoder/decoder codec
with per-description prediction loops. One encoder serves all three, at
stride 1 for the single-description channel and at stride 2 for the two
interleaved descriptions. Noise injection is either white Gaussian (awgn
mode) or a scalar subtractive-dither uniform quantizer (ecdq mode); both
have identical second moments when step^2/12 equals the injected
variance, which is what every measured quantity depends on.

The noise shaper is the recursive filter 1 + C = 1/(1 - Q) of the mask
predictor Q. Only ecdq mode runs the sequential loop, because the
quantizer makes it nonlinear. In awgn mode the loop algebra collapses to
V = U + Z/(1 - Q) and Y = (1 - A) V. The half-band filters are polyphase.

In both modes the ecdq loop and the all-pole filters 1/(1 - A) (source
synthesis, awgn noise shaping, codec decoding) run as one compiled C
kernel (`dsq_kernel`), which the first run builds with the system
compiler `cc` into `$XDG_CACHE_HOME/mdrdf` (default `~/.cache/mdrdf`) and
later runs and processes reuse. Without a C compiler, or if the build
fails, one `KernelUnavailableWarning` is issued; the Python reference loop
`_dsq_loop` then runs, with the same quantizer indices, and the all-pole
filters run as `scipy.signal.lfilter`, imported only then.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from . import dsq_kernel
from .errors import SignalTooShort
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

# The time-domain filter design is fixed.
# Source predictor A, which also synthesizes the source as an AR process:
# at order 32 the cosine spectrum's prediction error is within 3% of its
# entropy power.
PREDICTOR_ORDER = 32
# Mask predictor Q of the noise shaper 1/(1 - Q): the interleaved mask
# steps at pi/2, and at order 96 the shaped noise follows a two-step mask
# within 5% away from the step.
SHAPER_ORDER = 96
# Kaiser half-band filters: the encoder's interpolator and the central
# decoder. 511 = 1023 modulo 4, so their total group delay (255 + 511
# upsampled samples) is even and the central path lands on the integer
# source-sample grid, 383 samples late.
INTERP_TAPS = 511
DECODER_TAPS = 1023
_CENTRAL_DELAY = (INTERP_TAPS - 1) // 2 + (DECODER_TAPS - 1) // 2
# Zero-rate bins of a mask are raised to this floor before the shaper's
# predictor fit and the rate's entropy power, which need a positive mask.
MASK_FLOOR = 1e-5
# Samples dropped at each end of every measured window: more than the
# longest filter transient, 863 = SHAPER_ORDER + (INTERP_TAPS +
# DECODER_TAPS) // 2.
WARMUP = 2048


@dataclass(frozen=True)
class SimConfig:
    """Run parameters for the time-domain simulations.

    The Welch segment must be a power of two, with 8 segments in the
    shortest measured window: the central path's, num_samples - 2 * WARMUP
    - 384 samples.
    """

    num_samples: int = 1 << 18
    seed: int = 0
    mode: str = "awgn"
    erasure: str = "none"
    welch_segment: int = 4096

    def __post_init__(self):
        if self.num_samples < (1 << 16):
            raise ValueError("num_samples must be at least 2^16")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.erasure not in ERASURES:
            raise ValueError(f"erasure must be one of {ERASURES}")
        seg = self.welch_segment
        if seg < 2 or seg & (seg - 1):
            raise ValueError(f"welch segment {seg} is not a power of two")
        window = self.num_samples - 2 * WARMUP - (_CENTRAL_DELAY // 2 + 1)
        if seg > window // 8:
            raise ValueError(
                f"welch segment {seg} leaves fewer than 8 segments in the "
                f"{window}-sample measured window"
            )


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
            return None if s is None else {"grid_size": s.grid_size, "values": s.values.tolist()}

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


def welch_psd(x: NDArray[np.float64], segment: int) -> Spectrum:
    """Hann-windowed averaged periodogram on the midpoint grid.

    50% overlap; scaled so white noise of variance v estimates a flat
    spectrum at level v.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if segment < 2 or segment & (segment - 1):
        raise ValueError("segment length must be a power of two")
    if segment > x.size // 8:
        raise SignalTooShort(f"need at least 8 segments of {segment}, have {x.size}")
    frames = np.lib.stride_tricks.sliding_window_view(x, segment)[:: segment // 2]
    win = np.hanning(segment + 1)[:-1]  # periodic Hann
    spec = np.fft.rfft(frames * win, axis=-1)
    # the density at fs = 2 pi, two-sided at DC and Nyquist as in between,
    # so that it is level across the whole grid before interpolating
    pxx = np.mean(spec.real**2 + spec.imag**2, axis=0) / np.sum(win * win)
    freqs = np.linspace(0.0, np.pi, segment // 2 + 1)
    return Spectrum(np.interp(midpoint_omega(segment // 2), freqs, pxx))


def _trim_taps(coeffs: NDArray[np.float64], tol: float = 1e-14) -> NDArray[np.float64]:
    nz = np.nonzero(np.abs(coeffs) > tol)[0]
    return coeffs[: nz[-1] + 1] if nz.size else np.zeros(0)


def _synth_source(spectrum: Spectrum, rng: np.random.Generator, n: int):
    """AR(PREDICTOR_ORDER) realization of the spectrum, and its predictor taps."""
    pred = optimal_predictor(spectrum, PREDICTOR_ORDER)
    a = _trim_taps(pred.coeffs)
    innov = rng.standard_normal(n) * math.sqrt(pred.innovation_variance)
    return _allpole(innov, a), a


def _allpole(x: NDArray[np.float64], a: NDArray[np.float64]) -> NDArray[np.float64]:
    """1/(1 - A(z)) applied to x: y[m] = x[m] + sum_j a_j y[m-1-j]."""
    kernel = dsq_kernel.load()
    if kernel is not None:
        return kernel.allpole(x, a)
    from scipy import signal

    return signal.lfilter([1.0], np.r_[1.0, -a], x)


def _zero_phase(x: NDArray[np.float64], mag: NDArray[np.float64], omega) -> NDArray[np.float64]:
    """Apply a zero-phase filter given its magnitude on the midpoint grid."""
    X = np.fft.rfft(x)
    w = np.linspace(0.0, np.pi, X.size)
    m = np.interp(w, omega, mag, left=mag[0], right=mag[-1])
    return np.fft.irfft(X * m, x.size)


def _dsq_loop(u, a, q, stride: int, dither, step: float):
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
    V, Y, G = np.zeros(n), np.zeros(n), np.zeros(n)
    idx = np.zeros(n, dtype=np.int64)
    for m in range(n):
        lags = V[m - stride :: -stride][:P] if m >= stride else V[:0]
        b = float(np.dot(a[: lags.size], lags))
        hist = G[m - 1 :: -1][:L] if m else G[:0]
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
    kernel = dsq_kernel.load()
    loop = kernel.dsq_loop if kernel is not None else _dsq_loop
    return loop(u, a, q, stride, dither, step)


def _apply_predictor_error(v: NDArray[np.float64], a: NDArray[np.float64], stride: int):
    """Y = (1 - A(z^stride)) V."""
    y = v.copy()
    for j, aj in enumerate(a, 1):
        y[j * stride :] -= aj * v[: -j * stride]
    return y


def _empirical_entropy(indices: NDArray[np.int64]) -> float:
    """Plug-in entropy of the index stream, nats per sample."""
    _, counts = np.unique(indices, return_counts=True)
    p = counts / counts.sum()
    return float(-np.sum(p * np.log(p)))


def _shaper_for_mask(mask: Spectrum) -> PredictorCoeffs:
    return noise_shaper(Spectrum(np.maximum(mask.values, MASK_FLOOR)), SHAPER_ORDER)


def _analytic_rate(source: Spectrum, mask: Spectrum) -> float:
    vals = mask.values if np.all(mask.values > 0) else np.maximum(mask.values, MASK_FLOOR)
    return 0.5 * math.log(entropy_power(source) / entropy_power(Spectrum(vals)))


def _interpolate(x: NDArray[np.float64]) -> NDArray[np.float64]:
    """Zero-stuff x by two and interpolate with the encoder's half-band filter,
    in polyphase form: the even taps over x give the even outputs, and the
    centre tap, the one odd tap that is not a sinc zero, the odd outputs."""
    h = 2.0 * halfband_interpolator(INTERP_TAPS)
    c = (INTERP_TAPS - 1) // 2
    out = np.zeros(2 * x.size)
    out[0::2] = np.convolve(x, h[0::2])[: x.size]
    out[c::2] = h[c] * x[: x.size - c // 2]
    return out


def _decode_central(v_up: NDArray[np.float64], n_central: int) -> NDArray[np.float64]:
    """The central decoder's half-band filter at the outputs it keeps,
    w[2k + _CENTRAL_DELAY] for k < n_central, in polyphase form: the even
    taps over description 0 plus the centre tap on description 1."""
    h = halfband_interpolator(DECODER_TAPS)
    c = (DECODER_TAPS - 1) // 2
    half = _CENTRAL_DELAY // 2
    w = np.convolve(v_up[0::2], h[0::2])[half : half + n_central]
    w += h[c] * v_up[_CENTRAL_DELAY - c :: 2][:n_central]
    return w


def _encode(source: Spectrum, mask: Spectrum, f_mag: NDArray[np.float64], stride: int,
            cfg: SimConfig):
    """The encoder of all three structures.

    Synthesizes the source x, applies the pre filter F and, at stride 2,
    interpolates to the upsampled rate of the two interleaved descriptions.
    The loop then predicts from the reconstructions `stride`, 2 `stride`,
    ... samples back and injects noise shaped by the mask predictor:
    vectorized in awgn mode, the sequential loop in ecdq mode. One seed
    fixes every stream: [seed, 1] the source, [seed, 2] the awgn noise and
    the stride-1 dither, [seed, 3] and [seed, 4] the dithers of the even
    and the odd samples at stride 2. Returns (x, a, shaper, V, Y, indices),
    with indices None in awgn mode.
    """
    x, a = _synth_source(source, np.random.default_rng([cfg.seed, 1]), cfg.num_samples)
    shaper = _shaper_for_mask(mask)
    u = _zero_phase(x, f_mag, source.omega)
    if stride == 2:
        u = _interpolate(u)
    m = u.size
    if cfg.mode == "awgn":
        rng = np.random.default_rng([cfg.seed, 2])
        z = rng.standard_normal(m) * math.sqrt(shaper.innovation_variance)
        v = u + _allpole(z, shaper.coeffs)
        return x, a, shaper, v, _apply_predictor_error(v, a, stride), None
    step = math.sqrt(12.0 * shaper.innovation_variance)
    dither = np.empty(m)
    for k, stream in enumerate((2,) if stride == 1 else (3, 4)):
        state = QuantizerState(step=step, rng=np.random.default_rng([cfg.seed, stream]))
        dither[k::stride] = state.draw_dither(m // stride)
    v, y, indices = _ecdq_loop(u, a, shaper.coeffs, stride=stride, dither=dither, step=step)
    return x, a, shaper, v, y, indices


def run_sd_mask_channel(source: Spectrum, mask: Spectrum, cfg: SimConfig) -> SimReport:
    """Single-description coding subject to a distortion mask.

    Pre-filter F, prediction with the source predictor, noise shaping with
    the mask predictor, injected noise of the mask innovation power. The
    reconstruction error spectrum reproduces the mask; the channel output
    is white at the source innovation power.
    """
    n = cfg.num_samples
    f_mag = sd_prefilter(source, mask)
    x, _, shaper, v, y, indices = _encode(source, mask, f_mag, 1, cfg)
    xhat = _zero_phase(v, f_mag, source.omega)

    # one measured window for the distortion, the PSDs and the rate
    sl = slice(WARMUP, n - WARMUP)
    err = (xhat - x)[sl]
    y_trim = y[sl]
    return SimReport(
        d_side_1=None,
        d_side_2=None,
        d_central=float(np.mean(err * err)),
        rate_analytical=_analytic_rate(source, mask),
        rate_empirical=_empirical_entropy(indices[sl]) if indices is not None else None,
        psd_y=welch_psd(y_trim, cfg.welch_segment),
        psd_err_side=None,
        psd_err_central=welch_psd(err, cfg.welch_segment),
        y_variance=float(np.var(y_trim)),
        noise_variance=shaper.innovation_variance,
    )


def _run_md(source: Spectrum, noise: NoiseSpectra, cfg: SimConfig, decode) -> SimReport:
    """Encode the two descriptions, rebuild V as decode(a, V, Y), and
    measure the side paths of the kept descriptions and, if both are kept,
    the central path."""
    n = cfg.num_samples
    om = source.omega
    tilde = interleave_theta(noise)
    pp = pre_post_filters(source, noise)
    x, a, shaper, v_up, y_up, indices = _encode(source, tilde, pp.f_mag, 2, cfg)
    v_up = decode(a, v_up, y_up)
    ref = _interpolate(x)

    kept = [k for k in (0, 1) if cfg.erasure != f"lose_desc{k + 1}"]
    xh = {k: _zero_phase(v_up[k::2], pp.f_mag, om) for k in kept}
    err = {k: (xh[k] - ref[k::2])[WARMUP : n - WARMUP] for k in kept}
    d_side = [float(np.mean(err[k] * err[k])) if k in err else None for k in (0, 1)]

    dc = errc = None
    if len(kept) == 2:
        n_central = n - _CENTRAL_DELAY // 2 - 1
        wc = _decode_central(v_up, n_central)
        errc = (_zero_phase(wc, pp.g_mag, om) - x[:n_central])[WARMUP : n_central - WARMUP]
        dc = float(np.mean(errc * errc))

    # the first kept description gives the description process and the side PSD
    y_trim = y_up[kept[0] :: 2][WARMUP : n - WARMUP]

    rate_emp = None
    if indices is not None:
        idx = indices[2 * WARMUP : 2 * (n - WARMUP)]
        rate_emp = 0.5 * (_empirical_entropy(idx[0::2]) + _empirical_entropy(idx[1::2]))

    return SimReport(
        d_side_1=d_side[0],
        d_side_2=d_side[1],
        d_central=dc,
        rate_analytical=_analytic_rate(source, tilde),
        rate_empirical=rate_emp,
        psd_y=welch_psd(y_trim, cfg.welch_segment),
        psd_err_side=welch_psd(err[kept[0]], cfg.welch_segment),
        psd_err_central=welch_psd(errc, cfg.welch_segment) if errc is not None else None,
        y_variance=float(np.var(y_trim)),
        noise_variance=shaper.innovation_variance,
    )


def _decode_descriptions(a, v_up, y_up):
    """Rebuild each description's V from its own Y by 1/(1 - A)."""
    v_up = np.zeros_like(y_up)
    for k in (0, 1):
        v_up[k::2] = _allpole(y_up[k::2], a)
    return v_up


def run_md_channel(source: Spectrum, noise: NoiseSpectra, cfg: SimConfig) -> SimReport:
    """Two-description equivalent channel: the decoders read V directly."""
    return _run_md(source, noise, cfg, lambda a, v_up, y_up: v_up)


def run_md_codec(source: Spectrum, noise: NoiseSpectra, cfg: SimConfig) -> SimReport:
    """Nested encoder (per-description prediction loops inside a common
    noise-shaping loop) followed by the matching decoder.

    The encoder is the channel's: the sample-by-sample loop in ecdq mode,
    vectorized filtering in awgn mode. The decoder reconstructs each
    description independently by its own prediction filter before
    re-interleaving for the central path, so surviving a description
    erasure needs nothing from the lost stream.
    """
    return _run_md(source, noise, cfg, _decode_descriptions)
