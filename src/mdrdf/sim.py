"""Sample-level simulation of the prediction / noise-shaping structures.

Three structures are simulated: the single-description distortion-mask
channel, the two-description equivalent channel (upsampled prediction
inside a common noise-shaping loop), and the nested encoder/decoder codec
with per-description prediction loops. One encoder serves all three, at
stride 1 for the single-description channel and at stride 2 for the two
interleaved descriptions, and one report measures all three over one
window. Noise injection is either white Gaussian (awgn mode) or a scalar
subtractive-dither uniform quantizer (ecdq mode); both have identical
second moments when step^2/12 equals the injected variance, which is what
every measured quantity depends on. The analytical rate is `evaluate`'s:
the mean of `rdf.densities`'s rate.

The noise shaper is the recursive filter 1 + C = 1/(1 - Q) of the mask
predictor Q. Only ecdq mode runs the sequential loop, because the
quantizer makes it nonlinear. In awgn mode the loop algebra collapses to
V = U + Z/(1 - Q) and Y = (1 - A) V. The pre and post filters F and G,
the interpolator and the central decoder are zero phase and applied
exactly on the FFT grid, so that each signal is transformed once. The
source is drawn on that grid: one rfft of white noise, shaped by the
square root of the source spectrum, is the source's spectrum X, which
feeds the encoder's input and every reference. One rfft of the
upsampled V feeds every decoder, and each decoder path's error is one
irfft of its filter times its decoded spectrum less its reference.
Each decoder estimates the source, so the references are the source's
spectrum X itself for the even side and the central path, and X half a
sample later for the odd side.

In both modes the ecdq loop and the all-pole filters (awgn noise shaping
by 1/(1 - Q), codec decoding by 1/(1 - A)) run as one compiled C
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
from .filters import interleave_theta, noise_shaper, pre_post_filters, sd_prefilter
from .rdf import NoiseSpectra, densities
from .spectra import Spectrum, midpoint_omega, optimal_predictor

MODES = ("awgn", "ecdq")
ERASURES = ("none", "lose_desc1", "lose_desc2")

# The time-domain filter design is fixed.
# The coder's source predictor A: at order 32 the cosine spectrum's
# prediction error is within 3% of its entropy power.
PREDICTOR_ORDER = 32
# Mask predictor Q of the noise shaper 1/(1 - Q): the interleaved mask
# steps at pi/2, and at order 96 the shaped noise follows a two-step mask
# within 5% away from the step.
SHAPER_ORDER = 96
# Zero-rate bins of a mask are raised to this floor before the shaper's
# predictor fit, which needs a positive mask.
MASK_FLOOR = 1e-5
# Samples dropped at each end of every measured window: the all-pole
# filters start from rest there, and the FFT-grid filters, being circular,
# wrap one end of the signal onto the other.
WARMUP = 2048


@dataclass(frozen=True)
class SimConfig:
    """Run parameters for the time-domain simulations.

    The Welch segment must be a power of two, with 8 segments in the
    measured window of every path, num_samples - 2 * WARMUP samples.
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
        window = self.num_samples - 2 * WARMUP
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
    """Measured rates, distortions and PSDs from one simulation run. None
    marks what a run does not measure: the side fields in the
    single-description channel, a lost description's side distortion and
    the central fields under an erasure, and rate_empirical in awgn mode."""

    d_side_1: Optional[float]
    d_side_2: Optional[float]
    d_central: Optional[float]
    rate_analytical: float
    rate_empirical: Optional[float]
    psd_y: Spectrum
    psd_err_side: Optional[Spectrum]
    psd_err_central: Optional[Spectrum]
    y_variance: float
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


def _allpole(x: NDArray[np.float64], a: NDArray[np.float64], stride: int = 1):
    """1/(1 - A(z^stride)) applied to x, each phase x[k::stride] on its own."""
    kernel = dsq_kernel.load()
    if kernel is not None:
        return kernel.allpole(x, a, stride)
    from scipy import signal

    # per phase, not through the upsampled denominator, whose zero taps
    # would carry a NaN in one phase into the others
    return signal.lfilter([1.0], np.r_[1.0, -a], x.reshape(-1, stride), axis=0).reshape(-1)


def _on_fft_grid(mag: NDArray[np.float64], omega, n: int) -> NDArray[np.float64]:
    """A function of frequency given on the midpoint grid, a zero-phase
    filter's magnitude or a power spectrum, read on the rfft bins
    2 pi k / n, k = 0 .. n // 2, of n samples."""
    bins = np.arange(n // 2 + 1) * (2.0 * np.pi / n)
    return np.interp(bins, omega, mag)


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


def _interpolate(X: NDArray[np.complex128], n: int) -> NDArray[np.complex128]:
    """The 2n-point rfft of the n samples whose rfft is X, upsampled by two
    through the ideal zero-phase half-band filter: their spectrum, doubled,
    moves onto [-pi/2, pi/2] and nothing lands above it. The Nyquist bin of
    an even n is split between +pi/2 and -pi/2, so it is not doubled. The
    even samples of its irfft are the n samples."""
    h = (n + 1) // 2
    return np.concatenate((2.0 * X[:h], X[h:], np.zeros(n + 1 - X.size)))


def _half_sample(n: int) -> NDArray[np.complex128]:
    """exp(i pi j / n) on the rfft bins j = 0 .. n // 2 of n samples: the
    advance by half a sample."""
    return np.exp(1j * np.pi * np.arange(n // 2 + 1) / n)


def _decoder_spectra(V: NDArray[np.complex128], n: int, turn: NDArray[np.complex128]):
    """The rffts of the decoders' n-sample inputs, from the rfft V of the
    upsampled 2n samples: the even and the odd samples, by the polyphase
    identity V[j] = E[j] + conj(turn[j]) O[j] and V[n - j] = conj(E[j] -
    conj(turn[j]) O[j]), with turn = `_half_sample(n)`; and the central
    decoder's output, the low half |omega| <= pi/2 kept at the even
    samples, where the bins at +pi/2 and -pi/2 fold onto one Nyquist bin
    (even n). The central output undoes `_interpolate`. Returns (even,
    odd, central)."""
    h = (n + 1) // 2
    low, mirror = V[: n // 2 + 1], np.conj(V[n - n // 2 :][::-1])
    central = np.concatenate((0.5 * low[:h], low[h:]))
    return 0.5 * (low + mirror), 0.5 * (low - mirror) * turn, central


def _encode(source: Spectrum, mask: Spectrum, F: NDArray[np.float64], stride: int,
            cfg: SimConfig):
    """The encoder of all three structures.

    Draws the source's rfft X as the rfft of n standard normals times the
    square root of the source spectrum on the rfft bins: a periodic
    Gaussian process whose spectrum is the source's on every bin. From X
    it applies the pre filter F (on the rfft grid) and, at stride 2,
    interpolates to the upsampled rate of the two interleaved descriptions,
    in one irfft. The loop then predicts, with the source's order
    PREDICTOR_ORDER predictor A, from the reconstructions `stride`,
    2 `stride`, ... samples back and injects noise shaped by the mask
    predictor: vectorized in awgn mode, the sequential loop in ecdq mode.
    One seed fixes every stream: [seed, 1] the n white normals of the
    source, [seed, 2] the awgn noise and the stride-1 dither, [seed, 3] and
    [seed, 4] the dithers of the even and the odd samples at stride 2.
    Returns (X, a, shaper, V, Y, indices), with indices None in awgn mode.
    """
    n = cfg.num_samples
    w = np.random.default_rng([cfg.seed, 1]).standard_normal(n)
    X = np.fft.rfft(w) * np.sqrt(_on_fft_grid(source.values, source.omega, n))
    pred = optimal_predictor(source, PREDICTOR_ORDER)
    nz = np.nonzero(np.abs(pred.coeffs) > 1e-14)[0]  # trailing taps at rounding level
    a = pred.coeffs[: nz[-1] + 1] if nz.size else np.zeros(0)
    shaper = noise_shaper(Spectrum(np.maximum(mask.values, MASK_FLOOR)), SHAPER_ORDER)
    u = np.fft.irfft(X * F if stride == 1 else _interpolate(X * F, n), stride * n)
    m = u.size
    if cfg.mode == "awgn":
        rng = np.random.default_rng([cfg.seed, 2])
        z = rng.standard_normal(m) * math.sqrt(shaper.innovation_variance)
        v = u + _allpole(z, shaper.coeffs)
        return X, a, shaper, v, _apply_predictor_error(v, a, stride), None
    step = math.sqrt(12.0 * shaper.innovation_variance)
    dither = np.empty(m)
    for k, stream in enumerate((2,) if stride == 1 else (3, 4)):
        state = QuantizerState(step=step, rng=np.random.default_rng([cfg.seed, stream]))
        dither[k::stride] = state.draw_dither(m // stride)
    v, y, indices = _ecdq_loop(u, a, shaper.coeffs, stride=stride, dither=dither, step=step)
    return X, a, shaper, v, y, indices


def _report(source: Spectrum, noise: NoiseSpectra, shaper, y, indices, err, cfg: SimConfig):
    """The report of a run of any structure, from the errors err of its
    decoder paths (0 and 1 the sides, 2 the central path or the
    single-description channel's one path) and its descriptions, y and
    indices interleaved at stride 1 or 2, each over samples WARMUP ..
    n - WARMUP. The empirical rate is the descriptions' mean entropy."""
    n = cfg.num_samples
    stride = y.size // n
    window = slice(WARMUP, n - WARMUP)
    err = {k: e[window] for k, e in err.items()}
    d = {k: float(np.mean(e * e)) for k, e in err.items()}
    sides = [k for k in (0, 1) if k in err]
    first = sides[0] if sides else 0  # the first kept description
    y_trim = y[first::stride][window]
    rate_emp = None
    if indices is not None:
        rates = [_empirical_entropy(indices[k::stride][window]) for k in range(stride)]
        rate_emp = sum(rates) / stride
    return SimReport(
        d_side_1=d.get(0),
        d_side_2=d.get(1),
        d_central=d.get(2),
        rate_analytical=float(np.mean(densities(source.values, noise)[0])),
        rate_empirical=rate_emp,
        psd_y=welch_psd(y_trim, cfg.welch_segment),
        psd_err_side=welch_psd(err[first], cfg.welch_segment) if sides else None,
        psd_err_central=welch_psd(err[2], cfg.welch_segment) if 2 in err else None,
        y_variance=float(np.var(y_trim)),
        noise_variance=shaper.innovation_variance,
    )


def run_sd_mask_channel(source: Spectrum, mask: Spectrum, cfg: SimConfig) -> SimReport:
    """Single-description coding subject to a distortion mask.

    Pre-filter F, prediction with the source predictor, noise shaping with
    the mask predictor, injected noise of the mask innovation power. The
    reconstruction error spectrum reproduces the mask; the channel output
    is white at the source innovation power. The rate is the MD rate on
    the lambda2 = 0 edge tp = tm = D/2, which is the single-description
    R(D) (see `fit_lambdas`).
    """
    n = cfg.num_samples
    F = _on_fft_grid(sd_prefilter(source, mask), source.omega, n)
    D = mask.values
    edge = NoiseSpectra(D / 2, D / 2, D >= source.values)
    X, _, shaper, v, y, indices = _encode(source, mask, F, 1, cfg)
    err = np.fft.irfft(np.fft.rfft(v) * F - X, n)
    return _report(source, edge, shaper, y, indices, {2: err}, cfg)


def _path_errors(X, v_up, F, G, paths):
    """Each decoder path's error, irfft(filter x decoded - reference, n), of
    paths 0 and 1, the sides (F), and 2, the central path (G). Each decoder
    estimates the source, so the reference of the even side and the central
    path is X itself, and that of the odd side X half a sample later. Its
    Nyquist bin (even n) turns onto the imaginary axis, to rounding, which
    irfft drops: the odd samples fold +pi/2 and -pi/2 onto it with opposite
    signs."""
    n = v_up.size // 2
    turn = _half_sample(n)
    decoded = _decoder_spectra(np.fft.rfft(v_up), n, turn)
    refs = (X, X * turn, X)
    return {k: np.fft.irfft((F, F, G)[k] * decoded[k] - refs[k], n) for k in paths}


def _run_md(source: Spectrum, noise: NoiseSpectra, cfg: SimConfig, decode) -> SimReport:
    """Encode the two descriptions, rebuild V as decode(a, V, Y), and
    measure the side paths of the kept descriptions and, if both are kept,
    the central path."""
    n = cfg.num_samples
    pp = pre_post_filters(source, noise)
    F, G = (_on_fft_grid(mag, source.omega, n) for mag in (pp.f_mag, pp.g_mag))
    X, a, shaper, v_up, y_up, indices = _encode(source, interleave_theta(noise), F, 2, cfg)
    v_up = decode(a, v_up, y_up)
    kept = [k for k in (0, 1) if cfg.erasure != f"lose_desc{k + 1}"]
    paths = kept + [2] if len(kept) == 2 else kept
    err = _path_errors(X, v_up, F, G, paths)
    return _report(source, noise, shaper, y_up, indices, err, cfg)


def _decode_descriptions(a, v_up, y_up):
    """Rebuild each description's V from its own Y by 1/(1 - A): the two
    phases of the interleaved stream, filtered apart in one call."""
    return _allpole(y_up, a, 2)


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
