import shutil

import numpy as np
import pytest

from mdrdf import LagrangePair, Spectrum, evaluate, midpoint_omega, spectrum_from_predictor
from mdrdf.sim import QuantizerState
from mdrdf.spectra import PredictorCoeffs

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler 'cc'")


def cosine_spectrum(n=4096):
    return Spectrum(np.cos(midpoint_omega(n)) + 1.0)


def ar1_spectrum(a=0.9, innovation=1.0, n=4096):
    return spectrum_from_predictor(
        PredictorCoeffs(coeffs=np.array([a]), innovation_variance=innovation), n
    )


def band_means(spectrum, n_bands, omega_max=np.pi):
    """Mean PSD per equal-width band over [0, omega_max]."""
    om = spectrum.omega
    edges = np.linspace(0.0, omega_max, n_bands + 1)
    return np.array(
        [np.mean(spectrum.values[(om >= lo) & (om < hi)]) for lo, hi in zip(edges[:-1], edges[1:])]
    )


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


@pytest.fixture(scope="session")
def cosine():
    return cosine_spectrum()


@pytest.fixture(scope="session")
def ar1():
    return ar1_spectrum()


@pytest.fixture(scope="session")
def example1_point(cosine):
    """Worked example: cosine spectrum at multipliers (0.2380, 2.700)."""
    return evaluate(cosine, LagrangePair(0.2380, 2.700))


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the compiled ecdq loop into a per-session cache directory
    instead of the user's ~/.cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield
