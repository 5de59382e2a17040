"""codec part of a workload: the time-domain codec and channel, in process.

The workload's source at one fitted equality operating point (the fit
is set-up). Each of a round's four steps runs run_md_codec in ecdq mode,
run_md_codec in awgn mode and run_md_channel in awgn mode, each on 2^16
source samples (the least the program accepts). The codec runs the
sequential loop in both modes; the awgn channel is vectorized and is
the control for changes that touch only the loop.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

import refs
from bench import Run, fingerprint
from frontier import FIT_TOL, JITTER, SMALL_N, SOURCE_IDS, SOURCES

SAMPLES = 1 << 16
# (D_S / variance, D_C / D_S) of each source's operating point; cosine's
# anchor is the worked example (0.4, 0.08)
ANCHORS = {"cosine": (0.4, 0.2), "ar1": (0.4, 0.2)}
RUNS = [("codec_ecdq", "ecdq"), ("codec_awgn", "awgn"), ("channel_awgn", "awgn")]
# At 2^16 samples, over seeds 1-40, measured distortions deviated from
# evaluate's by at most 4.1% and ecdq's from awgn's (independent noise)
# by at most 6.2%; each tolerance is about twice that.
D_RTOL = 0.08
MODE_RTOL = 0.12
# quantities the two sides compute by different float paths
EXACT_RTOL = 1e-9


@dataclass(frozen=True)
class Inputs:
    source: str
    spectrum: np.ndarray
    target: tuple  # (D_S, D_C)
    sim_seed: int


def make_inputs(seed: int, source: str) -> Inputs:
    rng = np.random.default_rng([seed, 202, SOURCE_IDS[source]])
    S = SOURCES[source](SMALL_N)
    u, v = ANCHORS[source] * np.exp(rng.uniform(-JITTER, JITTER, 2))
    var = float(np.mean(S))
    target = (float(u * var), float(u * v * var))
    if refs.edge_bounds(S, *target).kind != "equality":
        raise RuntimeError(f"{source} operating point is not an equality target")
    return Inputs(source, S, target, int(rng.integers(1, 2**31)))


def prepare(inputs: Inputs):
    """The program-facing set-up: the spectrum, its fitted point, a first run."""
    from mdrdf import rdf, sim
    from mdrdf.spectra import Spectrum
    from mdrdf.white_md import DistortionPair

    spec = Spectrum(inputs.spectrum)
    point = rdf.fit_lambdas(spec, DistortionPair(*inputs.target), tol=FIT_TOL)
    sim.run_md_channel(spec, point.spectra, sim.SimConfig(num_samples=SAMPLES, seed=0))
    return spec, point, {}  # the last dict collects each run's first report


def do_step(run_: Run, inputs: Inputs, state, step: int) -> None:
    """One slice of a round: the ecdq codec, the awgn codec, the awgn channel."""
    from mdrdf import sim

    spec, point, reports = state
    name = inputs.source
    if run_.rounds == 0 and step == 0:
        ds, dc = inputs.target
        run_.check(
            abs(point.d_side - ds) <= FIT_TOL and abs(point.d_central - dc) <= FIT_TOL,
            f"{name}: operating point misses its targets",
        )
    for kind, mode in RUNS:
        fn = sim.run_md_codec if kind.startswith("codec") else sim.run_md_channel
        cfg = sim.SimConfig(num_samples=SAMPLES, seed=inputs.sim_seed, mode=mode)
        rep, dt = run_.timed(kind, f"{kind}:{name}", fn, spec, point.spectra, cfg)
        run_.samples[kind].append(SAMPLES / dt / 1e3)
        if run_.first_output(f"{kind}:{name}", _report_bytes(rep)):
            reports[kind] = rep
            if len(reports) == len(RUNS):
                _check_source(run_, name, inputs.spectrum, point, reports)


def metrics(run_: Run, inputs: Inputs) -> dict:
    rates = run_.samples
    return {
        f"{kind}_ksamples_per_s": (statistics.median(rates[kind]), "ksamples/s") for kind, _ in RUNS
    }


def _report_bytes(rep) -> bytes:
    return fingerprint(
        [rep.d_side_1, rep.d_side_2, rep.d_central, rep.rate_analytical],
        [rep.rate_empirical if rep.rate_empirical is not None else math.nan],
        rep.psd_y.values,
        rep.psd_err_side.values,
        rep.psd_err_central.values,
    )


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a / b - 1.0) <= rtol


def _check_source(run_: Run, name: str, S: np.ndarray, point, reports) -> None:
    ecdq, awgn, channel = reports["codec_ecdq"], reports["codec_awgn"], reports["channel_awgn"]
    for kind, rep in (("codec_ecdq", ecdq), ("codec_awgn", awgn), ("channel_awgn", channel)):
        for label, got, want in (
            ("D_S1", rep.d_side_1, point.d_side),
            ("D_S2", rep.d_side_2, point.d_side),
            ("D_C", rep.d_central, point.d_central),
        ):
            run_.check(
                _close(got, want, D_RTOL),
                f"{kind}:{name}: measured {label} {got} vs evaluate's {want}",
            )
    for label, a, b in (
        ("D_S1", ecdq.d_side_1, awgn.d_side_1),
        ("D_S2", ecdq.d_side_2, awgn.d_side_2),
        ("D_C", ecdq.d_central, awgn.d_central),
    ):
        run_.check(_close(a, b, MODE_RTOL), f"{name}: ecdq {label} {a} vs awgn {b}")
    # the awgn codec loop and the vectorized channel are the same algebra
    for label, a, b in (
        ("D_S1", awgn.d_side_1, channel.d_side_1),
        ("D_C", awgn.d_central, channel.d_central),
    ):
        run_.check(_close(a, b, EXACT_RTOL), f"{name}: awgn codec {label} {a} vs channel {b}")
    run_.check(
        ecdq.rate_empirical > ecdq.rate_analytical,
        f"{name}: ecdq empirical rate {ecdq.rate_empirical} not above analytic {ecdq.rate_analytical}",
    )
    ep = refs.entropy_power_rate(S, point.spectra.theta_plus, point.spectra.theta_minus)
    for kind, rep in (("codec_ecdq", ecdq), ("channel_awgn", channel)):
        run_.check(
            _close(rep.rate_analytical, ep, EXACT_RTOL),
            f"{kind}:{name}: analytic rate {rep.rate_analytical} vs entropy-power rate {ep}",
        )
    run_.check(
        _close(point.rate, ep, EXACT_RTOL),
        f"{name}: MD rate {point.rate} vs entropy-power rate {ep}",
    )
