"""frontier part of a workload: the analytic path of mdrdf, in process.

The source is the cosine spectrum 1 + cos(omega), whose bins near pi are
zero-rate, or AR(1) with a = 0.9. Each of a round's four steps runs
twice a multiplier-grid sweep and a fit of each of the six equality
targets, then one heavy operation: in steps 0 and 1 the fit of one of
the two slack targets (each costs about 100 equality fits), in steps 2
and 3 evaluate on the fine grid. The small grid is bound by call
overhead, the fine grid by memory.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

import refs
from bench import Run, fingerprint

SMALL_N = 4096
FINE_N = 1 << 20  # each float64 array is 8 MiB, past the per-core L2
SWEEP_POINTS = 8  # per multiplier axis
FIT_TOL = 1e-6
JITTER = 0.03  # relative spread the seed puts on each target anchor
# the sweep and the equality fits are short, so each step runs them this
# many times: their medians then draw on samples from the whole run
LIGHT_REPEATS = 2

SOURCES = {
    "cosine": refs.cosine_spectrum,
    "ar1": lambda n: refs.ar1_spectrum(0.9, 1.0, n),
}
SOURCE_IDS = {"cosine": 1, "ar1": 2}
# Target anchors as (D_S / variance, D_C / D_S), with the kind the edge
# references give them; the seed jitters each anchor. Equality anchors
# stay where the fit converges from its analytic seed, in 13-32
# evaluations that move with the jitter, so their mean over a source's
# six targets moves between seeds. Slack anchors sit well inside their
# edge's region, so the jitter cannot change their kind.
EQUALITY = {
    "cosine": [(0.2, 0.15), (0.25, 0.3), (0.3, 0.2), (0.35, 0.35), (0.4, 0.15), (0.45, 0.25)],
    "ar1": [(0.2, 0.15), (0.25, 0.3), (0.3, 0.2), (0.35, 0.35), (0.4, 0.15), (0.45, 0.25)],
}
SLACK = {
    "cosine": [(0.4, 0.85, "slack_central"), (0.75, 0.3, "slack_side")],
    "ar1": [(0.75, 0.3, "slack_side"), (0.9, 0.5, "slack_side")],
}


@dataclass(frozen=True)
class Target:
    key: str
    source: str
    d_side: float
    d_central: float
    edges: refs.EdgeBounds


@dataclass(frozen=True)
class Inputs:
    source: str
    small: np.ndarray  # spectrum values on the small grid
    fine: np.ndarray  # spectrum values on the fine grid
    sweep_grid: tuple  # (lambda1 values, lambda2 values)
    fine_lambdas: tuple  # (lambda1, lambda2)
    equality: list
    slack: list


def make_inputs(seed: int, source: str) -> Inputs:
    rng = np.random.default_rng([seed, 101, SOURCE_IDS[source]])
    S = SOURCES[source](SMALL_N)
    lo1 = 10.0 ** rng.uniform(-1.6, -1.4)
    lo2 = 10.0 ** rng.uniform(-1.1, -0.9)
    grid = (
        list(np.geomspace(lo1, 100.0 * lo1, SWEEP_POINTS)),
        list(np.geomspace(lo2, 100.0 * lo2, SWEEP_POINTS)),
    )
    fine_lambdas = (
        float(np.exp(rng.uniform(np.log(0.15), np.log(0.35)))),
        float(np.exp(rng.uniform(np.log(1.5), np.log(3.5)))),
    )
    var = float(np.mean(S))
    equality, slack = [], []
    anchors = [(u, v, "equality") for u, v in EQUALITY[source]] + SLACK[source]
    for i, (u, v, kind) in enumerate(anchors):
        ju, jv = np.exp(rng.uniform(-JITTER, JITTER, 2))
        u, v = u * ju, v * jv
        ds, dc = float(u * var), float(u * v * var)
        edges = refs.edge_bounds(S, ds, dc)
        if edges.kind != kind:
            raise RuntimeError(f"{source} anchor {i} classified {edges.kind}, not {kind}")
        target = Target(f"{source}:{i}", source, ds, dc, edges)
        (equality if kind == "equality" else slack).append(target)
    return Inputs(source, S, SOURCES[source](FINE_N), grid, fine_lambdas, equality, slack)


def prepare(inputs: Inputs):
    """The program-facing set-up: spectrum objects and first calls."""
    from mdrdf import rdf
    from mdrdf.spectra import Spectrum
    from mdrdf.spectral_solver import LagrangePair
    from mdrdf.white_md import DistortionPair

    small, fine = Spectrum(inputs.small), Spectrum(inputs.fine)
    target = inputs.equality[0]
    rdf.fit_lambdas(small, DistortionPair(target.d_side, target.d_central), tol=FIT_TOL)
    rdf.evaluate(small, LagrangePair(*inputs.fine_lambdas))
    return small, fine


def do_step(run_: Run, inputs: Inputs, state, step: int) -> None:
    """One slice of a round: sweeps, equality fits and one heavy op.

    The heavy op of steps 0 and 1 is the fit of slack target 0 or 1, and
    of steps 2 and 3 the fine-grid evaluate.
    """
    from mdrdf import rdf
    from mdrdf.spectral_solver import LagrangePair
    from mdrdf.white_md import DistortionPair

    small, fine = state
    samples = run_.samples
    name = inputs.source

    def fit(kind, target):
        point, dt = run_.timed(
            kind,
            target.key,
            rdf.fit_lambdas,
            small,
            DistortionPair(target.d_side, target.d_central),
            FIT_TOL,
        )
        if run_.first_output(target.key, _point_bytes(point)):
            _check_fit(run_, inputs.small, target, point)
        return dt

    g1, g2 = inputs.sweep_grid
    for _ in range(LIGHT_REPEATS):
        pts, dt = run_.timed("sweep", f"sweep:{name}", rdf.sweep, small, g1, g2)
        samples["sweep_points_per_s"].append(len(pts) / dt)
        if run_.first_output(f"sweep:{name}", b"".join(_point_bytes(p) for p in pts)):
            _check_sweep(run_, inputs.small, name, pts)
        t_eq = sum(fit("fit_equality", t) for t in inputs.equality)
        samples["fit_equality_ms"].append(1e3 * t_eq / len(inputs.equality))

    if step < len(inputs.slack):
        target = inputs.slack[step]
        samples[f"fit_slack_ms:{target.key}"].append(1e3 * fit("fit_slack", target))
    else:
        lam = LagrangePair(*inputs.fine_lambdas)
        pt, dt = run_.timed("evaluate_fine", f"fine:{name}", rdf.evaluate, fine, lam)
        samples["evaluate_fine_ms"].append(1e3 * dt)
        if run_.first_output(f"fine:{name}", _point_bytes(pt)):
            _check_point(run_, inputs.fine, f"fine:{name}", pt, stationarity=True)


def metrics(run_: Run, inputs: Inputs) -> dict:
    samples = run_.samples
    return {
        "sweep_points_per_s": (statistics.median(samples["sweep_points_per_s"]), "points/s"),
        "fit_equality_ms": (statistics.median(samples["fit_equality_ms"]), "ms/target"),
        # each slack target's median, averaged over the targets
        "fit_slack_ms": (
            statistics.fmean(statistics.median(samples[f"fit_slack_ms:{t.key}"]) for t in inputs.slack),
            "ms/target",
        ),
        "evaluate_fine_ms": (statistics.median(samples["evaluate_fine_ms"]), "ms"),
    }


def _point_bytes(pt) -> bytes:
    lam = pt.lambdas
    return fingerprint(
        [lam.lambda1, lam.lambda2, pt.rate, pt.d_side, pt.d_central],
        pt.spectra.theta_plus,
        pt.spectra.theta_minus,
    )


# rates and distortions are means of about 4096 terms: allow their rounding
SUM_RTOL = 1e-12
# interior bins must be stationary to this relative gradient residual
STATIONARY_RTOL = 1e-8
# boundary bins checked against the triangle mesh, evenly spaced
CORNER_BINS = 128


def _check_point(run_: Run, S: np.ndarray, what: str, pt, stationarity: bool) -> None:
    """Properties every operating point must have."""
    var = float(np.mean(S))
    slack = SUM_RTOL * max(var, 1.0)
    run_.check(pt.rate >= 0.0, f"{what}: negative rate {pt.rate}")
    run_.check(
        0.0 < pt.d_central <= pt.d_side <= var + slack,
        f"{what}: distortions out of order ({pt.d_central}, {pt.d_side}, var {var})",
    )
    run_.check(
        pt.rate >= refs.sd_rate(S, pt.d_side) - slack,
        f"{what}: rate {pt.rate} below the SD bound R(D_S) {refs.sd_rate(S, pt.d_side)}",
    )
    run_.check(
        2.0 * pt.rate >= refs.sd_rate(S, pt.d_central) - slack,
        f"{what}: 2R {2 * pt.rate} below the SD bound R(D_C) {refs.sd_rate(S, pt.d_central)}",
    )
    if stationarity:
        _check_stationary(run_, S, what, pt)


def _check_stationary(run_: Run, S, what, pt) -> None:
    l1, l2 = pt.lambdas.lambda1, pt.lambdas.lambda2
    tp, tm = pt.spectra.theta_plus, pt.spectra.theta_minus
    corner = pt.spectra.boundary_mask
    # interior bins off the tm = S/2 edge: both partial derivatives vanish
    inner = ~corner & (tm < 0.5 * S * (1.0 - 1e-9))
    g_tp, g_tm, s_tp, s_tm = refs.gradient(S[inner], tp[inner], tm[inner], l1, l2)
    worst = max(
        float(np.max(np.abs(g_tp) / s_tp, initial=0.0)),
        float(np.max(np.abs(g_tm) / s_tm, initial=0.0)),
    )
    run_.check(worst <= STATIONARY_RTOL, f"{what}: interior gradient residual {worst:.3g}")
    # every non-corner bin beats the corner
    off = ~corner
    L = refs.objective(S[off], tp[off], tm[off], l1, l2)
    Lc = refs.corner_objective(S[off], l1, l2)
    run_.check(
        bool(np.all(L <= Lc + 1e-12 * np.abs(Lc))),
        f"{what}: an interior bin is worse than the corner",
    )
    # corner bins: no mesh point of the triangle beats the corner
    idx = np.nonzero(corner)[0]
    if idx.size:
        idx = idx[np.linspace(0, idx.size - 1, min(idx.size, CORNER_BINS)).astype(int)]
        Lc = refs.corner_objective(S[idx], l1, l2)
        Lm = refs.mesh_objective_min(S[idx], l1, l2)
        run_.check(
            bool(np.all(Lc <= Lm + 1e-12 * np.abs(Lm))),
            f"{what}: a mesh point beats the corner at a boundary bin",
        )


def _check_sweep(run_: Run, S, name, pts) -> None:
    for i, pt in enumerate(pts):
        _check_point(run_, S, f"sweep:{name}:{i}", pt, stationarity=True)


def _check_fit(run_: Run, S, target: Target, pt) -> None:
    what = f"fit {target.key} ({target.edges.kind})"
    _check_point(run_, S, what, pt, stationarity=True)
    ds, dc = target.d_side, target.d_central
    if target.edges.kind == "equality":
        run_.check(
            abs(pt.d_side - ds) <= FIT_TOL and abs(pt.d_central - dc) <= FIT_TOL,
            f"{what}: ({pt.d_side}, {pt.d_central}) misses targets ({ds}, {dc})",
        )
    else:
        run_.check(
            pt.d_side <= ds + FIT_TOL and pt.d_central <= dc + FIT_TOL,
            f"{what}: ({pt.d_side}, {pt.d_central}) exceeds targets ({ds}, {dc})",
        )
    # the fit stops once distortions are within tol; read tol in nats as
    # the rate it may give away against a feasible edge point
    run_.check(
        pt.rate <= target.edges.upper + FIT_TOL,
        f"{what}: rate {pt.rate} above the edge bound {target.edges.upper}",
    )
