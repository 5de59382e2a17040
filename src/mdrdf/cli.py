"""Command-line interface: solve, fit, sweep, simulate, verify.

Results are UTF-8 JSON (per-frequency tables as RFC-4180-style CSV with a
single leading '#' manifest line); every output embeds the run manifest
that reproduces it. Writes are atomic (temp file + rename). File layouts
are documented in docs/formats.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from datetime import datetime, timezone
from operator import attrgetter

import numpy as np

from . import __version__
from .errors import MdrdfError, NoConvergence, TargetInfeasible
from .rdf import NoiseSpectra, RdfPoint, densities, evaluate, fit_lambdas, sweep
from .spectra import (
    DEFAULT_GRID_SIZE,
    PredictorCoeffs,
    Spectrum,
    flat_spectrum,
    midpoint_omega,
    regularize,
    spectrum_from_predictor,
)
from .spectral_solver import LagrangePair
from .white_md import DistortionPair

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INFEASIBLE = 4


class ConfigError(Exception):
    pass


# only `simulate` imports mdrdf.sim: tens of ms, plus over a second for
# scipy.signal where no C compiler builds its kernel. These names of it stay
# attributes of this module (PEP 562), like evaluate, fit_lambdas and sweep:
# perfbench's traced run (perfbench/layers.py) getattr-wraps run_md_codec and
# run_md_channel here, and raises AttributeError if either is missing
_SIM_NAMES = ("SimConfig", "run_md_channel", "run_md_codec")


def __getattr__(name: str):
    if name in _SIM_NAMES:
        from . import sim

        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _manifest(args: list[str], seed: int | None) -> dict:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    ts = (
        datetime.fromtimestamp(int(epoch), tz=timezone.utc)
        if epoch
        else datetime.now(tz=timezone.utc)
    )
    return {
        "command": ["mdrdf"] + args,
        "seed": seed,
        "version": __version__,
        "timestamp": ts.isoformat(timespec="seconds"),
    }


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as e:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise ConfigError(f"cannot write {path}: {e}") from e


def _emit(path: str | None, text: str) -> None:
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


def parse_spectrum_spec(spec: str, grid_size: int) -> Spectrum:
    """Build a spectrum from a compact CLI spec string.

    Kinds: 'flat:VAR', 'cosine', 'ar:A1,A2,...:INNOV_VAR',
    'table:PATH.json' (keys 'omega', 'value'; 'omega' spans the grid's
    first and last frequencies, and the values are interpolated onto it).
    """
    kind, _, rest = spec.partition(":")
    if kind == "flat":
        try:
            return flat_spectrum(float(rest), grid_size)
        except ValueError as e:
            raise ConfigError(f"bad flat spectrum: {e}") from e
    if kind == "cosine":
        return Spectrum(np.cos(midpoint_omega(grid_size)) + 1.0)
    if kind == "ar":
        coeff_str, _, var_str = rest.rpartition(":")
        if not coeff_str:
            raise ConfigError("ar spectrum needs 'ar:A1,...:VAR'")
        try:
            coeffs = [float(c) for c in coeff_str.split(",")]
            pred = PredictorCoeffs(
                coeffs=np.asarray(coeffs), innovation_variance=float(var_str)
            )
        except ValueError as e:
            raise ConfigError(f"bad ar spectrum: {e}") from e
        if not pred.is_minimum_phase():
            raise ConfigError("ar coefficients are not minimum phase")
        return spectrum_from_predictor(pred, grid_size)
    if kind == "table":
        try:
            with open(rest, encoding="utf-8") as fh:
                data = json.load(fh)
            om_in = np.asarray(data["omega"], dtype=float)
            vals_in = np.asarray(data["value"], dtype=float)
        except (OSError, KeyError, ValueError) as e:
            raise ConfigError(f"bad table spectrum: {e}") from e
        if om_in.size != vals_in.size or om_in.size == 0:
            raise ConfigError("table arrays must be nonempty and equal length")
        if np.any(vals_in < 0):
            raise ConfigError("table values must be nonnegative")
        if not (np.all(np.isfinite(om_in)) and np.all(np.diff(om_in) > 0)):
            raise ConfigError("table omega must be finite and strictly increasing")
        om = midpoint_omega(grid_size)
        if om_in[0] > om[0] or om_in[-1] < om[-1]:
            raise ConfigError(f"table omega does not cover the grid's [{om[0]}, {om[-1]}]")
        return Spectrum(np.interp(om, om_in, vals_in))
    raise ConfigError(f"unknown spectrum kind {kind!r}")


def _prepare_spectrum(args) -> tuple[Spectrum, float]:
    spectrum = parse_spectrum_spec(args.spectrum, args.grid_size)
    d_eps = 0.0
    if np.any(spectrum.values <= 0.0):
        spectrum, d_eps = regularize(spectrum, args.regularize_eps)
    return spectrum, d_eps


SPECTRA_CSV_COLUMNS = [
    "omega",
    "source",
    "theta_plus",
    "theta_minus",
    "d_side",
    "d_central",
    "rate_bits",
    "on_boundary",
]


def _csv_table(manifest: dict, header: list[str], fmts: list[str], columns) -> str:
    """Manifest line, header and one CRLF row per entry of the equal-length columns.

    Rows go 8192 at a time through one %-format of the row format repeated
    over the block's values, so no Python code runs per row, and only one
    block's values are Python floats at once.
    """
    row = ",".join(fmts) + "\r\n"
    parts = ["# manifest: " + json.dumps(manifest, sort_keys=True) + "\r\n"]
    parts.append(",".join(header) + "\r\n")
    for i in range(0, len(columns[0]), 8192):
        block = np.column_stack([column[i : i + 8192] for column in columns])
        parts.append((row * len(block)) % tuple(block.ravel().tolist()))
    return "".join(parts)


def _spectra_csv(spectrum: Spectrum, point: RdfPoint, manifest: dict) -> str:
    S = spectrum.values
    rate, ds, dc = densities(S, point.spectra)
    columns = [
        spectrum.omega,
        S,
        point.spectra.theta_plus,
        point.spectra.theta_minus,
        ds,
        dc,
        rate / math.log(2.0),
        point.spectra.boundary_mask,
    ]
    # 17 significant digits read back bit-exact, so a reloaded noise pair
    # stays inside the triangle 0 < tp <= tm <= S/2 that the reader checks
    return _csv_table(manifest, SPECTRA_CSV_COLUMNS, ["%.17g"] * 7 + ["%d"], columns)


def _load_spectra_csv(path: str) -> tuple[Spectrum, NoiseSpectra]:
    """Source and noise spectra from a per-frequency CSV; on_boundary is optional."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            header = next((line for line in fh if not line.startswith("#")), "")
            header = [name.strip('"') for name in header.rstrip("\r\n").split(",")]
            cols = [header.index(name) for name in ("source", "theta_plus", "theta_minus")]
            cols += [header.index("on_boundary")] if "on_boundary" in header else []
            with warnings.catch_warnings():
                # a header without rows is reported below, not warned about
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(
                    fh, delimiter=",", comments="#", quotechar='"', usecols=cols, ndmin=2
                )
    except (OSError, ValueError) as e:
        raise ConfigError(f"bad spectra CSV {path}: {e!r}") from e
    if not len(table):
        raise ConfigError(f"no spectra rows in {path}")
    S, tp, tm, *on_boundary = np.ascontiguousarray(table.T)
    # relative to the source, so a bin with S = 0 admits no positive theta_plus
    slack = 1e-12 * S
    outside = ~((tp > 0) & (tp <= tm + slack) & (tm <= 0.5 * S + slack))
    if np.any(outside):
        raise ConfigError(
            f"bad spectra CSV {path}: data row {int(np.argmax(outside)) + 1} is outside "
            "0 < theta_plus <= theta_minus <= source/2"
        )
    bound = on_boundary[0] != 0 if on_boundary else np.zeros(S.size, dtype=bool)
    return Spectrum(S), NoiseSpectra(tp, tm, bound)


def _add_spectrum_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--spectrum", required=required, help="flat:VAR | cosine | ar:A1,..:VAR | table:PATH")
    p.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE)
    p.add_argument("--regularize-eps", type=float, default=1e-9)


def _emit_point(args, argv, spectrum: Spectrum, point: RdfPoint, d_eps: float) -> int:
    """Result JSON of solve and fit, and with --csv the per-frequency table."""
    def db(x):
        return 10.0 * math.log10(x) if x > 0 else None

    manifest = _manifest(argv, None)
    result = {
        "lambda1": point.lambdas.lambda1,
        "lambda2": point.lambdas.lambda2,
        "rate_nats": point.rate,
        "rate_bits": point.rate_bits,
        "d_side": point.d_side,
        "d_central": point.d_central,
        "d_side_db": db(point.d_side),
        "d_central_db": db(point.d_central),
        "d_eps": d_eps,
        "grid_size": args.grid_size,
    }
    payload = {"manifest": manifest, "result": result}
    _emit(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.csv:
        _atomic_write(args.csv, _spectra_csv(spectrum, point, manifest))
    return EXIT_OK


def _cmd_solve(args, argv) -> int:
    spectrum, d_eps = _prepare_spectrum(args)
    point = evaluate(spectrum, LagrangePair(args.lambda1, args.lambda2))
    return _emit_point(args, argv, spectrum, point, d_eps)


def _cmd_fit(args, argv) -> int:
    if not (0 < args.ds < math.inf and 0 < args.dc < math.inf):
        raise ConfigError("ds and dc must be positive and finite")
    if args.dc > args.ds:
        raise TargetInfeasible("dc must not exceed ds")
    spectrum, d_eps = _prepare_spectrum(args)
    point = fit_lambdas(spectrum, DistortionPair(args.ds, args.dc), tol=args.tol)
    return _emit_point(args, argv, spectrum, point, d_eps)


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("grid spec must be MIN:MAX:COUNT")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if lo <= 0 or hi < lo or count < 1:
        raise ConfigError("grid spec requires 0 < MIN <= MAX and COUNT >= 1")
    if count == 1:
        return [lo]
    return list(np.exp(np.linspace(math.log(lo), math.log(hi), count)))


def _cmd_sweep(args, argv) -> int:
    spectrum, _ = _prepare_spectrum(args)
    grid1 = _parse_grid(args.lambda1_grid)
    grid2 = _parse_grid(args.lambda2_grid)
    points = sweep(spectrum, grid1, grid2)
    row = attrgetter("lambdas.lambda1", "lambdas.lambda2", "rate", "rate_bits", "d_side", "d_central")
    columns = np.array([*map(row, points)]).T
    header = ["lambda1", "lambda2", "rate_nats", "rate_bits", "d_side", "d_central"]
    _emit(args.out, _csv_table(_manifest(argv, None), header, ["%.10g"] * 6, columns))
    return EXIT_OK


def _cmd_simulate(args, argv) -> int:
    if args.spectra:
        spectrum, noise = _load_spectra_csv(args.spectra)
        d_eps = 0.0
    else:
        if args.spectrum is None or args.lambda1 is None or args.lambda2 is None:
            raise ConfigError("simulate needs --spectrum with --lambda1/--lambda2, or --spectra CSV")
        spectrum, d_eps = _prepare_spectrum(args)
        point = evaluate(spectrum, LagrangePair(args.lambda1, args.lambda2))
        noise = point.spectra
    from . import sim

    cfg = sim.SimConfig(
        num_samples=args.samples,
        seed=args.seed,
        mode=args.mode,
        erasure=args.erasure,
        welch_segment=args.welch,
    )
    # looked up in sim at call time, so a wrapper installed there runs
    runner = sim.run_md_codec if args.structure == "codec" else sim.run_md_channel
    report = runner(spectrum, noise, cfg)
    payload = {
        "manifest": _manifest(argv, args.seed),
        "result": report.to_dict(),
        "d_eps": d_eps,
    }
    _emit(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_verify(args, argv) -> int:
    from . import verify as verify_mod

    results = verify_mod.run_all()
    failed = [name for name, ok, _ in results if not ok]
    for name, ok, detail in results:
        line = f"{name}: {'PASS' if ok else 'FAIL'}"
        if detail and not ok:
            line += f" ({detail})"
        print(line)
    print(f"{len(results) - len(failed)}/{len(results)} property suites passed")
    return EXIT_OK if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdrdf",
        description=(
            "Symmetric two-description rate-distortion points for stationary "
            "Gaussian spectra, and time-domain coding simulations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="evaluate one multiplier pair")
    _add_spectrum_args(p)
    p.add_argument("--lambda1", type=float, required=True)
    p.add_argument("--lambda2", type=float, required=True)
    p.add_argument("--out", help="JSON output path (default stdout)")
    p.add_argument("--csv", help="per-frequency CSV output path")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("fit", help="fit multipliers to distortion targets")
    _add_spectrum_args(p)
    p.add_argument("--ds", type=float, required=True, help="side distortion target")
    p.add_argument("--dc", type=float, required=True, help="central distortion target")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", help="JSON output path (default stdout)")
    p.add_argument("--csv", help="per-frequency CSV output path")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("sweep", help="tabulate operating points over a multiplier grid")
    _add_spectrum_args(p)
    p.add_argument("--lambda1-grid", required=True, help="MIN:MAX:COUNT (log spaced)")
    p.add_argument("--lambda2-grid", required=True, help="MIN:MAX:COUNT (log spaced)")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="run the time-domain coding simulation")
    _add_spectrum_args(p, required=False)
    p.add_argument("--lambda1", type=float)
    p.add_argument("--lambda2", type=float)
    p.add_argument("--spectra", help="per-frequency CSV from solve/fit")
    p.add_argument("--structure", choices=["codec", "channel"], default="codec")
    p.add_argument("--mode", choices=["awgn", "ecdq"], default="awgn")
    p.add_argument("--samples", type=int, default=1 << 18)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--erasure", choices=["none", "lose_desc1", "lose_desc2"], default="none")
    p.add_argument("--welch", type=int, default=4096)
    p.add_argument("--out", help="JSON output path (default stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the analytical property suites")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args, argv)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except TargetInfeasible as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (MdrdfError, NoConvergence, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
