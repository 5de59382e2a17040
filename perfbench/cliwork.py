"""cli part of a workload: the README's shell workflow as fresh processes.

Each round runs `python -m mdrdf.cli` on the workload's source, one
process at a time: `solve --csv`, on cosine the documented round trip
`simulate --spectra` on that CSV, `fit`, `sweep`, and `simulate` at the
solved multipliers (channel structure, awgn, 2^16 samples). Cosine's
solve is the README's worked example. Each process is timed from start
to exit, so interpreter start-up and imports count, as they do for a
user.

The round trip is counted as attempted and, while it fails, as failed,
and it is in no timing. Today it exits 3: `solve --csv` writes %.10g
values, and on 101 of the worked example's 553 zero-rate bins
theta_plus + theta_minus then reads back above S by up to 1e-11, beyond
the 1e-12 max(S, 1) that filters.pre_post_filters allows. Its inputs do
not depend on the seed.

A traced run adds, per round, a bare interpreter (`python -c pass`), a
bare `import mdrdf.cli`, and in-process `mdrdf.cli.main(argv)` calls of
the four timed subcommands.
"""

from __future__ import annotations

import csv
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import refs
from bench import ROOT, Run, child_env
from frontier import SOURCE_IDS, SOURCES

WORK = ROOT / "perfbench" / "work"
CHILD_TIMEOUT_S = 120

GRID = 4096
SPECTRUM = {"cosine": "cosine", "ar1": "ar:0.9:1.0"}
WORKED = ("0.2380", "2.700")  # README's multipliers for the cosine example
WORKED_RESULT = {"d_side": 0.4000, "d_central": 0.0801, "rate_bits": 0.7468}
WORKED_ATOL = 1e-3
FIT_ANCHOR = (0.35, 0.3)  # (D_S / variance, D_C / D_S), an equality target
FIT_TOL = 1e-6
SWEEP_POINTS = 6
SIM_SAMPLES = 1 << 16
# measured against solved distortions at 2^16 samples; over seeds 1-40
# the largest deviation was 1.5% on cosine and 1.7% on AR(1)
SIM_RTOL = 0.06
PRINT_RTOL = 1e-9  # values printed with ten significant digits


def run_child(argv: list[str], cwd: Path) -> tuple[int, float, str]:
    """Run one process to its end; return (exit code, wall seconds, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=cwd,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, time.perf_counter() - t0, proc.stderr


def _mdrdf(*args) -> list[str]:
    return ["-m", "mdrdf.cli", *args]


@dataclass(frozen=True)
class Inputs:
    source: str
    spectrum: np.ndarray  # the source's values on the CLI's grid
    work: Path  # the children's working directory
    commands: dict  # operation name -> argv after the interpreter
    fit_target: tuple  # (D_S, D_C) as passed on the command line


def make_inputs(seed: int, source: str) -> Inputs:
    rng = np.random.default_rng([seed, 303, SOURCE_IDS[source]])
    S = SOURCES[source](GRID)
    spectrum = ["--spectrum", SPECTRUM[source]]
    u, v = FIT_ANCHOR * np.exp(rng.uniform(-0.03, 0.03, 2))
    var = float(np.mean(S))
    ds, dc = f"{u * var:.6g}", f"{u * v * var:.6g}"
    if refs.edge_bounds(S, float(ds), float(dc)).kind != "equality":
        raise RuntimeError("fit target is not an equality target")
    lo1 = float(f"{10.0 ** rng.uniform(-1.6, -1.4):.4g}")
    lo2 = float(f"{10.0 ** rng.uniform(-1.1, -0.9):.4g}")
    grid1, grid2 = f"{lo1}:{100 * lo1:.4g}:{SWEEP_POINTS}", f"{lo2}:{100 * lo2:.4g}:{SWEEP_POINTS}"
    if source == "cosine":
        lambdas = WORKED
    else:
        lambdas = (
            f"{np.exp(rng.uniform(np.log(0.15), np.log(0.35))):.4g}",
            f"{np.exp(rng.uniform(np.log(1.5), np.log(3.5))):.4g}",
        )
    sim_seed = str(int(rng.integers(1, 2**31)))
    point = [*spectrum, "--lambda1", lambdas[0], "--lambda2", lambdas[1]]
    commands = {
        "solve": _mdrdf("solve", *point, "--out", "solve.json", "--csv", "spectra.csv"),
        "fit": _mdrdf("fit", *spectrum, "--ds", ds, "--dc", dc, "--out", "fit.json"),
        "sweep": _mdrdf(
            "sweep", *spectrum, "--lambda1-grid", grid1, "--lambda2-grid", grid2, "--out", "sweep.csv"
        ),
        "simulate": _mdrdf(
            "simulate", *point, "--structure", "channel", "--mode", "awgn",
            "--samples", str(SIM_SAMPLES), "--seed", sim_seed, "--out", "simulate.json",
        ),
    }
    if source == "cosine":
        # the README's round trip of the worked example; no seed reaches it
        commands["roundtrip"] = _mdrdf(
            "simulate", *spectrum, "--spectra", "spectra.csv", "--structure", "channel",
            "--samples", str(SIM_SAMPLES), "--out", "roundtrip.json",
        )
    return Inputs(source, S, WORK / source, commands, (float(ds), float(dc)))


def prepare(inputs: Inputs):
    if inputs.work.exists():
        shutil.rmtree(inputs.work)
    inputs.work.mkdir(parents=True)
    return {}  # the solve's result, once checked


TIMED = ("solve", "fit", "sweep", "simulate")


def do_step(run_: Run, inputs: Inputs, solved: dict, step: int) -> None:
    """One slice of a round: one timed subcommand; on cosine, solve's round trip."""
    names = [TIMED[step]]
    if step == 0 and "roundtrip" in inputs.commands:
        names.append("roundtrip")
    for name in names:
        (rc, dt, err), _ = run_.timed(f"cli_{name}", name, run_child, inputs.commands[name], inputs.work)
        if name == "roundtrip":
            if rc != 0:
                run_.failed += 1
                continue
        else:
            run_.check(rc == 0, f"{name}: exit {rc}: {err.strip()[-300:]}")
            run_.samples[f"cli_{name}"].append(dt)
        if rc == 0:
            _check_output(run_, name, inputs, solved)
    if run_.tracer is not None and step == len(TIMED) - 1:
        _trace_round(run_, inputs)


def metrics(run_: Run, inputs: Inputs) -> dict:
    return {f"cli_{name}_s": (statistics.median(run_.samples[f"cli_{name}"]), "s") for name in TIMED}


def _trace_round(run_: Run, inputs: Inputs) -> None:
    """Per-layer probes; they are not workload operations."""
    import mdrdf.cli

    for name, argv in (("interpreter", ["-c", "pass"]), ("import", ["-c", "import mdrdf.cli"])):
        rc, dt, _ = run_child(argv, inputs.work)
        run_.check(rc == 0, f"{name} probe: exit {rc}")
        run_.samples[name].append(dt)
    for name in TIMED:
        argv = list(inputs.commands[name][2:])
        out = argv.index("--out") + 1
        argv[out] = str(inputs.work / f"main_{argv[out]}")
        if "--csv" in argv:
            csv_at = argv.index("--csv") + 1
            argv[csv_at] = str(inputs.work / f"main_{argv[csv_at]}")
        run_.tracer.begin_op(f"main_{name}", f"main_{name}")
        t0 = time.perf_counter()
        rc = run_.tracer.call(f"op.main_{name}", mdrdf.cli.main, argv)
        run_.samples[f"main_{name}"].append(time.perf_counter() - t0)
        run_.check(rc == 0, f"in-process main {name}: exit {rc}")


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _check_output(run_: Run, name: str, inputs: Inputs, solved: dict) -> None:
    files = {
        "solve": ["solve.json", "spectra.csv"],
        "roundtrip": ["roundtrip.json"],
        "fit": ["fit.json"],
        "sweep": ["sweep.csv"],
        "simulate": ["simulate.json"],
    }[name]
    work, S = inputs.work, inputs.spectrum
    blob = b"".join((work / f).read_bytes() for f in files)
    if not run_.first_output(f"cli:{name}", blob):
        return
    if name == "solve":
        res = json.loads((work / "solve.json").read_text())["result"]
        solved.update(res)
        if inputs.source == "cosine":
            for key, want in WORKED_RESULT.items():
                run_.check(
                    abs(res[key] - want) <= WORKED_ATOL,
                    f"solve: {key} {res[key]} is not the worked example's {want}",
                )
        run_.check(
            res["rate_nats"] >= 0.0 and 0.0 < res["d_central"] <= res["d_side"] <= float(np.mean(S)),
            f"solve: R={res['rate_nats']}, D_C={res['d_central']}, D_S={res['d_side']}",
        )
        _check_rate_bounds(run_, "solve", S, res["rate_nats"], res["d_side"], res["d_central"], 1e-12)
        rows = _read_csv(work / "spectra.csv")
        run_.check(len(rows) == GRID, f"solve: {len(rows)} CSV rows, not {GRID}")
        tp = np.array([float(r["theta_plus"]) for r in rows])
        tm = np.array([float(r["theta_minus"]) for r in rows])
        S_csv = np.array([float(r["source"]) for r in rows])
        run_.check(
            bool(np.all(tp <= tm * (1 + PRINT_RTOL)) and np.all(tm <= 0.5 * S_csv * (1 + PRINT_RTOL))),
            "solve: CSV noise pair outside the triangle",
        )
        run_.check(
            bool(np.allclose(S_csv, S, rtol=PRINT_RTOL, atol=0.0)),
            "solve: CSV source column is not the source spectrum",
        )
    elif name == "fit":
        res = json.loads((work / "fit.json").read_text())["result"]
        ds, dc = inputs.fit_target
        run_.check(
            abs(res["d_side"] - ds) <= FIT_TOL and abs(res["d_central"] - dc) <= FIT_TOL,
            f"fit: ({res['d_side']}, {res['d_central']}) misses targets ({ds}, {dc})",
        )
        _check_rate_bounds(run_, "fit", S, res["rate_nats"], res["d_side"], res["d_central"], 1e-9)
        upper = refs.edge_bounds(S, ds, dc).upper
        run_.check(res["rate_nats"] <= upper + FIT_TOL, f"fit: rate above the edge bound {upper}")
    elif name == "sweep":
        rows = _read_csv(work / "sweep.csv")
        run_.check(len(rows) == SWEEP_POINTS**2, f"sweep: {len(rows)} rows")
        var = float(np.mean(S))
        for i, row in enumerate(rows):
            r, d_s, d_c = (float(row[k]) for k in ("rate_nats", "d_side", "d_central"))
            run_.check(
                r >= 0.0 and 0.0 < d_c <= d_s <= var * (1 + PRINT_RTOL),
                f"sweep row {i}: R={r}, D_C={d_c}, D_S={d_s}, variance {var}",
            )
            _check_rate_bounds(run_, f"sweep row {i}", S, r, d_s, d_c, PRINT_RTOL)
    else:  # simulate, or the round trip once it succeeds
        res = json.loads((work / f"{name}.json").read_text())["result"]
        for key, want in (("d_side_1", "d_side"), ("d_side_2", "d_side"), ("d_central", "d_central")):
            run_.check(
                abs(res[key] / solved[want] - 1.0) <= SIM_RTOL,
                f"{name}: measured {key} {res[key]} vs solved {solved[want]}",
            )
        run_.check(
            abs(res["rate_analytical_nats"] / solved["rate_nats"] - 1.0) <= 1e-9,
            f"{name}: analytic rate {res['rate_analytical_nats']} vs solved {solved['rate_nats']}",
        )


def _check_rate_bounds(run_, what, S, rate, d_side, d_central, rtol) -> None:
    run_.check(
        rate >= refs.sd_rate(S, d_side) * (1 - rtol) - rtol,
        f"{what}: rate {rate} below the SD bound R(D_S)",
    )
    run_.check(
        2.0 * rate >= refs.sd_rate(S, d_central) * (1 - rtol) - rtol,
        f"{what}: 2R below the SD bound R(D_C)",
    )
