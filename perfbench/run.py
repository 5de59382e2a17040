"""Benchmark of mdrdf: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload cosine --seed 1 --seconds 54 --trace 0

Run it from the root of a source tree; it imports the tree's `src`, not an
installed mdrdf. A workload is a source, the cosine spectrum or AR(1);
each round runs, on it, the analytic path in process (frontier.py), the
time-domain codec and channel in process (codec.py) and the shell
workflow as fresh processes (cliwork.py). BLAS and OpenMP are pinned to
one thread and child processes run one at a time.

With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics; with --trace 1 it holds the per-layer
metrics from spans around each layer's public functions. Either way the
run's full record goes to perfbench/results/, and a traced run also
writes its spans there. See perfbench/README.md.
"""

import os

# before numpy loads: one thread for BLAS/OpenMP, and for sweep's pool
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "MDRDF_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("cosine", "ar1")
SETUP_TIMEOUT_S = 120

# A round is four steps. Each step runs one CLI subcommand, then a slice
# of the in-process work, so every metric is sampled across the whole run.
STEPS = 4


def _parts():
    """The parts each step runs, in order."""
    import cliwork
    import codec
    import frontier

    return (cliwork, frontier, codec)


def _time_setups(name: str, seed: int) -> float:
    """Median wall time of fresh processes that set the workload up."""
    from bench import SETUP_REPEATS, child_env

    argv = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, check=True,
            timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _exit_on_sigterm(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps its child
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=54.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "mdrdf" / "__init__.py").is_file():
        print(f"error: no mdrdf source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from bench import Run, peak_rss_mb
    import layers
    from tracing import Tracer

    parts = _parts()
    inputs = [part.make_inputs(args.seed, args.workload) for part in parts]
    if args.setup_only:
        for part, part_inputs in zip(parts, inputs):
            part.prepare(part_inputs)
        return 0

    setup_s = _time_setups(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    states = [part.prepare(part_inputs) for part, part_inputs in zip(parts, inputs)]
    if tracer is not None:
        import mdrdf.cli  # noqa: F401  (the traced run's in-process main() calls)
    run = Run(args.seconds, tracer)
    if tracer is not None:
        layers.install(tracer)

    def do_round(r):
        for step in range(STEPS):
            for part, part_inputs, state in zip(parts, inputs, states):
                part.do_step(run, part_inputs, state, step)

    try:
        run.run_rounds(do_round)
    finally:
        if tracer is not None:
            tracer.restore()
    metrics = {}
    for part, part_inputs in zip(parts, inputs):
        metrics.update(part.metrics(run, part_inputs))
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics["setup_s"] = (setup_s, "s")

    def as_json(values):
        return {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": run.rounds,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "digest": run.digest,
        "samples": run.samples,
        "end_to_end": as_json(metrics),
    }
    shown = metrics
    if tracer is not None:
        shown = layers.per_layer(tracer, run.rounds, run.samples)
        record["per_layer"] = as_json(shown)
        record["spans"] = len(tracer.spans)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")

    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"digest: {run.digest}")
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": as_json(shown),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
