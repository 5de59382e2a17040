"""Which functions a traced run wraps, and the per-layer metrics from spans.

Every traced run reports every per-layer metric, and every workload
reaches every layer: the frontier and codec parts call the library's
layers in process, and the traced run adds the cli probes.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict

from tracing import Tracer

# fine-grid solves are told apart from small-grid ones by their length
FINE_MIN_FREQUENCIES = 1 << 18

# (module, attribute, span name); every place a caller looks the name up
_WRAPPED = [
    ("mdrdf.rdf", "solve_spectrum", "spectral_solver.solve_spectrum"),
    ("mdrdf.rdf", "evaluate", "rdf.evaluate"),
    ("mdrdf.rdf", "fit_lambdas", "rdf.fit_lambdas"),
    ("mdrdf.rdf", "sweep", "rdf.sweep"),
    ("mdrdf.filters", "optimal_predictor", "spectra.optimal_predictor"),
    ("mdrdf.sim", "optimal_predictor", "spectra.optimal_predictor"),
    ("mdrdf.sim", "noise_shaper", "filters.noise_shaper"),
    ("mdrdf.sim", "welch_psd", "sim.welch_psd"),
    ("mdrdf.sim", "run_md_codec", "sim.run_md_codec"),
    ("mdrdf.sim", "run_md_channel", "sim.run_md_channel"),
    ("mdrdf.cli", "evaluate", "rdf.evaluate"),
    ("mdrdf.cli", "fit_lambdas", "rdf.fit_lambdas"),
    ("mdrdf.cli", "sweep", "rdf.sweep"),
    ("mdrdf.cli", "run_md_codec", "sim.run_md_codec"),
    ("mdrdf.cli", "run_md_channel", "sim.run_md_channel"),
]


def _size_of(name):
    """Work size recorded on a span: frequencies, samples or taps."""
    if name == "spectral_solver.solve_spectrum":
        return lambda S, *a, **k: len(S), None
    if name == "rdf.evaluate":
        return lambda spectrum, *a, **k: spectrum.grid_size, None
    if name.startswith("sim.run_md_"):
        # the mode goes into the size's sign: negative for ecdq
        return (lambda s, n, cfg, *a, **k: cfg.num_samples * (-1 if cfg.mode == "ecdq" else 1)), None
    if name == "filters.noise_shaper":
        return None, lambda shaper: shaper.order
    return None, None


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of every mdrdf module already imported."""
    for module_name, attr, name in _WRAPPED:
        module = sys.modules.get(module_name)
        if module is not None:
            by_args, by_result = _size_of(name)
            tracer.wrap(module, attr, name, by_args, by_result)


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def per_layer(tracer: Tracer, rounds: int, cli_samples: dict[str, list[float]]) -> dict:
    """The per-layer metrics of one traced run, as {name: (value, unit)}."""
    spans = tracer.spans
    self_t = tracer.self_times()
    by = defaultdict(list)
    for s, st in zip(spans, self_t):
        by[s.name].append((s, st))

    solves = by["spectral_solver.solve_spectrum"]
    small = [(s, st) for s, st in solves if s.size < FINE_MIN_FREQUENCIES]
    fine = [(s, st) for s, st in solves if s.size >= FINE_MIN_FREQUENCIES]

    def ns_per_freq(pairs):
        freqs = sum(s.size for s, _ in pairs)
        return 1e9 * sum(st for _, st in pairs) / freqs if freqs else 0.0

    evals_small = [st for s, st in by["rdf.evaluate"] if s.size < FINE_MIN_FREQUENCIES]

    # evaluations per fit target: fits of one target repeat their count
    evals_per_op = tracer.count_by_op("rdf.evaluate")
    fits = by["rdf.fit_lambdas"]

    def evals_per_target(kind):
        per_key = {}
        for s, _ in fits:
            if s.kind == kind:
                per_key.setdefault(tracer.op_keys[s.op], evals_per_op.get(s.op, 0))
        return _mean(list(per_key.values()))

    def sim_self(name, ecdq):
        pairs = [(s, st) for s, st in by[name] if (s.size < 0) == ecdq]
        samples = sum(abs(s.size) for s, _ in pairs)
        return 1e6 * sum(st for _, st in pairs) / samples if samples else 0.0

    def median_or_zero(values):
        return statistics.median(values) if values else 0.0

    interpreter = median_or_zero(cli_samples.get("interpreter", []))
    imported = median_or_zero(cli_samples.get("import", []))
    return {
        "spectral_solver.solve_spectrum_calls": (len(solves) / rounds if rounds else 0.0, "calls/round"),
        "spectral_solver.ns_per_frequency": (ns_per_freq(small), "ns"),
        "spectral_solver.ns_per_frequency_fine": (ns_per_freq(fine), "ns"),
        "rdf.evaluate_self_us": (1e6 * _mean(evals_small), "us"),
        "rdf.fit_equality_evaluations": (evals_per_target("fit_equality"), "count"),
        "rdf.fit_slack_evaluations": (evals_per_target("fit_slack"), "count"),
        "rdf.fit_self_ms": (1e3 * _mean([st for _, st in fits]), "ms"),
        "filters.noise_shaper_ms": (1e3 * _mean([st for _, st in by["filters.noise_shaper"]]), "ms"),
        "filters.noise_shaper_taps": (_mean([s.size for s, _ in by["filters.noise_shaper"]]), "count"),
        "spectra.optimal_predictor_ms": (
            1e3 * _mean([s.end - s.start for s, _ in by["spectra.optimal_predictor"]]),
            "ms",
        ),
        "sim.codec_ecdq_self_us_per_sample": (sim_self("sim.run_md_codec", True), "us"),
        "sim.codec_awgn_self_us_per_sample": (sim_self("sim.run_md_codec", False), "us"),
        "sim.channel_awgn_self_us_per_sample": (sim_self("sim.run_md_channel", False), "us"),
        "sim.welch_psd_ms": (1e3 * _mean([s.end - s.start for s, _ in by["sim.welch_psd"]]), "ms"),
        "cli.interpreter_s": (interpreter, "s"),
        "cli.import_s": (imported - interpreter if imported else 0.0, "s"),
        "cli.main_solve_ms": (1e3 * median_or_zero(cli_samples.get("main_solve", [])), "ms"),
        "cli.main_fit_ms": (1e3 * median_or_zero(cli_samples.get("main_fit", [])), "ms"),
        "cli.main_sweep_ms": (1e3 * median_or_zero(cli_samples.get("main_sweep", [])), "ms"),
        "cli.main_simulate_ms": (1e3 * median_or_zero(cli_samples.get("main_simulate", [])), "ms"),
    }
