"""The package's public surface, the README's library example that uses it,
and the names the benchmark's traced run wraps."""

import importlib
from pathlib import Path

import mdrdf
from mdrdf.spectral_solver import SOLVE_BLOCK

# adding or removing a public name is a decision: edit this list with it
PUBLIC_NAMES = [
    "DEFAULT_GRID_SIZE",
    "DistortionPair",
    "LagrangePair",
    "NoiseSpectra",
    "PredictorCoeffs",
    "RdfPoint",
    "Spectrum",
    "ThetaPair",
    "autocorrelation",
    "entropy_power",
    "evaluate",
    "fit_lambdas",
    "flat_spectrum",
    "is_nondegenerate",
    "midpoint_omega",
    "optimal_predictor",
    "ozarow_rate",
    "r0",
    "regularize",
    "solve_spectrum",
    "spectrum_from_predictor",
    "sweep",
    "theta_to_distortions",
]


def test_public_names_pinned():
    assert sorted(mdrdf.__all__) == PUBLIC_NAMES


def test_public_names_resolve():
    for name in mdrdf.__all__:
        assert hasattr(mdrdf, name), name


def test_readme_library_example_runs(capsys):
    # the example as written, so that a public-name change cannot break it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_traced_names_resolve(monkeypatch):
    # perfbench's traced run getattr-wraps each (module, attribute) pair,
    # and raises AttributeError if one is missing
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    layers = importlib.import_module("layers")
    assert layers._WRAPPED
    for module_name, attr, _ in layers._WRAPPED:
        assert hasattr(importlib.import_module(module_name), attr), (module_name, attr)


def test_evaluate_solves_through_the_wrapped_name(monkeypatch):
    # the traced run times the solver by wrapping mdrdf.rdf.solve_spectrum,
    # so evaluate reaches the solve through that name, once, grid first
    rdf = importlib.import_module("mdrdf.rdf")
    solve, sizes = rdf.solve_spectrum, []

    def spy(S, *args, **kwargs):
        sizes.append(len(S))
        return solve(S, *args, **kwargs)

    monkeypatch.setattr(rdf, "solve_spectrum", spy)
    n = 3 * SOLVE_BLOCK + 17
    mdrdf.evaluate(mdrdf.flat_spectrum(1.0, n), mdrdf.LagrangePair(0.2, 0.3))
    assert sizes == [n]
