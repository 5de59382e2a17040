import csv
import json
import math
import subprocess
import sys

import pytest

from mdrdf.cli import SPECTRA_CSV_COLUMNS, main, parse_spectrum_spec

from conftest import needs_cc


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpectrumSpecs:
    def test_flat(self):
        s = parse_spectrum_spec("flat:2.5", 64)
        assert s.variance == pytest.approx(2.5)

    def test_cosine(self):
        s = parse_spectrum_spec("cosine", 4096)
        assert s.values[0] == pytest.approx(2.0, abs=1e-6)
        assert s.variance == pytest.approx(1.0, abs=1e-9)

    def test_ar(self):
        s = parse_spectrum_spec("ar:0.9:1.0", 512)
        assert s.values[0] == pytest.approx(100.0, rel=1e-2)

    def test_table(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"omega": [0.0, math.pi], "value": [2.0, 0.0]}))
        s = parse_spectrum_spec(f"table:{path}", 128)
        assert s.values[0] == pytest.approx(2.0, abs=0.05)
        assert s.values[-1] == pytest.approx(0.0, abs=0.05)


class TestSolve:
    def test_worked_example_row(self, capsys, tmp_path):
        out_json = tmp_path / "point.json"
        out_csv = tmp_path / "spectra.csv"
        code, _, _ = run_cli(
            [
                "solve",
                "--spectrum", "cosine",
                "--lambda1", "0.238",
                "--lambda2", "2.70",
                "--out", str(out_json),
                "--csv", str(out_csv),
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert payload["result"]["rate_bits"] == pytest.approx(0.7468, abs=1e-3)
        assert payload["result"]["d_side"] == pytest.approx(0.4000, abs=1e-3)
        assert "manifest" in payload
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("# manifest:")
        header = next(csv.reader([lines[1]]))
        assert header == SPECTRA_CSV_COLUMNS
        assert len(lines) == 2 + 4096

    def test_flat_matches_closed_form(self, capsys):
        code, out, _ = run_cli(
            ["solve", "--spectrum", "flat:1", "--lambda1", "2.0", "--lambda2", "3.0"],
            capsys,
        )
        assert code == 0
        result = json.loads(out)["result"]
        from mdrdf import DistortionPair, ozarow_rate

        oz = ozarow_rate(1.0, DistortionPair(result["d_side"], result["d_central"]))
        assert result["rate_nats"] == pytest.approx(oz, abs=1e-6)

    def test_invalid_lambda_exit_2(self, capsys):
        code, _, err = run_cli(
            ["solve", "--spectrum", "flat:1", "--lambda1", "-1", "--lambda2", "1"],
            capsys,
        )
        assert code == 2

    def test_both_lambdas_zero_exit_2(self, capsys):
        code, _, _ = run_cli(
            ["solve", "--spectrum", "cosine", "--lambda1", "0", "--lambda2", "0"],
            capsys,
        )
        assert code == 2

    def test_unknown_spectrum_exit_2(self, capsys):
        code, _, _ = run_cli(
            ["solve", "--spectrum", "bogus:1", "--lambda1", "1", "--lambda2", "1"],
            capsys,
        )
        assert code == 2


class TestFitCommand:
    def test_example1_fit(self, capsys):
        code, out, _ = run_cli(
            ["fit", "--spectrum", "cosine", "--ds", "0.4", "--dc", "0.08"],
            capsys,
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["lambda1"] == pytest.approx(0.238, rel=0.02)
        assert result["lambda2"] == pytest.approx(2.70, rel=0.02)

    def test_zero_rate_fit(self, capsys):
        code, out, _ = run_cli(
            ["fit", "--spectrum", "flat:1", "--ds", "1.0", "--dc", "1.0"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["result"]["rate_nats"] == 0.0

    def test_slack_fit_replays_through_solve(self, capsys):
        code, out, _ = run_cli(
            ["fit", "--spectrum", "cosine", "--ds", "0.9", "--dc", "0.2"], capsys
        )
        assert code == 0
        fitted = json.loads(out)["result"]
        assert fitted["lambda1"] == 0
        code, out, _ = run_cli(
            [
                "solve",
                "--spectrum", "cosine",
                "--lambda1", repr(fitted["lambda1"]),
                "--lambda2", repr(fitted["lambda2"]),
            ],
            capsys,
        )
        assert code == 0
        solved = json.loads(out)["result"]
        assert solved["d_side"] == fitted["d_side"]
        assert solved["d_central"] == fitted["d_central"]

    def test_table_with_zeros_reports_d_eps(self, capsys, tmp_path):
        # zero above omega = 2.5: the clip adds eps over that band, and the
        # targets are met on the clipped spectrum, not shifted by d_eps
        path = tmp_path / "spec.json"
        table = {"omega": [0.0, 2.0, 2.5, math.pi], "value": [2.0, 1.0, 0.0, 0.0]}
        path.write_text(json.dumps(table))
        eps, ds, dc, tol = 1e-3, 0.3, 0.06, 1e-6
        args = ["--spectrum", f"table:{path}", "--regularize-eps", str(eps)]
        code, out, _ = run_cli(
            ["fit", *args, "--ds", str(ds), "--dc", str(dc), "--tol", str(tol)], capsys
        )
        assert code == 0
        fitted = json.loads(out)["result"]
        zero_share = (math.pi - 2.5) / math.pi
        assert fitted["d_eps"] == pytest.approx(eps * zero_share, rel=0.01)
        assert fitted["d_eps"] > 100 * tol
        assert abs(fitted["d_side"] - ds) <= tol
        assert abs(fitted["d_central"] - dc) <= tol
        code, out, _ = run_cli(
            [
                "solve", *args,
                "--lambda1", repr(fitted["lambda1"]),
                "--lambda2", repr(fitted["lambda2"]),
            ],
            capsys,
        )
        assert code == 0
        solved = json.loads(out)["result"]
        assert (solved["d_side"], solved["d_central"]) == (fitted["d_side"], fitted["d_central"])
        assert solved["d_eps"] == fitted["d_eps"]

    def test_infeasible_exit_4(self, capsys):
        code, _, _ = run_cli(
            ["fit", "--spectrum", "flat:1", "--ds", "0.1", "--dc", "0.2"],
            capsys,
        )
        assert code == 4


class TestSweepCommand:
    def test_row_count(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            [
                "sweep",
                "--spectrum", "flat:1",
                "--grid-size", "256",
                "--lambda1-grid", "0.1:10:4",
                "--lambda2-grid", "0.5:5:3",
                "--out", str(out_csv),
            ],
            capsys,
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 1 + 1 + 12  # manifest, header, 4 x 3 rows

    def test_bad_grid_exit_2(self, capsys):
        code, _, _ = run_cli(
            ["sweep", "--spectrum", "flat:1", "--lambda1-grid", "1:2", "--lambda2-grid", "1:2:2"],
            capsys,
        )
        assert code == 2


class TestSimulateCommand:
    def test_simulate_from_lambdas(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        out = tmp_path / "sim.json"
        args = [
            "simulate",
            "--spectrum", "flat:1",
            "--grid-size", "512",
            "--lambda1", "1.2",
            "--lambda2", "1.2",
            "--samples", str(1 << 16),
            "--seed", "7",
            "--structure", "channel",
            "--welch", "1024",
            "--out", str(out),
        ]
        assert main(args) == 0
        first = out.read_bytes()
        payload = json.loads(first)
        assert payload["result"]["d_side_1"] > 0
        assert payload["manifest"]["seed"] == 7
        # byte-identical rerun under a pinned timestamp
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_simulate_from_spectra_csv(self, capsys, tmp_path):
        spectra_csv = tmp_path / "spectra.csv"
        code, _, _ = run_cli(
            [
                "solve",
                "--spectrum", "flat:1",
                "--grid-size", "512",
                "--lambda1", "1.0",
                "--lambda2", "1.0",
                "--out", str(tmp_path / "pt.json"),
                "--csv", str(spectra_csv),
            ],
            capsys,
        )
        assert code == 0
        code, out, _ = run_cli(
            [
                "simulate",
                "--spectrum", "flat:1",
                "--spectra", str(spectra_csv),
                "--samples", str(1 << 16),
                "--welch", "1024",
                "--erasure", "lose_desc1",
            ],
            capsys,
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["d_side_1"] is None
        assert result["d_central"] is None
        assert result["d_side_2"] > 0

    def test_missing_lambdas_exit_2(self, capsys):
        code, _, _ = run_cli(["simulate", "--spectrum", "flat:1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("welch, message", [("8192", "8 segments"), ("1000", "power of two")])
    def test_bad_welch_exit_2_before_simulating(self, welch, message, capsys, monkeypatch):
        from mdrdf import sim

        def no_run(*args, **kwargs):
            raise AssertionError("simulated although --welch was rejected")

        monkeypatch.setattr(sim, "run_md_codec", no_run)
        code, _, err = run_cli(
            [
                "simulate",
                "--spectrum", "cosine",
                "--lambda1", "0.238",
                "--lambda2", "2.7",
                "--samples", "65536",
                "--welch", welch,
            ],
            capsys,
        )
        assert code == 2
        assert message in err

    def test_readme_round_trip(self, capsys, tmp_path):
        # the worked example's zero-rate bins must read back inside the
        # triangle, or simulate rejects the CSV with exit 3
        spectra_csv = tmp_path / "spectra.csv"
        code, _, _ = run_cli(
            [
                "solve",
                "--spectrum", "cosine",
                "--lambda1", "0.238",
                "--lambda2", "2.70",
                "--out", str(tmp_path / "point.json"),
                "--csv", str(spectra_csv),
            ],
            capsys,
        )
        assert code == 0
        code, _, err = run_cli(
            [
                "simulate",
                "--spectrum", "cosine",
                "--spectra", str(spectra_csv),
                "--structure", "channel",
                "--samples", str(1 << 16),
            ],
            capsys,
        )
        assert code == 0, err

    def test_spectra_without_spectrum(self, capsys, tmp_path):
        spectra_csv = tmp_path / "spectra.csv"
        code, _, _ = run_cli(
            [
                "solve",
                "--spectrum", "flat:1",
                "--grid-size", "512",
                "--lambda1", "1.0",
                "--lambda2", "1.0",
                "--out", str(tmp_path / "pt.json"),
                "--csv", str(spectra_csv),
            ],
            capsys,
        )
        assert code == 0
        code, out, _ = run_cli(
            [
                "simulate",
                "--spectra", str(spectra_csv),
                "--structure", "channel",
                "--samples", str(1 << 16),
                "--welch", "1024",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["result"]["d_side_1"] > 0

    def test_neither_spectrum_nor_spectra_exit_2(self, capsys):
        code, _, _ = run_cli(["simulate", "--lambda1", "1", "--lambda2", "1"], capsys)
        assert code == 2


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--spectrum", "cosine", "--lambda1", "inf", "--lambda2", "1"],
            ["fit", "--spectrum", "cosine", "--ds", "nan", "--dc", "0.1"],
        ],
        ids=["solve-inf-lambda", "fit-nan-target"],
    )
    def test_non_finite_exit_2(self, argv, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 2
        assert out == ""

    def test_missing_spectra_csv_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["simulate", "--spectra", str(tmp_path / "missing.csv")], capsys
        )
        assert code == 2
        assert "missing.csv" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("omega,theta_plus,theta_minus\r\n0.1,0.2,0.3\r\n", "source"),
            ("source,theta_plus,theta_minus\r\n1.0,0.2\r\n", "bad spectra CSV"),
        ],
        ids=["no-source-column", "short-row"],
    )
    def test_malformed_spectra_csv_exit_2(self, text, message, capsys, tmp_path):
        spectra_csv = tmp_path / "spectra.csv"
        spectra_csv.write_text(text)
        code, _, err = run_cli(["simulate", "--spectra", str(spectra_csv)], capsys)
        assert code == 2
        assert message in err

    def test_unwritable_output_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            [
                "solve",
                "--spectrum", "cosine",
                "--lambda1", "0.238",
                "--lambda2", "2.7",
                "--out", str(tmp_path / "missing" / "x.json"),
            ],
            capsys,
        )
        assert code == 2
        assert "cannot write" in err


class TestEntryPoint:
    def test_console_script_verify_hook(self):
        # the injected perturbation must be caught with the property named
        proc = subprocess.run(
            [sys.executable, "-m", "mdrdf.cli", "verify", "--perturb-cubic", "1e-6"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode != 0
        assert "cubic-residuals: FAIL" in proc.stdout


class TestImportCost:
    def test_only_simulate_loads_scipy(self, tmp_path):
        # solve, sweep and fit run on numpy alone: they never import
        # mdrdf.sim, and the fit needs no scipy.optimize; the names cli used
        # to import from sim still resolve
        script = """
import sys
import mdrdf.cli

out = sys.argv[1]
for argv in (
    ["solve", "--spectrum", "cosine", "--lambda1", "0.238", "--lambda2", "2.7"],
    ["sweep", "--spectrum", "cosine", "--lambda1-grid", "0.1:1:3", "--lambda2-grid", "1:10:3"],
    ["fit", "--spectrum", "cosine", "--ds", "0.4", "--dc", "0.08"],
):
    assert mdrdf.cli.main([*argv, "--out", f"{out}/{argv[0]}.out"]) == 0, argv
loaded = [name for name in ("scipy.signal", "scipy.optimize") if name in sys.modules]
assert not loaded, loaded
codec = mdrdf.cli.run_md_codec
import mdrdf.sim

assert codec is mdrdf.sim.run_md_codec
assert mdrdf.cli.run_md_channel is mdrdf.sim.run_md_channel
assert mdrdf.cli.SimConfig is mdrdf.sim.SimConfig
"""
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        fit = json.loads((tmp_path / "fit.out").read_text())["result"]
        assert fit["lambda1"] > 0 and fit["lambda2"] > 0  # an equality target

    @needs_cc
    def test_simulate_loads_no_scipy(self, tmp_path):
        # with the compiled kernel, simulate runs on numpy and the kernel alone
        script = """
import sys
import mdrdf.cli

out = sys.argv[1]
point = ["--spectrum", "cosine", "--lambda1", "0.238", "--lambda2", "2.7", "--samples", "65536"]
for structure, mode in (("channel", "awgn"), ("codec", "ecdq")):
    argv = ["simulate", *point, "--structure", structure, "--mode", mode]
    assert mdrdf.cli.main([*argv, "--out", f"{out}/{mode}.json"]) == 0, argv
loaded = [name for name in sys.modules if name.startswith("scipy")]
assert not loaded, loaded
"""
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        ecdq = json.loads((tmp_path / "ecdq.json").read_text())["result"]
        assert ecdq["rate_empirical_nats"] > ecdq["rate_analytical_nats"]
