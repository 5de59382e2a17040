import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mdrdf
from mdrdf import LagrangePair, evaluate, spectral_solver
from mdrdf.cli import SPECTRA_CSV_COLUMNS, _load_spectra_csv, main, parse_spectrum_spec
from mdrdf.rdf import densities

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


# the exact tables under SOURCE_DATE_EPOCH=0: CRLF rows, 17 significant
# digits per spectra field (a zero-rate bin's rate as "0"), an integer
# on_boundary, and 10 significant digits per sweep field
SPECTRA_CSV_TEXT = (
    '# manifest: {"command": ["mdrdf", "solve", "--spectrum", "cosine", "--grid-size", "6", '
    '"--lambda1", "0.238", "--lambda2", "2.7", "--out", "point.json", "--csv", "spectra.csv"], '
    '"seed": null, "timestamp": "1970-01-01T00:00:00+00:00", "version": "0.1.0"}\r\n'
    "omega,source,theta_plus,theta_minus,d_side,d_central,rate_bits,on_boundary\r\n"
    "0.26179938779914941,1.9659258262890682,0.060304203418290264,0.60756403485545374,"
    "0.66786823827374397,0.087276888735721078,1.1802267568895985,0\r\n"
    "0.78539816339744828,1.7071067811865475,0.058607638533516138,0.56272185940920361,"
    "0.62132949794271974,0.0874264377885271,1.1163450438799838,0\r\n"
    "1.3089969389957472,1.2588190451025207,0.055259953551837056,0.46582920616014567,"
    "0.52108915971198277,0.087721530020245464,0.98597266544760898,0\r\n"
    "1.8325957145940459,0.74118095489747937,0.050749769864749786,0.31431816014970315,"
    "0.36506793001445292,0.088119094360070205,0.7764882021011289,0\r\n"
    "2.3561944901923448,0.29289321881345254,0.046398843733558147,0.13933949777574214,"
    "0.1857383415093003,0.088502620441264127,0.43249613906050771,0\r\n"
    "2.8797932657906435,0.034074173710931799,0.017037086855465899,0.017037086855465899,"
    "0.034074173710931799,0.034074173710931799,0,1\r\n"
)
SWEEP_CSV_TEXT = (
    '# manifest: {"command": ["mdrdf", "sweep", "--spectrum", "flat:1", "--grid-size", "8", '
    '"--lambda1-grid", "0.1:10:2", "--lambda2-grid", "0.5:5:2", "--out", "sweep.csv"], '
    '"seed": null, "timestamp": "1970-01-01T00:00:00+00:00", "version": "0.1.0"}\r\n'
    "lambda1,lambda2,rate_nats,rate_bits,d_side,d_central\r\n"
    "0.1,0.5,0.1990989162,0.2872390191,0.7111960306,0.452300127\r\n"
    "0.1,5,0.7538825448,1.087622609,0.4799539495,0.04945881646\r\n"
    "10,0.5,1.510680832,2.179451744,0.04874929643,0.02438950083\r\n"
    "10,5,1.603504161,2.313367501,0.04131131476,0.01694667837\r\n"
)


class TestTableBytes:
    @pytest.fixture(autouse=True)
    def pinned(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        monkeypatch.chdir(tmp_path)

    def test_spectra_csv_bytes(self, tmp_path):
        argv = ["solve", "--spectrum", "cosine", "--grid-size", "6", "--lambda1", "0.238"]
        assert main([*argv, "--lambda2", "2.7", "--out", "point.json", "--csv", "spectra.csv"]) == 0
        assert (tmp_path / "spectra.csv").read_bytes() == SPECTRA_CSV_TEXT.encode()

    def test_spectra_csv_rows_across_blocks(self, tmp_path):
        # rows are formatted 8192 at a time: past one block, every row must
        # still equal the row-by-row formatting of the evaluated point
        n = 8192 + 17
        argv = ["solve", "--spectrum", "cosine", "--grid-size", str(n), "--lambda1", "0.238"]
        assert main([*argv, "--lambda2", "2.7", "--out", "point.json", "--csv", "spectra.csv"]) == 0
        spectrum = parse_spectrum_spec("cosine", n)
        noise = evaluate(spectrum, LagrangePair(0.238, 2.7)).spectra
        rate, ds, dc = densities(spectrum.values, noise)
        columns = [
            spectrum.omega, spectrum.values, noise.theta_plus, noise.theta_minus,
            ds, dc, rate / math.log(2.0),
        ]
        want = [
            ",".join([*(f"{c[k]:.17g}" for c in columns), str(int(noise.boundary_mask[k]))])
            for k in range(n)
        ]
        assert noise.boundary_mask.any() and not noise.boundary_mask.all()
        assert (tmp_path / "spectra.csv").read_bytes().decode().split("\r\n")[2:] == [*want, ""]

    def test_sweep_csv_bytes(self, tmp_path):
        argv = ["sweep", "--spectrum", "flat:1", "--grid-size", "8", "--lambda1-grid", "0.1:10:2"]
        assert main([*argv, "--lambda2-grid", "0.5:5:2", "--out", "sweep.csv"]) == 0
        assert (tmp_path / "sweep.csv").read_bytes() == SWEEP_CSV_TEXT.encode()

    def test_reader_returns_evaluated_arrays(self, tmp_path):
        (tmp_path / "spectra.csv").write_bytes(SPECTRA_CSV_TEXT.encode())
        spectrum = parse_spectrum_spec("cosine", 6)
        noise = evaluate(spectrum, LagrangePair(0.238, 2.7)).spectra
        read_spectrum, read_noise = _load_spectra_csv("spectra.csv")
        pairs = [
            (read_spectrum.values, spectrum.values),
            (read_noise.theta_plus, noise.theta_plus),
            (read_noise.theta_minus, noise.theta_minus),
            (read_noise.boundary_mask, noise.boundary_mask),
        ]
        for got, want in pairs:
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert noise.boundary_mask.any()
        # RFC 4180 quoting of names and fields reads the same arrays
        quoted = "\r\n".join(
            ",".join(f'"{field}"' for field in line.split(","))
            for line in SPECTRA_CSV_TEXT.split("\r\n")[1:-1]
        )
        (tmp_path / "quoted.csv").write_text(quoted + "\r\n")
        read_spectrum, read_noise = _load_spectra_csv("quoted.csv")
        assert np.array_equal(read_spectrum.values, spectrum.values)
        assert np.array_equal(read_noise.theta_plus, noise.theta_plus)
        assert np.array_equal(read_noise.boundary_mask, noise.boundary_mask)
        # on_boundary may be left out: every bin then reads as interior
        lines = SPECTRA_CSV_TEXT.split("\r\n")
        dropped = "\r\n".join(line.rpartition(",")[0] for line in lines[1:-1])
        (tmp_path / "no_boundary.csv").write_text(dropped + "\r\n")
        read_spectrum, read_noise = _load_spectra_csv("no_boundary.csv")
        assert np.array_equal(read_noise.theta_minus, noise.theta_minus)
        assert read_noise.boundary_mask.dtype == bool
        assert not read_noise.boundary_mask.any()


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

    @pytest.mark.parametrize("spec", ["ar:nan:1", "ar:1.5:1", "ar:2,-0.5:1"],
                             ids=["nan", "first-kappa", "second-kappa"])
    def test_ar_not_minimum_phase_exit_2(self, spec, capsys):
        # 1 - 2 z^-1 + 0.5 z^-2 has its last kappa, -0.5, inside (-1, 1) and
        # its first, 4/3, outside
        code, out, err = run_cli(
            ["solve", "--spectrum", spec, "--lambda1", "1", "--lambda2", "1"], capsys
        )
        assert code == 2
        assert out == ""

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

    @pytest.mark.parametrize(
        "spec, ds, dc", [("cosine", "1e-200", "1e-200"), ("flat:1", "1e-200", "1e-201")]
    )
    def test_off_target_edge_point_exit_3(self, capsys, spec, ds, dc):
        with pytest.warns(RuntimeWarning):
            code, out, err = run_cli(["fit", "--spectrum", spec, "--ds", ds, "--dc", dc], capsys)
        assert code == 3
        assert out == ""
        assert "slack-edge" in err

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
        # triangle, or simulate rejects the CSV with exit 2; they sit
        # exactly on its corner tp = tm = S/2, where the slack is not needed
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
        S, tp, tm = np.loadtxt(spectra_csv, delimiter=",", skiprows=2, usecols=(1, 2, 3)).T
        corner = (tp == tm) & (tp + tm == S)
        assert np.count_nonzero(corner) > 0 and np.all(tm <= 0.5 * S)
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

    def test_shortest_grid_for_filter_orders(self, capsys):
        code, out, err = run_cli(
            [
                "simulate",
                "--spectrum", "flat:1",
                "--grid-size", "96",
                "--lambda1", "1",
                "--lambda2", "1",
                "--samples", "65536",
            ],
            capsys,
        )
        assert code == 0, err
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
            ["fit", "--spectrum", "cosine", "--ds", "inf", "--dc", "0.1"],
            ["fit", "--spectrum", "cosine", "--ds", "0.4", "--dc", "inf"],
            *(["fit", "--spectrum", "cosine", "--ds", "0.5", "--dc", "0.01", "--tol", tol]
              for tol in ("-1", "0", "nan", "inf")),
        ],
        ids=["solve-inf-lambda", "fit-nan-target", "fit-inf-ds", "fit-inf-dc",
             "fit-negative-tol", "fit-zero-tol", "fit-nan-tol", "fit-inf-tol"],
    )
    def test_non_finite_exit_2(self, argv, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "omega",
        [[math.pi, 2.0, 1.0, 0.0], [0.0, 1.0, 1.0, math.pi]],
        ids=["descending", "repeated"],
    )
    def test_table_omega_not_increasing_exit_2(self, omega, capsys, tmp_path):
        # np.interp reads any order as ascending: the descending table
        # solved to a different rate from the same four points
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"omega": omega, "value": [2.0, 1.5, 1.0, 0.5]}))
        code, out, err = run_cli(
            ["solve", "--spectrum", f"table:{path}", "--grid-size", "8",
             "--lambda1", "1", "--lambda2", "1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "strictly increasing" in err

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

    @pytest.mark.parametrize(
        "tp_share, tm_share",
        [(0.05, 0.9), (0.3, 0.2), (-0.01, 0.4), (0.0, 0.4)],
        ids=["tm-above-half-source", "tp-above-tm", "negative-tp", "zero-tp"],
    )
    def test_spectra_outside_triangle_exit_2(self, tp_share, tm_share, capsys, tmp_path, monkeypatch):
        # each pair keeps tp + tm <= S, so only the triangle
        # 0 < tp <= tm <= S/2 rejects it, before anything is simulated; a
        # zero tp would make the rate infinite
        from mdrdf import sim

        def no_run(*args, **kwargs):
            raise AssertionError("simulated a noise pair outside the triangle")

        monkeypatch.setattr(sim, "run_md_channel", no_run)
        spectra_csv = tmp_path / "spectra.csv"
        argv = ["solve", "--spectrum", "cosine", "--lambda1", "0.238", "--lambda2", "2.70"]
        assert main([*argv, "--out", str(tmp_path / "pt.json"), "--csv", str(spectra_csv)]) == 0
        lines = spectra_csv.read_text().splitlines()
        rows = []
        for line in lines[2:]:
            fields = line.split(",")
            S = float(fields[1])
            fields[2:4] = [repr(tp_share * S), repr(tm_share * S)]
            rows.append(",".join(fields))
        spectra_csv.write_text("\r\n".join(lines[:2] + rows) + "\r\n")
        code, _, err = run_cli(
            ["simulate", "--spectra", str(spectra_csv), "--structure", "channel", "--samples", str(1 << 16)],
            capsys,
        )
        assert code == 2
        assert "theta_plus <= theta_minus <= source/2" in err

    def test_zero_source_row_exit_2(self, capsys, tmp_path):
        # an absolute slack of 1e-12 admitted theta_plus = 1e-13 on a
        # source = 0 row, whose rate density is -inf
        spectra_csv = tmp_path / "spectra.csv"
        rows = ["source,theta_plus,theta_minus"] + ["1,0.1,0.2"] * 200 + ["0,1e-13,1e-13"]
        spectra_csv.write_text("\r\n".join(rows) + "\r\n")
        code, out, err = run_cli(
            ["simulate", "--spectra", str(spectra_csv), "--samples", "65536"], capsys
        )
        assert code == 2
        assert out == ""
        assert "data row 201 is outside 0 < theta_plus" in err

    def test_table_not_covering_grid_exit_2(self, capsys, tmp_path):
        # np.interp would hold the value at omega = 1 on every bin above it
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"omega": [0.0, 1.0], "value": [2.0, 1.0]}))
        code, out, err = run_cli(
            ["solve", "--spectrum", f"table:{path}", "--grid-size", "8",
             "--lambda1", "1", "--lambda2", "1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "does not cover the grid" in err

    def test_table_from_same_grid_omega_accepted(self, capsys, tmp_path):
        # the omega column of a --csv table on the same grid reads back
        # bit-exact, so it covers the grid's first and last frequencies
        spectra_csv = tmp_path / "spectra.csv"
        argv = ["solve", "--spectrum", "cosine", "--grid-size", "8", "--lambda1", "1", "--lambda2", "1"]
        assert main([*argv, "--out", str(tmp_path / "pt.json"), "--csv", str(spectra_csv)]) == 0
        table = np.loadtxt(spectra_csv, delimiter=",", skiprows=2, usecols=(0, 1))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"omega": table[:, 0].tolist(), "value": table[:, 1].tolist()}))
        assert parse_spectrum_spec(f"table:{path}", 8).values.tolist() == table[:, 1].tolist()

    @pytest.mark.parametrize("grid_size", ["64", "95"])
    def test_simulate_grid_too_short_exit_2(self, grid_size, capsys):
        # the order-96 shaper is fitted on the 2N-bin interleaved mask
        code, out, err = run_cli(
            [
                "simulate",
                "--spectrum", "flat:1",
                "--grid-size", grid_size,
                "--lambda1", "1",
                "--lambda2", "1",
                "--samples", "65536",
            ],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "lags=96 exceeds" in err

    def test_two_row_spectra_csv_exit_2(self, capsys, tmp_path):
        spectra_csv = tmp_path / "spectra.csv"
        spectra_csv.write_text("source,theta_plus,theta_minus\r\n1,0.2,0.3\r\n1,0.2,0.3\r\n")
        code, out, err = run_cli(
            ["simulate", "--spectra", str(spectra_csv), "--samples", "65536"], capsys
        )
        assert code == 2
        assert out == ""
        assert "lags=32 exceeds N/2=1" in err

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


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0, out
        assert out.splitlines()[-1] == "8/8 property suites passed"

    def test_perturbed_cubic_fails_five_suites(self, capsys, monkeypatch):
        # a coefficient off by 1e-6 reaches the solver and the reference
        # discriminant alike, and the suites that check either must say so
        original = spectral_solver.cubic_coeffs

        def perturbed(S, lam):
            a2, a1, a0 = original(S, lam)
            return a2, a1 * (1.0 + 1e-6) + 1e-6, a0

        monkeypatch.setattr(spectral_solver, "cubic_coeffs", perturbed)
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 1
        failed = [line.split(":")[0] for line in out.splitlines() if ": FAIL" in line]
        assert failed == [
            "cubic-residuals",
            "root-ordering",
            "discriminant-consistency",
            "gradient-residuals",
            "oracle-equivalence",
        ]
        assert out.splitlines()[-1] == "3/8 property suites passed"

    def test_crashing_suite_fails_and_the_rest_run(self, capsys, monkeypatch):
        from mdrdf import verify

        def crash():
            raise RuntimeError("boom")

        suites = [(name, crash if name == "high-rate-limits" else fn) for name, fn in verify.SUITES]
        monkeypatch.setattr(verify, "SUITES", suites)
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 9
        assert [line for line in lines if ": FAIL" in line] == [
            "high-rate-limits: FAIL (exception: RuntimeError('boom'))"
        ]
        assert lines[-1] == "7/8 property suites passed"

    def test_no_perturbation_option(self, capsys):
        code, _, err = run_cli(["verify", "--perturb-cubic", "1e-6"], capsys)
        assert code == 2
        assert "unrecognized arguments" in err


def child_env():
    """The environment of a child interpreter that imports the mdrdf this
    process imported, whether or not it is installed."""
    path = [str(Path(mdrdf.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


class TestImportCost:
    def test_only_simulate_loads_scipy(self, tmp_path):
        # solve, sweep and fit run on numpy alone: they never import
        # mdrdf.sim or mdrdf.verify, and the fit needs no scipy.optimize;
        # the names cli used to import from sim still resolve
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
loaded = [name for name in ("scipy.signal", "scipy.optimize", "mdrdf.verify") if name in sys.modules]
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
            env=child_env(),
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
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        ecdq = json.loads((tmp_path / "ecdq.json").read_text())["result"]
        assert ecdq["rate_empirical_nats"] > ecdq["rate_analytical_nats"]
