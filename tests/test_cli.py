"""Command-line interface tests: subcommands, formats, exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import EXAMPLE_PROBS, EXAMPLE_RETURNS
from drawdown_risk import rho_cur, rho_down, ValidationError
from drawdown_risk import cli
from drawdown_risk.cli import GridSpec, main, parse_grid, parse_phi


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"returns": EXAMPLE_RETURNS, "probs": EXAMPLE_PROBS}))
    return str(path)


@pytest.fixture
def market_file(tmp_path):
    path = tmp_path / "market.json"
    path.write_text(
        json.dumps(
            {
                "R": 1.0,
                "S0": [1.0, 1.0],
                "scenarios": [[2.0, 2.0], [0.5, 2.0], [2.0, 0.0], [0.5, 0.0]],
                "probs": EXAMPLE_PROBS,
            }
        )
    )
    return str(path)


class TestParsing:
    def test_parse_grid(self):
        spec = parse_grid("-0.4:0.8:121,-0.4:0.8:121")
        assert spec.dimension == 2
        assert spec.array().shape == (121 * 121, 2)

    def test_parse_grid_rejects_bad_steps(self):
        with pytest.raises(ValidationError):
            parse_grid("0:1:1")

    def test_parse_grid_rejects_inverted_range(self):
        with pytest.raises(ValidationError):
            parse_grid("1:0:5")

    def test_parse_phi(self):
        np.testing.assert_allclose(parse_phi("0.2,0.2"), [0.2, 0.2])

    def test_grid_point_order_outer_axis_slowest(self):
        spec = GridSpec(((0.0, 1.0, 2), (0.0, 1.0, 3)))
        pts = spec.array().tolist()
        assert pts[0] == [0.0, 0.0]
        assert pts[1] == [0.0, 0.5]
        assert pts[3] == [1.0, 0.0]


class TestCheck:
    def test_matrix_pass_with_certificate(self, matrix_file, capsys):
        code = main(["check", matrix_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "rank: 2 = M=2, PASS" in out
        assert "assumption: PASS, certificate y=(1,3,1,1)" in out

    def test_always_gaining_column_fails(self, tmp_path, capsys):
        path = tmp_path / "gain.json"
        path.write_text(json.dumps({"returns": [[1.0], [2.0]]}))
        code = main(["check", str(path)])
        out = capsys.readouterr().out
        assert code == 3
        assert "assumption: FAIL, direction theta=(1)" in out

    def test_rank_deficient_fails(self, tmp_path, capsys):
        path = tmp_path / "deficient.json"
        path.write_text(json.dumps({"returns": [[1.0, 0.0], [-1.0, 0.0]]}))
        code = main(["check", str(path)])
        out = capsys.readouterr().out
        assert code == 3
        assert "rank: 1 < M=2, FAIL" in out

    def test_market_report_includes_arbitrage(self, market_file, capsys):
        code = main(["check", market_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "arbitrage: PASS" in out

    def test_corrupted_probs_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"returns": [[1.0], [-0.5]], "probs": [0.7, 0.7]}))
        assert main(["check", str(path)]) == 1

    def test_unreadable_file_exit_one(self, tmp_path):
        assert main(["check", str(tmp_path / "missing.json")]) == 1

    def test_csv_input_with_probs_flag(self, tmp_path, capsys):
        path = tmp_path / "game.csv"
        path.write_text("1.0,1.0\n-0.5,1.0\n1.0,-2.0\n-0.5,-2.0\n")
        code = main(["check", str(path), "--probs", "0.375,0.375,0.125,0.125"])
        out = capsys.readouterr().out
        assert code == 0 and "certificate y=(1,3,1,1)" in out


class TestSurface:
    def test_header_rows_and_origin(self, matrix_file, tmp_path):
        out = tmp_path / "surf.csv"
        code = main(
            ["surface", matrix_file, "--measure", "down", "--K", "3",
             "--grid=-0.1:0.1:3,-0.1:0.1:3", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "phi1,phi2,value"
        assert len(lines) == 1 + 9
        origin = [l for l in lines[1:] if l.startswith("0.0,0.0,")]
        assert origin == ["0.0,0.0,0.0"]

    def test_inadmissible_points_are_inf(self, matrix_file, tmp_path):
        out = tmp_path / "surf.csv"
        main(
            ["surface", matrix_file, "--measure", "cur", "--K", "2",
             "--grid", "0:0.6:2,0:0.6:2", "--out", str(out)]
        )
        rows = out.read_text().splitlines()[1:]
        values = {tuple(r.split(",")[:2]): r.split(",")[2] for r in rows}
        assert values[("0.6", "0.6")] == "inf"

    def test_approximation_sentinel_is_negative(self, matrix_file, tmp_path):
        out = tmp_path / "surf.csv"
        main(
            ["surface", matrix_file, "--measure", "downFirstApprox", "--K", "2",
             "--grid", "0:0.8:2,0:0.8:2", "--out", str(out)]
        )
        body = out.read_text()
        assert "-inf" in body
        values = [float(r.split(",")[2]) for r in body.splitlines()[1:]]
        assert all(v <= 0.0 for v in values)

    def test_drawdown_dominates_terminal_rowwise(self, matrix_file, tmp_path):
        out_d = tmp_path / "down.csv"
        out_c = tmp_path / "cur.csv"
        grid = "0:0.25:4,0:0.25:4"
        main(["surface", matrix_file, "--measure", "down", "--K", "5", "--grid", grid, "--out", str(out_d)])
        main(["surface", matrix_file, "--measure", "cur", "--K", "5", "--grid", grid, "--out", str(out_c)])
        for rd, rc in zip(out_d.read_text().splitlines()[1:], out_c.read_text().splitlines()[1:]):
            assert rd.rsplit(",", 1)[0] == rc.rsplit(",", 1)[0]
            assert float(rc.rsplit(",", 1)[1]) >= float(rd.rsplit(",", 1)[1]) - 1e-12

    def test_byte_stability(self, matrix_file, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["surface", matrix_file, "--measure", "curX", "--K", "4",
                "--grid=-0.2:0.4:7,-0.2:0.4:7"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_grid_dimension_mismatch(self, matrix_file):
        assert main(["surface", matrix_file, "--measure", "down", "--grid", "0:1:3"]) == 1

    def test_budget_exceeded_exit_two(self, matrix_file, tmp_path):
        code = main(
            ["surface", matrix_file, "--measure", "cur", "--K", "6", "--budget", "100",
             "--grid", "0:0.1:2,0:0.1:2", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_nonnegative_values_for_measures(self, matrix_file, tmp_path):
        for measure in ("down", "downX", "cur", "curX"):
            out = tmp_path / f"{measure}.csv"
            main(["surface", matrix_file, "--measure", measure, "--K", "3",
                  "--grid=-0.3:0.5:5,-0.3:0.5:5", "--out", str(out)])
            for row in out.read_text().splitlines()[1:]:
                assert float(row.rsplit(",", 1)[1]) >= 0.0


class TestConverge:
    def test_rows_and_first_value(self, matrix_file, capsys, example_matrix):
        code = main(["converge", matrix_file, "--phi", "0.2,0.2", "--Kmax", "6"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "K,value"
        assert len(lines) == 7
        first = float(lines[1].split(",")[1])
        assert first == pytest.approx(rho_down(example_matrix, [0.2, 0.2], 1), rel=1e-12)
        values = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(v >= 0.0 and np.isfinite(v) for v in values)

    def test_zero_allocation_all_rows_zero(self, matrix_file, capsys):
        main(["converge", matrix_file, "--phi", "0,0", "--Kmax", "3"])
        out = capsys.readouterr().out
        for line in out.splitlines()[1:]:
            assert line.endswith(",0.0")


class TestEval:
    def test_value_matches_library(self, matrix_file, capsys, example_matrix):
        code = main(["eval", matrix_file, "--measure", "cur", "--K", "5", "--phi", "0.2,0.2"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert float(out) == pytest.approx(rho_cur(example_matrix, [0.2, 0.2], 5), rel=1e-14)

    def test_small_s_note_on_stderr(self, matrix_file, capsys):
        main(["eval", matrix_file, "--measure", "downFirstApprox", "--K", "5", "--phi", "0.39,0.39"])
        captured = capsys.readouterr()
        assert "small-scale regime not verified" in captured.err


class TestVerify:
    def test_reference_game_passes(self, matrix_file, capsys):
        code = main(["verify", matrix_file, "--K", "3", "--samples", "8", "--seed", "42"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verification: PASS" in out
        for name in (
            "identities", "ordering", "convexity", "homogeneity",
            "monotonicity", "small-s", "topping", "span-diagnostic",
        ):
            assert f"{name}:" in out

    def test_flat_counterexample_still_passes(self, tmp_path, capsys):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"returns": [[1.0, 2.0], [2.0, 1.0], [-1.0, -1.0]]}))
        code = main(["verify", str(path), "--K", "1", "--samples", "6", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verification: PASS" in out

    def test_assumption_failure_skips_suites(self, tmp_path, capsys):
        path = tmp_path / "gain.json"
        path.write_text(json.dumps({"returns": [[1.0], [2.0]]}))
        code = main(["verify", str(path)])
        out = capsys.readouterr().out
        assert code == 3
        assert "SKIPPED" in out
        assert "identities" not in out

    def test_corrupted_probs_exit_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"returns": [[1.0], [-0.5]], "probs": [0.6, 0.6]}))
        assert main(["verify", str(path)]) == 1

    def test_market_input_adds_bridge_consistency(self, market_file, capsys):
        code = main(["verify", market_file, "--K", "2", "--samples", "4", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bridge-consistency: 1/1 pass" in out


class TestFromMarket:
    def test_round_trip_through_check(self, market_file, tmp_path, capsys):
        out = tmp_path / "derived.json"
        assert main(["from-market", market_file, "--out", str(out)]) == 0
        derived = json.loads(out.read_text())
        assert derived["probs"] == EXAMPLE_PROBS
        assert derived["returns"][0] == [1.0, 1.0]
        assert main(["check", str(out)]) == 0

    def test_usage_error_exit_one(self):
        assert main(["from-market"]) == 1


class TestNonFiniteInput:
    def test_infinite_phi_exit_one(self, matrix_file, capsys):
        assert main(["eval", matrix_file, "--measure", "downX", "--phi=inf,0"]) == 1
        assert capsys.readouterr().out == ""

    def test_infinite_grid_bound_exit_one(self, matrix_file, capsys):
        code = main(["surface", matrix_file, "--measure", "downX", "--grid=-inf:0:2,0:1:2"])
        assert code == 1
        assert capsys.readouterr().out == ""

    def test_nan_phi_is_validation_not_domain(self, matrix_file, capsys):
        assert main(["eval", matrix_file, "--measure", "down", "--phi=nan,0"]) == 1
        assert "finite" in capsys.readouterr().err


def test_cli_import_leaves_scipy_optimize_out():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import drawdown_risk

    src = str(Path(drawdown_risk.__file__).resolve().parent.parent)
    code = "import sys, drawdown_risk.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def _run(argv, capsys, fresh):
    if fresh:
        cli._parser.cache_clear()
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_one_parser_serves_every_call_like_fresh_parsers(matrix_file, capsys):
    calls = [
        ["eval", matrix_file, "--measure", "bogus", "--phi=0.1,0.1"],
        ["eval", matrix_file, "--measure", "down", "--phi=0.1,0.1"],
        ["--help"],
        ["verify"],
        ["eval", matrix_file, "--measure", "cur", "--K", "3", "--phi=0.1,0.1"],
    ]
    want = [_run(argv, capsys, fresh=True) for argv in calls]
    assert [code for code, _, _ in want] == [1, 0, 0, 1, 0]
    cli._parser.cache_clear()
    parser = cli._parser()
    assert [_run(argv, capsys, fresh=False) for argv in calls] == want
    assert cli._parser() is parser
    assert cli.build_parser() is not cli.build_parser()


def test_main_leaves_the_module_namespace_unchanged(matrix_file, capsys):
    cli._parser.cache_clear()
    before = dict(vars(cli))
    assert main(["eval", matrix_file, "--measure", "down", "--phi=0.1,0.1"]) == 0
    capsys.readouterr()
    assert dict(vars(cli)) == before


def test_cli_import_builds_no_parser():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import drawdown_risk

    src = str(Path(drawdown_risk.__file__).resolve().parent.parent)
    code = "import drawdown_risk.cli as cli; print(cli._parser.cache_info().currsize)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "0"
