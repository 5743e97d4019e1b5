"""Batched count-form kernel: Spitzer sums against path forms, byte stability."""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

import oracles
from conftest import EXAMPLE_PROBS, EXAMPLE_RETURNS, FLAT_SEGMENT_RETURNS, interior_points
from drawdown_risk import (
    TradeMatrix,
    enumerate_counts,
    expected_current_drawdown,
    risk_measures,
    rho_cur,
    rho_cur_x,
)
from drawdown_risk.cli import main
from drawdown_risk.path_engine import iter_path_blocks

#: Third row is the sum of the first two, fourth is -2 times the third.
DEPENDENT_RETURNS = [[1.0, -0.5], [-0.5, 1.0], [0.5, 0.5], [-1.0, -1.0]]
DEPENDENT_PROBS = [0.3, 0.3, 0.2, 0.2]


def _random_game() -> TradeMatrix:
    rng = np.random.default_rng(11)
    return TradeMatrix(rng.uniform(-1.0, 1.0, size=(5, 3)), rng.dirichlet(np.full(5, 3.0)))


GAMES = {
    "reference": lambda: TradeMatrix(EXAMPLE_RETURNS, EXAMPLE_PROBS),
    "flat": lambda: TradeMatrix(FLAT_SEGMENT_RETURNS),
    "dependent": lambda: TradeMatrix(DEPENDENT_RETURNS, DEPENDENT_PROBS),
    "random": _random_game,
}


def linear_path_form(matrix: TradeMatrix, phi, draws: int) -> float:
    """rho_cur_x by enumerating every path's linear running-maximum drawdown."""
    dots = matrix.returns @ np.asarray(phi, dtype=float)
    total = 0.0
    for digits in iter_path_blocks(matrix.n_periods, draws):
        w = np.prod(matrix.probs[digits], axis=1)
        prefix = np.cumsum(dots[digits], axis=1)
        total += float(w @ (prefix[:, -1] - np.maximum(0.0, prefix.max(axis=1))))
    return -total


@pytest.mark.parametrize("name", sorted(GAMES))
def test_spitzer_sums_match_path_forms(name):
    matrix = GAMES[name]()
    returns = matrix.returns.tolist()
    probs = matrix.probs.tolist()
    for phi in interior_points(matrix, seed=5, count=2):
        for draws in range(1, 7):
            cur = rho_cur(matrix, phi, draws)
            assert cur == pytest.approx(
                -expected_current_drawdown(matrix, phi, draws), rel=1e-12
            )
            assert cur == pytest.approx(
                -oracles.expectation(returns, probs, phi, draws, oracles.current_drawdown),
                rel=1e-12,
            )
            cur_x = rho_cur_x(matrix, phi, draws)
            assert cur_x == pytest.approx(linear_path_form(matrix, phi, draws), rel=1e-12)
            assert cur_x == pytest.approx(
                -oracles.expectation(
                    returns, probs, phi, draws, oracles.linear_current_drawdown
                ),
                rel=1e-12,
            )


def test_count_plan_weights_are_count_probabilities():
    probs = (0.5, 0.3, 0.2)
    for draws in (1, 4, 7):
        comps, weights, ends = risk_measures._count_plan(probs, draws, False)
        want = [tuple(x) for x in oracles.compositions_colex(draws, 3)]
        assert [tuple(int(v) for v in x) for x in comps] == want
        assert ends.tolist() == [len(want) - 1]
        exact = [
            math.factorial(draws)
            / math.prod(math.factorial(v) for v in x)
            * math.prod(p**v for p, v in zip(probs, x))
            for x in want
        ]
        np.testing.assert_allclose(weights, exact, rtol=1e-14)
    comps, weights, ends = risk_measures._count_plan(probs, 4, True)
    start = 0
    for k, end in enumerate(ends.tolist(), start=1):
        level_comps, level_weights, _ = risk_measures._count_plan(probs, k, False)
        assert np.array_equal(comps[start : end + 1], level_comps)
        assert np.array_equal(weights[start : end + 1], level_weights / k)
        start = end + 1
    assert start == len(comps) == math.comb(4 + 3, 3) - 1


@pytest.fixture
def game_file(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"returns": EXAMPLE_RETURNS, "probs": EXAMPLE_PROBS}))
    return str(path)


def _run(capsys, argv) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().out


GRID = "--grid=-0.4:0.8:9,-0.4:0.8:9"


@pytest.mark.parametrize("measure", ["down", "downX", "cur", "curX"])
def test_surface_cells_match_eval_bytes(game_file, capsys, measure):
    code, text = _run(capsys, ["surface", game_file, "--measure", measure, "--K", "4", GRID])
    assert code == 0
    rows = [line.rsplit(",", 1) for line in text.splitlines()[1:]]
    finite = [(phi, value) for phi, value in rows if value != "inf"]
    assert len(finite) > 20
    for phi, value in finite[::7] + [r for r in rows if r[1] == "inf"][:3]:
        code, out = _run(
            capsys, ["eval", game_file, "--measure", measure, "--K", "4", f"--phi={phi}"]
        )
        if value == "inf":
            assert code == 2
        else:
            assert code == 0 and out == value + "\n"


def test_converge_rows_match_eval_bytes(game_file, capsys):
    phi = "--phi=0.3,-0.1"
    code, text = _run(capsys, ["converge", game_file, phi, "--Kmax", "7"])
    assert code == 0
    for line in text.splitlines()[1:]:
        draws, value = line.split(",")
        code, out = _run(capsys, ["eval", game_file, "--measure", "cur", "--K", draws, phi])
        assert code == 0 and out == value + "\n"


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_chunk_size_leaves_surface_bytes_unchanged(game_file, capsys, monkeypatch, chunk):
    surfaces = {}
    for size in (risk_measures._CHUNK, chunk):
        monkeypatch.setattr(risk_measures, "_CHUNK", size)
        for measure in ("down", "downX", "cur", "curX"):
            argv = ["surface", game_file, "--measure", measure, "--K", "5", GRID]
            surfaces.setdefault(measure, set()).add(_run(capsys, argv))
    for measure, outputs in surfaces.items():
        assert len(outputs) == 1, measure


@pytest.mark.parametrize("measure", ["cur", "downFirstApprox"])
def test_cur_budget_counts_all_levels(game_file, capsys, measure):
    # N=4, K=3: C(3+4, 4) - 1 = 34 count states over levels 1..3, also at phi = 0
    for phi in ("--phi=0.1,0.1", "--phi=0,0"):
        argv = ["eval", game_file, "--measure", measure, "--K", "3", phi]
        assert main(argv + ["--budget", "33"]) == 2
        assert main(argv + ["--budget", "34"]) == 0


@pytest.mark.parametrize("measure", ["curFirstApprox", "runupExpect"])
def test_drawdown_coefficient_budget_edges(game_file, capsys, measure):
    # N=4, K=3: the drawdown families and the small-scale topping check of
    # eval enumerate the 4^3 = 64 paths, also at phi = 0
    for command in (["surface", GRID], ["eval", "--phi=0.1,0.1"], ["eval", "--phi=0,0"]):
        argv = [command[0], game_file, "--measure", measure, "--K", "3", command[1]]
        assert main(argv + ["--budget", "63"]) == 2
        assert main(argv + ["--budget", "64"]) == 0


@pytest.mark.parametrize(
    "measure, sign",
    [("down", 1.0), ("downFirstApprox", -1.0), ("upExpect", 1.0)],
    ids=["down", "downFirstApprox", "upExpect"],
)
def test_down_at_large_k_is_finite(tmp_path, capsys, measure, sign):
    path = tmp_path / "coin.json"
    path.write_text(json.dumps({"returns": [[1.0], [-0.5]]}))
    code, out = _run(capsys, ["eval", str(path), "--measure", measure, "--K", "1100", "--phi=0.1"])
    assert code == 0
    assert math.isfinite(float(out)) and sign * float(out) >= 0.0


def test_count_weights_at_large_k_are_a_distribution():
    weights = [c.weight for c in enumerate_counts([0.5, 0.5], 1100)]
    assert len(weights) == 1101 and all(math.isfinite(w) for w in weights)
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-9)


def test_reference_cur_at_k60_under_one_second(example_matrix):
    start = time.perf_counter()
    value = rho_cur(example_matrix, [0.2, 0.1], 60)
    assert time.perf_counter() - start < 1.0
    assert math.isfinite(value)
    assert value > rho_cur(example_matrix, [0.2, 0.1], 59)


def test_evaluate_many_matches_single_points(example_matrix):
    phis = interior_points(example_matrix, seed=9, count=6)
    for kind, fn in (("down", risk_measures.rho_down), ("curX", rho_cur_x)):
        values = risk_measures.evaluate_many(example_matrix, kind, phis, 4)
        assert values.tolist() == [fn(example_matrix, phi, 4) for phi in phis]
    outside = risk_measures.evaluate_many(example_matrix, "cur", [[0.0, 0.5], [0.1, 0.1]], 3)
    assert outside[0] == math.inf and math.isfinite(outside[1])
