"""One exact topping pass per path block.

``linear_topping_blocks`` decides most signs with a float filter and builds
integer counts only for what it leaves open; ``drawdown_coefficients`` adds
each path weight once per step; ``eval`` of a drawdown coefficient form reads
one set of linear topping points for its value and its regime flag.  A
streamed enumeration tops one suffix table and one lead table and combines
them per lead block; with ``path_engine._PATH_BLOCK`` patched small, that
combine runs on every fixture game.  Each is checked against an exact oracle or the
full-tensor route it replaced.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from drawdown_risk import (
    DomainError,
    TradeMatrix,
    d_cur_first_approx,
    drawdown_coefficients,
    hyperplane_directions,
    path_engine,
    risk_measures,
    small_s_cur_verified,
    u_run_expect,
)
from drawdown_risk.cli import main
from drawdown_risk.path_engine import iter_path_blocks, linear_prefix_blocks, linear_signs
from test_kernel import GAMES
from test_sign_rule import REFERENCE_TIES


def full_tensor_topping(returns, digits, theta):
    """The linear topping points with a count tensor of every step of every path."""
    walk = np.vstack([np.zeros(len(digits)), linear_prefix_blocks(returns, digits, theta).T])
    counts = np.zeros((len(returns),) + walk.shape, dtype=np.min_scalar_type(-len(walk)))
    hits = digits.T == np.arange(len(returns))[:, None, None]
    np.cumsum(hits, axis=1, dtype=counts.dtype, out=counts[:, 1:])
    scale = 2.0 * ((np.abs(returns) @ np.abs(theta)) @ counts[:, -1])
    paths, top = np.arange(len(digits)), walk.argmax(axis=0)
    while True:
        signs = linear_signs(
            returns, theta, counts[:, top, paths][:, None] - counts,
            walk[top, paths] - walk, scale, len(walk),
        )
        higher = signs < 0
        if not higher.any():
            return np.argmax(signs == 0, axis=0)
        top = np.where(higher.any(axis=0), higher.argmax(axis=0), top)


def exact_topping(returns, theta, digits):
    """Per path, the topping point of the exact rational prefix sums."""
    steps = [sum(Fraction(t) * Fraction(v) for t, v in zip(row, theta)) for row in returns]
    return [
        oracles.topping_point(list(itertools.accumulate(steps[i] for i in path)))
        for path in digits.tolist()
    ]


def tie_directions(name, matrix, draws):
    """Hyperplane directions (M = 2) and, on the reference game, known ties."""
    if matrix.n_systems != 2:
        return []
    found = [theta for theta, _ in hyperplane_directions(matrix, draws)]
    extra = [np.array(t) / np.linalg.norm(t) for t in REFERENCE_TIES] if name == "reference" else []
    return found + extra


def plain_directions(m, seed):
    axes = [sign * row for row in np.eye(m) for sign in (1.0, -1.0)]
    diagonals = [np.array(signs) / math.sqrt(m) for signs in itertools.product((1.0, -1.0), repeat=m)]
    raw = np.random.default_rng(seed).standard_normal((3, m))
    return axes + diagonals + list(raw / np.linalg.norm(raw, axis=1, keepdims=True))


@pytest.mark.parametrize("name", sorted(GAMES))
def test_linear_topping_blocks_equals_exact_oracle_and_full_tensor(name, monkeypatch):
    matrix = GAMES[name]()
    returns = matrix.returns.tolist()
    calls = []
    exact_steps = path_engine._exact_steps
    monkeypatch.setattr(
        path_engine, "_exact_steps", lambda *a: calls.append(1) or exact_steps(*a)
    )
    for draws in range(1, 6):
        digits = next(iter_path_blocks(matrix.n_periods, draws))
        ties = tie_directions(name, matrix, draws)
        for theta in ties + plain_directions(matrix.n_systems, draws):
            got = path_engine.linear_topping_blocks(matrix.returns, digits, theta)
            want = exact_topping(returns, theta.tolist(), digits)
            assert got.tolist() == want, (theta, draws)
            assert got.tolist() == full_tensor_topping(matrix.returns, digits, theta).tolist()
        if ties:
            assert calls, "no tie direction reached the exact fallback"


def test_zero_sum_count_vector_never_tops_at_its_end(example_matrix):
    # rows 1, 2 and 4 of the reference game sum to (0, 0): a path of the count
    # vector (1, 1, 0, 1) returns exactly to 0 along every direction
    digits = next(iter_path_blocks(4, 3))
    zero_sum = np.all(np.sort(digits, axis=1) == [0, 1, 3], axis=1)
    assert zero_sum.sum() == 6
    for theta in tie_directions("reference", example_matrix, 3) + plain_directions(2, 3):
        got = path_engine.linear_topping_blocks(example_matrix.returns, digits, theta)
        assert not np.any(got[zero_sum] == 3)
        want = exact_topping(example_matrix.returns.tolist(), theta.tolist(), digits[zero_sum])
        assert got[zero_sum].tolist() == want


def add_at_tables(matrix, theta, draws):
    """Lambda and Upsilon with one masked ``np.add.at`` per topping level and step.

    The blocks are those of the pass, which sum in block order.
    """
    lam, ups = np.zeros((2, draws + 1, matrix.n_periods))
    for digits in path_engine.iter_path_blocks(matrix.n_periods, draws):
        w = np.prod(matrix.probs[digits], axis=1)
        top = path_engine.linear_topping_blocks(matrix.returns, digits, theta)
        for level in range(draws + 1):
            mask = top == level
            if not mask.any():
                continue
            sub, wsub = digits[mask], w[mask]
            for pos in range(level, draws):
                np.add.at(lam[level], sub[:, pos], wsub)
            for pos in range(level):
                np.add.at(ups[level], sub[:, pos], wsub)
    return lam, ups


#: N = 3 at K = 11 streams 3^11 = 177,147 paths in three lead blocks of 3^10.
STREAMED = TradeMatrix([[0.5, -0.2], [-0.4, 0.6], [0.1, -0.3]], [0.4, 0.35, 0.25])

#: N = 2 at K = 17 streams two lead blocks of 2^16 paths.
TWO_ROWS = TradeMatrix([[0.6, -0.3], [-0.5, 0.4]], [0.55, 0.45])


TABLE_CASES = {f"{name}-K{draws}": (GAMES[name], draws) for name in sorted(GAMES) for draws in (1, 3, 5)}
#: Block sizes that split the paths of the small table cases into leads and suffixes.
FORCED_BLOCKS = (1, 4, 16)
SPLIT_CASES = [(case, block) for case in sorted(TABLE_CASES) for block in FORCED_BLOCKS]
TABLE_CASES.update({
    "streamed-K11": (lambda: STREAMED, 11),
    "reference-K9": (GAMES["reference"], 9),
    "random-K7": (GAMES["random"], 7),
    "two-rows-K17": (lambda: TWO_ROWS, 17),
})


def assert_tables_bitwise_equal_add_at_loop(case):
    game, draws = TABLE_CASES[case]
    matrix = game()
    thetas = plain_directions(matrix.n_systems, draws)[-3:]
    if matrix.n_systems == 2:
        thetas += [theta for theta, _ in hyperplane_directions(matrix, min(draws, 3))[:3]]
    for theta in thetas:
        theta = theta / np.linalg.norm(theta)
        lam, ups = drawdown_coefficients(matrix, theta, draws)
        want_lam, want_ups = add_at_tables(matrix, theta, draws)
        assert lam.values.tobytes() == want_lam.tobytes()
        assert ups.values.tobytes() == want_ups.tobytes()


@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_drawdown_tables_bitwise_equal_add_at_loop(case):
    assert_tables_bitwise_equal_add_at_loop(case)


@pytest.mark.parametrize("case, block", SPLIT_CASES)
def test_split_drawdown_tables_bitwise_equal_add_at_loop(case, block, monkeypatch):
    monkeypatch.setattr(path_engine, "_PATH_BLOCK", block)
    assert_tables_bitwise_equal_add_at_loop(case)


def all_paths(n, draws):
    return np.array(list(itertools.product(range(n), repeat=draws)))


@pytest.mark.parametrize("name", sorted(GAMES))
def test_split_topping_equals_exact_oracle(name, monkeypatch):
    # lead x suffix topping points against exact prefix sums; with the M = 2
    # tie directions some lead and suffix pairs need the combine's exact rule
    matrix = GAMES[name]()
    calls = []
    signs = risk_measures.linear_signs
    monkeypatch.setattr(risk_measures, "linear_signs",
                        lambda *a, **k: calls.append(1) or signs(*a, **k))
    for draws in range(1, 6):
        digits = all_paths(matrix.n_periods, draws)
        for theta in tie_directions(name, matrix, draws) + plain_directions(matrix.n_systems, draws):
            want = exact_topping(matrix.returns.tolist(), theta.tolist(), digits)
            for block in FORCED_BLOCKS:
                monkeypatch.setattr(path_engine, "_PATH_BLOCK", block)
                pairs = list(risk_measures._topped_blocks(matrix, theta, draws, None))
                assert np.array_equal(np.concatenate([d for d, _ in pairs]), digits)
                assert np.concatenate([top for _, top in pairs]).tolist() == want, (theta, block)
    assert bool(calls) == (matrix.n_systems == 2)


def per_path_small_s_cur(matrix, s, theta, draws):
    """Compounded topping points (with the tie band) against exact linear ones, path by path."""
    rows = path_engine.log_hpr_rows(matrix, s * theta)
    if np.isneginf(rows).any():
        return False
    digits = all_paths(matrix.n_periods, draws)
    compounded = path_engine.topping_from_prefix(np.cumsum(rows[digits], axis=1),
                                                 path_engine.TOPPING_TIE_TOL)
    return compounded.tolist() == exact_topping(matrix.returns.tolist(), theta.tolist(), digits)


@pytest.mark.parametrize("block", FORCED_BLOCKS)
@pytest.mark.parametrize("name", sorted(GAMES))
def test_split_small_s_cur_verified_equals_per_path_oracle(name, block, monkeypatch):
    matrix = GAMES[name]()
    monkeypatch.setattr(path_engine, "_PATH_BLOCK", block)
    seen = set()
    for draws in (2, 4):
        for theta in tie_directions(name, matrix, draws)[:3] + plain_directions(matrix.n_systems, 7):
            for s in (1e-4, 0.05, 0.3):
                want = per_path_small_s_cur(matrix, s, theta, draws)
                assert small_s_cur_verified(matrix, s, theta, draws) is want, (theta, s)
                seen.add(want)
    assert seen == {True, False}


FORMS = {"curFirstApprox": d_cur_first_approx, "runupExpect": u_run_expect}

NOTE = ("note: small-scale regime not verified at this point; "
        "the coefficient form is an approximation here\n")


def run_eval(path, measure, draws, phi, capsys):
    code = main(["eval", str(path), "--measure", measure, "--K", str(draws),
                 "--phi=" + ",".join(repr(v) for v in phi)])
    out, err = capsys.readouterr()
    return code, out, err


def composed_eval(matrix, measure, draws, phi):
    """Exit code, stdout and stderr of ``eval`` from the public form and flag."""
    phi = np.asarray(phi, dtype=float)
    s = float(np.linalg.norm(phi))
    theta = phi / s
    try:
        value = FORMS[measure](matrix, s, theta, draws)
    except DomainError as exc:
        return 2, "", f"error: {exc}\n"
    verified = small_s_cur_verified(matrix, s, theta, draws)
    return 0, f"{value!r}\n", "" if verified else NOTE


def game_file(tmp_path, matrix):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"returns": matrix.returns.tolist(), "probs": matrix.probs.tolist()}))
    return path


#: A verified, an admissible unverified and an inadmissible reference-game point.
POINTS = [(0.01, 0.01), (0.3, 0.1), (1.5, 0.2)]


@pytest.mark.parametrize("measure", sorted(FORMS))
def test_eval_matches_form_composed_with_flag(example_matrix, tmp_path, capsys, measure):
    path = game_file(tmp_path, example_matrix)
    wants = [composed_eval(example_matrix, measure, 4, phi) for phi in POINTS]
    for phi, want in zip(POINTS, wants):
        assert run_eval(path, measure, 4, phi, capsys) == want
    assert [err for _, _, err in wants[:2]] == ["", NOTE]
    if measure == "curFirstApprox":
        assert wants[2] == (0, "-inf\n", NOTE)
    else:
        assert wants[2][:2] == (2, "")


@pytest.mark.parametrize("measure", sorted(FORMS))
@pytest.mark.parametrize("streamed", [False, True])
def test_eval_tops_each_digit_block_once(tmp_path, capsys, monkeypatch, measure, streamed):
    # a streamed pass tops its suffix table and its lead table, however many
    # lead blocks it has; a single block is topped once
    matrix, draws, calls_per_pass = (STREAMED, 11, 2) if streamed else (GAMES["reference"](), 4, 1)
    path = game_file(tmp_path, matrix)
    calls = []
    topping = risk_measures.linear_topping_blocks
    monkeypatch.setattr(
        risk_measures, "linear_topping_blocks", lambda *a: calls.append(1) or topping(*a)
    )
    for phi in [(0.01, 0.01), (0.3, 0.1)]:
        calls.clear()
        code, _, _ = run_eval(path, measure, draws, phi, capsys)
        assert code == 0
        assert len(calls) == calls_per_pass
