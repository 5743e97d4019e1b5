"""One exact topping pass per path block.

``linear_topping_blocks`` decides most signs with a float filter and builds
integer counts only for what it leaves open; ``drawdown_coefficients`` adds
each path weight once per step; ``eval`` of a drawdown coefficient form reads
one set of linear topping points for its value and its regime flag.  A
streamed enumeration tops one lead table and the two halves of its suffix
table, combines the halves into the suffix table and that with each lead
block; with ``path_engine._PATH_BLOCK`` patched small, those combines run on
every fixture game.  The regime flag first looks for a witness path built
from the count plan, and runs the full path check only when it finds none.
Each is checked against an exact oracle or the full route it replaced.
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
    AdmissibleSet,
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
    # lead x suffix topping points against exact prefix sums, with suffix
    # tables of two or more draws combined from their halves (of unequal
    # lengths at N = 3 and N = 4 with the block of 64); with the M = 2 tie
    # directions some pairs need the combine's exact rule, in the halves
    # combine too, whose sums have tail + 1 steps
    matrix = GAMES[name]()
    n = matrix.n_periods
    steps = []
    signs = risk_measures.linear_signs
    monkeypatch.setattr(risk_measures, "linear_signs",
                        lambda *a, **k: steps.append(a[5] if len(a) > 5 else 0) or signs(*a, **k))
    exact, tails, halves_exact = False, set(), False
    for draws in range(1, 6):
        digits = all_paths(n, draws)
        ties = tie_directions(name, matrix, draws)
        for theta in ties + plain_directions(matrix.n_systems, draws):
            want = exact_topping(matrix.returns.tolist(), theta.tolist(), digits)
            for block in FORCED_BLOCKS + (64,):
                monkeypatch.setattr(path_engine, "_PATH_BLOCK", block)
                lead, tail, _ = path_engine.path_split(n, draws)
                steps.clear()
                pairs = list(risk_measures._topped_blocks(matrix, theta, draws, None))
                assert np.array_equal(np.concatenate([d for d, _ in pairs]), digits)
                assert np.concatenate([top for _, top in pairs]).tolist() == want, (theta, block)
                exact |= bool(steps)
                if lead and tail > 1:
                    tails.add(tail)
                    halves_exact |= any(theta is t for t in ties) and tail + 1 in steps
    assert exact == halves_exact == (matrix.n_systems == 2)
    assert 2 in tails and (3 in tails) == (n < 5)


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
    # a streamed pass tops its lead table and the two halves of its suffix
    # table, however many lead blocks it has; a single block is topped once;
    # the regime flag may top its stacked witness paths once more
    matrix, draws, calls_per_pass = (STREAMED, 11, 3) if streamed else (GAMES["reference"](), 4, 1)
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
        assert len(calls) - calls_per_pass in (0, 1)


def full_path_flag(monkeypatch):
    """Leave the regime flag to admissibility and the full path check: no witness search."""
    monkeypatch.setattr(risk_measures, "_regime_ruled_out",
                        lambda matrix, theta, rows, draws: bool(np.isneginf(rows).any()))


#: Relative scales along a ray, as shares of its distance to the boundary;
#: 1.5 is an inadmissible point.
SHARES = (1e-8, 1e-4, 0.01, 0.1, 0.3, 0.6, 0.9, 1.5)


def ray_points(matrix, thetas):
    region = AdmissibleSet(matrix)
    for theta in thetas:
        theta = theta / np.linalg.norm(theta)
        radius = region.max_radius(theta)
        for share in SHARES:
            yield share * (radius if math.isfinite(radius) else 1.0), theta


#: (game, draws, block): single-block passes, and passes that a patched block
#: splits into lead blocks and suffix halves.
FLAG_CASES = [
    ("reference", 4, None), ("reference", 5, 64), ("flat", 5, 16), ("dependent", 3, None),
    ("dependent", 5, 64), ("random", 3, None), ("random", 4, 64),
]


@pytest.mark.parametrize("name, draws, block", FLAG_CASES)
def test_witness_first_flag_equals_full_path_flag(name, draws, block, monkeypatch):
    matrix = GAMES[name]()
    if block:
        monkeypatch.setattr(path_engine, "_PATH_BLOCK", block)
    thetas = tie_directions(name, matrix, min(draws, 3))[:3] + plain_directions(matrix.n_systems, draws)
    points = list(ray_points(matrix, thetas))
    witnessed = [risk_measures._regime_ruled_out(
        matrix, theta, path_engine.log_hpr_rows(matrix, s * theta), draws) for s, theta in points]
    fast = [small_s_cur_verified(matrix, s, theta, draws) for s, theta in points]
    full_path_flag(monkeypatch)
    full = [small_s_cur_verified(matrix, s, theta, draws) for s, theta in points]
    assert fast == full
    # both routes decide some points: a witness, or a path check that passes
    assert not any(f and w for f, w in zip(full, witnessed))
    assert any(witnessed) and any(full)


def test_witness_first_eval_notes_equal_full_path_notes(tmp_path, capsys, monkeypatch):
    cases = [(GAMES["reference"](), 4, (0.01, 0.01), (0.3, 0.1), (1.5, 0.2), (1e-160, 1e-160),
              (0.2, -0.1), (-0.05, 0.02)),
             (STREAMED, 11, (0.01, 0.01), (0.05, 0.02), (0.3, 0.1), (2.0, 0.1))]
    runs = [(game_file(tmp_path, matrix), draws, phi) for matrix, draws, *phis in cases for phi in phis]
    fast = [run_eval(path, measure, draws, phi, capsys)
            for path, draws, phi in runs for measure in sorted(FORMS)]
    full_path_flag(monkeypatch)
    assert fast == [run_eval(path, measure, draws, phi, capsys)
                    for path, draws, phi in runs for measure in sorted(FORMS)]
    assert {err for _, _, err in fast} == {"", NOTE}


def test_tiny_scale_flag_is_left_to_the_path_check(example_matrix, tmp_path, capsys):
    # no count vector changes class at 1e-160, yet the absolute tie band of the
    # compounded topping points ties every prefix sum: only the paths show it
    phi = np.array([1e-160, 1e-160])
    s = float(np.linalg.norm(phi))
    rows = path_engine.log_hpr_rows(example_matrix, phi)
    assert not risk_measures._regime_ruled_out(example_matrix, phi / s, rows, 3)
    assert small_s_cur_verified(example_matrix, s, phi / s, 3) is False
    path = game_file(tmp_path, example_matrix)
    assert run_eval(path, "curFirstApprox", 3, (1e-160, 1e-160), capsys)[2] == NOTE
    assert run_eval(path, "curFirstApprox", 3, (1e-6, 1e-6), capsys)[2] == ""

