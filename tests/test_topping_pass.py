"""One exact topping pass per path block.

``linear_topping_blocks`` decides most signs with a float filter and builds
integer counts only for what it leaves open.  For a single block,
``drawdown_coefficients`` adds each path weight once per step, bitwise as a
masked ``np.add.at`` loop.  A streamed enumeration tops one lead table and
the two halves of its suffix table, joins the halves into the suffix part
table and builds the tables from the lead and suffix part tables with no
per-step pass: its tables are checked against a long-double ``np.add.at``
loop and, with ``path_engine._PATH_BLOCK`` patched small on every fixture
game, against an exact rational oracle, and its topping points against
exact prefix sums.  ``eval`` of a drawdown coefficient form tops each part
table once.  The regime flag reads the count plan and no enumerated path:
it is False exactly when the point is inadmissible or a witness path built
from the plan breaks the regime.  Each is checked against an exact oracle
or a check over every path.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from drawdown_risk import (
    AdmissibleSet,
    BudgetExceededError,
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


def add_at_tables(matrix, theta, draws, dtype=np.float64):
    """Lambda and Upsilon with one masked ``np.add.at`` per topping level and step.

    The blocks are those of the enumeration, which sum in block order.  In
    float64 this is the per-step pass of a single block; in long double it
    is the reference of the streamed tables.
    """
    lam, ups = np.zeros((2, draws + 1, matrix.n_periods), dtype=dtype)
    probs = matrix.probs.astype(dtype)
    for digits in path_engine.iter_path_blocks(matrix.n_periods, draws):
        w = np.prod(probs[digits], axis=1)
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


#: Single-block table cases.
TABLE_CASES = {f"{name}-K{draws}": (GAMES[name], draws) for name in sorted(GAMES) for draws in (1, 3, 5)}
#: Block sizes that split the paths of the small table cases into leads and suffixes.
FORCED_BLOCKS = (1, 4, 16)
SPLIT_CASES = [(case, block) for case in sorted(TABLE_CASES) for block in FORCED_BLOCKS]
#: Streamed table cases at the default block size.
STREAMED_CASES = {
    "streamed-K11": (lambda: STREAMED, 11),
    "reference-K9": (GAMES["reference"], 9),
    "random-K7": (GAMES["random"], 7),
    "two-rows-K17": (lambda: TWO_ROWS, 17),
}


def table_directions(matrix, draws):
    thetas = plain_directions(matrix.n_systems, draws)[-3:]
    if matrix.n_systems == 2:
        thetas += [theta for theta, _ in hyperplane_directions(matrix, min(draws, 3))[:3]]
    return [theta / np.linalg.norm(theta) for theta in thetas]


def table_errors(got, want):
    """Largest |got - want| / max(1, |want|) over both tables."""
    return max(float(np.max(np.abs(g - w) / np.maximum(1.0, np.abs(w)))) for g, w in zip(got, want))


@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_drawdown_tables_bitwise_equal_add_at_loop(case):
    game, draws = TABLE_CASES[case]
    matrix = game()
    for theta in table_directions(matrix, draws):
        lam, ups = drawdown_coefficients(matrix, theta, draws)
        want_lam, want_ups = add_at_tables(matrix, theta, draws)
        assert lam.values.tobytes() == want_lam.tobytes()
        assert ups.values.tobytes() == want_ups.tobytes()


@pytest.mark.parametrize("case", sorted(STREAMED_CASES))
def test_streamed_drawdown_tables_near_long_double_add_at_loop(case):
    # the part tables sum pairwise; the per-step float64 pass they replace
    # adds every path at every step, and drifts further from the reference
    game, draws = STREAMED_CASES[case]
    matrix = game()
    assert path_engine.path_split(matrix.n_periods, draws)[0] > 0
    for theta in table_directions(matrix, draws):
        got = [table.values for table in drawdown_coefficients(matrix, theta, draws)]
        want = add_at_tables(matrix, theta, draws, np.longdouble)
        error = table_errors(got, want)
        assert error <= 1e-13
        assert error <= table_errors(add_at_tables(matrix, theta, draws), want)


@functools.lru_cache(maxsize=None)
def exact_tables(case, theta):
    game, draws = TABLE_CASES[case]
    matrix = game()
    returns, probs = matrix.returns.tolist(), matrix.probs.tolist()
    return oracles.exact_drawdown_tables(returns, probs, theta, draws)


@pytest.mark.parametrize("case, block", SPLIT_CASES)
def test_split_drawdown_tables_equal_exact_oracle(case, block, monkeypatch):
    game, draws = TABLE_CASES[case]
    matrix = game()
    monkeypatch.setattr(path_engine, "_PATH_BLOCK", block)
    for theta in table_directions(matrix, draws):
        got = [table.values for table in drawdown_coefficients(matrix, theta, draws)]
        want = [np.array(table) for table in exact_tables(case, tuple(theta.tolist()))]
        assert table_errors(got, want) <= 1e-14


def all_paths(n, draws):
    return np.array(list(itertools.product(range(n), repeat=draws)))


def row_counts(digits, n, stop):
    """Per path, the counts of each row over its first ``stop`` steps: (N, P)."""
    steps = np.arange(digits.shape[1]) < stop[:, None]
    return ((digits == np.arange(n)[:, None, None]) & steps).sum(axis=2)


def part_table_tops(matrix, theta, draws):
    """Every path's topping point by the part-table rule, in enumeration order.

    Lead a and suffix q top at lead + t_q where ``_over`` holds, else at t_a.
    The suffix table's counts are checked against its digits on the way.
    """
    n = matrix.n_periods
    lead, tail, per = path_engine.path_split(n, draws)
    leads, suffix = risk_measures._part_tables(matrix, theta, lead, tail)
    digits = path_engine._cached_digits(n, tail)
    assert np.array_equal(suffix.total, row_counts(digits, n, np.full(len(digits), tail)))
    assert np.array_equal(suffix.up, row_counts(digits, n, suffix.top))
    tops = []
    for a0 in range(0, len(leads.top), per):
        part = leads.paths(np.arange(a0, min(a0 + per, len(leads.top))))
        over = risk_measures._over(matrix.returns, theta, part, suffix)
        tops.append(np.where(over, lead + suffix.top, part.top[:, None]).ravel())
    return np.concatenate(tops)


@pytest.mark.parametrize("name", sorted(GAMES))
def test_split_topping_equals_exact_oracle(name, monkeypatch):
    # lead x suffix topping points against exact prefix sums, with suffix
    # tables of two or more draws joined from their halves (of unequal
    # lengths at N = 3 and N = 4 with the block of 64); with the M = 2 tie
    # directions some pairs need the exact rule of ``_over``, in the halves
    # join too, whose sums have tail + 1 steps
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
                if not lead:
                    continue
                steps.clear()
                assert part_table_tops(matrix, theta, draws).tolist() == want, (theta, block)
                exact |= bool(steps)
                if tail > 1:
                    tails.add(tail)
                    halves_exact |= any(theta is t for t in ties) and tail + 1 in steps
    assert exact == halves_exact == (matrix.n_systems == 2)
    assert 2 in tails and (3 in tails) == (n < 5)


def exact_integer_topping(returns, theta, digits):
    """``exact_topping`` of many paths: exact prefix sums as integers over one denominator."""
    steps = [sum(Fraction(t) * Fraction(v) for t, v in zip(row, theta)) for row in returns]
    scale = math.lcm(*(step.denominator for step in steps))
    walk = np.cumsum(np.array([int(step * scale) for step in steps], dtype=object)[digits], axis=1)
    peak = walk.max(axis=1)
    return np.where(peak > 0, np.argmax(walk == peak[:, None], axis=1) + 1, 0)


def per_path_small_s_cur(matrix, s, theta, draws):
    """Compounded topping points (with the tie band) against exact linear ones, path by path."""
    rows = path_engine.log_hpr_rows(matrix, s * theta)
    if np.isneginf(rows).any():
        return False
    digits = all_paths(matrix.n_periods, draws)
    compounded = path_engine.topping_from_prefix(np.cumsum(rows[digits], axis=1))
    linear = exact_integer_topping(matrix.returns.tolist(), theta.tolist(), digits)
    return np.array_equal(compounded, linear)


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


#: (game, draws) of the flag checks.
FLAG_CASES = [
    ("reference", 4), ("reference", 5), ("flat", 5), ("dependent", 3), ("dependent", 5),
    ("random", 3), ("random", 4),
]


@pytest.mark.parametrize("name, draws", FLAG_CASES)
def test_witness_first_flag_equals_full_path_flag(name, draws):
    # the flag reads the count plan; the oracle tops every path, compounded
    # against exact linear topping points
    matrix = GAMES[name]()
    thetas = tie_directions(name, matrix, min(draws, 3))[:3] + plain_directions(matrix.n_systems, draws)
    points = list(ray_points(matrix, thetas))
    flags = [small_s_cur_verified(matrix, s, theta, draws) for s, theta in points]
    assert flags == [per_path_small_s_cur(matrix, s, theta, draws) for s, theta in points]
    assert set(flags) == {True, False}


def test_witness_first_eval_notes_equal_full_path_notes(tmp_path, capsys):
    cases = [(GAMES["reference"](), 4, (0.01, 0.01), (0.3, 0.1), (1.5, 0.2), (0.2, -0.1),
              (-0.05, 0.02)),
             (STREAMED, 11, (0.01, 0.01), (0.05, 0.02), (0.3, 0.1), (2.0, 0.1))]
    notes = set()
    for matrix, draws, *phis in cases:
        path = game_file(tmp_path, matrix)
        for phi in phis:
            s = float(np.linalg.norm(phi))
            want = "" if per_path_small_s_cur(matrix, s, np.array(phi) / s, draws) else NOTE
            for measure in sorted(FORMS):
                code, _, err = run_eval(path, measure, draws, phi, capsys)
                if code == 0:
                    assert err == want, (phi, measure)
                    notes.add(err)
    assert notes == {"", NOTE}


def test_tiny_scale_flag_reads_the_count_plan(example_matrix, tmp_path, capsys):
    # no count vector changes class at 1e-160, and the exact oracle agrees that
    # the regime holds; a check over every path with the absolute tie band of
    # the compounded topping points ties every prefix sum there and fails it
    path = game_file(tmp_path, example_matrix)
    for phi in ((1e-160, 1e-160), (1e-6, 1e-6)):
        s = float(np.linalg.norm(phi))
        theta = np.array(phi) / s
        for draws in (3, 4):
            assert oracles.exact_topping_flag(example_matrix.returns.tolist(), (s * theta).tolist(),
                                              theta.tolist(), draws)
            assert small_s_cur_verified(example_matrix, s, theta, draws) is True
            assert per_path_small_s_cur(example_matrix, s, theta, draws) is (s > 1e-100)
            for measure in sorted(FORMS):
                assert run_eval(path, measure, draws, phi, capsys)[2] == ""


def float_class_misses(matrix, phi, draws):
    """Count vectors of 1..draws draws whose float compounded class is not the exact one."""
    hprs = [1 + sum(Fraction(t) * Fraction(v) for t, v in zip(row, phi))
            for row in matrix.returns.tolist()]
    logs = path_engine.log_hpr_rows(matrix, phi)
    comps = np.concatenate([np.array(list(oracles.compositions_colex(k, matrix.n_periods)))
                            for k in range(1, draws + 1)])
    exact = [math.prod((h**c for h, c in zip(hprs, x)), start=Fraction(1)) > 1 for x in comps.tolist()]
    return comps[np.array(exact) != (comps @ logs > 0.0)]


#: (game, draws) of the exact-oracle check, with every hyperplane direction of the level.
EXACT_CASES = [("reference", 3), ("reference", 4), ("flat", 3), ("dependent", 3), ("random", 3)]


@pytest.mark.parametrize("s", [1e-16, 1e-14, 1e-12])
def test_flag_equals_exact_oracle_at_tiny_scales(s):
    misses, checked = [], 0
    for name, draws in EXACT_CASES:
        matrix = GAMES[name]()
        for theta in tie_directions(name, matrix, draws) + plain_directions(matrix.n_systems, draws):
            theta = theta / np.linalg.norm(theta)
            phi = (s * theta).tolist()
            want = oracles.exact_topping_flag(matrix.returns.tolist(), phi, theta.tolist(), draws)
            checked += 1
            if small_s_cur_verified(matrix, s, theta, draws) is not want:
                misses.append((matrix, phi, draws))
    assert checked == 106
    # a miss needs a count vector whose float compounded class is wrong: at
    # 1e-16 on the level-4 hyperplane direction of (1, 1, 2, 0) of the
    # reference game, where the compounded log outcome is below the rounding
    # of its float sum
    assert all(len(float_class_misses(*miss)) for miss in misses)
    assert len(misses) <= (s == 1e-16)


def test_flag_takes_the_count_budget(example_matrix):
    # K = 14 would be 4^14 paths; the flag reads C(14 + 4, 4) - 1 = 3059 count states
    for budget in (None, 3059):
        assert isinstance(small_s_cur_verified(example_matrix, 1e-4, (0.6, 0.8), 14, budget), bool)
    with pytest.raises(BudgetExceededError, match="count enumeration of size 3059 exceeds budget 3058"):
        small_s_cur_verified(example_matrix, 1e-4, (0.6, 0.8), 14, budget=3058)
