"""One exact sign rule for the linear walk: every route agrees at hyperplane directions.

At the directions where some count vector's linearized outcome vanishes, the
loss/gain split and the linear topping point depend on how a tie is decided.
Both routes (count plan and path blocks) decide it by the exact sign of the
float inputs, so the Spitzer sums of the terminal families equal the path
route's Lambda/Upsilon totals, and every coefficient form equals an oracle
in exact rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from drawdown_risk import (
    d_cur_first_approx,
    d_first_approx,
    drawdown_coefficients,
    hyperplane_directions,
    path_engine,
    u_expect,
    u_run_expect,
    updown_coefficients,
)
from test_kernel import GAMES

SPECIAL = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)] + [
    (a * math.sqrt(0.5), b * math.sqrt(0.5)) for a in (1.0, -1.0) for b in (1.0, -1.0)
]

#: Directions where a reference-game count vector has linear outcome exactly 0,
#: e.g. (0, 1, 0, 2) along (2, -1) and (0, 1, 0, 0) along (2, 1).
REFERENCE_TIES = [(0.2, -0.1), (-0.2, 0.1), (0.1, 0.05)]

#: Each coefficient form with the index of its totals in the oracle's (U, D, Upsilon, Lambda).
FORMS = [(u_expect, 0), (d_first_approx, 1), (u_run_expect, 2), (d_cur_first_approx, 3)]


def directions(name, matrix, draws):
    extra = REFERENCE_TIES if name == "reference" else []
    found = [tuple(theta) for theta, _ in hyperplane_directions(matrix, draws)]
    return found + SPECIAL + extra


def spitzer_totals(matrix, theta, draws):
    """Upsilon and Lambda totals as sum_k U(k) / k and sum_k D(k) / k."""
    ups = lam = 0.0
    for k in range(1, draws + 1):
        up, down = updown_coefficients(matrix, theta, k)
        ups, lam = ups + up.values / k, lam + down.values / k
    return ups, lam


@pytest.mark.parametrize("name", ["reference", "dependent", "flat"])
def test_path_totals_equal_spitzer_count_totals(name):
    matrix = GAMES[name]()
    for draws in range(1, 6):
        for theta in directions(name, matrix, draws):
            lam, ups = drawdown_coefficients(matrix, theta, draws)
            want_ups, want_lam = spitzer_totals(matrix, theta, draws)
            np.testing.assert_allclose(lam.totals(), want_lam, rtol=0, atol=1e-12)
            np.testing.assert_allclose(ups.totals(), want_ups, rtol=0, atol=1e-12)


def admissible_scale(matrix, theta) -> float:
    dots = matrix.returns @ np.asarray(theta)
    losing = dots[dots < 0.0]
    return 0.5 * min(1.0, float((-1.0 / losing).min())) if losing.size else 0.5


@pytest.mark.parametrize("name", ["reference", "dependent", "flat"])
def test_coefficient_forms_equal_exact_oracle(name):
    matrix = GAMES[name]()
    returns, probs = matrix.returns.tolist(), matrix.probs.tolist()
    for draws in range(1, 5):
        for theta in directions(name, matrix, draws):
            totals = oracles.exact_coefficient_totals(returns, probs, theta, draws)
            s = admissible_scale(matrix, theta)
            for form, index in FORMS:
                want = oracles.coefficient_log_form(totals[index], returns, theta, s)
                got = form(matrix, s, theta, draws)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (form, theta, draws)


def exact_sign(returns, theta, x) -> int:
    value = sum(
        c * sum(Fraction(t) * Fraction(v) for t, v in zip(row, theta))
        for c, row in zip(x, returns)
    )
    return (value > 0) - (value < 0)


def test_signs_are_exact_where_float_evaluation_misses(example_matrix):
    # (0, 1, 0, 2) along the grid point (0.8, -0.4): row combination first
    # evaluates to -5.6e-17, the exact value is 0
    phi = np.array([0.8, -0.4])
    theta = phi / np.linalg.norm(phi)
    assert (np.array([0, 1, 0, 2]) @ example_matrix.returns) @ theta != 0.0
    counts = np.array([[0, 1, 0, 2], [0, -1, 0, -2], [1, 1, 0, 2], [0, 1, 0, 3], [0, 2, 0, 4]])
    returns = example_matrix.returns.tolist()
    want = [exact_sign(returns, theta.tolist(), x) for x in counts.tolist()]
    assert want == [0, 0, 1, 1, 0]
    assert path_engine.linear_signs(example_matrix.returns, theta, counts.T).tolist() == want


def undeduplicated_signs(returns, theta, counts):
    """``linear_signs`` with its exact fallback run once per undecided column."""
    returns, theta = np.asarray(returns, dtype=float), np.asarray(theta, dtype=float)
    values, scale = (returns @ theta) @ counts, (np.abs(returns) @ np.abs(theta)) @ counts
    bound = path_engine._EPS * (sum(returns.shape) + 2) * scale + path_engine._TINY
    signs = np.sign(values)
    near = ~(np.abs(values) > bound)
    signs[near] = 0.0
    near[near] = counts[:, near].any(axis=0)
    if near.any():
        exact = np.array(path_engine._exact_steps(returns, theta.tolist())[0], dtype=object)
        signs[near] = [(v > 0) - (v < 0) for v in exact @ counts[:, near].astype(object)]
    return signs


def step_differences(n, draws):
    """Count differences x(S_l) - x(S_j) of every step pair of every path: (N, (K+1)^2 B)."""
    digits = next(path_engine.iter_path_blocks(n, draws))
    counts = np.zeros((n, draws + 1, len(digits)), dtype=np.int8)
    np.cumsum(digits.T == np.arange(n)[:, None, None], axis=1, dtype=np.int8, out=counts[:, 1:])
    return (counts[:, :, None] - counts[:, None]).reshape(n, -1)


@pytest.mark.parametrize("name", ["reference", "dependent", "flat"])
def test_deduplicated_exact_fallback_equals_per_column_rule(name, monkeypatch):
    matrix = GAMES[name]()
    undecided = []
    exact_signs = path_engine._exact_signs
    monkeypatch.setattr(path_engine, "_exact_signs",
                        lambda r, t, cols: undecided.append(cols.shape[1]) or exact_signs(r, t, cols))
    for draws in range(1, 5):
        diffs = step_differences(matrix.n_periods, draws)
        for theta, _ in hyperplane_directions(matrix, draws):
            got = path_engine.linear_signs(matrix.returns, theta, diffs)
            assert got.tolist() == undeduplicated_signs(matrix.returns, theta, diffs).tolist()
    # each hyperplane direction leaves many repeated columns to the exact rule
    assert undecided and max(undecided) > 100


def test_zero_sum_tie_is_exact_with_and_without_the_key(example_matrix):
    # (1, 1, 0, 1) sums the reference rows to (0, 0): its sign is 0 along every direction
    tie = np.array([1, 1, 0, 1])
    wide = 2**40  # per-row spans whose product overflows an int64 key
    counts = np.stack([tie, -tie, 2 * tie, tie + [1, 0, 0, 0], tie - [0, 0, 1, 0]], axis=1)
    for theta in [np.array(t) / np.linalg.norm(t) for t in REFERENCE_TIES + SPECIAL]:
        for cols in (counts, np.concatenate([counts, wide * counts], axis=1)):
            got = path_engine.linear_signs(example_matrix.returns, theta, cols)
            want = undeduplicated_signs(example_matrix.returns, theta, cols)
            assert got.tolist() == want.tolist()
            assert got[:3].tolist() == [0, 0, 0]
