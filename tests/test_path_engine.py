"""Enumeration, equity-curve log series, and topping-point tests."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import oracles
from conftest import EXAMPLE_RETURNS, interior_points
from drawdown_risk import (
    BudgetExceededError,
    TradeMatrix,
    current_drawdown_log,
    downtrade_log,
    enumerate_counts,
    enumerate_paths,
    linear_topping_point,
    multinomial_coefficient,
    path_engine,
    runup_log,
    twr_segment,
    twr_topping_point,
    uptrade_log,
)
from drawdown_risk.path_engine import iter_path_blocks, log_hpr_rows

THETA_DIAG = np.array([1.0, 1.0]) / math.sqrt(2.0)


class TestEnumeratePaths:
    def test_single_row_game(self):
        paths = list(enumerate_paths([1.0], 3))
        assert len(paths) == 1
        assert paths[0].omega == (1, 1, 1)
        assert paths[0].prob == 1.0

    def test_reference_game_full_enumeration(self, example_matrix):
        paths = list(enumerate_paths(example_matrix.probs, 5))
        assert len(paths) == 1024
        assert sum(p.prob for p in paths) == pytest.approx(1.0, abs=1e-9)

    def test_two_row_probabilities(self):
        paths = {p.omega: p.prob for p in enumerate_paths([0.25, 0.75], 2)}
        assert paths[(1, 2)] == pytest.approx(0.1875, abs=1e-15)

    def test_lexicographic_order(self):
        got = [p.omega for p in enumerate_paths([0.5, 0.5], 2)]
        assert got == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_paths([0.25] * 4, 5, budget=1000))


class TestEnumerateCounts:
    def test_colex_order_two_rows(self):
        got = [c.x for c in enumerate_counts([0.5, 0.5], 2)]
        assert got == [(2, 0), (1, 1), (0, 2)]

    def test_reference_game_counts(self, example_matrix):
        counts = list(enumerate_counts(example_matrix.probs, 5))
        assert len(counts) == 56
        assert sum(c.weight for c in counts) == pytest.approx(1.0, abs=1e-9)

    def test_first_moment_identity(self, example_matrix):
        counts = list(enumerate_counts(example_matrix.probs, 5))
        first = sum(c.weight * c.x[0] for c in counts)
        assert first == pytest.approx(0.375 * 5, abs=1e-12)

    def test_weights_match_path_grouping(self, example_matrix):
        # the weight of a count vector is the total probability of its orderings
        grouped: dict[tuple[int, ...], float] = {}
        for p in enumerate_paths(example_matrix.probs, 4):
            key = tuple(p.omega.count(i) for i in range(1, 5))
            grouped[key] = grouped.get(key, 0.0) + p.prob
        for c in enumerate_counts(example_matrix.probs, 4):
            assert c.weight == pytest.approx(grouped[c.x], rel=1e-12)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_counts([0.25] * 4, 5, budget=10))


def test_multinomial_coefficient():
    assert multinomial_coefficient((5, 0, 0, 0)) == 1
    assert multinomial_coefficient((1, 1, 1, 2)) == math.factorial(5) // 2
    assert multinomial_coefficient((2, 2)) == 6


def test_iter_path_blocks_matches_product(monkeypatch):
    monkeypatch.setattr(path_engine, "_PATH_BLOCK", 10)
    blocks = list(iter_path_blocks(3, 4))
    stacked = np.concatenate(blocks, axis=0)
    expected = np.array(list(itertools.product(range(3), repeat=4)))
    assert np.array_equal(stacked, expected)


@pytest.mark.parametrize("block", [1, 4, 16, 100])
def test_iter_path_blocks_read_the_block_size_when_called(monkeypatch, block):
    monkeypatch.setattr(path_engine, "_PATH_BLOCK", block)
    for n in (1, 2, 3, 5):
        for draws in range(1, 6):
            blocks = list(iter_path_blocks(n, draws))
            expected = np.array(list(itertools.product(range(n), repeat=draws)))
            assert np.array_equal(np.concatenate(blocks), expected)
            lead, tail, per = path_engine.path_split(n, draws)
            assert len(blocks) == -(-(n**lead) // per)
            assert {len(b) for b in blocks[:-1]} <= {per * n**tail}
            assert max(len(b) for b in blocks) <= max(block, n)


class TestTwrSegment:
    def test_zero_portions(self, example_matrix):
        assert twr_segment(example_matrix, [0.0, 0.0], (1, 2, 3), 1, 3) == 1.0

    def test_two_step_product(self, example_matrix):
        got = twr_segment(example_matrix, [0.1, 0.1], (3, 4), 1, 2)
        assert got == pytest.approx(0.675, abs=1e-15)

    def test_single_step(self, example_matrix):
        got = twr_segment(example_matrix, [0.1, 0.1], (1, 2), 2, 2)
        assert got == pytest.approx(1.05, abs=1e-15)

    def test_empty_segment_is_one(self, example_matrix):
        assert twr_segment(example_matrix, [0.1, 0.1], (1, 2), 2, 1) == 1.0

    def test_zero_factor_allowed(self, example_matrix):
        assert twr_segment(example_matrix, [0.0, 0.5], (3,), 1, 1) == 0.0


class TestTerminalLogSeries:
    def test_zero_portions(self, example_matrix):
        assert uptrade_log(example_matrix, [0.0, 0.0], (1, 2)) == 0.0
        assert downtrade_log(example_matrix, [0.0, 0.0], (1, 2)) == 0.0

    def test_losing_path(self, example_matrix):
        d = downtrade_log(example_matrix, [0.1, 0.1], (3, 4))
        assert d == pytest.approx(math.log(0.675), rel=1e-12)
        assert uptrade_log(example_matrix, [0.1, 0.1], (3, 4)) == 0.0

    def test_winning_path(self, example_matrix):
        u = uptrade_log(example_matrix, [0.1, 0.1], (1, 1))
        assert u == pytest.approx(math.log(1.44), rel=1e-12)
        assert downtrade_log(example_matrix, [0.1, 0.1], (1, 1)) == 0.0

    def test_wipeout_gives_neg_inf(self, example_matrix):
        assert downtrade_log(example_matrix, [0.0, 0.5], (3, 1)) == -math.inf
        assert uptrade_log(example_matrix, [0.0, 0.5], (3, 1)) == 0.0

    def test_split_identity_pathwise(self, example_matrix):
        phi = [0.15, 0.05]
        for omega in oracles.all_paths(4, 4):
            z = oracles.log_twr(EXAMPLE_RETURNS, phi, omega)
            u = uptrade_log(example_matrix, phi, omega)
            d = downtrade_log(example_matrix, phi, omega)
            assert abs(u + d - z) <= 1e-12


class TestDrawdownLogSeries:
    def test_zero_portions(self, example_matrix):
        assert current_drawdown_log(example_matrix, [0.0, 0.0], (1, 2, 3)) == 0.0
        assert runup_log(example_matrix, [0.0, 0.0], (1, 2, 3)) == 0.0

    def test_single_draw_collapse(self, example_matrix):
        phi = [0.1, 0.1]
        for i in range(1, 5):
            assert current_drawdown_log(example_matrix, phi, (i,)) == downtrade_log(
                example_matrix, phi, (i,)
            )
            assert runup_log(example_matrix, phi, (i,)) == uptrade_log(
                example_matrix, phi, (i,)
            )

    def test_peak_then_losses(self, example_matrix):
        got = current_drawdown_log(example_matrix, [0.1, 0.1], (1, 3, 4))
        assert got == pytest.approx(math.log(0.9 * 0.75), rel=1e-12)

    def test_matches_running_max_oracle_on_all_paths(self, example_matrix):
        for phi in interior_points(example_matrix, seed=2, count=10):
            for omega in oracles.all_paths(4, 5):
                got = current_drawdown_log(example_matrix, phi, omega)
                want = oracles.current_drawdown(EXAMPLE_RETURNS, phi, omega)
                assert abs(got - want) <= 1e-12
                ur = runup_log(example_matrix, phi, omega)
                assert abs(ur - oracles.runup(EXAMPLE_RETURNS, phi, omega)) <= 1e-12

    def test_split_identity_and_domination(self, example_matrix):
        for phi in interior_points(example_matrix, seed=3, count=10):
            for omega in oracles.all_paths(4, 5):
                z = oracles.log_twr(EXAMPLE_RETURNS, phi, omega)
                u = uptrade_log(example_matrix, phi, omega)
                d = downtrade_log(example_matrix, phi, omega)
                dc = current_drawdown_log(example_matrix, phi, omega)
                ur = runup_log(example_matrix, phi, omega)
                assert abs(u + d - z) <= 1e-12
                assert abs(dc + ur - z) <= 1e-12
                assert dc <= d <= 0.0

    def test_wipeout(self, example_matrix):
        assert current_drawdown_log(example_matrix, [0.0, 0.5], (1, 3)) == -math.inf
        # prefix before the wipeout still counts toward the run-up
        assert runup_log(example_matrix, [0.0, 0.5], (1, 3)) == pytest.approx(
            math.log(1.5), rel=1e-12
        )


class TestToppingPoints:
    def test_all_loss_path(self, example_matrix):
        assert twr_topping_point(example_matrix, [0.1, 0.1], (4, 4, 4)) == 0

    def test_peak_at_first_step(self, example_matrix):
        assert twr_topping_point(example_matrix, [0.1, 0.1], (1, 3, 4)) == 1

    def test_strictly_increasing_equity(self, example_matrix):
        assert twr_topping_point(example_matrix, [0.1, 0.1], (1, 2, 1)) == 3

    def test_linear_all_losses(self):
        m = TradeMatrix([[1.0], [2.0]])
        assert linear_topping_point(m, [-1.0], (1, 2)) == 0

    def test_linear_first_step(self, example_matrix):
        assert linear_topping_point(example_matrix, [1.0, 0.0], (1, 2)) == 1

    def test_linear_matches_definition_oracle(self, example_matrix):
        for theta in (THETA_DIAG, np.array([0.6, -0.8]), np.array([-0.28, 0.96])):
            for omega in oracles.all_paths(4, 5):
                got = linear_topping_point(example_matrix, theta, omega)
                want = oracles.topping_point(
                    oracles.linear_prefix(EXAMPLE_RETURNS, theta, omega)
                )
                assert got == want

    def test_prefix_suffix_characterization(self, example_matrix):
        # the topping point is l iff every prefix-segment sum ending at l is
        # positive and every segment sum starting after l is nonpositive,
        # with segment sums taken as prefix differences
        theta = THETA_DIAG
        dots = example_matrix.returns @ theta
        for omega in oracles.all_paths(4, 4):
            prefix = np.concatenate(([0.0], np.cumsum(dots[np.array(omega) - 1])))
            got = linear_topping_point(example_matrix, theta, omega)
            for ell in range(0, 5):
                pre_ok = all(prefix[ell] - prefix[k] > 0.0 for k in range(ell))
                suf_ok = all(prefix[k] - prefix[ell] <= 0.0 for k in range(ell + 1, 5))
                assert (pre_ok and suf_ok) == (got == ell)

    def test_compounded_at_most_linear(self, example_matrix):
        for phi in interior_points(example_matrix, seed=4, count=10):
            theta = phi / np.linalg.norm(phi)
            for omega in oracles.all_paths(4, 5):
                lstar = twr_topping_point(example_matrix, phi, omega)
                lhat = linear_topping_point(example_matrix, theta, omega)
                assert lstar <= lhat

    def test_small_scale_collapse(self, example_matrix):
        theta = THETA_DIAG
        for omega in oracles.all_paths(4, 4):
            lhat = linear_topping_point(example_matrix, theta, omega)
            for k in range(3, 9):
                s = 10.0**-k
                assert twr_topping_point(example_matrix, s * theta, omega) == lhat


def test_count_reduction_terminal_value(example_matrix):
    # the terminal growth factor depends on the path only through its counts
    phi = [0.12, 0.07]
    by_counts: dict[tuple[int, ...], float] = {}
    for omega in oracles.all_paths(4, 5):
        key = tuple(omega.count(i) for i in range(1, 5))
        val = twr_segment(example_matrix, phi, omega, 1, 5)
        if key in by_counts:
            assert val == pytest.approx(by_counts[key], rel=1e-12)
        else:
            by_counts[key] = val


def test_log_hpr_rows_neg_inf_convention(example_matrix):
    # rows 3 and 4 both hit a zero holding period return at this boundary point
    rows = log_hpr_rows(example_matrix, [0.0, 0.5])
    assert rows[2] == -math.inf and rows[3] == -math.inf
    assert np.isfinite(rows[[0, 1]]).all()
