"""Risk measure, coefficient family, and approximation tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from conftest import EXAMPLE_PROBS, EXAMPLE_RETURNS, interior_points, unit_directions
from drawdown_risk import (
    DomainError,
    MeasureKind,
    TradeMatrix,
    d_cur_first_approx,
    d_cur_second_approx,
    d_first_approx,
    d_second_approx,
    drawdown_coefficients,
    evaluate_measure,
    expected_current_drawdown,
    expected_downtrade,
    expected_runup,
    expected_uptrade,
    hyperplane_directions,
    rho_cur,
    rho_cur_x,
    rho_down,
    rho_down_x,
    small_s_cur_verified,
    small_s_down_verified,
    span_diagnostic,
    u_expect,
    u_run_expect,
    updown_coefficients,
)

DIAG = np.array([1.0, 1.0]) / math.sqrt(2.0)


class TestRhoDown:
    def test_zero_allocation(self, example_matrix):
        assert rho_down(example_matrix, [0.0, 0.0], 5) == 0.0

    def test_single_draw_closed_form(self, example_matrix):
        # only the two losing rows contribute at (0.1, 0.1)
        want = -(0.125 * math.log(0.9) + 0.125 * math.log(0.75))
        assert want == pytest.approx(0.0491303235137009, abs=1e-15)
        assert rho_down(example_matrix, [0.1, 0.1], 1) == pytest.approx(want, rel=1e-13)

    def test_count_form_equals_path_enumeration(self, example_matrix):
        phi = (0.2, 0.2)
        brute = -oracles.expectation(EXAMPLE_RETURNS, EXAMPLE_PROBS, phi, 5, oracles.downtrade)
        assert rho_down(example_matrix, phi, 5) == pytest.approx(brute, rel=1e-12)

    def test_requires_interior(self, example_matrix):
        with pytest.raises(DomainError):
            rho_down(example_matrix, [0.0, 0.5], 3)
        with pytest.raises(DomainError):
            rho_down(example_matrix, [2.0, 1.0], 3)


class TestRhoDownX:
    def test_zero_allocation(self, example_matrix):
        assert rho_down_x(example_matrix, [0.0, 0.0], 5) == 0.0

    def test_single_draw_closed_form(self, example_matrix):
        assert rho_down_x(example_matrix, [0.1, 0.1], 1) == pytest.approx(0.04375, abs=1e-15)

    def test_positive_homogeneity(self, example_matrix):
        rng = np.random.default_rng(9)
        for _ in range(20):
            phi = rng.uniform(-1.0, 1.0, size=2)
            base = rho_down_x(example_matrix, phi, 4)
            assert rho_down_x(example_matrix, 2.0 * phi, 4) == pytest.approx(
                2.0 * base, rel=1e-12
            )

    def test_defined_outside_admissible_set(self, example_matrix):
        value = rho_down_x(example_matrix, [3.0, 3.0], 4)
        assert math.isfinite(value) and value > 0.0


class TestFirstApproximations:
    def test_zero_scale(self, example_matrix):
        assert d_first_approx(example_matrix, 0.0, DIAG, 3) == 0.0
        assert u_expect(example_matrix, 0.0, DIAG, 3) == 0.0
        assert d_cur_first_approx(example_matrix, 0.0, DIAG, 3) == 0.0
        assert u_run_expect(example_matrix, 0.0, DIAG, 3) == 0.0

    def test_small_scale_equalities(self, example_matrix):
        s = 1e-4
        phi = s * DIAG
        ed = expected_downtrade(example_matrix, phi, 3)
        assert d_first_approx(example_matrix, s, DIAG, 3) == pytest.approx(ed, abs=1e-15)
        eu = expected_uptrade(example_matrix, phi, 2)
        assert u_expect(example_matrix, s, DIAG, 2) == pytest.approx(eu, abs=1e-15)
        ec = expected_current_drawdown(example_matrix, phi, 3)
        assert d_cur_first_approx(example_matrix, s, DIAG, 3) == pytest.approx(ec, abs=1e-15)
        er = expected_runup(example_matrix, phi, 3)
        assert u_run_expect(example_matrix, s, DIAG, 3) == pytest.approx(er, abs=1e-15)

    def test_upper_bound_strict_at_large_scale(self, example_matrix):
        s = 0.35 * math.sqrt(2.0)
        ed = oracles.expectation(
            EXAMPLE_RETURNS, EXAMPLE_PROBS, (0.35, 0.35), 3, oracles.downtrade
        )
        d1 = d_first_approx(example_matrix, s, DIAG, 3)
        assert ed < d1 <= 0.0
        assert d1 - ed > 0.05  # frozen gap magnitude 0.0537
        ec = oracles.expectation(
            EXAMPLE_RETURNS, EXAMPLE_PROBS, (0.35, 0.35), 3, oracles.current_drawdown
        )
        c1 = d_cur_first_approx(example_matrix, s, DIAG, 3)
        assert ec < c1 <= 0.0

    def test_beyond_admissible_set_is_neg_inf(self, example_matrix):
        s = 0.45 * math.sqrt(2.0)
        assert d_first_approx(example_matrix, s, DIAG, 3) == -math.inf
        assert expected_downtrade(example_matrix, [0.45, 0.45], 3) == -math.inf
        assert d_cur_first_approx(example_matrix, s, DIAG, 3) == -math.inf
        assert expected_current_drawdown(example_matrix, [0.45, 0.45], 3) == -math.inf

    def test_formula_sum_identity_all_scales(self, example_matrix):
        # u + d telescopes to the expected terminal log wealth for any
        # admissible scale, not just small ones
        for s in (1e-4, 0.1, 0.3, 0.5):
            u = u_expect(example_matrix, s, DIAG, 4)
            d = d_first_approx(example_matrix, s, DIAG, 4)
            target = 4 * oracles.log_gamma(EXAMPLE_RETURNS, EXAMPLE_PROBS, s * DIAG)
            assert u + d == pytest.approx(target, abs=1e-12)
            ur = u_run_expect(example_matrix, s, DIAG, 4)
            dc = d_cur_first_approx(example_matrix, s, DIAG, 4)
            assert ur + dc == pytest.approx(target, abs=1e-12)

    def test_negative_scale_rejected(self, example_matrix):
        from drawdown_risk import ValidationError

        with pytest.raises(ValidationError):
            d_first_approx(example_matrix, -0.1, DIAG, 3)

    @pytest.mark.parametrize("s", [-0.1, math.nan, math.inf])
    @pytest.mark.parametrize("fn", [
        d_first_approx, u_expect, d_cur_first_approx, u_run_expect,
        small_s_down_verified, small_s_cur_verified,
    ])
    def test_scale_must_be_finite_and_nonnegative(self, example_matrix, fn, s):
        from drawdown_risk import ValidationError

        with pytest.raises(ValidationError, match="scale s"):
            fn(example_matrix, s, DIAG, 3)


class TestCoefficientTables:
    def test_updown_split_identity(self, example_matrix):
        for theta in unit_directions(2, seed=21, count=8):
            up, down = updown_coefficients(example_matrix, theta, 4)
            assert np.all(up.values >= 0.0) and np.all(down.values >= 0.0)
            np.testing.assert_allclose(
                up.values + down.values, example_matrix.probs * 4, atol=1e-9
            )

    def test_drawdown_tables_structure(self, example_matrix):
        lam, ups = drawdown_coefficients(example_matrix, DIAG, 4)
        assert lam.values.shape == (5, 4) and ups.values.shape == (5, 4)
        assert np.all(lam.values >= 0.0) and np.all(ups.values >= 0.0)
        np.testing.assert_array_equal(lam.values[-1], np.zeros(4))
        np.testing.assert_array_equal(ups.values[0], np.zeros(4))
        # every path position lands in exactly one of the two tables
        np.testing.assert_allclose(
            lam.totals() + ups.totals(), example_matrix.probs * 4, atol=1e-9
        )

    def test_drawdown_tables_match_direct_grouping(self, example_matrix):
        # brute-force the definition: group paths by the linear topping point
        theta = np.array([0.8, -0.6])
        draws = 3
        lam, ups = drawdown_coefficients(example_matrix, theta, draws)
        want_lam = np.zeros((draws + 1, 4))
        want_ups = np.zeros((draws + 1, 4))
        for omega in oracles.all_paths(4, draws):
            prob = oracles.path_prob(EXAMPLE_PROBS, omega)
            ell = oracles.topping_point(
                oracles.linear_prefix(EXAMPLE_RETURNS, theta, omega)
            )
            for pos, sym in enumerate(omega, start=1):
                if pos >= ell + 1:
                    want_lam[ell][sym - 1] += prob
                else:
                    want_ups[ell][sym - 1] += prob
        np.testing.assert_allclose(lam.values, want_lam, atol=1e-14)
        np.testing.assert_allclose(ups.values, want_ups, atol=1e-14)


class TestRhoCur:
    def test_zero_allocation(self, example_matrix):
        assert rho_cur(example_matrix, [0.0, 0.0], 5) == 0.0

    def test_single_draw_equals_terminal_measure(self, example_matrix):
        for phi in interior_points(example_matrix, seed=13, count=20):
            assert rho_cur(example_matrix, phi, 1) == pytest.approx(
                rho_down(example_matrix, phi, 1), abs=1e-12
            )

    def test_regression_baseline(self, example_matrix):
        # frozen from the running-maximum path oracle
        want = -oracles.expectation(
            EXAMPLE_RETURNS, EXAMPLE_PROBS, (0.2, 0.2), 5, oracles.current_drawdown
        )
        assert want == pytest.approx(0.3410935880440816, abs=1e-12)
        assert rho_cur(example_matrix, [0.2, 0.2], 5) == pytest.approx(want, rel=1e-10)

    def test_dominates_terminal_measure(self, example_matrix):
        for phi in interior_points(example_matrix, seed=17, count=25):
            assert rho_cur(example_matrix, phi, 5) >= rho_down(example_matrix, phi, 5) - 1e-12

    def test_requires_interior(self, example_matrix):
        with pytest.raises(DomainError):
            rho_cur(example_matrix, [0.0, 0.5], 3)


class TestRhoCurX:
    def test_zero_allocation(self, example_matrix):
        assert rho_cur_x(example_matrix, [0.0, 0.0], 5) == 0.0

    def test_single_draw_equals_terminal_linearization(self, example_matrix):
        assert rho_cur_x(example_matrix, [0.1, 0.1], 1) == pytest.approx(0.04375, abs=1e-15)

    def test_positive_homogeneity(self, example_matrix):
        rng = np.random.default_rng(23)
        for _ in range(20):
            phi = rng.uniform(-0.6, 0.6, size=2)
            base = rho_cur_x(example_matrix, phi, 4)
            assert rho_cur_x(example_matrix, 3.0 * phi, 4) == pytest.approx(
                3.0 * base, rel=1e-12
            )

    def test_dominates_terminal_linearization(self, example_matrix):
        for phi in interior_points(example_matrix, seed=29, count=25):
            assert rho_cur_x(example_matrix, phi, 5) >= rho_down_x(example_matrix, phi, 5) - 1e-12

    def test_second_approximations_are_negated_linearizations(self, example_matrix):
        s = 0.3
        assert d_second_approx(example_matrix, s, DIAG, 4) == pytest.approx(
            -rho_down_x(example_matrix, s * DIAG, 4), abs=1e-15
        )
        assert d_cur_second_approx(example_matrix, s, DIAG, 4) == pytest.approx(
            -rho_cur_x(example_matrix, s * DIAG, 4), abs=1e-15
        )


class TestRunupFormula:
    def test_all_loss_direction_vanishes(self):
        m = TradeMatrix([[1.0], [2.0]])
        assert u_run_expect(m, 0.2, [-1.0], 4) == 0.0
        lam, ups = drawdown_coefficients(m, [-1.0], 4)
        assert np.all(ups.values == 0.0)

    def test_small_scale_matches_path_expectation(self, example_matrix):
        for theta in unit_directions(2, seed=31, count=6):
            got = u_run_expect(example_matrix, 1e-4, theta, 3)
            want = expected_runup(example_matrix, 1e-4 * theta, 3)
            assert got == pytest.approx(want, abs=1e-12)


class TestSmallScaleChecks:
    def test_verified_at_small_scale(self, example_matrix):
        for theta in unit_directions(2, seed=37, count=16):
            assert small_s_down_verified(example_matrix, 1e-4, theta, 4)
            assert small_s_cur_verified(example_matrix, 1e-4, theta, 4)

    def test_not_verified_beyond_the_set(self, example_matrix):
        s = 0.45 * math.sqrt(2.0)
        assert not small_s_down_verified(example_matrix, s, DIAG, 3)
        assert not small_s_cur_verified(example_matrix, s, DIAG, 3)


class TestEvaluateMeasure:
    def test_kind_strings_are_closed_set(self):
        assert {k.value for k in MeasureKind} == {
            "down",
            "downX",
            "downFirstApprox",
            "cur",
            "curX",
            "curFirstApprox",
            "upExpect",
            "runupExpect",
        }

    def test_zero_allocation_all_kinds(self, example_matrix):
        for kind in MeasureKind:
            ev = evaluate_measure(example_matrix, kind, [0.0, 0.0], 4)
            assert ev.value == 0.0

    @pytest.mark.parametrize("axis", [0, 1])
    def test_tiny_allocation_is_not_zero(self, example_matrix, axis):
        # the squares of 1e-300 underflow, so the plain norm of phi is 0
        phi = 1e-300 * np.eye(2)[axis]
        for approx, linear in (("downFirstApprox", "downX"), ("curFirstApprox", "curX")):
            got = evaluate_measure(example_matrix, approx, phi, 3).value
            want = -evaluate_measure(example_matrix, linear, phi, 3).value
            assert got != 0.0
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_dispatch_matches_direct_calls(self, example_matrix):
        phi = np.array([0.15, 0.1])
        s = float(np.linalg.norm(phi))
        theta = phi / s
        pairs = {
            MeasureKind.DOWN: rho_down(example_matrix, phi, 4),
            MeasureKind.DOWN_X: rho_down_x(example_matrix, phi, 4),
            MeasureKind.CUR: rho_cur(example_matrix, phi, 4),
            MeasureKind.CUR_X: rho_cur_x(example_matrix, phi, 4),
            MeasureKind.DOWN_FIRST_APPROX: d_first_approx(example_matrix, s, theta, 4),
            MeasureKind.CUR_FIRST_APPROX: d_cur_first_approx(example_matrix, s, theta, 4),
            MeasureKind.UP_EXPECT: u_expect(example_matrix, s, theta, 4),
            MeasureKind.RUNUP_EXPECT: u_run_expect(example_matrix, s, theta, 4),
        }
        for kind, want in pairs.items():
            assert evaluate_measure(example_matrix, kind, phi, 4).value == pytest.approx(
                want, rel=1e-14
            )

    def test_small_s_flag(self, example_matrix):
        ev = evaluate_measure(
            example_matrix, "downFirstApprox", [1e-5, 1e-5], 4, check_small_s=True
        )
        assert ev.small_s_verified is True
        ev2 = evaluate_measure(
            example_matrix, "downFirstApprox", [0.39, 0.39], 4, check_small_s=True
        )
        assert ev2.small_s_verified is False


class TestDiscontinuityDiagnostics:
    def test_crossing_directions_found(self, example_matrix):
        crossings = hyperplane_directions(example_matrix, 5)
        assert crossings
        for theta, x in crossings:
            linear = sum(
                xi * float(np.dot(row, theta))
                for xi, row in zip(x, example_matrix.returns)
            )
            assert abs(linear) <= 1e-9
            assert sum(x) == 5

    def test_span_diagnostic_passes_reference_game(self, example_matrix):
        diag = span_diagnostic(example_matrix, 360)
        assert diag.passed and diag.checked == 360

    def test_span_diagnostic_fails_single_system_game(self):
        diag = span_diagnostic(TradeMatrix([[1.0, 0.5], [-1.0, -0.5]]), 8)
        assert not diag.passed
