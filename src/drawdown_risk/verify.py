"""Seeded verification suites for the identities and shape properties.

Each suite draws its own points from a seeded generator, checks one family
of properties (sum identities, orderings, convexity, homogeneity, ray
monotonicity, small-scale equalities, topping points, row span), and reports
pass/fail counts.  The suites deliberately evaluate each quantity by two
routes where the design provides them (count form against path form,
definition against running-maximum form), so they double as an end-to-end
cross-check of the library.  The topping suite checks every path of a point
at once on the digit blocks of ``path_engine``; no suite loops over paths in
Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import path_engine, risk_measures
from .trade_core import AdmissibleSet, TradeMatrix, check_no_risk_free, log_gamma_mean

#: Tolerances used across the suites.
IDENTITY_RTOL = 1e-10
ORDER_SLACK = 1e-12
CONVEXITY_TOL = 1e-9
HOMOGENEITY_RTOL = 1e-12
MONOTONE_MARGIN = 1e-12
SMALL_S = 1e-4
#: Scales the small-scale suite tries along a direction, down to a floor.
SMALL_SCALES = (SMALL_S, 1e-5, 1e-6, 1e-7, 1e-8)
SMALL_S_TOL = 1e-12


@dataclass
class SuiteResult:
    """Outcome of one verification suite."""

    name: str
    passed: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        return self.failed == 0

    def record(self, condition: bool, note: str = "") -> None:
        if condition:
            self.passed += 1
        else:
            self.failed += 1
            if note and len(self.notes) < 8:
                self.notes.append(note)


def sample_interior(
    matrix: TradeMatrix,
    rng: np.random.Generator,
    count: int,
    radial: tuple[float, float] = (0.05, 0.9),
) -> np.ndarray:
    """Sample portion vectors strictly inside the admissible polyhedron.

    Directions are uniform on the sphere; the radius is a uniform fraction of
    the exit radius along the sampled direction (capped when the ray never
    exits).  Requires radial fractions inside (0, 1).
    """
    region = AdmissibleSet(matrix)
    lo, hi = radial
    out = np.empty((count, matrix.n_systems))
    for j in range(count):
        theta = _unit(rng.standard_normal(matrix.n_systems))
        smax = region.max_radius(theta)
        if not math.isfinite(smax):
            smax = 1.0
        out[j] = theta * smax * rng.uniform(lo, hi)
    return out


def sample_directions(
    matrix: TradeMatrix, rng: np.random.Generator, count: int
) -> np.ndarray:
    dirs = np.empty((count, matrix.n_systems))
    for j in range(count):
        dirs[j] = _unit(rng.standard_normal(matrix.n_systems))
    return dirs


def _unit(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    while norm < 1e-12:  # pragma: no cover - essentially impossible
        v = np.random.default_rng(0).standard_normal(v.size)
        norm = np.linalg.norm(v)
    return v / norm


def suite_identities(
    matrix: TradeMatrix, draws: int, samples: int, rng: np.random.Generator,
    budget: int | None = None,
) -> SuiteResult:
    """Sum identities and count-form versus path-form agreement."""
    res = SuiteResult("identities")
    for phi in sample_interior(matrix, rng, samples):
        target = draws * log_gamma_mean(matrix, phi)
        tol = IDENTITY_RTOL * max(1.0, abs(target))
        eu = risk_measures.expected_uptrade(matrix, phi, draws, budget)
        ed = risk_measures.expected_downtrade(matrix, phi, draws, budget)
        res.record(abs(eu + ed - target) <= tol, f"terminal split at {phi}")
        ec = risk_measures.expected_current_drawdown(matrix, phi, draws, budget)
        er = risk_measures.expected_runup(matrix, phi, draws, budget)
        res.record(abs(ec + er - target) <= tol, f"drawdown split at {phi}")
        count_form = risk_measures.rho_down(matrix, phi, draws, budget)
        res.record(
            abs(count_form + ed) <= IDENTITY_RTOL * max(1.0, abs(ed)),
            f"count form vs path form at {phi}",
        )
    return res


def suite_ordering(
    matrix: TradeMatrix, draws: int, samples: int, rng: np.random.Generator,
    budget: int | None = None,
) -> SuiteResult:
    """Upper-bound chains and the orderings between the four measures."""
    res = SuiteResult("ordering")
    for phi in sample_interior(matrix, rng, samples):
        s = float(np.linalg.norm(phi))
        theta = phi / s
        ed = risk_measures.expected_downtrade(matrix, phi, draws, budget)
        d1 = risk_measures.d_first_approx(matrix, s, theta, draws, budget)
        d2 = risk_measures.d_second_approx(matrix, s, theta, draws, budget)
        res.record(
            ed <= d1 + ORDER_SLACK and d1 <= d2 + ORDER_SLACK and d2 <= ORDER_SLACK,
            f"terminal chain at {phi}",
        )
        ec = risk_measures.expected_current_drawdown(matrix, phi, draws, budget)
        c1 = risk_measures.d_cur_first_approx(matrix, s, theta, draws, budget)
        c2 = risk_measures.d_cur_second_approx(matrix, s, theta, draws, budget)
        res.record(
            ec <= c1 + ORDER_SLACK and c1 <= c2 + ORDER_SLACK and c2 <= ORDER_SLACK,
            f"drawdown chain at {phi}",
        )
        rd = risk_measures.rho_down(matrix, phi, draws, budget)
        rc = risk_measures.rho_cur(matrix, phi, draws, budget)
        rdx = risk_measures.rho_down_x(matrix, phi, draws, budget)
        rcx = risk_measures.rho_cur_x(matrix, phi, draws, budget)
        chain = (
            rc >= rd - ORDER_SLACK
            and rd >= -d1 - ORDER_SLACK
            and -d1 >= rdx - ORDER_SLACK
            and rcx >= rdx - ORDER_SLACK
            and rc >= -c1 - ORDER_SLACK
            and -c1 >= rcx - ORDER_SLACK
            and rdx >= -ORDER_SLACK
        )
        res.record(chain, f"measure ordering at {phi}")
    return res


_MEASURES = (
    risk_measures.rho_down,
    risk_measures.rho_down_x,
    risk_measures.rho_cur,
    risk_measures.rho_cur_x,
)


def suite_convexity(
    matrix: TradeMatrix, draws: int, samples: int, rng: np.random.Generator,
    budget: int | None = None,
) -> SuiteResult:
    """Midpoint convexity of all four measures on random interior segments."""
    res = SuiteResult("convexity")
    a = sample_interior(matrix, rng, samples)
    b = sample_interior(matrix, rng, samples)
    for pa, pb in zip(a, b):
        mid = 0.5 * (pa + pb)
        for fn in _MEASURES:
            lhs = fn(matrix, mid, draws, budget)
            rhs = 0.5 * (fn(matrix, pa, draws, budget) + fn(matrix, pb, draws, budget))
            res.record(lhs <= rhs + CONVEXITY_TOL, f"{fn.__name__} midpoint")
    return res


def suite_homogeneity(
    matrix: TradeMatrix, draws: int, samples: int, rng: np.random.Generator,
    budget: int | None = None,
) -> SuiteResult:
    """Positive homogeneity of the linearized measures."""
    res = SuiteResult("homogeneity")
    for phi in sample_interior(matrix, rng, samples):
        for fn in (risk_measures.rho_down_x, risk_measures.rho_cur_x):
            base = fn(matrix, phi, draws, budget)
            for t in (0.5, 2.0, 10.0):
                scaled = fn(matrix, t * phi, draws, budget)
                res.record(
                    abs(scaled - t * base) <= HOMOGENEITY_RTOL * max(1.0, abs(t * base)),
                    f"{fn.__name__} at t={t}",
                )
    return res


def suite_monotonicity(
    matrix: TradeMatrix, draws: int, samples: int, rng: np.random.Generator,
    budget: int | None = None,
) -> SuiteResult:
    """Strict growth of every measure along rays from the origin."""
    res = SuiteResult("monotonicity")
    region = AdmissibleSet(matrix)
    rays = min(64, samples) if samples else 64
    for theta in sample_directions(matrix, rng, rays):
        smax = region.max_radius(theta)
        if not math.isfinite(smax):
            smax = 1.0
        scales = np.linspace(0.1, 0.9, 5) * smax
        for fn in _MEASURES:
            values = [fn(matrix, s * theta, draws, budget) for s in scales]
            strict = all(
                v2 > v1 + MONOTONE_MARGIN for v1, v2 in zip(values, values[1:])
            )
            res.record(strict, f"{fn.__name__} along {theta}")
    return res


def suite_small_s(
    matrix: TradeMatrix, draws: int, samples: int, rng: np.random.Generator,
    budget: int | None = None,
) -> SuiteResult:
    """Sign-pattern equivalence and exact equalities at a small scale.

    Per direction the scale is the first of SMALL_SCALES where both regime
    checks hold: near a hyperplane direction the compounded signs follow the
    linear ones only at smaller scales.
    """
    res = SuiteResult("small-s")
    dirs = min(64, samples) if samples else 64
    for theta in sample_directions(matrix, rng, dirs):
        for s in SMALL_SCALES:
            ok_down = risk_measures.small_s_down_verified(matrix, s, theta, draws, budget)
            ok_cur = risk_measures.small_s_cur_verified(matrix, s, theta, draws, budget)
            if ok_down and ok_cur:
                break
        res.record(ok_down, f"terminal sign pattern along {theta}")
        res.record(ok_cur, f"topping pattern along {theta}")
        phi = s * theta
        ed = risk_measures.expected_downtrade(matrix, phi, draws, budget)
        d1 = risk_measures.d_first_approx(matrix, s, theta, draws, budget)
        res.record(abs(ed - d1) <= SMALL_S_TOL, f"terminal equality along {theta}")
        ec = risk_measures.expected_current_drawdown(matrix, phi, draws, budget)
        c1 = risk_measures.d_cur_first_approx(matrix, s, theta, draws, budget)
        res.record(abs(ec - c1) <= SMALL_S_TOL, f"drawdown equality along {theta}")
    return res


def suite_topping(
    matrix: TradeMatrix, draws: int, samples: int, rng: np.random.Generator,
    budget: int | None = None,
) -> SuiteResult:
    """Topping-point ordering, characterization, and pathwise identities.

    Every path is checked at once, on digit blocks.  The pathwise quantities
    come from the log1p prefix sums; their second routes, the terminal log
    wealth z and the running-maximum form of the current drawdown, come from
    the per-step logs of the compounded growth factors instead.
    """
    res = SuiteResult("topping")
    points = min(10, max(1, samples))
    n = matrix.n_periods
    for phi in sample_interior(matrix, rng, points):
        theta = phi / np.linalg.norm(phi)
        logs = path_engine.log_hpr_rows(matrix, phi)
        steps = np.array(
            [math.log(path_engine.twr_segment(matrix, phi, (i,), 1, 1)) for i in range(1, n + 1)]
        )
        ok_order = ok_ident = ok_oracle = True
        for digits in path_engine.iter_path_blocks(n, draws, budget):
            prefix = np.cumsum(logs[digits], axis=1)
            lstar = path_engine.topping_from_prefix(prefix, path_engine.TOPPING_TIE_TOL)
            lhat = path_engine.linear_topping_blocks(matrix.returns, digits, theta)
            ok_order &= bool(np.all(lstar <= lhat))
            u = path_engine.gain_from_prefix(prefix)
            d = path_engine.loss_from_prefix(prefix)
            dc = path_engine.drawdown_from_prefix(prefix)
            ur = path_engine.runup_from_prefix(prefix)
            walk = np.cumsum(steps[digits], axis=1)
            z = walk[:, -1]
            ok_ident &= bool(np.all(
                (np.abs(u + d - z) <= 1e-12) & (np.abs(dc + ur - z) <= 1e-12)
                & (dc <= d + 1e-15) & (d <= 0.0)
            ))
            # running-maximum form of the current drawdown
            alt = z - np.maximum(0.0, walk.max(axis=1))
            ok_oracle &= bool(np.all(np.abs(dc - alt) <= 1e-12))
        res.record(ok_order, f"topping order at {phi}")
        res.record(ok_ident, f"pathwise identities at {phi}")
        res.record(ok_oracle, f"running-maximum form at {phi}")
    return res


def suite_span(matrix: TradeMatrix, grid: int = 360) -> SuiteResult:
    """Row-span diagnostic over a direction grid (reported, coarse shape check)."""
    res = SuiteResult("span-diagnostic")
    diag = risk_measures.span_diagnostic(matrix, grid)
    res.record(diag.passed, f"{len(diag.failures)} of {diag.checked} directions fail")
    return res


def run_suites(
    matrix: TradeMatrix,
    draws: int = 5,
    samples: int = 50,
    seed: int = 42,
    budget: int | None = None,
) -> list[SuiteResult]:
    """Run every suite with one seeded generator; assumes the structural check passed."""
    rng = np.random.default_rng(seed)
    results = [
        suite_identities(matrix, draws, samples, rng, budget),
        suite_ordering(matrix, draws, samples, rng, budget),
        suite_convexity(matrix, draws, samples, rng, budget),
        suite_homogeneity(matrix, draws, min(25, samples) or 1, rng, budget),
        suite_monotonicity(matrix, draws, samples, rng, budget),
        suite_small_s(matrix, draws, samples, rng, budget),
        suite_topping(matrix, draws, samples, rng, budget),
        suite_span(matrix),
    ]
    return results


def assumption_gate(matrix: TradeMatrix):
    """Structural check result used to gate the suites."""
    return check_no_risk_free(matrix)
