"""Seeded verification suites for the identities and shape properties.

Each suite draws its own points from a seeded generator, checks one family
of properties (sum identities, orderings, convexity, homogeneity, ray
monotonicity, small-scale equalities, topping points, row span), and reports
pass/fail counts, formatting a failure note only when it is kept.  Quantities
are evaluated by two routes where the design provides them (count form against
path form, definition against running-maximum form), so the suites double as
an end-to-end cross-check.  A suite takes each of the four measures, and the
ordering suite each first approximation, at all its points from one
``risk_measures.evaluate_many`` call, and its path-form expectations at all
its points from one pass over the path blocks.  The topping suite checks all
its points and paths in one pass over the digit blocks of ``path_engine``,
with one exact linear topping call per point and block.  The seeded samplers
and the small-scale suite's coefficient forms and regime checks still run per
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import path_engine, risk_measures
from .errors import ValidationError
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

    def record(self, condition: bool, note: str = "", *args) -> None:
        """Count one check; a failure keeps ``note.format(*args)``, up to 8 notes."""
        if condition:
            self.passed += 1
        else:
            self.failed += 1
            if note and len(self.notes) < 8:
                self.notes.append(note.format(*args) if args else note)


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


def _count_values(matrix: TradeMatrix, fns, points, draws: int, budget: int | None) -> np.ndarray:
    """Values of each of ``fns``, some of ``_MEASURES``, at every row of ``points``: (F, G)."""
    kinds = [_KINDS[fn.__name__] for fn in fns]
    values = np.array([risk_measures.evaluate_many(matrix, kind, points, draws, budget)
                       for kind in kinds])
    assert not np.isinf(values).any(), "sentinel at a point that is not interior"
    return values


def suite_identities(
    matrix: TradeMatrix, draws: int, samples: int, rng: np.random.Generator,
    budget: int | None = None,
) -> SuiteResult:
    """Sum identities and count-form versus path-form agreement."""
    res = SuiteResult("identities")
    phis = sample_interior(matrix, rng, samples)
    target = np.array([draws * log_gamma_mean(matrix, phi) for phi in phis])
    # path forms first: a path budget error comes before a count budget error
    eu, ed, ec, er = risk_measures._path_expectations(matrix, phis, draws, budget, (
        path_engine.gain_from_prefix, path_engine.loss_from_prefix,
        path_engine.drawdown_from_prefix, path_engine.runup_from_prefix,
    ))
    (rd,) = _count_values(matrix, _MEASURES[:1], phis, draws, budget)
    tol = IDENTITY_RTOL * np.maximum(1.0, np.abs(target))
    checks = (np.abs(eu + ed - target) <= tol, np.abs(ec + er - target) <= tol,
              np.abs(rd + ed) <= IDENTITY_RTOL * np.maximum(1.0, np.abs(ed)))
    notes = ("terminal split at {}", "drawdown split at {}", "count form vs path form at {}")
    for phi, row in zip(phis, zip(*checks)):
        for ok, note in zip(row, notes):
            res.record(ok, note, phi)
    return res


def suite_ordering(
    matrix: TradeMatrix, draws: int, samples: int, rng: np.random.Generator,
    budget: int | None = None,
) -> SuiteResult:
    """Upper-bound chains and the orderings between the four measures."""
    res = SuiteResult("ordering")
    phis = sample_interior(matrix, rng, samples)
    ed, ec = risk_measures._path_expectations(matrix, phis, draws, budget, (
        path_engine.loss_from_prefix, path_engine.drawdown_from_prefix,
    ))
    d1, c1 = (risk_measures.evaluate_many(matrix, kind, phis, draws, budget)
              for kind in ("downFirstApprox", "curFirstApprox"))
    # the second approximations are -downX and -curX at s * theta, s = |phi|
    norms = map(np.linalg.norm, phis)
    rescaled = np.reshape([s * (phi / s) for phi, s in zip(phis, norms)], phis.shape)
    d2, c2 = -_count_values(matrix, _MEASURES[1::2], rescaled, draws, budget)
    rd, rdx, rc, rcx = _count_values(matrix, _MEASURES, phis, draws, budget)
    slack = ORDER_SLACK
    checks = (
        (ed <= d1 + slack) & (d1 <= d2 + slack) & (d2 <= slack),
        (ec <= c1 + slack) & (c1 <= c2 + slack) & (c2 <= slack),
        (rc >= rd - slack) & (rd >= -d1 - slack) & (-d1 >= rdx - slack) & (rcx >= rdx - slack)
        & (rc >= -c1 - slack) & (-c1 >= rcx - slack) & (rdx >= -slack),
    )
    notes = ("terminal chain at {}", "drawdown chain at {}", "measure ordering at {}")
    for phi, row in zip(phis, zip(*checks)):
        for ok, note in zip(row, notes):
            res.record(ok, note, phi)
    return res


_MEASURES = (
    risk_measures.rho_down,
    risk_measures.rho_down_x,
    risk_measures.rho_cur,
    risk_measures.rho_cur_x,
)
#: Count-form kind of each function in ``_MEASURES``, read by its name.
_KINDS = dict(zip((fn.__name__ for fn in _MEASURES), ("down", "downX", "cur", "curX")))


def suite_convexity(
    matrix: TradeMatrix, draws: int, samples: int, rng: np.random.Generator,
    budget: int | None = None,
) -> SuiteResult:
    """Midpoint convexity of all four measures on random interior segments."""
    res = SuiteResult("convexity")
    a = sample_interior(matrix, rng, samples)
    b = sample_interior(matrix, rng, samples)
    values = _count_values(matrix, _MEASURES, np.concatenate([0.5 * (a + b), a, b]), draws, budget)
    mid, va, vb = values.reshape(4, 3, -1).swapaxes(0, 1)
    for row in (mid <= 0.5 * (va + vb) + CONVEXITY_TOL).T:
        for fn, ok in zip(_MEASURES, row):
            res.record(ok, "{} midpoint", fn.__name__)
    return res


def suite_homogeneity(
    matrix: TradeMatrix, draws: int, samples: int, rng: np.random.Generator,
    budget: int | None = None,
) -> SuiteResult:
    """Positive homogeneity of the linearized measures."""
    res = SuiteResult("homogeneity")
    phis = sample_interior(matrix, rng, samples)
    fns, factors = _MEASURES[1::2], (0.5, 2.0, 10.0)
    stacked = np.concatenate([phis] + [t * phis for t in factors])
    values = _count_values(matrix, fns, stacked, draws, budget).reshape(2, 4, -1)
    scaled = np.array(factors)[:, None] * values[:, :1]
    tol = HOMOGENEITY_RTOL * np.maximum(1.0, np.abs(scaled))
    homogeneous = np.abs(values[:, 1:] - scaled) <= tol
    for checks in homogeneous.transpose(2, 0, 1):
        for fn, row in zip(fns, checks):
            for t, ok in zip(factors, row):
                res.record(ok, "{} at t={}", fn.__name__, t)
    return res


def suite_monotonicity(
    matrix: TradeMatrix, draws: int, samples: int, rng: np.random.Generator,
    budget: int | None = None,
) -> SuiteResult:
    """Strict growth of every measure along rays from the origin."""
    res = SuiteResult("monotonicity")
    region = AdmissibleSet(matrix)
    rays = min(64, samples) if samples else 64
    dirs = sample_directions(matrix, rng, rays)
    radii = np.array([region.max_radius(theta) for theta in dirs])
    radii[~np.isfinite(radii)] = 1.0
    scales = np.linspace(0.1, 0.9, 5) * radii[:, None]
    points = (scales[:, :, None] * dirs[:, None, :]).reshape(-1, matrix.n_systems)
    values = _count_values(matrix, _MEASURES, points, draws, budget).reshape(4, rays, 5)
    strict = np.all(values[..., 1:] > values[..., :-1] + MONOTONE_MARGIN, axis=2)
    for theta, row in zip(dirs, strict.T):
        for fn, ok in zip(_MEASURES, row):
            res.record(ok, "{} along {}", fn.__name__, theta)
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
    thetas = sample_directions(matrix, rng, dirs)
    regimes = []
    for theta in thetas:
        for s in SMALL_SCALES:
            ok_down = risk_measures.small_s_down_verified(matrix, s, theta, draws, budget)
            ok_cur = risk_measures.small_s_cur_verified(matrix, s, theta, draws, budget)
            if ok_down and ok_cur:
                break
        regimes.append((s, ok_down, ok_cur))
    ed, ec = risk_measures._path_expectations(
        matrix, [s * theta for theta, (s, _, _) in zip(thetas, regimes)], draws, budget,
        (path_engine.loss_from_prefix, path_engine.drawdown_from_prefix),
    )
    for theta, (s, ok_down, ok_cur), ed_j, ec_j in zip(thetas, regimes, ed, ec):
        res.record(ok_down, "terminal sign pattern along {}", theta)
        res.record(ok_cur, "topping pattern along {}", theta)
        d1 = risk_measures.d_first_approx(matrix, s, theta, draws, budget)
        res.record(abs(ed_j - d1) <= SMALL_S_TOL, "terminal equality along {}", theta)
        c1 = risk_measures.d_cur_first_approx(matrix, s, theta, draws, budget)
        res.record(abs(ec_j - c1) <= SMALL_S_TOL, "drawdown equality along {}", theta)
    return res


def suite_topping(
    matrix: TradeMatrix, draws: int, samples: int, rng: np.random.Generator,
    budget: int | None = None,
) -> SuiteResult:
    """Topping-point ordering, characterization, and pathwise identities.

    All points and paths are checked in one pass over the digit blocks, in
    chunks of points, with the exact linear topping points taken one point at
    a time.  The pathwise quantities come from the log1p prefix sums; their
    second routes, the terminal log wealth z and the running-maximum form of
    the current drawdown, come from the per-step logs of the compounded
    growth factors instead.
    """
    res = SuiteResult("topping")
    n = matrix.n_periods
    phis = sample_interior(matrix, rng, min(10, max(1, samples)))
    thetas = [phi / np.linalg.norm(phi) for phi in phis]
    logs = np.array([path_engine.log_hpr_rows(matrix, phi) for phi in phis])
    steps = np.array([
        [math.log(path_engine.twr_segment(matrix, phi, (i,), 1, 1)) for i in range(1, n + 1)]
        for phi in phis
    ])
    ok_order, ok_ident, ok_oracle = np.ones((3, len(phis)), dtype=bool)
    for digits in path_engine.iter_path_blocks(n, draws, budget):
        for g0, prefix in path_engine.prefix_chunks(logs, digits):
            chunk = slice(g0, g0 + len(prefix))
            flat = prefix.reshape(-1, draws)
            lstar = path_engine.topping_from_prefix(flat)
            for g, top in enumerate(lstar.reshape(len(prefix), -1), g0):
                lhat = path_engine.linear_topping_blocks(matrix.returns, digits, thetas[g])
                ok_order[g] &= bool(np.all(top <= lhat))
            u, d, dc, ur = (quantity(flat).reshape(len(prefix), -1) for quantity in (
                path_engine.gain_from_prefix, path_engine.loss_from_prefix,
                path_engine.drawdown_from_prefix, path_engine.runup_from_prefix,
            ))
            walk = np.cumsum(steps[chunk, digits], axis=2)
            z = walk[..., -1]
            ok_ident[chunk] &= np.all(
                (np.abs(u + d - z) <= 1e-12) & (np.abs(dc + ur - z) <= 1e-12)
                & (dc <= d + 1e-15) & (d <= 0.0), axis=1,
            )
            # running-maximum form of the current drawdown
            alt = z - np.maximum(0.0, walk.max(axis=2))
            ok_oracle[chunk] &= np.all(np.abs(dc - alt) <= 1e-12, axis=1)
    for phi, order, ident, oracle in zip(phis, ok_order, ok_ident, ok_oracle):
        res.record(order, "topping order at {}", phi)
        res.record(ident, "pathwise identities at {}", phi)
        res.record(oracle, "running-maximum form at {}", phi)
    return res


def suite_span(matrix: TradeMatrix, grid: int = 360) -> SuiteResult:
    """Row-span diagnostic over a direction grid (reported, coarse shape check)."""
    res = SuiteResult("span-diagnostic")
    diag = risk_measures.span_diagnostic(matrix, grid)
    res.record(diag.passed, "{} of {} directions fail", len(diag.failures), diag.checked)
    return res


def run_suites(
    matrix: TradeMatrix,
    draws: int = 5,
    samples: int = 50,
    seed: int = 42,
    budget: int | None = None,
) -> list[SuiteResult]:
    """Run every suite with one seeded generator; assumes the structural check passed."""
    if samples < 0:
        raise ValidationError("samples must be >= 0")
    rng = np.random.default_rng(seed)
    return [
        suite_identities(matrix, draws, samples, rng, budget),
        suite_ordering(matrix, draws, samples, rng, budget),
        suite_convexity(matrix, draws, samples, rng, budget),
        suite_homogeneity(matrix, draws, min(25, samples) or 1, rng, budget),
        suite_monotonicity(matrix, draws, samples, rng, budget),
        suite_small_s(matrix, draws, samples, rng, budget),
        suite_topping(matrix, draws, samples, rng, budget),
        suite_span(matrix),
    ]


def assumption_gate(matrix: TradeMatrix):
    """Structural check result used to gate the suites."""
    return check_no_risk_free(matrix)
