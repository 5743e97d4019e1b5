"""Drawdown-related convex risk measures of the fractional trading game.

Four measures are exposed, all nonnegative and vanishing at the zero
allocation:

* ``rho_down``   - negative expected terminal log loss (losing outcomes only).
* ``rho_cur``    - negative expected current-drawdown log series.
* ``rho_down_x`` / ``rho_cur_x`` - their positively homogeneous
  linearizations, defined on all of R^M.

This module holds the count stack.  ``_count_plan`` is the one producer of
count vectors: colex count vectors of 1..K draws, grown level by level, with
probabilities from the forward recurrence w_k(x) = sum_i p_i w_{k-1}(x - e_i),
never from multinomial coefficients.  Every consumer reads it after one
budget check of C(K+N, N) - 1 count states, the states the recurrence visits.

The four measures are evaluated for many allocations at once by
``evaluate_many``.  ``rho_cur`` uses Spitzer's identity for i.i.d. walks
(Spitzer 1956; Feller II, XII.7), rho_cur(K) = sum_{k<=K} rho_down(k) / k,
and likewise for the linearizations.  Printed values, those of the terminal
coefficient forms included, can differ from version 0.1.0 in the last digits.

Alongside them live the coefficient families behind the small-scale closed
forms, the path-enumeration expectations used as the second route in
verification, and diagnostics for the known discontinuity of the first
approximation.  The terminal families split count vectors, and the drawdown
families group paths, by the exact sign rule of ``path_engine``.  N^K paths
are enumerated only for the drawdown families (``curFirstApprox``,
``runupExpect``), ``small_s_cur_verified`` and the path expectations, which
weight the pathwise quantities of ``path_engine`` over path blocks.  The
``expected_*`` routes are one-point views of ``_path_expectations``, one
block pass for many points and quantities.  ``evaluate_measure`` with
``check_small_s`` enumerates the paths once for a drawdown family's value and
its regime flag together.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError, ValidationError
from .path_engine import (
    TOPPING_TIE_TOL,
    _BLOCK,
    _check_budget,
    drawdown_from_prefix,
    gain_from_prefix,
    iter_path_blocks,
    linear_prefix_blocks,  # noqa: F401  (wrapped by the benchmark tracer)
    linear_signs,
    linear_topping_blocks,
    log_hpr_rows,
    loss_from_prefix,
    prefix_chunks,
    runup_from_prefix,
    topping_from_prefix,
)
from .trade_core import (
    BOUNDARY_TOL,
    RANK_RTOL,
    TradeMatrix,
    as_portions,
    require_interior,
)


class MeasureKind(enum.Enum):
    """Selectable risk measures and expectation formulas."""

    DOWN = "down"
    DOWN_X = "downX"
    DOWN_FIRST_APPROX = "downFirstApprox"
    CUR = "cur"
    CUR_X = "curX"
    CUR_FIRST_APPROX = "curFirstApprox"
    UP_EXPECT = "upExpect"
    RUNUP_EXPECT = "runupExpect"


#: Kinds whose values are nonnegative (inf sentinel on inadmissible points):
#: all but the two first approximations.
NONNEGATIVE_KINDS = frozenset(MeasureKind) - {
    MeasureKind.DOWN_FIRST_APPROX, MeasureKind.CUR_FIRST_APPROX
}

#: Kinds evaluated by the batched count-form kernel, mapped to whether they
#: are Spitzer sums over draws 1..K (else a sum over the K-draw level only).
_COUNT_KINDS = {
    MeasureKind.DOWN: False,
    MeasureKind.DOWN_X: False,
    MeasureKind.CUR: True,
    MeasureKind.CUR_X: True,
}

#: Most float temporaries the count-form kernel holds at once.
_CHUNK = 1 << 15


@dataclass(frozen=True)
class CoefficientTable:
    """Coefficients of one log-term family at a fixed direction.

    ``values`` has shape (N,) for the terminal families (kinds "U" and "D")
    and shape (K+1, N) for the drawdown families ("Lambda", indexed by the
    topping point, with the last row identically zero, and "Upsilon", with
    the first row identically zero).
    """

    kind: str
    values: np.ndarray
    theta: np.ndarray
    draws: int

    def totals(self) -> np.ndarray:
        """Per-row coefficient sums (collapses the topping-point axis)."""
        return self.values if self.values.ndim == 1 else self.values.sum(axis=0)


@dataclass(frozen=True)
class MeasureEvaluation:
    """Structured result of a measure evaluation."""

    kind: MeasureKind
    value: float
    small_s_verified: bool | None = None


@dataclass(frozen=True)
class CountVector:
    """Occurrence counts of each row over a path, with their probability."""

    x: tuple[int, ...]
    weight: float


@functools.lru_cache(maxsize=32)
def _composition_table(n: int, draws: int) -> np.ndarray:
    """C(r + j, j) for r <= draws and j < n: count vectors of total r over j + 1 rows."""
    table = np.array(
        [[math.comb(r + j, j) for j in range(n)] for r in range(draws + 1)],
        dtype=np.int64,
    )
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=8)
def _cached_digits(n: int, draws: int) -> np.ndarray:
    digits = next(iter_path_blocks(n, draws))
    digits.setflags(write=False)
    return digits


def _path_digit_blocks(n: int, draws: int, budget: int | None):
    """``iter_path_blocks``, with a single block read from the cache."""
    blocks = iter_path_blocks(n, draws, budget)
    return (_cached_digits(n, draws),) if n**draws <= _BLOCK else blocks


def _colex_rank(comps: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """Colex position of each count vector among those with the same total.

    ``binom[r, j]`` is C(r + j, j), the number of count vectors of total r
    over j + 1 rows; the rank sums, per row j >= 1, the vectors that agree
    above row j and have a smaller entry there.
    """
    prefix = np.cumsum(comps, axis=1, dtype=comps.dtype)
    rank = np.zeros(comps.shape[0], dtype=np.int64)
    for j in range(1, comps.shape[1]):
        rank += binom[prefix[:, j], j]
        rank -= binom[prefix[:, j - 1], j]
    return rank


@functools.lru_cache(maxsize=16)
def _count_plan(probs: tuple[float, ...], draws: int, spitzer: bool):
    """Count vectors with their probabilities: (comps, weights, ends).

    Level k holds the count vectors of k draws in colex order, with their
    probabilities from the forward recurrence w_k(x) = sum_i p_i w_{k-1}(x - e_i),
    so no weight overflows at any K.  A terminal plan holds level ``draws``
    only.  A Spitzer plan holds levels 1..draws one after the other, level k
    weighted by w_k / k.  ``ends[k]`` indexes the last vector of the k-th level
    held.  Level k is grown from level k - 1 by adding e_i to every vector.
    """
    p = np.array(probs)
    n = p.size
    binom = _composition_table(n, draws)
    unit = np.eye(n, dtype=np.min_scalar_type(draws))
    comps, weights = np.zeros((1, n), dtype=unit.dtype), np.ones(1)
    levels = []
    for k in range(1, draws + 1):
        size = math.comb(k + n - 1, n - 1)
        grown_comps = np.empty((size, n), dtype=unit.dtype)
        grown_weights = np.zeros(size)
        for i in range(n):
            grown = comps + unit[i]
            ranks = _colex_rank(grown, binom)
            grown_comps[ranks] = grown
            grown_weights += np.bincount(ranks, weights=weights * p[i], minlength=size)
        comps, weights = grown_comps, grown_weights
        if spitzer:
            levels.append((comps, weights / k))
    if not spitzer:
        levels = [(comps, weights)]
    plan = (
        np.concatenate([c for c, _ in levels]),
        np.concatenate([w for _, w in levels]),
        np.cumsum([len(c) for c, _ in levels]) - 1,
    )
    for arr in plan:
        arr.setflags(write=False)
    return plan


def _count_levels(probs, draws: int, budget: int | None, spitzer: bool = False):
    """``_count_plan`` of a game after the one count budget rule.

    Every plan visits the count vectors of 1..draws draws, C(K+N, N) - 1
    count states, whichever levels it keeps.
    """
    if draws < 1:
        raise ValidationError("draws must be >= 1")
    n = len(probs)
    _check_budget(math.comb(draws + n, n) - 1, budget, "count")
    return _count_plan(tuple(np.asarray(probs, dtype=float).tolist()), draws, spitzer)


def enumerate_counts(probs, draws: int, budget: int | None = None) -> Iterator[CountVector]:
    """Yield every count vector summing to ``draws`` in colexicographic order."""
    comps, weights, _ = _count_levels(probs, draws, budget)
    for x, weight in zip(comps.tolist(), weights.tolist()):
        yield CountVector(tuple(x), weight)


def _running_sums(
    comps: np.ndarray, weights: np.ndarray, ends: np.ndarray, steps: np.ndarray
) -> np.ndarray:
    """Running sums of w(x) * min(0, x . steps) over x, read at ``ends``: (B, L).

    ``steps`` is (N, B), one column per point.  Plain elementwise arithmetic
    in a fixed order and a strictly sequential sum over x, carried across
    chunks of count vectors, so a point's values depend only on its own steps,
    never on B or on where a chunk ends.
    """
    rows = max(1, _CHUNK // max(steps.shape[1], comps.shape[1]))
    out = np.empty((len(ends), steps.shape[1]))
    read = 0
    for c0 in range(0, len(comps), rows):
        x = comps[c0 : c0 + rows].astype(float)
        lin = x[:, :1] * steps[0]
        for i in range(1, x.shape[1]):
            lin += x[:, i : i + 1] * steps[i]
        np.minimum(lin, 0.0, out=lin)
        lin *= weights[c0 : c0 + rows, None]
        if c0:
            lin[0] += lin_last
        np.cumsum(lin, axis=0, out=lin)
        lin_last = lin[-1]
        stop = np.searchsorted(ends, c0 + len(x))
        out[read:stop] = lin[ends[read:stop] - c0]
        read = stop
    return out.T


def _count_form(
    matrix: TradeMatrix, kind: MeasureKind, phis, draws: int, budget: int | None
) -> np.ndarray:
    """Count-form values at each row of ``phis`` (G, M), as a (G, L) array.

    Terminal kinds give L = 1, the value at ``draws``.  Spitzer kinds give
    L = draws, column k - 1 holding the value at k draws.  Log kinds are
    +inf at points whose smallest holding period return is <= BOUNDARY_TOL.
    Points go through in blocks, so no temporary exceeds ``_CHUNK`` values.
    """
    phis = np.asarray(phis, dtype=float)
    if phis.ndim != 2 or phis.shape[1] != matrix.n_systems:
        raise ValidationError(
            f"portion vectors must have shape (G, {matrix.n_systems}), got {phis.shape}"
        )
    comps, weights, ends = _count_levels(matrix.probs, draws, budget, _COUNT_KINDS[kind])
    log_kind = kind in (MeasureKind.DOWN, MeasureKind.CUR)
    block = max(1, _CHUNK // len(comps))
    sums = np.empty((len(phis), len(ends)))
    outside = np.zeros(len(phis), dtype=bool)
    for g0 in range(0, len(phis), block):
        part = phis[g0 : g0 + block]
        steps = matrix.returns[:, :1] * part[:, 0]
        for m in range(1, matrix.n_systems):
            steps += matrix.returns[:, m : m + 1] * part[:, m]
        if log_kind:
            beyond = (1.0 + steps).min(axis=0) <= BOUNDARY_TOL
            outside[g0 : g0 + block] = beyond
            steps = np.log1p(np.where(beyond, 0.0, steps))
        sums[g0 : g0 + block] = _running_sums(comps, weights, ends, steps)
    # + 0.0 normalizes the negative zero produced by negating an exact zero
    values = -sums + 0.0
    values[outside] = math.inf
    return values


def _unit_direction(matrix: TradeMatrix, theta, s: float = 0.0) -> np.ndarray:
    if s < 0.0:
        raise ValidationError("scale s must be >= 0")
    arr = as_portions(matrix, theta)
    if not np.all(np.isfinite(arr)) or not arr.any():
        raise ValidationError("direction must be a nonzero finite vector")
    return arr


# ---------------------------------------------------------------------------
# Coefficient families


def updown_coefficients(
    matrix: TradeMatrix, theta, draws: int, budget: int | None = None
) -> tuple[CoefficientTable, CoefficientTable]:
    """Terminal win/loss coefficient families at a direction.

    Count vectors are split by the exact sign of the linearized terminal
    outcome sum(x_i * <t_i, theta>); the boundary (== 0) goes to the loss
    side.  The sharp split is deliberate: it is the documented source of the
    first approximation's discontinuity.
    """
    theta = _unit_direction(matrix, theta)
    comps, weights, _ = _count_levels(matrix.probs, draws, budget)
    down = linear_signs(matrix.returns, theta, comps.T) <= 0
    weighted = weights[:, None] * comps
    return (
        CoefficientTable("U", weighted[~down].sum(axis=0), theta, draws),
        CoefficientTable("D", weighted[down].sum(axis=0), theta, draws),
    )


def drawdown_coefficients(
    matrix: TradeMatrix, theta, draws: int, budget: int | None = None
) -> tuple[CoefficientTable, CoefficientTable]:
    """Drawdown/run-up coefficient families grouped by the linear topping point.

    Row l of the first table counts occurrences of each symbol strictly after
    step l on paths whose linearized equity tops first at l; row l of the
    second table counts occurrences up to and including step l.
    """
    theta = _unit_direction(matrix, theta)
    lam, ups, _ = _topping_pass(matrix, theta, draws, budget)
    return (
        CoefficientTable("Lambda", lam, theta, draws),
        CoefficientTable("Upsilon", ups, theta, draws),
    )


def _topping_pass(matrix: TradeMatrix, theta, draws: int, budget: int | None, rows=None):
    """Lambda and Upsilon tables from one pass over the path blocks, and a flag.

    Each path weight is added once per step, into the row of its linear
    topping point: Lambda for the steps after it, Upsilon for the rest.  Given
    the per-row log holding period returns ``rows``, the flag says whether the
    compounded topping points agree with the linear ones on every path; else
    it is None.
    """
    n = matrix.n_periods
    lam, ups = np.zeros((2, draws + 1, n))
    flat_lam, flat_ups = lam.reshape(-1), ups.reshape(-1)
    agree = None if rows is None else True
    for digits in _path_digit_blocks(n, draws, budget):
        w = np.prod(matrix.probs[digits], axis=1)
        top = linear_topping_blocks(matrix.returns, digits, theta)
        for pos in range(draws):
            key = top * n + digits[:, pos]
            after = top <= pos
            np.add.at(flat_lam, key[after], w[after])
            after = ~after
            np.add.at(flat_ups, key[after], w[after])
        if agree:
            log_top = topping_from_prefix(np.cumsum(rows[digits], axis=1), TOPPING_TIE_TOL)
            agree = bool(np.all(log_top == top))
    return lam, ups, agree


# ---------------------------------------------------------------------------
# Exact measures


def rho_down(matrix: TradeMatrix, phi, draws: int, budget: int | None = None) -> float:
    """Negative expected terminal log loss, by exact count-vector summation.

    Requires an interior portion vector; the value is nonnegative and zero
    exactly at the zero allocation.
    """
    arr = require_interior(matrix, phi)
    return float(_count_form(matrix, MeasureKind.DOWN, arr[None], draws, budget)[0, -1])


def rho_cur(matrix: TradeMatrix, phi, draws: int, budget: int | None = None) -> float:
    """Negative expected current-drawdown log series, as a Spitzer sum of ``rho_down``."""
    return float(rho_cur_series(matrix, phi, draws, budget)[-1])


def rho_cur_series(
    matrix: TradeMatrix, phi, draws: int, budget: int | None = None
) -> np.ndarray:
    """``rho_cur`` at 1..draws draws from one pass; entry K-1 equals ``rho_cur(K)``."""
    arr = require_interior(matrix, phi)
    return _count_form(matrix, MeasureKind.CUR, arr[None], draws, budget)[0]


def rho_down_x(matrix: TradeMatrix, phi, draws: int, budget: int | None = None) -> float:
    """Positively homogeneous linearization of ``rho_down``; defined on all of R^M."""
    arr = as_portions(matrix, phi)
    return float(_count_form(matrix, MeasureKind.DOWN_X, arr[None], draws, budget)[0, -1])


def rho_cur_x(matrix: TradeMatrix, phi, draws: int, budget: int | None = None) -> float:
    """Positively homogeneous linearization of ``rho_cur``; defined on all of R^M."""
    arr = as_portions(matrix, phi)
    return float(_count_form(matrix, MeasureKind.CUR_X, arr[None], draws, budget)[0, -1])


# ---------------------------------------------------------------------------
# Coefficient-form approximations (exact in the small-scale regime)


def _coefficient_form(matrix, s, theta, draws, budget, *, drawdown, loss) -> float:
    """``_log_form`` of the D, U, Lambda or Upsilon totals at a direction."""
    theta = _unit_direction(matrix, theta, s)
    if drawdown:
        lose, gain = drawdown_coefficients(matrix, theta, draws, budget)
    else:
        gain, lose = updown_coefficients(matrix, theta, draws, budget)
    return _log_form(matrix, s, theta, (lose if loss else gain).totals(), loss)


def _log_form(matrix, s, theta, totals, loss) -> float:
    """Sum of c_i * log(1 + s * <t_i, theta>) over the nonzero totals c_i.

    Where a log term is undefined the loss side (D, Lambda) is -inf and the
    gain side raises ``DomainError``.
    """
    total = 0.0
    for c, d in zip(totals, s * matrix.dots(theta)):
        if c == 0.0:
            continue
        if d <= -1.0:
            if loss:
                return -math.inf
            raise DomainError("log-term argument is nonpositive; point is not admissible")
        total += c * math.log1p(d)
    return float(total)


def _checked_drawdown_form(matrix, s, theta, draws, budget, *, loss) -> tuple[float, bool]:
    """``d_cur_first_approx`` or ``u_run_expect`` with ``small_s_cur_verified``, in one pass."""
    theta = _unit_direction(matrix, theta, s)
    rows = log_hpr_rows(matrix, s * theta)
    admissible = not np.any(np.isneginf(rows))
    lam, ups, agree = _topping_pass(matrix, theta, draws, budget, rows if admissible else None)
    value = _log_form(matrix, s, theta, (lam if loss else ups).sum(axis=0), loss)
    return value, admissible and agree


def d_first_approx(
    matrix: TradeMatrix, s: float, theta, draws: int, budget: int | None = None
) -> float:
    """First approximation of the expected terminal log loss at scale s.

    Always an upper bound of the path expectation, nonpositive, and equal to
    it when the small-scale sign patterns hold.  Returns -inf when a needed
    log term is undefined (allocation beyond the admissible set).
    """
    return _coefficient_form(matrix, s, theta, draws, budget, drawdown=False, loss=True)


def u_expect(
    matrix: TradeMatrix, s: float, theta, draws: int, budget: int | None = None
) -> float:
    """Coefficient form of the expected terminal log gain at scale s."""
    return _coefficient_form(matrix, s, theta, draws, budget, drawdown=False, loss=False)


def d_second_approx(
    matrix: TradeMatrix, s: float, theta, draws: int, budget: int | None = None
) -> float:
    """Linearized (second) approximation of the expected terminal log loss."""
    theta = _unit_direction(matrix, theta, s)
    return -rho_down_x(matrix, s * theta, draws, budget)


def d_cur_first_approx(
    matrix: TradeMatrix, s: float, theta, draws: int, budget: int | None = None
) -> float:
    """First approximation of the expected current-drawdown log series."""
    return _coefficient_form(matrix, s, theta, draws, budget, drawdown=True, loss=True)


def u_run_expect(
    matrix: TradeMatrix, s: float, theta, draws: int, budget: int | None = None
) -> float:
    """Coefficient form of the expected run-up log series at scale s."""
    return _coefficient_form(matrix, s, theta, draws, budget, drawdown=True, loss=False)


def d_cur_second_approx(
    matrix: TradeMatrix, s: float, theta, draws: int, budget: int | None = None
) -> float:
    """Linearized (second) approximation of the expected current drawdown."""
    theta = _unit_direction(matrix, theta, s)
    return -rho_cur_x(matrix, s * theta, draws, budget)


# ---------------------------------------------------------------------------
# Path-enumeration expectations (second route used by verification)


def expected_downtrade(
    matrix: TradeMatrix, phi, draws: int, budget: int | None = None
) -> float:
    """E of the terminal log loss by direct path enumeration (-inf allowed)."""
    return _path_expectation(matrix, phi, draws, budget, loss_from_prefix)


def expected_uptrade(
    matrix: TradeMatrix, phi, draws: int, budget: int | None = None
) -> float:
    """E of the terminal log gain by direct path enumeration."""
    return _path_expectation(matrix, phi, draws, budget, gain_from_prefix)


def expected_current_drawdown(
    matrix: TradeMatrix, phi, draws: int, budget: int | None = None
) -> float:
    """E of the current-drawdown log series by direct path enumeration."""
    return _path_expectation(matrix, phi, draws, budget, drawdown_from_prefix)


def expected_runup(
    matrix: TradeMatrix, phi, draws: int, budget: int | None = None
) -> float:
    """E of the run-up log series by direct path enumeration."""
    return _path_expectation(matrix, phi, draws, budget, runup_from_prefix)


def _path_expectation(matrix, phi, draws, budget, quantity) -> float:
    """``_path_expectations`` of one quantity at one point."""
    return float(_path_expectations(matrix, (phi,), draws, budget, (quantity,))[0, 0])


def _path_expectations(matrix, phis, draws, budget, quantities) -> np.ndarray:
    """Probability-weighted sums of pathwise quantities at each of ``phis``: (Q, G).

    One pass over the path blocks serves every point and every ``*_from_prefix``
    quantity, with each prefix block built once per chunk of points.  A value
    gets one 1-D dot per block, summed in block order, so it does not depend on
    the other points.  No points, no enumeration.
    """
    rows = np.array([log_hpr_rows(matrix, as_portions(matrix, phi)) for phi in phis])
    out = np.zeros((len(quantities), len(rows)))
    if not len(rows):
        return out
    for digits in _path_digit_blocks(matrix.n_periods, draws, budget):
        w = np.prod(matrix.probs[digits], axis=1)
        for g0, prefix in prefix_chunks(rows, digits):
            flat = prefix.reshape(-1, draws)
            for q, quantity in enumerate(quantities):
                for g, values in enumerate(quantity(flat).reshape(len(prefix), -1), g0):
                    out[q, g] += float(w @ values)
    return out


# ---------------------------------------------------------------------------
# Small-scale regime checks


def small_s_down_verified(
    matrix: TradeMatrix, s: float, theta, draws: int, budget: int | None = None
) -> bool:
    """True when terminal sign patterns match between linear and log form.

    Checks, for every count vector, that the linearized outcome is positive
    exactly when the compounded outcome exceeds 1 at scale s (boundary cases
    go to the loss side on both forms).  When this holds the coefficient
    forms reproduce the path expectations exactly.
    """
    theta = _unit_direction(matrix, theta)
    comps, _, _ = _count_levels(matrix.probs, draws, budget)
    scaled = s * matrix.dots(theta)
    if np.any(1.0 + scaled <= 0.0):
        return False
    logged = comps @ np.log1p(scaled)
    gain = linear_signs(matrix.returns, theta, comps.T) > 0
    return bool(np.all(np.where(gain, logged > 0.0, logged < 0.0)))


def small_s_cur_verified(
    matrix: TradeMatrix, s: float, theta, draws: int, budget: int | None = None
) -> bool:
    """True when compounded and linear topping points agree on every path."""
    theta = _unit_direction(matrix, theta)
    rows = log_hpr_rows(matrix, s * theta)
    if np.any(np.isneginf(rows)):
        return False
    for digits in _path_digit_blocks(matrix.n_periods, draws, budget):
        log_top = topping_from_prefix(np.cumsum(rows[digits], axis=1), TOPPING_TIE_TOL)
        lin_top = linear_topping_blocks(matrix.returns, digits, theta)
        if np.any(log_top != lin_top):
            return False
    return True


# ---------------------------------------------------------------------------
# Structured evaluation (CLI surface)


def evaluate_many(
    matrix: TradeMatrix,
    kind: MeasureKind | str,
    phis,
    draws: int,
    budget: int | None = None,
) -> np.ndarray:
    """Evaluate one measure kind at every row of ``phis`` (G, M); returns G values.

    ``down``, ``downX``, ``cur`` and ``curX`` are computed for all points in
    one count-form pass.  The coefficient forms are evaluated point by point.
    Inadmissible points get +inf for the nonnegative kinds and -inf for the
    nonpositive approximation forms, so a grid stays a full lattice.
    """
    kind = MeasureKind(kind)
    if kind in _COUNT_KINDS:
        return _count_form(matrix, kind, phis, draws, budget)[:, -1]
    sentinel = math.inf if kind in NONNEGATIVE_KINDS else -math.inf
    out = np.empty(len(phis))
    for j, phi in enumerate(phis):
        try:
            out[j] = evaluate_measure(matrix, kind, phi, draws, budget).value
        except DomainError:
            out[j] = sentinel
    return out


def evaluate_measure(
    matrix: TradeMatrix,
    kind: MeasureKind | str,
    phi,
    draws: int,
    budget: int | None = None,
    check_small_s: bool = False,
) -> MeasureEvaluation:
    """Evaluate one measure kind at a portion vector.

    Scale-and-direction kinds decompose phi = s * theta with theta the unit
    direction; at phi = 0 every kind evaluates to 0.  With ``check_small_s``
    the small-scale regime flag is computed for the kinds that are only exact
    in that regime.
    """
    kind = MeasureKind(kind)
    arr = as_portions(matrix, phi)
    scale = float(np.linalg.norm(arr))
    flag: bool | None = None
    if kind is MeasureKind.DOWN:
        value = rho_down(matrix, arr, draws, budget)
    elif kind is MeasureKind.DOWN_X:
        value = rho_down_x(matrix, arr, draws, budget)
    elif kind is MeasureKind.CUR:
        value = rho_cur(matrix, arr, draws, budget)
    elif kind is MeasureKind.CUR_X:
        value = rho_cur_x(matrix, arr, draws, budget)
    else:
        if scale == 0.0:
            return MeasureEvaluation(kind, 0.0, True if check_small_s else None)
        theta = arr / scale
        if kind in (MeasureKind.DOWN_FIRST_APPROX, MeasureKind.UP_EXPECT):
            form = d_first_approx if kind is MeasureKind.DOWN_FIRST_APPROX else u_expect
            value = form(matrix, scale, theta, draws, budget)
            if check_small_s:
                flag = small_s_down_verified(matrix, scale, theta, draws, budget)
        elif check_small_s:
            # the value and the regime flag read the same linear topping points
            value, flag = _checked_drawdown_form(
                matrix, scale, theta, draws, budget, loss=kind is MeasureKind.CUR_FIRST_APPROX
            )
        else:
            form = d_cur_first_approx if kind is MeasureKind.CUR_FIRST_APPROX else u_run_expect
            value = form(matrix, scale, theta, draws, budget)
    return MeasureEvaluation(kind, float(value), flag)


# ---------------------------------------------------------------------------
# Diagnostics


@dataclass(frozen=True)
class SpanDiagnostic:
    """Result of the row-span diagnostic over a direction grid."""

    passed: bool
    checked: int
    failures: tuple[int, ...]


def span_diagnostic(matrix: TradeMatrix, grid: int = 360, seed: int = 0) -> SpanDiagnostic:
    """Check that rows with nonzero projection span R^M along many directions.

    For two trading systems the directions are an evenly spaced angle grid;
    otherwise ``grid`` seeded random unit directions are used.  Reported as a
    diagnostic only; it does not decide convexity properties by itself.
    """
    m = matrix.n_systems
    if m == 2:
        angles = 2.0 * math.pi * np.arange(grid) / grid
        thetas = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((grid, m))
        thetas = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    # one stacked SVD: zeroing the rows with zero projection keeps the singular
    # values of the active rows; the rank rule is that of matrix_rank
    active = np.where(matrix.returns @ thetas[:, :, None] != 0.0, matrix.returns, 0.0)
    sv = np.linalg.svd(active, compute_uv=False)
    failures = tuple(np.flatnonzero((sv > RANK_RTOL * sv[:, :1]).sum(axis=1) < m).tolist())
    return SpanDiagnostic(not failures, len(thetas), failures)


def hyperplane_directions(
    matrix: TradeMatrix, draws: int, budget: int | None = None
) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Unit directions where some count vector's linearized outcome vanishes.

    Only meaningful for two trading systems.  Returns (theta, x) pairs where
    the count vector x satisfies sum(x_i * <t_i, theta>) = 0 while its log
    terms do not vanish identically; across such directions the loss-side
    coefficient family jumps, which is the documented discontinuity of the
    first approximation.
    """
    if matrix.n_systems != 2:
        raise ValidationError("hyperplane scan is only available for M == 2")
    comps, _, _ = _count_levels(matrix.probs, draws, budget)
    seen: set[tuple[float, float]] = set()
    out: list[tuple[np.ndarray, tuple[int, ...]]] = []
    for x in comps:
        normal = x @ matrix.returns
        scale = float(np.linalg.norm(normal))
        if scale < 1e-12:
            continue
        theta = np.array([-normal[1], normal[0]]) / scale
        lead = theta[np.abs(theta) > 1e-12]
        if lead.size and lead[0] < 0.0:
            theta = -theta
        dots = matrix.dots(theta)
        if np.all(np.abs(dots[x > 0]) < 1e-14):
            continue
        key = (round(float(theta[0]), 12), round(float(theta[1]), 12))
        if key in seen:
            continue
        seen.add(key)
        out.append((theta, tuple(int(v) for v in x)))
    return out
