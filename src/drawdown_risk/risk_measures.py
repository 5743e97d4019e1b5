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
approximation.  Each family is one pass, by the exact sign rule of
``path_engine``: ``_terminal_pass`` splits the level-K count vectors (D, U),
``_topping_pass`` groups paths by linear topping point (Lambda, Upsilon).
Given a scale, a pass also returns its small-scale regime flag.  Both flags
read the count plan, none of the N^K paths: the terminal flag compares
classes at level K, and the drawdown flag is False exactly when the point is
inadmissible or ``_regime_ruled_out`` builds a witness path from the Spitzer
plan of 1..K draws.  N^K paths are enumerated only for the drawdown families
(``curFirstApprox``, ``runupExpect``) and the path expectations, which weight
the pathwise quantities of ``path_engine`` over path blocks.  The
``expected_*`` routes are one-point views of ``_path_expectations``, one
block pass for many points and quantities.

Path blocks are lead-aligned and built from the cached digit tables of
``path_engine``.  A single block is topped in one call and its drawdown
tables add each path at each step.  A streamed enumeration tops its lead
table and the two halves of its suffix table once each, as part tables
that carry each path's weight and row counts up to its top and in total.
One exact rule, ``_over``, joins the halves into the suffix part table and
decides, pair by pair, whether a lead and a suffix top in the suffix; the
tables are then sums over the part tables by top row (``_streamed_tables``),
and no path of N^K draws is built or added.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DomainError, ValidationError
from .path_engine import (
    _cached_digits,
    _check_budget,
    _sign_bound,
    drawdown_from_prefix,
    gain_from_prefix,
    iter_path_blocks,
    linear_prefix_blocks,
    linear_signs,
    linear_topping_blocks,
    log_hpr_rows,
    loss_from_prefix,
    path_split,
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
#: are Spitzer sums over draws 1..K (else a sum over the K-draw level only)
#: and whether they are log forms (defined only at interior points).
_COUNT_KINDS = {
    MeasureKind.DOWN: (False, True),
    MeasureKind.DOWN_X: (False, False),
    MeasureKind.CUR: (True, True),
    MeasureKind.CUR_X: (True, False),
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


def _terminal_plan(matrix: TradeMatrix, draws: int, budget: int | None):
    """The level-K count plan of a game, after the count budget rule."""
    return _count_levels(matrix.probs, draws, budget)


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
    Points go through in blocks, so no temporary exceeds ``_CHUNK`` values;
    its callers have checked them with ``_require_reach``.
    """
    phis = np.asarray(phis, dtype=float)
    if phis.ndim != 2 or phis.shape[1] != matrix.n_systems:
        raise ValidationError(
            f"portion vectors must have shape (G, {matrix.n_systems}), got {phis.shape}"
        )
    spitzer, log_kind = _COUNT_KINDS[kind]
    comps, weights, ends = _count_levels(matrix.probs, draws, budget, spitzer)
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


def _count_value(matrix, kind: MeasureKind, phi, draws: int, budget: int | None) -> np.ndarray:
    """``_count_form`` at one point; the log kinds require an interior point."""
    arr = as_portions(matrix, phi)
    _require_reach(matrix, arr)
    if _COUNT_KINDS[kind][1]:
        require_interior(matrix, arr)
    return _count_form(matrix, kind, arr[None], draws, budget)[0]


def _require_reach(matrix: TradeMatrix, phis: np.ndarray) -> None:
    """Raise unless every |T| @ |phi| is finite, for one point (M,) or many (G, M).

    So no product <t_i, phi> overflows: a point beyond it is a validation
    error, not a value computed from inf or nan.  The bound row_reach *
    max |phi|, with a factor 2 for the rounding of both sums, settles every
    point short of the overflow range without the product.
    """
    if 2.0 * float(np.abs(phis).max(initial=0.0)) * matrix.row_reach < math.inf:
        return
    with np.errstate(over="ignore"):
        reach = np.abs(phis) @ np.abs(matrix.returns).T
    if not reach.max(initial=0.0) < math.inf:
        raise ValidationError("portion vector too large: |T| @ |phi| overflows")


def _radius(matrix: TradeMatrix, arr: np.ndarray) -> float:
    """Euclidean norm of a nonzero point, after the rule of ``_require_reach``.

    Where the squares overflow, or all underflow to 0, the norm of the point
    scaled to a largest entry of 1 is scaled back, so every other norm the
    plain one gives is kept.  Both checks are skipped where the bounds
    2 * max |phi| * row_reach and 2 * M * max |phi|^2 show that nothing
    overflows.
    """
    top = max(map(abs, arr.tolist()))
    if 2.0 * top * matrix.row_reach < math.inf and 2.0 * top * top * len(arr) < math.inf:
        scale = float(np.linalg.norm(arr))
    else:
        _require_reach(matrix, arr)
        with np.errstate(over="ignore"):
            scale = float(np.linalg.norm(arr))
    return scale if 0.0 < scale < math.inf else top * float(np.linalg.norm(arr / top))


def _unit_direction(matrix: TradeMatrix, theta, s: float = 0.0) -> np.ndarray:
    if not 0.0 <= s < math.inf:
        raise ValidationError("scale s must be finite and >= 0")
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
    loss, gain, _ = _terminal_pass(matrix, theta, draws, budget)
    return CoefficientTable("U", gain, theta, draws), CoefficientTable("D", loss, theta, draws)


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


def _terminal_pass(matrix: TradeMatrix, theta, draws: int, budget: int | None, s=None):
    """D and U totals from one pass over the level-K count plan, and a flag.

    Count vectors are split by the exact sign of their linearized outcome,
    one ``linear_signs`` call.  Given the scale ``s``, the flag says whether
    the compounded outcome at s * theta exceeds 1 exactly on the count vectors
    of positive linear outcome; else it is None.
    """
    comps, weights, _ = _terminal_plan(matrix, draws, budget)
    down = linear_signs(matrix.returns, theta, comps.T) <= 0
    weighted = weights[:, None] * comps
    scaled = None if s is None else s * matrix.dots(theta)
    flag = None if s is None else not np.any(1.0 + scaled <= 0.0)
    if flag:
        logged = comps @ np.log1p(scaled)
        flag = bool(np.all(np.where(down, logged < 0.0, logged > 0.0)))
    return weighted[down].sum(axis=0), weighted[~down].sum(axis=0), flag


def _topping_pass(matrix: TradeMatrix, theta, draws: int, budget: int | None, s=None):
    """Lambda and Upsilon tables from one pass over the paths, and a flag.

    A single block adds each path weight once per step, into the row of its
    linear topping point: Lambda for the steps after it, Upsilon for the rest,
    one unmasked ``np.add.at`` per step into one flat [Lambda | Upsilon]
    buffer, which adds to each cell in the order of a masked add per row.  A
    streamed enumeration builds the tables from its lead and suffix part
    tables (``_streamed_tables``) and adds no path.  Given the scale ``s``,
    the flag is that of ``small_s_cur_verified``, which reads the count plan
    and no path; else None.
    """
    n = matrix.n_periods
    blocks = iter_path_blocks(n, draws, budget)  # the draws and path budget rules
    flag = None if s is None else not _regime_ruled_out(matrix, theta, s, draws, budget)
    lead, tail, per = path_split(n, draws)
    if lead:
        return (*_streamed_tables(matrix, theta, lead, tail, per), flag)
    (digits,) = blocks
    top = linear_topping_blocks(matrix.returns, digits, theta)
    w = np.prod(matrix.probs[digits], axis=1)
    tables = np.zeros(2 * (draws + 1) * n)
    half = (draws + 1) * n
    lam_key = top * n
    ups_key = lam_key + half
    for pos in range(draws):
        np.add.at(tables, np.where(top <= pos, lam_key, ups_key) + digits[:, pos], w)
    lam, ups = tables.reshape(2, draws + 1, n)
    return lam, ups, flag


class _Part(NamedTuple):
    """A part table: paths of ``draws`` draws with their exact linear topping points.

    Per path, ``peak`` is the float walk at the topping point ``top`` (0 at
    point 0), ``end`` the walk at the last step and ``scale`` twice its sum of
    |<t_j, theta>|, which bounds the magnitude of every partial sum; ``weight``
    is its probability.  Column p of ``up`` holds path p's row counts over
    steps 1..top and of ``total`` over all its steps, (N, P) each, as int16:
    no path budget reaches 2^15 draws.
    """

    draws: int
    top: np.ndarray
    peak: np.ndarray
    end: np.ndarray
    scale: np.ndarray
    weight: np.ndarray
    up: np.ndarray
    total: np.ndarray

    def paths(self, index) -> _Part:
        """The paths at ``index``, every field copied contiguous."""
        return _Part(self.draws, *(np.take(field, index, axis=-1) for field in self[1:]))


def _walked(matrix: TradeMatrix, theta, digits: np.ndarray) -> _Part:
    """The part table of a digit table, topped by one ``linear_topping_blocks`` call."""
    returns, (paths, draws) = matrix.returns, digits.shape
    top = linear_topping_blocks(returns, digits, theta)
    walk = np.hstack([np.zeros((paths, 1)), linear_prefix_blocks(returns, digits, theta)])
    scale = 2.0 * (np.abs(returns) @ np.abs(theta))[digits].sum(axis=1)
    hits = digits == np.arange(matrix.n_periods)[:, None, None]
    return _Part(
        draws, top, walk[np.arange(paths), top], walk[:, -1], scale,
        np.prod(matrix.probs[digits], axis=1),
        (hits & (np.arange(draws) < top[:, None])).sum(axis=2, dtype=np.int16),
        hits.sum(axis=2, dtype=np.int16),
    )


def _over(returns: np.ndarray, theta, first: _Part, second: _Part) -> np.ndarray:
    """Whether the path first[a] followed by second[q] tops in its second part, as (A, Q).

    First part a has exact top t_a, float peak P_a and end L_a; second part q
    has exact top t_q and float peak M_q.  Path (a, q) tops at m + t_q, m the
    length of a, when t_q > 0 and (L_a - P_a) + M_q is exactly positive, else
    at t_a (the first index wins ties).  That sign is the linear outcome of
    a's steps after t_a and q's first t_q steps: a float filter with the error
    bound of ``linear_topping_blocks`` decides it, and ``linear_signs`` runs
    on the counts (total_a - up_a) + up_q only for the pairs it leaves open.
    """
    steps = first.draws + second.draws + 1
    rises = second.top > 0
    values = (first.end - first.peak)[:, None] + second.peak
    scale = first.scale[:, None] + second.scale
    signs = np.sign(values)
    near = rises & ~(np.abs(values) > _sign_bound(returns, scale, steps))
    if near.any():
        a, q = np.nonzero(near)
        counts = ((first.total - first.up)[:, a] + second.up[:, q]).astype(np.int64)
        signs[a, q] = linear_signs(returns, theta, counts, values[a, q], scale[a, q], steps)
    return rises & (signs > 0)


def _joined(returns: np.ndarray, theta, first: _Part, second: _Part) -> _Part:
    """The part table of the paths first[a] followed by second[q], a-major."""
    over = _over(returns, theta, first, second)
    n = len(first.total)
    up = np.where(over, first.total[:, :, None] + second.up[:, None], first.up[:, :, None])
    return _Part(
        first.draws + second.draws,
        np.where(over, first.draws + second.top, first.top[:, None]).ravel(),
        np.where(over, first.end[:, None] + second.peak, first.peak[:, None]).ravel(),
        (first.end[:, None] + second.end).ravel(),
        (first.scale[:, None] + second.scale).ravel(),
        (first.weight[:, None] * second.weight).ravel(),
        up.reshape(n, -1),
        (first.total[:, :, None] + second.total[:, None]).reshape(n, -1),
    )


def _part_tables(matrix: TradeMatrix, theta, lead: int, tail: int) -> tuple[_Part, _Part]:
    """The lead part table, and the suffix part table joined from its two halves.

    The halves have floor(m / 2) and ceil(m / 2) of the suffix's m draws, so
    the three ``linear_topping_blocks`` calls top at most a few hundred paths
    each at the default block size.
    """
    n = matrix.n_periods
    leads = _walked(matrix, theta, _cached_digits(n, lead))
    if tail == 1:
        return leads, _walked(matrix, theta, _cached_digits(n, 1))
    halves = (_walked(matrix, theta, _cached_digits(n, m)) for m in (tail // 2, tail - tail // 2))
    return leads, _joined(matrix.returns, theta, *halves)


def _streamed_tables(matrix: TradeMatrix, theta, lead: int, tail: int, per: int):
    """Lambda and Upsilon of a streamed enumeration from its part tables, adding no path.

    Pair (a, q) tops at j + t_q where ``_over`` holds, j = ``lead``, and at
    t_a elsewhere.  So with w = w_a * w_q, where it holds the pair adds
    w * (total_a + up_q) to Upsilon[j + t_q] and w * (total_q - up_q) to
    Lambda[j + t_q]; elsewhere w * up_a to Upsilon[t_a] and
    w * (total_a - up_a + total_q) to Lambda[t_a].  Per block of ``per``
    leads, the ``_over`` mask sums w_a over the leads each suffix tops,
    w_q over each suffix run of one top, and [w_q | w_q * total_q] over the
    suffixes each lead keeps its top with; each part table is then added
    once by top row.  Every sum is numpy's pairwise sum along a contiguous
    axis, or over at most ``per`` leads.
    """
    returns, n = matrix.returns, matrix.n_periods
    leads, suffix = _part_tables(matrix, theta, lead, tail)
    (leads, lead_tops, lead_runs), (suffix, tops, runs) = _by_top(leads), _by_top(suffix)
    suffix_rows = np.vstack([suffix.weight, suffix.weight * suffix.total])
    lead_totals = leads.weight * leads.total
    # per suffix, w_a over the leads it tops; per lead, the suffix rows over
    # the suffixes that keep its top; per suffix run, w_a * total_a * w_q over its pairs
    topped = np.zeros(len(suffix.top))
    kept = np.empty((n + 1, len(leads.top)))
    ups_runs = np.zeros((n, len(tops)))
    for a0 in range(0, len(leads.top), per):
        block = np.arange(a0, min(a0 + per, len(leads.top)))
        over = _over(returns, theta, leads.paths(block), suffix)
        topped += (leads.weight[block, None] * over).sum(axis=0)
        runs_w = np.add.reduceat(over * suffix.weight, runs, axis=1)
        ups_runs += (lead_totals[:, block, None] * runs_w).sum(axis=1)
        kept[:, block] = (suffix_rows[:, None] * ~over).sum(axis=2)
    lam, ups = np.zeros((2, lead + tail + 1, n))
    w = suffix.weight * topped
    lam[lead + tops] += np.add.reduceat(w * (suffix.total - suffix.up), runs, axis=1).T
    ups[lead + tops] += (ups_runs + np.add.reduceat(w * suffix.up, runs, axis=1)).T
    w = leads.weight * kept[0]
    kept_lam = w * (leads.total - leads.up) + leads.weight * kept[1:]
    lam[lead_tops] += np.add.reduceat(kept_lam, lead_runs, axis=1).T
    ups[lead_tops] += np.add.reduceat(w * leads.up, lead_runs, axis=1).T
    return lam, ups


def _by_top(part: _Part) -> tuple[_Part, np.ndarray, np.ndarray]:
    """A part table sorted by top, its distinct tops and the first column of each run.

    Its fields are contiguous, so a sum over a run is numpy's pairwise sum.
    """
    sizes = np.bincount(part.top)
    part = part.paths(np.argsort(part.top.astype(np.min_scalar_type(len(sizes))), kind="stable"))
    tops = np.flatnonzero(sizes)
    return part, tops, (np.cumsum(sizes) - sizes)[tops]


def _regime_ruled_out(matrix: TradeMatrix, theta, s: float, draws: int, budget) -> bool:
    """True when s * theta is inadmissible or a witness path breaks the topping regime.

    Candidates come from the Spitzer count plan of 1..draws draws, after its
    draws and count budget rules: the count vectors whose exact linear class
    (outcome > 0 or <= 0) differs from their float compounded class.  Each
    becomes one path of ``draws`` draws, its draws in ascending order of log
    return, then padded with the lowest row when that log is <= 0 (skipped
    otherwise).  The linear and compounded topping points of every candidate
    come from one call each; a path where they differ breaks the regime.
    With no witness the regime holds: the first maximum of a walk is fixed
    by the classes of its segments, and every segment is a count vector of
    at most ``draws`` draws.
    """
    comps = _count_levels(matrix.probs, draws, budget, spitzer=True)[0]
    rows = log_hpr_rows(matrix, s * theta)
    if np.any(np.isneginf(rows)):
        return True
    cands = comps[(linear_signs(matrix.returns, theta, comps.T) > 0) != (comps @ rows > 0.0)]
    order = np.argsort(rows, kind="stable")
    if rows[order[0]] > 0.0:
        cands = cands[cands.sum(axis=1) == draws]
    if not len(cands):
        return False
    ends = np.cumsum(cands[:, order], axis=1)
    slot = (ends[:, None, :] <= np.arange(draws)[:, None]).sum(axis=2)
    paths = np.append(order, order[0])[slot]
    compounded = topping_from_prefix(np.cumsum(rows[paths], axis=1))
    return bool(np.any(linear_topping_blocks(matrix.returns, paths, theta) != compounded))


def _path_rules(matrix: TradeMatrix, draws: int, budget: int | None):
    """The draws and path budget rules of ``iter_path_blocks`` for a game."""
    return iter_path_blocks(matrix.n_periods, draws, budget)


#: Coefficient kinds: the pass over their family, the draws and budget rules
#: of the count plan or path blocks it reads, and whether the kind takes the
#: loss side (D, Lambda).
_COEFFICIENT_KINDS = {
    MeasureKind.DOWN_FIRST_APPROX: (_terminal_pass, _terminal_plan, True),
    MeasureKind.UP_EXPECT: (_terminal_pass, _terminal_plan, False),
    MeasureKind.CUR_FIRST_APPROX: (_topping_pass, _path_rules, True),
    MeasureKind.RUNUP_EXPECT: (_topping_pass, _path_rules, False),
}


def _coefficient_value(matrix, kind, s, theta, draws, budget, check=False):
    """A coefficient kind at s * theta, with its regime flag when ``check``.

    The value is the sum of c_i * log(1 + s * <t_i, theta>) over the nonzero
    family totals c_i.  Where a log term is undefined the loss side is -inf
    and the gain side raises ``DomainError``.
    """
    theta = _unit_direction(matrix, theta, s)
    family, _, loss = _COEFFICIENT_KINDS[kind]
    lose, gain, flag = family(matrix, theta, draws, budget, s if check else None)
    coef = lose if loss else gain
    total = 0.0
    for c, d in zip(coef.sum(axis=0) if coef.ndim == 2 else coef, s * matrix.dots(theta)):
        if c == 0.0:
            continue
        if d <= -1.0:
            if loss:
                return -math.inf, flag
            raise DomainError("log-term argument is nonpositive; point is not admissible")
        total += c * math.log1p(d)
    return float(total), flag


# ---------------------------------------------------------------------------
# Exact measures


def rho_down(matrix: TradeMatrix, phi, draws: int, budget: int | None = None) -> float:
    """Negative expected terminal log loss, by exact count-vector summation.

    Requires an interior portion vector; the value is nonnegative and zero
    exactly at the zero allocation.
    """
    return float(_count_value(matrix, MeasureKind.DOWN, phi, draws, budget)[-1])


def rho_cur(matrix: TradeMatrix, phi, draws: int, budget: int | None = None) -> float:
    """Negative expected current-drawdown log series, as a Spitzer sum of ``rho_down``."""
    return float(rho_cur_series(matrix, phi, draws, budget)[-1])


def rho_cur_series(
    matrix: TradeMatrix, phi, draws: int, budget: int | None = None
) -> np.ndarray:
    """``rho_cur`` at 1..draws draws from one pass; entry K-1 equals ``rho_cur(K)``."""
    return _count_value(matrix, MeasureKind.CUR, phi, draws, budget)


def rho_down_x(matrix: TradeMatrix, phi, draws: int, budget: int | None = None) -> float:
    """Positively homogeneous linearization of ``rho_down``; defined on all of R^M."""
    return float(_count_value(matrix, MeasureKind.DOWN_X, phi, draws, budget)[-1])


def rho_cur_x(matrix: TradeMatrix, phi, draws: int, budget: int | None = None) -> float:
    """Positively homogeneous linearization of ``rho_cur``; defined on all of R^M."""
    return float(_count_value(matrix, MeasureKind.CUR_X, phi, draws, budget)[-1])


# ---------------------------------------------------------------------------
# Coefficient-form approximations (exact in the small-scale regime)


def d_first_approx(
    matrix: TradeMatrix, s: float, theta, draws: int, budget: int | None = None
) -> float:
    """First approximation of the expected terminal log loss at scale s.

    Always an upper bound of the path expectation, nonpositive, and equal to
    it when the small-scale sign patterns hold.  Returns -inf when a needed
    log term is undefined (allocation beyond the admissible set).
    """
    return _coefficient_value(matrix, MeasureKind.DOWN_FIRST_APPROX, s, theta, draws, budget)[0]


def u_expect(
    matrix: TradeMatrix, s: float, theta, draws: int, budget: int | None = None
) -> float:
    """Coefficient form of the expected terminal log gain at scale s."""
    return _coefficient_value(matrix, MeasureKind.UP_EXPECT, s, theta, draws, budget)[0]


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
    return _coefficient_value(matrix, MeasureKind.CUR_FIRST_APPROX, s, theta, draws, budget)[0]


def u_run_expect(
    matrix: TradeMatrix, s: float, theta, draws: int, budget: int | None = None
) -> float:
    """Coefficient form of the expected run-up log series at scale s."""
    return _coefficient_value(matrix, MeasureKind.RUNUP_EXPECT, s, theta, draws, budget)[0]


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
    for digits in iter_path_blocks(matrix.n_periods, draws, budget):
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
    theta = _unit_direction(matrix, theta, s)
    return _terminal_pass(matrix, theta, draws, budget, s)[2]


def small_s_cur_verified(
    matrix: TradeMatrix, s: float, theta, draws: int, budget: int | None = None
) -> bool:
    """True when compounded and linear topping points agree on every path.

    Decided on the Spitzer count plan of 1..draws draws, under its count
    budget, and no path: False exactly when s * theta is inadmissible or
    ``_regime_ruled_out`` finds a witness path.
    """
    theta = _unit_direction(matrix, theta, s)
    return not _regime_ruled_out(matrix, theta, s, draws, budget)


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
        phis = np.asarray(phis, dtype=float)
        _require_reach(matrix, phis)
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

    Coefficient kinds decompose phi = s * theta with theta the unit direction;
    at phi = 0 every kind evaluates to 0, after the same draws and budget
    checks as elsewhere.  With ``check_small_s`` the coefficient kinds, only
    exact in the small-scale regime, also return its flag from the same pass.
    """
    kind = MeasureKind(kind)
    arr = as_portions(matrix, phi)
    if kind in _COUNT_KINDS:
        return MeasureEvaluation(kind, float(_count_value(matrix, kind, arr, draws, budget)[-1]))
    if not arr.any():
        # every log term vanishes, but the draws and budget rules of the kind's pass hold
        _COEFFICIENT_KINDS[kind][1](matrix, draws, budget)
        return MeasureEvaluation(kind, 0.0, True if check_small_s else None)
    scale = _radius(matrix, arr)
    value, flag = _coefficient_value(matrix, kind, scale, arr / scale, draws, budget, check_small_s)
    return MeasureEvaluation(kind, value, flag)


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
    comps, _, _ = _terminal_plan(matrix, draws, budget)
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
