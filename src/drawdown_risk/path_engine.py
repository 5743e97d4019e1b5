"""The path stack: draw paths in blocks, and the pathwise log series.

A game path is an ordered tuple omega with entries in {1..N} (1-based row
indices of the trade matrix).  ``iter_path_blocks`` enumerates paths in
lexicographic order as 0-based digit arrays of shape (B, K) and is the one
place the path budget, N^K paths, is checked; ``enumerate_paths`` is a
per-path view of it.  Count vectors live in ``risk_measures``.

Each pathwise quantity is defined once, on prefix log sums of shape (B, K)
(``*_from_prefix``); the single-path functions are one-row calls of them.
Log wealth is a sum of log1p terms rather than the log of a product; a
period with a nonpositive holding period return contributes -inf.

Every sign of the linear walk sum_i x_i <t_i, theta>, for the loss/gain split
and the linear topping point, comes from one exact rule, ``linear_signs``.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .trade_core import TradeMatrix, as_portions

#: Default ceiling on the number of enumerated paths or count states per call.
DEFAULT_ENUMERATION_BUDGET = 2**24

#: Prefix log sums within this distance of the running maximum count as ties
#: when locating the first topping point of the compounded equity curve.
TOPPING_TIE_TOL = 1e-14

_BLOCK = 1 << 16

_EPS, _TINY = sys.float_info.epsilon, sys.float_info.min


@dataclass(frozen=True)
class PathOutcome:
    """One ordered draw sequence with its probability."""

    omega: tuple[int, ...]
    prob: float


def _check_budget(size: int, budget: int | None, what: str) -> None:
    limit = DEFAULT_ENUMERATION_BUDGET if budget is None else budget
    if size > limit:
        raise BudgetExceededError(
            f"{what} enumeration of size {size} exceeds budget {limit}"
        )


def iter_path_blocks(
    n: int, draws: int, budget: int | None = None, block: int = _BLOCK
) -> Iterator[np.ndarray]:
    """0-based path index arrays of shape (B, draws), in lexicographic order.

    ``draws`` and the budget are checked when called, before the first block.
    """
    if draws < 1:
        raise ValidationError("draws must be >= 1")
    total = n**draws
    _check_budget(total, budget, "path")
    shape = (n,) * draws
    return (
        np.stack(np.unravel_index(np.arange(start, min(start + block, total)), shape), axis=1)
        for start in range(0, total, block)
    )


def enumerate_paths(probs, draws: int, budget: int | None = None) -> Iterator[PathOutcome]:
    """Yield every ordered path of the given length in lexicographic order."""
    p = np.asarray(probs, dtype=float)
    for digits in iter_path_blocks(p.shape[0], draws, budget):
        weights = np.prod(p[digits], axis=1)
        for omega, prob in zip((digits + 1).tolist(), weights.tolist()):
            yield PathOutcome(tuple(omega), prob)


def multinomial_coefficient(x) -> int:
    """Number of orderings of a count vector, as an exact integer."""
    total = 0
    out = 1
    for v in x:
        total += int(v)
        out *= math.comb(total, int(v))
    return out


def log_hpr_rows(matrix: TradeMatrix, phi) -> np.ndarray:
    """Per-row log holding period returns, with -inf for nonpositive HPRs."""
    dots = matrix.dots(phi)
    hprs = 1.0 + dots
    good = hprs > 0.0
    out = np.full(dots.shape, -np.inf)
    out[good] = np.log1p(dots[good])
    return out


def _omega_index(matrix: TradeMatrix, omega) -> np.ndarray:
    idx = np.asarray(omega, dtype=np.int64)
    if idx.ndim != 1 or idx.size < 1:
        raise ValueError("omega must be a nonempty index sequence")
    if idx.min() < 1 or idx.max() > matrix.n_periods:
        raise IndexError(f"omega entries must be in 1..{matrix.n_periods}")
    return idx - 1


def twr_segment(matrix: TradeMatrix, phi, omega, first: int, last: int) -> float:
    """Compounded growth factor over steps first..last of the path (1-based).

    The empty segment (first > last) has value 1.  Zero factors are allowed,
    so boundary portion vectors evaluate to 0 rather than raising.
    """
    idx = _omega_index(matrix, omega)
    if not 1 <= first <= len(idx) + 1 or not 0 <= last <= len(idx):
        raise IndexError("segment bounds out of range")
    if first > last:
        return 1.0
    dots = matrix.returns[idx[first - 1 : last]] @ as_portions(matrix, phi)
    out = 1.0
    for d in dots:
        out *= 1.0 + d
    return float(out)


def prefix_chunks(rows: np.ndarray, digits: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Prefix log sums of a path block for chunks of points: (first point, (P, B, K)).

    ``rows`` holds one row of per-row logs per point, (G, N).  A chunk holds
    max(1, _BLOCK // B) points, so it is no larger than a full block of one
    point, and a point's sums are those of ``np.cumsum(row[digits], axis=1)``.
    """
    size = max(1, _BLOCK // len(digits))
    for g0 in range(0, len(rows), size):
        yield g0, np.cumsum(rows[g0 : g0 + size, digits], axis=2)


def _path_prefix(matrix: TradeMatrix, phi, omega) -> np.ndarray:
    rows = log_hpr_rows(matrix, phi)
    return np.cumsum(rows[_omega_index(matrix, omega)])[None, :]


def loss_from_prefix(prefix: np.ndarray) -> np.ndarray:
    """Terminal log loss min(0, S_K) of each prefix-sum row (-inf on a wipeout)."""
    return np.minimum(0.0, prefix[:, -1])


def gain_from_prefix(prefix: np.ndarray) -> np.ndarray:
    """Terminal log gain max(0, S_K) of each prefix-sum row."""
    return np.maximum(0.0, prefix[:, -1])


def drawdown_from_prefix(prefix: np.ndarray) -> np.ndarray:
    """Current drawdown of each prefix-sum row, in suffix-minimum form.

    min(0, min over l of S_K - S_{l-1}) with S_0 = 0: log of min over l of
    min(1, TWR over steps l..K), the drawdown still open at the final step,
    measured from the running peak.  -inf on a wipeout.
    """
    terminal = prefix[:, -1]
    starts = np.concatenate([np.zeros((prefix.shape[0], 1)), prefix[:, :-1]], axis=1)
    with np.errstate(invalid="ignore"):
        out = np.minimum(0.0, (terminal[:, None] - starts).min(axis=1))
    out[np.isneginf(terminal)] = -np.inf
    return out


def runup_from_prefix(prefix: np.ndarray) -> np.ndarray:
    """Largest prefix gain max(0, max_l S_l) of each prefix-sum row."""
    return np.maximum(0.0, prefix.max(axis=1))


def downtrade_log(matrix: TradeMatrix, phi, omega) -> float:
    """Terminal log wealth clipped above at 0 (nonpositive; -inf on a wipeout)."""
    return float(loss_from_prefix(_path_prefix(matrix, phi, omega))[0])


def uptrade_log(matrix: TradeMatrix, phi, omega) -> float:
    """Terminal log wealth clipped below at 0 (nonnegative)."""
    return float(gain_from_prefix(_path_prefix(matrix, phi, omega))[0])


def current_drawdown_log(matrix: TradeMatrix, phi, omega) -> float:
    """Log loss from the best suffix start to the end of the equity curve."""
    return float(drawdown_from_prefix(_path_prefix(matrix, phi, omega))[0])


def runup_log(matrix: TradeMatrix, phi, omega) -> float:
    """Largest prefix gain of the equity curve, clipped below at 0."""
    return float(runup_from_prefix(_path_prefix(matrix, phi, omega))[0])


def topping_from_prefix(prefix: np.ndarray, tie_tol: float = 0.0) -> np.ndarray:
    """First topping points of prefix-sum rows.

    For each row: 0 when no prefix exceeds 0, otherwise the smallest 1-based
    index whose value is strictly positive and within ``tie_tol`` of the row
    maximum (first index wins on ties).
    """
    pre = np.atleast_2d(prefix)
    peak = pre.max(axis=1)
    cand = (pre >= (peak - tie_tol)[:, None]) & (pre > 0.0)
    first = np.argmax(cand, axis=1) + 1
    return np.where(peak > 0.0, first, 0)


def twr_topping_point(matrix: TradeMatrix, phi, omega) -> int:
    """First step index at which the compounded equity reaches its maximum above 1.

    Returns 0 when the curve never exceeds its starting value.  Prefix log
    sums within ``TOPPING_TIE_TOL`` of the maximum are treated as ties and
    the earliest index wins.
    """
    prefix = _path_prefix(matrix, phi, omega)
    return int(topping_from_prefix(prefix, TOPPING_TIE_TOL)[0])


def linear_prefix_blocks(returns: np.ndarray, digits: np.ndarray, theta) -> np.ndarray:
    """Float prefix sums of <t_j, theta> along a block of paths: (B, K)."""
    return np.cumsum((returns @ np.asarray(theta, dtype=float))[digits.T], axis=0).T


def _exact_steps(returns: np.ndarray, theta: list[float]) -> tuple[list[int], int]:
    """The exact <t_i, theta> as integer numerators over one common denominator."""
    steps = [sum(Fraction(t) * Fraction(v) for t, v in zip(r, theta)) for r in returns.tolist()]
    scale = max(s.denominator for s in steps)  # all powers of two
    return [s.numerator * (scale // s.denominator) for s in steps], scale


def linear_signs(returns, theta, counts, values=None, scale=None, steps=0) -> np.ndarray:
    """Exact signs of the linear walks sum_i x_i <t_i, theta>, x = counts[:, j, ...].

    A float value with an a-priori error bound decides each sign it clears;
    the rest are recomputed in integers (Shewchuk's adaptive predicates, DCG
    1997).  The value defaults to ``(returns @ theta) @ counts``, which needs
    2-D (N, J) counts; counts of any shape work when the caller passes their
    ``values``, a ``scale`` at least the sum of |x_i t_im theta_m| over the
    terms in each, and the ``steps`` of its sums beyond the N + M of the default.
    """
    returns, theta = np.asarray(returns, dtype=float), np.asarray(theta, dtype=float)
    if values is None:
        values, scale = (returns @ theta) @ counts, (np.abs(returns) @ np.abs(theta)) @ counts
    # no term meets more than N + M + steps roundings; eps = 2u doubles that
    # gamma bound and tiny covers underflow
    bound = _EPS * (sum(returns.shape) + 2 + steps) * scale + _TINY
    signs = np.sign(values)
    near = ~(np.abs(values) > bound)
    if near.any():
        signs[near] = 0.0
        near[near] = counts[:, near].any(axis=0)  # a zero vector is exactly 0
        if near.any():
            signs[near] = _exact_signs(returns, theta, counts[:, near])
    return signs


def _exact_signs(returns, theta, cols) -> np.ndarray:
    """Exact signs of sum_i x_i <t_i, theta> for the columns x of ``cols``, once per distinct x.

    Each column is keyed by one int64, its entries as digits of a mixed radix
    of per-row spans; when that key could overflow every column is evaluated.
    """
    cols = cols.astype(np.int64)
    lo = cols.min(axis=1)
    spans = cols.max(axis=1) - lo + 1
    first = inverse = slice(None)
    if math.prod(spans.tolist()) < 2**63:
        radix = np.cumprod(np.concatenate([[1], spans[:-1]]))
        _, first, inverse = np.unique(radix @ (cols - lo[:, None]), return_index=True,
                                      return_inverse=True)
    exact = np.array(_exact_steps(returns, theta.tolist())[0], dtype=object)
    signs = np.array([(v > 0) - (v < 0) for v in exact @ cols[:, first].astype(object)])
    return signs[inverse]


def linear_topping_blocks(returns: np.ndarray, digits: np.ndarray, theta) -> np.ndarray:
    """First topping points of the linear equity curves of a path block, exactly.

    From the float argmax of the walk S_0 = 0, S_1..S_K, every step is compared
    with the candidate, which moves to the first step exactly higher until
    none is; the topping point is the first step exactly equal to that
    maximum, 0 when S_0 is.  The float filter of ``linear_signs`` decides the
    sign of S_top - S_j first; integer counts are built, and the exact rule
    run, only for the entries it leaves undecided.
    """
    returns, theta = np.asarray(returns, dtype=float), np.asarray(theta, dtype=float)
    # every prefix sum of a path has at most its whole magnitude
    scale = 2.0 * (np.abs(returns) @ np.abs(theta))[digits].sum(axis=1)
    walk = np.vstack([np.zeros(len(digits)), linear_prefix_blocks(returns, digits, theta).T])
    bound = _EPS * (sum(returns.shape) + 2 + len(walk)) * scale + _TINY
    paths, top = np.arange(len(digits)), walk.argmax(axis=0)
    while True:
        values = walk[top, paths] - walk
        signs = np.sign(values)
        near = ~(np.abs(values) > bound)
        signs[top, paths], near[top, paths] = 0.0, False  # the candidate is exactly level
        step, path = np.nonzero(near)
        if len(path):
            cols, col = np.unique(path, return_inverse=True)
            hits = digits[cols].T == np.arange(len(returns))[:, None, None]
            counts = np.zeros((len(returns), len(walk), len(cols)), np.min_scalar_type(-len(walk)))
            np.cumsum(hits, axis=1, dtype=counts.dtype, out=counts[:, 1:])
            signs[step, path] = linear_signs(
                returns, theta, counts[:, top[path], col] - counts[:, step, col],
                values[step, path], scale[path], len(walk),
            )
        higher = signs < 0
        if not higher.any():
            return np.argmax(signs == 0, axis=0)
        top = np.where(higher.any(axis=0), higher.argmax(axis=0), top)


def linear_prefix_sums(matrix: TradeMatrix, theta, omega) -> np.ndarray:
    """Prefix sums of <t_j, theta> along one path, each exact and then rounded."""
    steps, scale = _exact_steps(matrix.returns, np.asarray(theta, dtype=float).tolist())
    walk = itertools.accumulate(steps[i] for i in _omega_index(matrix, omega).tolist())
    return np.array([value / scale for value in walk])


def linear_topping_point(matrix: TradeMatrix, theta, omega) -> int:
    """First topping point of the linearized equity curve sum of <t_j, theta>.

    No tolerance band: the smallest index attaining the strictly positive
    maximum of the prefix sums, 0 when that maximum is nonpositive.  Exact
    ties resolve to the earliest index.
    """
    idx = _omega_index(matrix, omega)
    return int(linear_topping_blocks(matrix.returns, idx[None, :], theta)[0])
