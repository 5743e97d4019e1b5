"""Trade return matrices, admissible portion vectors, and structural checks.

The basic object is an N x M matrix of net trade returns together with row
probabilities: row i is the joint outcome of all M trading systems in period
i and is drawn with probability p_i in the trading game.  On top of it live
the per-period holding period returns, the polyhedron of admissible portion
vectors, the weighted geometric growth rate, and the "no risk free
investment" check with its linear-programming certificate.
"""

from __future__ import annotations

import csv
import enum
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, ValidationError

#: Absolute tolerance used to classify a portion vector as sitting on the
#: boundary of the admissible set (smallest holding period return == 0).
BOUNDARY_TOL = 1e-12

#: Row probabilities must sum to one within this absolute tolerance.
PROB_SUM_TOL = 1e-12

#: Relative singular-value threshold of the rank test.
RANK_RTOL = 1e-10


def float_array(values, what: str) -> np.ndarray:
    """``values`` as a float array; a malformed number or a ragged row is a ``ValidationError``."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be a regular array of numbers: {exc}") from exc


class Membership(enum.Enum):
    """Classification of a portion vector against the admissible polyhedron."""

    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


class TradeMatrix:
    """Immutable N x M net-return matrix with row probabilities.

    Entry (i, k) is the net return per unit of capital allocated to trading
    system k when period outcome i occurs.  Negative entries are losses.
    Probabilities default to the uniform distribution.  Instances are safe to
    share across threads; the underlying arrays are read-only.  ``row_reach``
    is the largest row sum of |T|, so |<t_i, phi>| <= row_reach * max_k |phi_k|.
    """

    __slots__ = ("returns", "probs", "row_reach")

    def __init__(self, returns, probs=None):
        rets = float_array(returns, "returns")
        if rets.ndim != 2 or rets.shape[0] < 1 or rets.shape[1] < 1:
            raise ValidationError("returns must be a nonempty N x M matrix")
        if not np.all(np.isfinite(rets)):
            raise ValidationError("returns must contain only finite values")
        n = rets.shape[0]
        if probs is None:
            pv = np.full(n, 1.0 / n)
        else:
            pv = float_array(probs, "probs")
            if pv.shape != (n,):
                raise ValidationError(
                    f"probs must have length {n}, got shape {pv.shape}"
                )
            if not np.all(np.isfinite(pv)) or np.any(pv <= 0.0):
                raise ValidationError("probs must be finite and strictly positive")
            if abs(float(pv.sum()) - 1.0) > PROB_SUM_TOL:
                raise ValidationError(
                    f"probs must sum to 1 within {PROB_SUM_TOL}, got {float(pv.sum())!r}"
                )
        rets.setflags(write=False)
        pv.setflags(write=False)
        self.returns = rets
        self.probs = pv
        self.row_reach = float(np.abs(rets).sum(axis=1).max())

    @property
    def n_periods(self) -> int:
        return self.returns.shape[0]

    @property
    def n_systems(self) -> int:
        return self.returns.shape[1]

    def dots(self, phi) -> np.ndarray:
        """Per-period scalar products <t_i, phi> as a length-N vector."""
        return self.returns @ as_portions(self, phi)

    def hpr_values(self, phi) -> np.ndarray:
        """Per-period holding period returns 1 + <t_i, phi>."""
        return 1.0 + self.dots(phi)

    def to_dict(self) -> dict:
        return {"returns": self.returns.tolist(), "probs": self.probs.tolist()}

    def __repr__(self) -> str:
        return (
            f"TradeMatrix(N={self.n_periods}, M={self.n_systems}, "
            f"probs={self.probs.tolist()})"
        )


@dataclass(frozen=True)
class PortionVector:
    """Capital fractions invested per trading system.

    Negative entries are short positions.  ``norm`` and ``direction`` give
    the radial decomposition phi = s * theta with theta on the unit sphere.
    """

    phi: np.ndarray

    def __post_init__(self):
        arr = np.array(self.phi, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("portion vector must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("portion vector must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "phi", arr)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.phi))

    @property
    def direction(self) -> np.ndarray:
        s = self.norm
        if s == 0.0:
            raise DomainError("zero portion vector has no direction")
        return self.phi / s


def as_portions(matrix: TradeMatrix, phi) -> np.ndarray:
    """Coerce ``phi`` (array-like or PortionVector) to a length-M float array."""
    if isinstance(phi, PortionVector):
        arr = phi.phi
    else:
        arr = np.asarray(phi, dtype=float)
    if arr.shape != (matrix.n_systems,):
        raise ValidationError(
            f"portion vector must have length {matrix.n_systems}, got shape {arr.shape}"
        )
    return arr


class AdmissibleSet:
    """Polyhedron of portion vectors that never produce a negative period return.

    The set is the intersection of the N half spaces 1 + <t_i, phi> >= 0 and
    always contains the origin in its interior.  Classification against the
    boundary uses the absolute tolerance ``BOUNDARY_TOL`` on the smallest
    holding period return; exact arithmetic is not available, so callers that
    need strictness should test for ``Membership.INTERIOR``.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: TradeMatrix):
        self.matrix = matrix

    def classify(self, phi) -> Membership:
        worst = float(self.matrix.hpr_values(phi).min())
        if worst > BOUNDARY_TOL:
            return Membership.INTERIOR
        if worst >= -BOUNDARY_TOL:
            return Membership.BOUNDARY
        return Membership.OUTSIDE

    def contains(self, phi) -> bool:
        return self.classify(phi) is not Membership.OUTSIDE

    def is_interior(self, phi) -> bool:
        return self.classify(phi) is Membership.INTERIOR

    def max_radius(self, theta) -> float:
        """Largest s with s * theta still admissible (inf if the ray never exits)."""
        dots = self.matrix.dots(theta)
        losing = dots < 0.0
        if not losing.any():
            return math.inf
        with np.errstate(over="ignore"):
            return float((-1.0 / dots[losing]).min())


def hpr(matrix: TradeMatrix, phi, period: int) -> float:
    """Holding period return 1 + <t_period, phi> for a 1-based period index."""
    if not 1 <= period <= matrix.n_periods:
        raise IndexError(
            f"period must be in 1..{matrix.n_periods}, got {period}"
        )
    return float(1.0 + matrix.returns[period - 1] @ as_portions(matrix, phi))


def membership(matrix: TradeMatrix, phi) -> Membership:
    """Classify ``phi`` against the admissible polyhedron of ``matrix``."""
    return AdmissibleSet(matrix).classify(phi)


def require_interior(matrix: TradeMatrix, phi) -> np.ndarray:
    """Coerce ``phi`` and raise DomainError unless it is strictly admissible."""
    arr = as_portions(matrix, phi)
    if not AdmissibleSet(matrix).is_interior(arr):
        raise DomainError(
            "portion vector is not in the interior of the admissible set"
        )
    return arr


def log_gamma_mean(matrix: TradeMatrix, phi) -> float:
    """Logarithm of the probability-weighted geometric mean of the HPRs."""
    arr = require_interior(matrix, phi)
    return float(matrix.probs @ np.log1p(matrix.returns @ arr))


def gamma_mean(matrix: TradeMatrix, phi) -> float:
    """Probability-weighted geometric mean of the holding period returns."""
    arr = as_portions(matrix, phi)
    if not arr.any():
        return 1.0
    return math.exp(log_gamma_mean(matrix, arr))


def expected_log_z(matrix: TradeMatrix, phi, draws: int) -> float:
    """Expected terminal log wealth of the game after ``draws`` independent draws.

    Equals draws * log(gamma_mean(phi)); the path-enumeration expectation of
    the terminal log wealth gives the same value.
    """
    if draws < 1:
        raise ValidationError("draws must be >= 1")
    arr = as_portions(matrix, phi)
    if not arr.any():
        return 0.0
    return draws * log_gamma_mean(matrix, arr)


def matrix_rank(a) -> int:
    """Numerical rank via SVD with threshold RANK_RTOL * largest singular value."""
    arr = np.atleast_2d(np.asarray(a, dtype=float))
    sv = np.linalg.svd(arr, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int((sv > RANK_RTOL * sv[0]).sum())


def positive_dual_certificate(a) -> np.ndarray | None:
    """Vector y >= 1 with a.T @ y = 0, or None when no such vector exists.

    The returned certificate minimizes sum(y), which makes it unique for
    generic inputs and keeps reports reproducible.
    """
    # imported here: it takes ~0.3 s and only the structural check needs it
    import scipy.optimize

    arr = np.atleast_2d(np.asarray(a, dtype=float))
    n = arr.shape[0]
    res = scipy.optimize.linprog(
        c=np.ones(n),
        A_eq=arr.T,
        b_eq=np.zeros(arr.shape[1]),
        bounds=[(1.0, None)] * n,
        method="highs",
    )
    if not res.success:
        return None
    return np.asarray(res.x, dtype=float)


def nonneg_image_direction(a) -> np.ndarray | None:
    """Nonzero x with a @ x >= 0 componentwise, or None when infeasible.

    Solves min ||x||_1 subject to a @ x >= 0 and sum(a @ x) = 1; feasibility
    is the complementary alternative of ``positive_dual_certificate``.
    """
    import scipy.optimize

    arr = np.atleast_2d(np.asarray(a, dtype=float))
    n, m = arr.shape
    # x = u - v with u, v >= 0
    c = np.ones(2 * m)
    block = np.hstack([arr, -arr])
    res = scipy.optimize.linprog(
        c=c,
        A_ub=-block,
        b_ub=np.zeros(n),
        A_eq=block.sum(axis=0, keepdims=True),
        b_eq=np.array([1.0]),
        bounds=[(0.0, None)] * (2 * m),
        method="highs",
    )
    if not res.success:
        return None
    x = res.x[:m] - res.x[m:]
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class NoRiskFreeResult:
    """Outcome of the no-risk-free-investment check.

    On success ``certificate`` holds y >= 1 with returns.T @ y = 0.  On
    failure ``direction`` holds a unit vector theta with all period returns
    <t_i, theta> >= 0, i.e. an allocation direction that never loses.
    """

    satisfied: bool
    rank: int
    certificate: np.ndarray | None = None
    direction: np.ndarray | None = None

    def __bool__(self) -> bool:
        return self.satisfied


def check_no_risk_free(matrix: TradeMatrix) -> NoRiskFreeResult:
    """Check that every allocation direction loses in at least one period.

    Equivalent finite test: the return matrix has full column rank and a
    strictly positive vector y with returns.T @ y = 0 exists (Stiemke's
    alternative).  Either a certificate y or a violating direction is
    returned.
    """
    t = matrix.returns
    rank = matrix_rank(t)
    if rank < matrix.n_systems:
        # Any kernel direction never loses: T @ theta = 0.
        _, _, vh = np.linalg.svd(t)
        theta = vh[-1]
        theta = _canonical_unit(theta)
        return NoRiskFreeResult(False, rank, direction=theta)
    y = positive_dual_certificate(t)
    if y is not None:
        return NoRiskFreeResult(True, rank, certificate=y)
    theta = nonneg_image_direction(t)
    if theta is None:  # pragma: no cover - alternatives are exhaustive
        raise RuntimeError("LP alternatives were both reported infeasible")
    theta = theta / np.linalg.norm(theta)
    return NoRiskFreeResult(False, rank, direction=theta)


def _canonical_unit(v: np.ndarray) -> np.ndarray:
    # sign convention for kernel vectors only; T @ v = 0 either way
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    lead = v[np.abs(v) > 1e-12]
    if lead.size and lead[0] < 0.0:
        v = -v
    return v


def load_trade_matrix(path, probs=None) -> TradeMatrix:
    """Load a trade matrix from a JSON or CSV file.

    JSON layout: {"returns": [[...]], "probs": [...]} with probs optional
    (uniform when omitted).  CSV: N rows of M return columns; probabilities
    can only come from the ``probs`` argument in that case.
    """
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {p}: {exc}") from exc
    if p.suffix.lower() == ".csv":
        rows = [row for row in csv.reader(text.splitlines()) if row]
        try:
            returns = [[float(cell) for cell in row] for row in rows]
        except ValueError as exc:
            raise ValidationError(f"bad CSV cell in {p}: {exc}") from exc
        return TradeMatrix(returns, probs)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad JSON in {p}: {exc}") from exc
    if not isinstance(data, dict) or "returns" not in data:
        raise ValidationError(f"{p} does not look like a trade-matrix file")
    file_probs = data.get("probs")
    if probs is not None:
        file_probs = probs
    return TradeMatrix(data["returns"], file_probs)
