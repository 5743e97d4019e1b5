"""Bridge between a one-period financial market and the trading-game model.

A market consists of a riskless bond with gross return R, positive initial
prices for M risky assets, and an N x M table of scenario prices.  The
bridge maps it to a trade return matrix through the discounted relative
returns (S1 - R*S0) / (R*S0), maps unit-cost portfolios to portion vectors
through phi_m = S0_m * x_m, and relates the market's no-arbitrage property
to the no-risk-free-investment check on the derived matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, ValidationError
from .trade_core import (
    TradeMatrix,
    float_array,
    matrix_rank,
    nonneg_image_direction,
    positive_dual_certificate,
)

#: Unit-cost portfolios must satisfy |S0 . x - 1| <= this tolerance.
UNIT_COST_TOL = 1e-12


class OnePeriodMarket:
    """One-period market: bond rate, initial risky prices, scenario prices.

    ``scenario_prices`` has one row per scenario and one column per risky
    asset.  Scenario probabilities default to uniform.  Negative scenario
    prices are rejected unless ``allow_negative_prices`` is set; the bridge
    formulas themselves place no sign constraint on them.
    """

    __slots__ = ("bond_growth", "initial_prices", "scenario_prices", "probs")

    def __init__(
        self,
        bond_growth,
        initial_prices,
        scenario_prices,
        probs=None,
        allow_negative_prices: bool = False,
    ):
        try:
            r = float(bond_growth)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bond gross return must be a number: {exc}") from exc
        if not math.isfinite(r) or r < 1.0:
            raise ValidationError("bond gross return must be finite and >= 1")
        s0 = float_array(initial_prices, "initial prices")
        if s0.ndim != 1 or s0.size < 1:
            raise ValidationError("initial prices must be a nonempty vector")
        if not np.all(np.isfinite(s0)) or np.any(s0 <= 0.0):
            raise ValidationError("initial prices must be finite and positive")
        s1 = float_array(scenario_prices, "scenario prices")
        if s1.ndim != 2 or s1.shape[1] != s0.size or s1.shape[0] < 1:
            raise ValidationError(
                f"scenario prices must be an N x {s0.size} matrix"
            )
        if not np.all(np.isfinite(s1)):
            raise ValidationError("scenario prices must be finite")
        if not allow_negative_prices and np.any(s1 < 0.0):
            raise ValidationError(
                "negative scenario prices rejected; pass "
                "allow_negative_prices=True to accept them"
            )
        n = s1.shape[0]
        if probs is None:
            p = np.full(n, 1.0 / n)
        else:
            p = float_array(probs, "probs")
            if p.shape != (n,):
                raise ValidationError(f"probs must have length {n}")
            if not np.all(np.isfinite(p)) or np.any(p <= 0.0):
                raise ValidationError("probs must be finite and strictly positive")
            if abs(float(p.sum()) - 1.0) > 1e-12:
                raise ValidationError("probs must sum to 1")
        for arr in (s0, s1, p):
            arr.setflags(write=False)
        self.bond_growth = r
        self.initial_prices = s0
        self.scenario_prices = s1
        self.probs = p

    @property
    def n_scenarios(self) -> int:
        return self.scenario_prices.shape[0]

    @property
    def n_assets(self) -> int:
        return self.initial_prices.size

    def excess_matrix(self) -> np.ndarray:
        """Scenario excess prices S1 - R * S0, one row per scenario."""
        return self.scenario_prices - self.bond_growth * self.initial_prices

    def to_dict(self) -> dict:
        return {
            "R": self.bond_growth,
            "S0": self.initial_prices.tolist(),
            "scenarios": self.scenario_prices.tolist(),
            "probs": self.probs.tolist(),
        }


@dataclass(frozen=True)
class Portfolio:
    """Asset holdings, bond first: x[0] bond units, x[1:] risky units."""

    holdings: np.ndarray

    def __post_init__(self):
        arr = np.array(self.holdings, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValidationError("portfolio needs a bond and at least one asset")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("portfolio holdings must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "holdings", arr)

    @property
    def bond(self) -> float:
        return float(self.holdings[0])

    @property
    def risky(self) -> np.ndarray:
        return self.holdings[1:]


def _require_unit_cost(market: OnePeriodMarket, portfolio: Portfolio) -> None:
    if portfolio.risky.size != market.n_assets:
        raise ValidationError(
            f"portfolio must hold {market.n_assets} risky assets"
        )
    cost = portfolio.bond + float(market.initial_prices @ portfolio.risky)
    if abs(cost - 1.0) > UNIT_COST_TOL:
        raise ValidationError(
            f"portfolio initial cost must be 1, got {cost!r}"
        )


def build_trade_matrix(market: OnePeriodMarket) -> TradeMatrix:
    """Derive the trade return matrix of discounted relative asset returns."""
    denom = market.bond_growth * market.initial_prices
    returns = market.excess_matrix() / denom
    return TradeMatrix(returns, market.probs)


def risky_to_portions(market: OnePeriodMarket, risky_holdings) -> np.ndarray:
    """Map risky holdings to portion fractions phi_m = S0_m * x_m."""
    x = np.asarray(risky_holdings, dtype=float)
    if x.shape != (market.n_assets,):
        raise ValidationError(f"risky holdings must have length {market.n_assets}")
    return market.initial_prices * x


def portfolio_to_portions(market: OnePeriodMarket, portfolio: Portfolio) -> np.ndarray:
    """Portion vector of a unit-cost portfolio (fractions in risky assets)."""
    _require_unit_cost(market, portfolio)
    return risky_to_portions(market, portfolio.risky)


def portions_to_portfolio(market: OnePeriodMarket, phi) -> Portfolio:
    """Unit-cost portfolio realizing the given portion vector.

    Risky holdings are phi_m / S0_m and the bond absorbs the remainder, so
    the round trip with ``portfolio_to_portions`` is the identity.
    """
    arr = np.asarray(phi, dtype=float)
    if arr.shape != (market.n_assets,):
        raise ValidationError(f"portions must have length {market.n_assets}")
    risky = arr / market.initial_prices
    bond = 1.0 - float(arr.sum())
    return Portfolio(np.concatenate(([bond], risky)))


def log_utility(market: OnePeriodMarket, portfolio: Portfolio) -> float:
    """Expected log payoff of a unit-cost portfolio in excess of the bond.

    Equals the probability-weighted sum of log holding period returns of the
    derived trade matrix at the mapped portion vector; raises when some
    scenario payoff is nonpositive.
    """
    _require_unit_cost(market, portfolio)
    phi = risky_to_portions(market, portfolio.risky)
    matrix = build_trade_matrix(market)
    hprs = matrix.hpr_values(phi)
    if np.any(hprs <= 0.0):
        raise DomainError("portfolio payoff is nonpositive in some scenario")
    return float(matrix.probs @ np.log(hprs))


@dataclass(frozen=True)
class ArbitrageResult:
    """Outcome of the arbitrage check.

    Without arbitrage, ``state_prices`` holds y >= 1 with excess.T @ y = 0
    (unnormalized risk-neutral weights).  With arbitrage, ``portfolio``
    holds risky holdings whose excess payoff is nonnegative and not
    identically zero.
    """

    has_arbitrage: bool
    rank: int
    state_prices: np.ndarray | None = None
    portfolio: np.ndarray | None = None


def check_arbitrage(market: OnePeriodMarket) -> ArbitrageResult:
    """Decide arbitrage of the market via the excess-price matrix.

    Feasibility of strictly positive state prices rules out arbitrage for
    any rank; otherwise a minimal-l1 arbitrage portfolio is produced.  For
    full-rank markets the verdict coincides with the no-risk-free-investment
    check on the derived trade matrix.
    """
    excess = market.excess_matrix()
    rank = matrix_rank(excess)
    y = positive_dual_certificate(excess)
    if y is not None:
        return ArbitrageResult(False, rank, state_prices=y)
    x_hat = nonneg_image_direction(excess)
    if x_hat is None:  # pragma: no cover - alternatives are exhaustive
        raise RuntimeError("LP alternatives were both reported infeasible")
    return ArbitrageResult(True, rank, portfolio=x_hat)


def find_riskless_portfolio(market: OnePeriodMarket) -> np.ndarray | None:
    """Nontrivial risky holdings with nonnegative excess payoff, or None.

    Such holdings exist exactly when the market has an arbitrage or the
    excess-price matrix is rank deficient (a kernel vector is riskless with
    zero excess payoff everywhere).
    """
    excess = market.excess_matrix()
    if matrix_rank(excess) < market.n_assets:
        _, _, vh = np.linalg.svd(excess)
        kernel = vh[-1]
        return kernel / np.linalg.norm(kernel)
    result = check_arbitrage(market)
    if result.has_arbitrage:
        return result.portfolio
    return None


def load_market(path) -> OnePeriodMarket:
    """Load a market from JSON: {"R": , "S0": [...], "scenarios": [[...]], "probs": [...]}.

    The bond's unit initial price is implicit; "probs" is optional.
    """
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad JSON in {p}: {exc}") from exc
    if not isinstance(data, dict) or "scenarios" not in data:
        raise ValidationError(f"{p} does not look like a market file")
    missing = {"R", "S0", "scenarios"} - set(data)
    if missing:
        raise ValidationError(f"market file {p} is missing keys {sorted(missing)}")
    return OnePeriodMarket(
        data["R"], data["S0"], data["scenarios"], data.get("probs")
    )


def is_market_file(path) -> bool:
    """Heuristic: JSON files with a "scenarios" key are market files."""
    p = Path(path)
    if p.suffix.lower() == ".csv":
        return False
    try:
        data = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError):
        return False
    return isinstance(data, dict) and "scenarios" in data
