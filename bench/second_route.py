"""Output checks: every emitted value sampled here is recomputed by another route.

The routes avoid the program's own enumeration code:

* count form by a forward dynamic program over count vectors,
  w_k(x) = sum_i p_i w_{k-1}(x - e_i), instead of multinomial weights;
* the drawdown family by Spitzer's identity, rho_cur(K) = sum_k rho_down(k)/k
  (and likewise for the linearization and the Lambda/Upsilon totals);
* the program's path form (``expected_downtrade``) against its count form,
  and the plain-Python oracles in ``tests/oracles.py``, where N^K is small;
* structural certificates (``check``, ``verify``) are checked against the
  game directly, and ``from-market`` against the bridge formula.

A disagreement is reported as a failed op; nothing is re-sampled.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from drawdown_risk import TradeMatrix, risk_measures

#: Relative tolerance of a recomputed value (absolute below magnitude 1).
RTOL = 1e-9

#: Largest N^K for the program's path form as second route of ``down``.
PATH_FORM_LIMIT = 1 << 16

#: Largest N^K for the plain-Python oracles.
ORACLE_LIMIT = 4096

#: Matches the program's interior test (smallest HPR above this tolerance).
BOUNDARY_TOL = 1e-12

SPITZER_KINDS = {"cur", "curX", "curFirstApprox", "runupExpect"}
NONNEGATIVE_KINDS = {"down", "downX", "cur", "curX", "upExpect", "runupExpect"}


def _oracles(root: Path):
    sys.path.insert(0, str(root / "tests"))
    try:
        import oracles
    finally:
        sys.path.pop(0)
    return oracles


class CountLevels:
    """Count vectors and their probabilities after 1..K draws, by forward DP."""

    def __init__(self, probs, draws: int):
        p = np.asarray(probs, dtype=float)
        n = p.size
        base = draws + 1
        powers = base ** np.arange(n, dtype=np.int64)
        keys = np.zeros(1, dtype=np.int64)
        w = np.ones(1)
        self.levels = []
        for _ in range(draws):
            grown = np.concatenate([keys + powers[i] for i in range(n)])
            gw = np.concatenate([w * p[i] for i in range(n)])
            keys, inv = np.unique(grown, return_inverse=True)
            w = np.bincount(inv.ravel(), weights=gw)
            comps = (keys[:, None] // powers[None, :]) % base
            self.levels.append((comps.astype(float), w))


def _log_form(coef, args, *, neg_inf_ok: bool) -> float:
    """sum c_n log(1 + a_n) over nonzero c_n; outside the log domain -inf or +inf sentinel."""
    total = 0.0
    for c, a in zip(coef, args):
        if c == 0.0:
            continue
        if a <= -1.0:
            return -math.inf if neg_inf_ok else math.inf
        total += c * math.log1p(a)
    return total


def expected_value(returns: np.ndarray, levels: CountLevels, kind: str, phi, draws: int) -> float:
    """The value the CLI must print for ``kind`` at ``phi``, inf sentinels included.

    Terminal kinds read the count distribution after ``draws`` draws; the
    drawdown kinds are the Spitzer sums of the same quantity over 1..draws.
    """
    phi = np.asarray(phi, dtype=float)
    dots = returns @ phi
    if kind in SPITZER_KINDS:
        terms = [(1.0 / k, *levels.levels[k - 1]) for k in range(1, draws + 1)]
    else:
        terms = [(1.0, *levels.levels[draws - 1])]
    if kind in ("down", "cur", "downX", "curX"):
        if kind in ("down", "cur"):
            if (1.0 + dots).min() <= BOUNDARY_TOL:
                return math.inf
            dots = np.log1p(dots)
        return sum(-c * (w @ np.minimum(comps @ dots, 0.0)) for c, comps, w in terms) + 0.0
    scale = float(np.linalg.norm(phi))
    if scale == 0.0:
        return 0.0
    lin = returns @ (phi / scale)
    loss = np.zeros(returns.shape[0])
    gain = np.zeros(returns.shape[0])
    for c, comps, w in terms:
        down = comps @ lin <= 0.0
        loss += c * (w[down, None] * comps[down]).sum(axis=0)
        gain += c * (w[~down, None] * comps[~down]).sum(axis=0)
    if kind in ("downFirstApprox", "curFirstApprox"):
        return _log_form(loss, scale * lin, neg_inf_ok=True)
    return _log_form(gain, scale * lin, neg_inf_ok=False)


def close(emitted: float, expected: float) -> bool:
    if math.isinf(expected) or math.isinf(emitted):
        return emitted == expected
    return abs(emitted - expected) <= RTOL * max(1.0, abs(expected))


class Checker:
    """Recomputes sampled values after the timed loop; state lives per game."""

    def __init__(self, spec: dict, root: Path):
        self.games = spec["games"]
        self.root = root
        self._levels: dict[tuple[str, int], CountLevels] = {}
        self._oracles = None
        self.disagreements: list[str] = []

    def levels(self, gid: str, draws: int) -> CountLevels:
        key = (gid, draws)
        if key not in self._levels:
            self._levels[key] = CountLevels(self.games[gid]["probs"], draws)
        return self._levels[key]

    def value_ok(self, gid: str, kind: str, draws: int, phi, emitted: float) -> bool:
        """Check one emitted value by every second route that applies to it."""
        game = self.games[gid]
        returns = np.asarray(game["returns"])
        ok = True
        want = expected_value(returns, self.levels(gid, draws), kind, phi, draws)
        if not close(emitted, want):
            ok = False
            route = "Spitzer sum" if kind in SPITZER_KINDS else "count DP"
            self._note(gid, kind, draws, phi, emitted, want, route)
        paths = returns.shape[0] ** draws
        if kind == "down" and math.isfinite(emitted) and paths <= PATH_FORM_LIMIT:
            matrix = TradeMatrix(game["returns"], game["probs"])
            path_form = -risk_measures.expected_downtrade(matrix, phi, draws) + 0.0
            if not close(emitted, path_form):
                ok = False
                self._note(gid, kind, draws, phi, emitted, path_form, "path form")
        if kind in ("down", "cur") and math.isfinite(emitted) and paths <= ORACLE_LIMIT:
            if self._oracles is None:
                self._oracles = _oracles(self.root)
            orc = self._oracles
            fn = orc.downtrade if kind == "down" else orc.current_drawdown
            want = -orc.expectation(game["returns"], game["probs"], list(phi), draws, fn) + 0.0
            if not close(emitted, want):
                ok = False
                self._note(gid, kind, draws, phi, emitted, want, "tests/oracles.py")
        return ok

    def _note(self, gid, kind, draws, phi, emitted, want, route):
        if len(self.disagreements) < 20:
            self.disagreements.append(
                f"{gid} {kind} K={draws} phi={list(map(float, phi))}: "
                f"emitted {emitted!r}, {route} gives {want!r}"
            )


# ---------------------------------------------------------------------------
# Structural checks of the stdout of each command (run right after the op)


def parse_surface(text: str, axes) -> np.ndarray | None:
    """Rows of the surface CSV if header and phi lattice are exactly right."""
    lines = text.splitlines()
    dim = len(axes)
    if lines[:1] != [",".join([f"phi{j + 1}" for j in range(dim)] + ["value"])]:
        return None
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    ticks = [np.linspace(lo, hi, steps) for lo, hi, steps in axes]
    mesh = np.meshgrid(*ticks, indexing="ij")
    lattice = np.stack([g.ravel() for g in mesh], axis=1)
    if rows.shape != (lattice.shape[0], dim + 1) or not np.array_equal(rows[:, :dim], lattice):
        return None
    return rows


def sentinels_ok(returns: np.ndarray, kind: str, rows: np.ndarray) -> bool:
    """Exact-measure surfaces: +inf exactly at inadmissible points, finite elsewhere."""
    values = rows[:, -1]
    if kind in ("downX", "curX"):
        return bool(np.all(np.isfinite(values)))
    if kind in ("down", "cur"):
        outside = (1.0 + rows[:, :-1] @ returns.T).min(axis=1) <= BOUNDARY_TOL
        return bool(np.array_equal(outside, values == math.inf) and np.all(np.isfinite(values[~outside])))
    sentinel = math.inf if kind in NONNEGATIVE_KINDS else -math.inf
    return bool(np.all(np.isfinite(values) | (values == sentinel)))


_VEC = r"\(([^)]*)\)"
_SUITE_TOTALS = {
    "identities": lambda s: 3 * s,
    "ordering": lambda s: 3 * s,
    "convexity": lambda s: 4 * s,
    "homogeneity": lambda s: 6 * (min(25, s) or 1),
    "monotonicity": lambda s: 4 * (min(64, s) if s else 64),
    "small-s": lambda s: 4 * (min(64, s) if s else 64),
    "topping": lambda s: 3 * min(10, max(1, s)),
    "span-diagnostic": lambda s: 1,
}


def _vec(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


def certificate_ok(matrix: np.ndarray, y: np.ndarray) -> bool:
    """y >= 1 with matrix.T @ y = 0 (Stiemke certificate / state prices)."""
    resid = np.abs(matrix.T @ y).max()
    return bool(np.all(y >= 1.0 - 1e-9) and resid <= 1e-9 * max(1.0, float(np.abs(y).max())))


def _certificate_line(matrix: np.ndarray, line: str, prefix: str) -> bool:
    found = re.fullmatch(re.escape(prefix) + _VEC, line)
    return bool(found) and certificate_ok(matrix, _vec(found.group(1)))


def check_output(game: dict, lines: list[str]) -> tuple[bool, int]:
    """``check`` stdout: rank, Stiemke certificate and, for markets, state prices."""
    returns = np.asarray(game["returns"])
    m = returns.shape[1]
    want = 3 if game["market"] else 2
    if len(lines) != want or lines[0] != f"rank: {m} = M={m}, PASS":
        return False, len(lines)
    ok = _certificate_line(returns, lines[1], "assumption: PASS, certificate y=")
    if game["market"]:
        mk = game["market"]
        excess = np.asarray(mk["scenarios"]) - mk["R"] * np.asarray(mk["S0"])
        ok &= _certificate_line(excess, lines[2], "arbitrage: PASS, state prices y=")
    return ok, len(lines)


def verify_output(game: dict, samples: int, lines: list[str]) -> tuple[bool, int]:
    """``verify`` stdout: certificate, bridge line for markets, full suite counts, PASS."""
    if not lines:
        return False, 0
    ok = _certificate_line(np.asarray(game["returns"]), lines[0], "assumption: PASS, certificate y=")
    body = lines[1:]
    if game["market"]:
        ok &= body[:1] == ["bridge-consistency: 1/1 pass"]
        body = body[1:]
    values = 0
    names = list(_SUITE_TOTALS)
    ok &= len(body) == len(names) + 1 and body[-1:] == ["verification: PASS"]
    for name, line in zip(names, body):
        total = _SUITE_TOTALS[name](samples)
        ok &= line == f"{name}: {total}/{total} pass"
        values += total
    return bool(ok), values


def from_market_output(game: dict, text: str) -> tuple[bool, int]:
    """``from-market`` JSON against (S1 - R*S0) / (R*S0) computed here."""
    mk = game["market"]
    s0 = np.asarray(mk["S0"])
    want = (np.asarray(mk["scenarios"]) - mk["R"] * s0) / (mk["R"] * s0)
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return False, 0
    got = np.asarray(data.get("returns"))
    ok = got.shape == want.shape and np.allclose(got, want, rtol=1e-12, atol=1e-15)
    ok &= data.get("probs") == mk["probs"]
    return bool(ok), int(want.shape[0])
