"""Seeded workload generator: games, market files and the CLI op cycle.

A workload is a fixed cycle of CLI operations over generated games.  The
seed changes every game entry, probability, market price and evaluation
point, never the shapes (N, M, K, grid sizes), so run cost depends on the
program and not on which seed was drawn.  Every game satisfies the
no-risk-free-investment assumption by construction (rows are centred with
strictly positive weights y, so y is a Stiemke certificate) and is then
scaled so that INADMISSIBLE_TARGET of its grid window lies outside the
admissible set, like the default window on the reference game.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: Default plotting window of the CLI; surfaces here use it with fewer steps.
WINDOW = (-0.4, 0.8)

#: Share of grid points outside the admissible set that game scaling aims at.
INADMISSIBLE_TARGET = 1.0 / 3.0

#: Why each workload exists; BENCHMARK.json carries the same text.
WHY = {
    "grid-terminal": "per-point surface loop over the count-form kernel, no path enumeration",
    "grid-drawdown": "per-point surface loop where each point is a small cached path enumeration",
    "horizon-sweep": "few large streamed path enumerations and large-K count forms, no grids",
    "verify-battery": "verify, check and from-market: per-path generator stack, LPs, market bridge",
}


def _stiemke_game(rng: np.random.Generator, n: int, m: int):
    """Random N x M returns with y @ T = 0 for some y > 0, plus probabilities."""
    raw = rng.uniform(-1.0, 1.0, size=(n, m))
    y = rng.uniform(0.5, 1.5, size=n)
    returns = raw - (y @ raw) / y.sum()
    probs = rng.dirichlet(np.full(n, 4.0))
    return returns, probs / probs.sum()


def _grid_points(axes) -> np.ndarray:
    ticks = [np.linspace(lo, hi, steps) for lo, hi, steps in axes]
    mesh = np.meshgrid(*ticks, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def _critical_scales(returns: np.ndarray, axes) -> np.ndarray:
    """Per grid point, the scale of ``returns`` from which the point is inadmissible."""
    worst = (-(_grid_points(axes) @ returns.T)).max(axis=1)
    with np.errstate(divide="ignore"):
        return np.where(worst > 0.0, (1.0 - 1e-12) / worst, np.inf)


def inadmissible_share(returns: np.ndarray, axes) -> float:
    """Share of grid points with a holding period return within 1e-12 of 0 or below."""
    return float((_critical_scales(returns, axes) <= 1.0).mean())


def _scale_to_window(returns: np.ndarray, axes) -> np.ndarray:
    """Scale returns so the target share of the window is inadmissible.

    The scale is the geometric midpoint between the critical scales of the
    last point let out and the first point kept in, so no grid point sits on
    the boundary of the admissible set.
    """
    crit = np.sort(_critical_scales(returns, axes))
    k = max(1, round(INADMISSIBLE_TARGET * crit.size))
    while k < crit.size and crit[k] == crit[k - 1]:
        k += 1
    return returns * float(np.sqrt(crit[k - 1] * crit[k]))


def _interior_point(rng: np.random.Generator, returns: np.ndarray, frac: float) -> list[float]:
    """A point at ``frac`` of the exit radius along a seeded direction."""
    theta = rng.standard_normal(returns.shape[1])
    theta /= np.linalg.norm(theta)
    dots = returns @ theta
    radius = float((-1.0 / dots[dots < 0.0]).min())
    return [float(v) for v in theta * radius * frac]


def _grid_arg(axes) -> str:
    return "--grid=" + ",".join(f"{lo!r}:{hi!r}:{steps}" for lo, hi, steps in axes)


class _Builder:
    def __init__(self, name: str, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed % 2**64, sum(name.encode())])
        self.workdir = workdir
        self.games: dict[str, dict] = {}
        self.ops: list[dict] = []

    def game(self, gid: str, n: int, m: int, axes=None) -> dict:
        returns, probs = _stiemke_game(self.rng, n, m)
        share = None
        if axes is not None:
            returns = _scale_to_window(returns, axes)
            share = inadmissible_share(returns, axes)
        path = self.workdir / f"{gid}.json"
        data = {"returns": returns.tolist(), "probs": probs.tolist()}
        path.write_text(json.dumps(data))
        self.games[gid] = {
            "path": str(path), "returns": data["returns"], "probs": data["probs"],
            "market": None, "inadmissible_share": share,
        }
        return self.games[gid]

    def market(self, gid: str, n: int, m: int) -> dict:
        """Market JSON whose derived trade matrix is a Stiemke game with returns >= -0.9."""
        returns, probs = _stiemke_game(self.rng, n, m)
        returns *= 0.9 / max(1.0, float(-returns.min()))
        bond = float(self.rng.uniform(1.0, 1.05))
        s0 = self.rng.uniform(0.5, 2.0, size=m)
        scen = bond * s0 * (1.0 + returns)
        market = {"R": bond, "S0": s0.tolist(), "scenarios": scen.tolist(), "probs": probs.tolist()}
        path = self.workdir / f"{gid}.json"
        path.write_text(json.dumps(market))
        derived = (scen - bond * s0) / (bond * s0)
        self.games[gid] = {
            "path": str(path), "returns": derived.tolist(), "probs": market["probs"],
            "market": market, "inadmissible_share": None,
        }
        return self.games[gid]

    def surface(self, gid: str, measure: str, draws: int, axes, default_grid=False):
        argv = ["surface", self.games[gid]["path"], "--measure", measure, "--K", str(draws)]
        if not default_grid:
            argv.append(_grid_arg(axes))
        self.ops.append({"cmd": "surface", "game": gid, "measure": measure, "K": draws,
                         "axes": [list(a) for a in axes], "argv": argv})

    def eval(self, gid: str, measure: str, draws: int, frac: float = 0.5):
        game = self.games[gid]
        phi = _interior_point(self.rng, np.array(game["returns"]), frac)
        argv = ["eval", game["path"], "--measure", measure, "--K", str(draws),
                "--phi=" + ",".join(repr(v) for v in phi)]
        self.ops.append({"cmd": "eval", "game": gid, "measure": measure, "K": draws,
                         "phi": phi, "argv": argv})

    def converge(self, gid: str, kmax: int, frac: float = 0.5):
        game = self.games[gid]
        phi = _interior_point(self.rng, np.array(game["returns"]), frac)
        argv = ["converge", game["path"], "--Kmax", str(kmax),
                "--phi=" + ",".join(repr(v) for v in phi)]
        self.ops.append({"cmd": "converge", "game": gid, "Kmax": kmax, "phi": phi, "argv": argv})

    def verify(self, gid: str, draws: int, samples: int):
        vseed = int(self.rng.integers(0, 2**31))
        argv = ["verify", self.games[gid]["path"], "--K", str(draws),
                "--samples", str(samples), "--seed", str(vseed)]
        self.ops.append({"cmd": "verify", "game": gid, "K": draws, "samples": samples,
                         "argv": argv})

    def check(self, gid: str):
        self.ops.append({"cmd": "check", "game": gid, "argv": ["check", self.games[gid]["path"]]})

    def from_market(self, gid: str):
        self.ops.append({"cmd": "from-market", "game": gid,
                         "argv": ["from-market", self.games[gid]["path"]]})


def _grid_terminal(b: _Builder) -> None:
    # 19 ops per cycle: an odd count puts the op median inside one op class
    axes2 = [(*WINDOW, 31)] * 2
    for gid, n, draws in (("t3", 3, 20), ("t4", 4, 15), ("t5", 5, 10), ("t6", 6, 5)):
        b.game(gid, n, 2, axes2)
        for measure in ("down", "downX", "downFirstApprox", "upExpect"):
            b.surface(gid, measure, draws, axes2)
    axes3 = [(*WINDOW, 9)] * 3
    b.game("t3d", 5, 3, axes3)
    b.surface("t3d", "down", 6, axes3)
    b.surface("t3d", "downFirstApprox", 6, axes3)
    b.surface("t4", "down", 8, [(*WINDOW, 121)] * 2, default_grid=True)


def _grid_drawdown(b: _Builder) -> None:
    # 13 ops per cycle; the last one is the default 121x121 window
    axes = [(*WINDOW, 17)] * 2
    for gid, n, draws in (("d3k6", 3, 6), ("d4k4", 4, 4), ("d4k5", 4, 5)):
        b.game(gid, n, 2, axes)
        for measure in ("cur", "curX", "curFirstApprox", "runupExpect"):
            b.surface(gid, measure, draws, axes)
    b.surface("d4k4", "cur", 4, [(*WINDOW, 121)] * 2, default_grid=True)


def _horizon_sweep(b: _Builder) -> None:
    # 11 ops per cycle; path kinds stream (N^K > 65,536), count kinds at large K
    b.game("h4", 4, 2)
    b.game("h3", 3, 2)
    b.game("h5", 5, 2)
    b.converge("h4", 9)
    b.converge("h3", 11)
    b.eval("h4", "cur", 9)
    b.eval("h3", "curX", 11)
    b.eval("h4", "curFirstApprox", 9)
    b.eval("h3", "runupExpect", 11)
    b.eval("h4", "down", 60)
    b.eval("h5", "downX", 40)
    b.eval("h4", "downFirstApprox", 60)
    b.eval("h5", "upExpect", 30)
    b.eval("h5", "down", 40)


def _verify_battery(b: _Builder) -> None:
    # 7 ops per cycle, 4 of them verify so the op median is a verify run
    b.game("v4", 4, 2)
    b.game("v4m3", 4, 3)
    b.market("vmk", 4, 2)
    b.verify("v4", 4, 6)
    b.verify("v4m3", 3, 6)
    b.verify("vmk", 4, 4)
    b.verify("v4", 3, 10)
    b.check("v4")
    b.check("vmk")
    b.from_market("vmk")


_BUILDERS = {
    "grid-terminal": _grid_terminal,
    "grid-drawdown": _grid_drawdown,
    "horizon-sweep": _horizon_sweep,
    "verify-battery": _verify_battery,
}

NAMES = tuple(_BUILDERS)


def build(name: str, seed: int, workdir: Path) -> dict:
    """Write the workload's input files under ``workdir`` and return its spec."""
    workdir.mkdir(parents=True, exist_ok=True)
    b = _Builder(name, seed, workdir)
    _BUILDERS[name](b)
    mix = sorted({(len(g["returns"]), len(g["returns"][0]), op.get("K") or op.get("Kmax"))
                  for op in b.ops for g in [b.games[op["game"]]]}, key=str)
    return {
        "workload": name,
        "seed": seed,
        "why": WHY[name],
        "games": b.games,
        "ops": b.ops,
        "mix": [{"N": n, "M": m, "K": k} for n, m, k in mix],
    }

