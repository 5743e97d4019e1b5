"""Command-line front end: structural checks, risk surfaces, convergence data.

Subcommands:

* ``check``       - rank / no-risk-free / arbitrage report for a matrix or market.
* ``surface``     - evaluate one measure on a rectangular grid, emit CSV.
* ``converge``    - drawdown risk versus the number of draws at a fixed allocation.
* ``eval``        - evaluate one measure at one allocation.
* ``verify``      - run the seeded verification suites.
* ``from-market`` - derive a trade-matrix JSON from a market JSON.

All numeric output uses the shortest round-trip representation of 64-bit
floats, rows are emitted in a fixed order, and the only randomness is the
explicit seed, so identical invocations produce byte-identical output.
Exit codes: 0 success, 1 validation, 2 domain or budget, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import market_bridge, risk_measures, verify
from .errors import BudgetExceededError, DomainError, ValidationError
from .trade_core import TradeMatrix, check_no_risk_free, load_trade_matrix

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3

#: Default plotting window used when no grid is given (two systems only).
DEFAULT_GRID_AXIS = (-0.4, 0.8, 121)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid: per-axis (min, max, steps)."""

    axes: tuple[tuple[float, float, int], ...]

    def __post_init__(self):
        if not self.axes:
            raise ValidationError("grid needs at least one axis")
        for lo, hi, steps in self.axes:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValidationError("grid bounds must be finite")
            if steps < 2:
                raise ValidationError("grid steps must be >= 2")
            if not lo < hi:
                raise ValidationError("grid min must be < max")

    @property
    def dimension(self) -> int:
        return len(self.axes)

    def _ticks(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, steps) for lo, hi, steps in self.axes]

    def array(self) -> np.ndarray:
        """Grid points in row-major order, first axis slowest, as a (rows, dimension) array."""
        mesh = np.meshgrid(*self._ticks(), indexing="ij")
        return np.stack([axis.ravel() for axis in mesh], axis=1)


@dataclass(frozen=True)
class SurfaceResult:
    """Rows of (phi..., value) produced by a surface evaluation."""

    header: tuple[str, ...]
    rows: list[tuple[float, ...]]

    def to_csv(self) -> str:
        lines = [",".join(self.header)]
        for row in self.rows:
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"


def parse_grid(text: str) -> GridSpec:
    axes = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ValidationError(f"bad grid axis {part!r}, expected min:max:steps")
        try:
            lo, hi, steps = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError as exc:
            raise ValidationError(f"bad grid axis {part!r}: {exc}") from exc
        axes.append((lo, hi, steps))
    return GridSpec(tuple(axes))


def parse_phi(text: str) -> np.ndarray:
    try:
        phi = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValidationError(f"bad portion vector {text!r}: {exc}") from exc
    if not np.all(np.isfinite(phi)):
        raise ValidationError(f"bad portion vector {text!r}: entries must be finite")
    return phi


def _parse_probs(text: str | None):
    if text is None:
        return None
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad probabilities {text!r}: {exc}") from exc


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _fmt_vec(vec) -> str:
    return "(" + ",".join(_fmt_num(float(v)) for v in vec) + ")"


def _load_input(path, probs_text) -> tuple[TradeMatrix, market_bridge.OnePeriodMarket | None]:
    """The trade matrix of a game or market file, and the market if it is one."""
    probs = _parse_probs(probs_text)
    if market_bridge.is_market_file(path):
        market = market_bridge.load_market(path)
        return market_bridge.build_trade_matrix(market), market
    return load_trade_matrix(path, probs), None


def _write_output(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def surface_result(
    matrix: TradeMatrix,
    kind: risk_measures.MeasureKind,
    grid: GridSpec,
    draws: int,
    budget: int | None = None,
) -> SurfaceResult:
    """Evaluate one measure on a grid, inserting signed inf sentinels.

    Inadmissible points evaluate to +inf for the nonnegative measures and
    -inf for the approximation forms so that plotters keep a full lattice.
    """
    if grid.dimension != matrix.n_systems:
        raise ValidationError(
            f"grid dimension {grid.dimension} != number of systems {matrix.n_systems}"
        )
    header = tuple(f"phi{j + 1}" for j in range(grid.dimension)) + ("value",)
    points = grid.array()
    values = risk_measures.evaluate_many(matrix, kind, points, draws, budget)
    rows = [(*point, value) for point, value in zip(points.tolist(), values.tolist())]
    return SurfaceResult(header, rows)


def _cmd_check(args) -> int:
    matrix, market = _load_input(args.input, args.probs)
    ok = True
    result = check_no_risk_free(matrix)
    m = matrix.n_systems
    if result.rank == m:
        print(f"rank: {result.rank} = M={m}, PASS")
    else:
        print(f"rank: {result.rank} < M={m}, FAIL")
        ok = False
    if result.satisfied:
        print(f"assumption: PASS, certificate y={_fmt_vec(result.certificate)}")
    else:
        print(f"assumption: FAIL, direction theta={_fmt_vec(result.direction)}")
        ok = False
    if market is not None:
        arb = market_bridge.check_arbitrage(market)
        if arb.has_arbitrage:
            print(f"arbitrage: FAIL, portfolio x={_fmt_vec(arb.portfolio)}")
            ok = False
        else:
            print(f"arbitrage: PASS, state prices y={_fmt_vec(arb.state_prices)}")
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_surface(args) -> int:
    matrix, _ = _load_input(args.input, args.probs)
    kind = risk_measures.MeasureKind(args.measure)
    if args.grid is not None:
        grid = parse_grid(args.grid)
    elif matrix.n_systems != 2:
        raise ValidationError("default grid covers two systems; pass --grid for other dimensions")
    else:
        grid = GridSpec((DEFAULT_GRID_AXIS,) * 2)
    try:
        result = surface_result(matrix, kind, grid, args.K, args.budget)
    except BudgetExceededError as exc:
        sys.stderr.write(f"error: {exc}; partial output discarded\n")
        return EXIT_DOMAIN
    _write_output(args.out, result.to_csv())
    return EXIT_OK


def _cmd_converge(args) -> int:
    matrix, _ = _load_input(args.input, args.probs)
    phi = parse_phi(args.phi)
    lines = ["K,value"]
    if args.Kmax >= 1:
        series = risk_measures.rho_cur_series(matrix, phi, args.Kmax, args.budget)
        lines += [f"{draws},{value!r}" for draws, value in enumerate(series.tolist(), 1)]
    _write_output(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_eval(args) -> int:
    matrix, _ = _load_input(args.input, args.probs)
    phi = parse_phi(args.phi)
    evaluation = risk_measures.evaluate_measure(
        matrix, args.measure, phi, args.K, args.budget, check_small_s=True
    )
    if evaluation.small_s_verified is False:
        sys.stderr.write(
            "note: small-scale regime not verified at this point; "
            "the coefficient form is an approximation here\n"
        )
    print(repr(evaluation.value))
    return EXIT_OK


def _cmd_verify(args) -> int:
    matrix, market = _load_input(args.input, args.probs)
    if args.samples < 0:
        raise ValidationError("samples must be >= 0")
    gate = verify.assumption_gate(matrix)
    if not gate.satisfied:
        print(f"assumption: FAIL, direction theta={_fmt_vec(gate.direction)}")
        print("verification: SKIPPED (structural assumption fails)")
        return EXIT_VERIFY
    print(f"assumption: PASS, certificate y={_fmt_vec(gate.certificate)}")
    if market is not None:
        arb = market_bridge.check_arbitrage(market)
        agree = (not arb.has_arbitrage) == gate.satisfied
        print(f"bridge-consistency: {'1/1 pass' if agree else '0/1 pass'}")
        if not agree:
            return EXIT_VERIFY
    results = verify.run_suites(
        matrix, draws=args.K, samples=args.samples, seed=args.seed, budget=args.budget
    )
    all_ok = True
    for res in results:
        print(f"{res.name}: {res.passed}/{res.passed + res.failed} pass")
        for note in res.notes:
            print(f"  failed: {note}")
        all_ok &= res.ok()
    print(f"verification: {'PASS' if all_ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_VERIFY


def _cmd_from_market(args) -> int:
    market = market_bridge.load_market(args.input)
    matrix = market_bridge.build_trade_matrix(market)
    text = json.dumps(matrix.to_dict(), indent=2) + "\n"
    _write_output(args.out, text)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_VALIDATION)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="drawdown-risk",
        description="Drawdown-related convex risk measures of fractional trading games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_measure=False):
        p.add_argument("input", help="trade-matrix JSON/CSV or market JSON")
        p.add_argument("--probs", default=None, help="comma-separated row probabilities (CSV input)")
        p.add_argument("--budget", type=int, default=None, help="enumeration budget override")
        if needs_measure:
            p.add_argument(
                "--measure",
                required=True,
                choices=[k.value for k in risk_measures.MeasureKind],
            )
            p.add_argument("--K", type=int, default=5, help="number of draws")

    p_check = sub.add_parser("check", help="structural checks with certificates")
    p_check.add_argument("input")
    p_check.add_argument("--probs", default=None)
    p_check.set_defaults(fn=_cmd_check)

    p_surface = sub.add_parser("surface", help="evaluate a measure on a grid, emit CSV")
    add_common(p_surface, needs_measure=True)
    p_surface.add_argument("--grid", default=None, help="min:max:steps[,min:max:steps...]")
    p_surface.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p_surface.set_defaults(fn=_cmd_surface)

    p_conv = sub.add_parser("converge", help="drawdown risk versus number of draws")
    add_common(p_conv)
    p_conv.add_argument("--phi", required=True, help="comma-separated portions")
    p_conv.add_argument("--Kmax", type=int, required=True)
    p_conv.add_argument("--out", default=None)
    p_conv.set_defaults(fn=_cmd_converge)

    p_eval = sub.add_parser("eval", help="evaluate a measure at one allocation")
    add_common(p_eval, needs_measure=True)
    p_eval.add_argument("--phi", required=True)
    p_eval.set_defaults(fn=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run the seeded verification suites")
    add_common(p_verify)
    p_verify.add_argument("--K", type=int, default=5)
    p_verify.add_argument("--samples", type=int, default=50)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.set_defaults(fn=_cmd_verify)

    p_from = sub.add_parser("from-market", help="derive a trade-matrix JSON from a market JSON")
    p_from.add_argument("input")
    p_from.add_argument("--out", default=None)
    p_from.set_defaults(fn=_cmd_from_market)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built at its first call and reused; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except (DomainError, BudgetExceededError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
