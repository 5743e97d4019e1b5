"""The batched count-form suites and span diagnostic against per-point references.

The references are the per-point loops the suites replaced: every count-form
value comes from one single-point measure call and every note is formatted
eagerly.  The batched suites must give the same counts and the same notes.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from conftest import EXAMPLE_PROBS, EXAMPLE_RETURNS
from drawdown_risk import OnePeriodMarket, TradeMatrix, path_engine, risk_measures, verify
from drawdown_risk.cli import main
from drawdown_risk.errors import ValidationError
from drawdown_risk.market_bridge import build_trade_matrix
from drawdown_risk.trade_core import AdmissibleSet, log_gamma_mean, matrix_rank
from drawdown_risk.verify import SuiteResult, sample_directions, sample_interior
from test_kernel import GAMES
from test_topping_pass import STREAMED


def per_point_identities(matrix, draws, samples, rng, budget=None) -> SuiteResult:
    res = SuiteResult("identities")
    for phi in sample_interior(matrix, rng, samples):
        target = draws * log_gamma_mean(matrix, phi)
        tol = verify.IDENTITY_RTOL * max(1.0, abs(target))
        eu = risk_measures.expected_uptrade(matrix, phi, draws, budget)
        ed = risk_measures.expected_downtrade(matrix, phi, draws, budget)
        res.record(abs(eu + ed - target) <= tol, f"terminal split at {phi}")
        ec = risk_measures.expected_current_drawdown(matrix, phi, draws, budget)
        er = risk_measures.expected_runup(matrix, phi, draws, budget)
        res.record(abs(ec + er - target) <= tol, f"drawdown split at {phi}")
        count_form = risk_measures.rho_down(matrix, phi, draws, budget)
        res.record(
            abs(count_form + ed) <= verify.IDENTITY_RTOL * max(1.0, abs(ed)),
            f"count form vs path form at {phi}",
        )
    return res


def per_point_ordering(matrix, draws, samples, rng, budget=None) -> SuiteResult:
    slack = verify.ORDER_SLACK
    res = SuiteResult("ordering")
    for phi in sample_interior(matrix, rng, samples):
        s = float(np.linalg.norm(phi))
        theta = phi / s
        ed = risk_measures.expected_downtrade(matrix, phi, draws, budget)
        d1 = risk_measures.d_first_approx(matrix, s, theta, draws, budget)
        d2 = risk_measures.d_second_approx(matrix, s, theta, draws, budget)
        res.record(
            ed <= d1 + slack and d1 <= d2 + slack and d2 <= slack,
            f"terminal chain at {phi}",
        )
        ec = risk_measures.expected_current_drawdown(matrix, phi, draws, budget)
        c1 = risk_measures.d_cur_first_approx(matrix, s, theta, draws, budget)
        c2 = risk_measures.d_cur_second_approx(matrix, s, theta, draws, budget)
        res.record(
            ec <= c1 + slack and c1 <= c2 + slack and c2 <= slack,
            f"drawdown chain at {phi}",
        )
        rd = risk_measures.rho_down(matrix, phi, draws, budget)
        rc = risk_measures.rho_cur(matrix, phi, draws, budget)
        rdx = risk_measures.rho_down_x(matrix, phi, draws, budget)
        rcx = risk_measures.rho_cur_x(matrix, phi, draws, budget)
        chain = (
            rc >= rd - slack
            and rd >= -d1 - slack
            and -d1 >= rdx - slack
            and rcx >= rdx - slack
            and rc >= -c1 - slack
            and -c1 >= rcx - slack
            and rdx >= -slack
        )
        res.record(chain, f"measure ordering at {phi}")
    return res


def per_point_convexity(matrix, draws, samples, rng, budget=None) -> SuiteResult:
    res = SuiteResult("convexity")
    a = sample_interior(matrix, rng, samples)
    b = sample_interior(matrix, rng, samples)
    for pa, pb in zip(a, b):
        mid = 0.5 * (pa + pb)
        for fn in verify._MEASURES:
            lhs = fn(matrix, mid, draws, budget)
            rhs = 0.5 * (fn(matrix, pa, draws, budget) + fn(matrix, pb, draws, budget))
            res.record(lhs <= rhs + verify.CONVEXITY_TOL, f"{fn.__name__} midpoint")
    return res


def per_point_homogeneity(matrix, draws, samples, rng, budget=None) -> SuiteResult:
    res = SuiteResult("homogeneity")
    for phi in sample_interior(matrix, rng, samples):
        for fn in (risk_measures.rho_down_x, risk_measures.rho_cur_x):
            base = fn(matrix, phi, draws, budget)
            for t in (0.5, 2.0, 10.0):
                scaled = fn(matrix, t * phi, draws, budget)
                res.record(
                    abs(scaled - t * base)
                    <= verify.HOMOGENEITY_RTOL * max(1.0, abs(t * base)),
                    f"{fn.__name__} at t={t}",
                )
    return res


def per_point_monotonicity(matrix, draws, samples, rng, budget=None) -> SuiteResult:
    res = SuiteResult("monotonicity")
    region = AdmissibleSet(matrix)
    rays = min(64, samples) if samples else 64
    for theta in sample_directions(matrix, rng, rays):
        smax = region.max_radius(theta)
        if not math.isfinite(smax):
            smax = 1.0
        scales = np.linspace(0.1, 0.9, 5) * smax
        for fn in verify._MEASURES:
            values = [fn(matrix, s * theta, draws, budget) for s in scales]
            strict = all(
                v2 > v1 + verify.MONOTONE_MARGIN for v1, v2 in zip(values, values[1:])
            )
            res.record(strict, f"{fn.__name__} along {theta}")
    return res


SUITES = {
    "identities": (verify.suite_identities, per_point_identities),
    "ordering": (verify.suite_ordering, per_point_ordering),
    "convexity": (verify.suite_convexity, per_point_convexity),
    "homogeneity": (verify.suite_homogeneity, per_point_homogeneity),
    "monotonicity": (verify.suite_monotonicity, per_point_monotonicity),
}


def _market_game() -> TradeMatrix:
    market = OnePeriodMarket(1.0, [1.0, 1.0], [[2.0, 2.0], [0.5, 2.0], [2.0, 0.0], [0.5, 0.0]],
                             [0.375, 0.375, 0.125, 0.125])
    return build_trade_matrix(market)


BATCH_GAMES = {
    **GAMES,
    "market": _market_game,
    # every return of system 1 is positive: many rays never leave the admissible set
    "unbounded": lambda: TradeMatrix([[1.0, 0.5], [0.5, -1.0], [0.2, 0.3]]),
}


def _outcome(res: SuiteResult):
    return res.passed, res.failed, res.notes


def _compare(matrix, draws, samples, seed):
    for name, (batched, reference) in SUITES.items():
        got = batched(matrix, draws, samples, np.random.default_rng(seed))
        want = reference(matrix, draws, samples, np.random.default_rng(seed))
        assert _outcome(got) == _outcome(want), (name, draws, seed)
        yield name, got


@pytest.mark.parametrize("name", sorted(BATCH_GAMES))
def test_batched_suites_match_per_point_loops(name):
    matrix = BATCH_GAMES[name]()
    for draws in range(1, 6):
        for seed in range(3):
            for _, res in _compare(matrix, draws, 4, seed):
                assert res.passed + res.failed > 0


@pytest.mark.parametrize("name", ["reference", "unbounded", "random"])
def test_batched_suites_evaluate_the_reference_points(name, monkeypatch):
    """Each count-form value is taken at the same point, bit for bit, as in the reference."""
    matrix = BATCH_GAMES[name]()
    seen = []
    count_form = risk_measures._count_form

    def spy(matrix, kind, phis, draws, budget):
        seen.extend((kind.value, row.tobytes()) for row in np.asarray(phis, dtype=float))
        return count_form(matrix, kind, phis, draws, budget)

    monkeypatch.setattr(risk_measures, "_count_form", spy)
    for batched, reference in SUITES.values():
        points = []
        for suite in (batched, reference):
            seen.clear()
            suite(matrix, 2, 5, np.random.default_rng(1))
            points.append(sorted(seen))
        assert points[0] == points[1] and points[0]


def _wobbly(count_form):
    """``_count_form`` plus a term of each point alone that breaks every suite."""

    def wrapped(matrix, kind, phis, draws, budget):
        phis = np.asarray(phis, dtype=float)
        wobble = 1e-2 * np.sin(50.0 * phis.sum(axis=1)) - np.abs(phis).max(axis=1)
        return count_form(matrix, kind, phis, draws, budget) + wobble[:, None]

    return wrapped


def test_lazy_failure_notes_match_eager_notes(example_matrix, monkeypatch):
    monkeypatch.setattr(risk_measures, "_count_form", _wobbly(risk_measures._count_form))
    for name, res in _compare(example_matrix, 3, 12, 0):
        assert res.failed > 8, name
        assert len(res.notes) == 8


def test_record_formats_only_kept_notes():
    class Loud:
        def __format__(self, spec):
            raise AssertionError("formatted a note that is not kept")

    res = SuiteResult("lazy")
    res.record(True, "passes at {}", Loud())
    for j in range(8):
        res.record(False, "fails at {} and {}", j, np.array([0.5, -1.0]))
    res.record(False, "ninth at {}", Loud())
    assert (res.passed, res.failed) == (1, 9)
    assert res.notes[0] == f"fails at 0 and {np.array([0.5, -1.0])}"
    assert len(res.notes) == 8


# ---------------------------------------------------------------------------
# Span diagnostic


def per_direction_span(matrix: TradeMatrix, grid: int = 360, seed: int = 0) -> tuple[int, ...]:
    """Failing direction indices of ``span_diagnostic``, one ``matrix_rank`` per direction."""
    m = matrix.n_systems
    if m == 2:
        angles = 2.0 * math.pi * np.arange(grid) / grid
        thetas = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((grid, m))
        thetas = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    failures = []
    for j, theta in enumerate(thetas):
        active = matrix.returns[matrix.returns @ theta != 0.0]
        if active.shape[0] == 0 or matrix_rank(active) < m:
            failures.append(j)
    return tuple(failures)


AXIS_RETURNS = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]


def _random_games():
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        n = 4 + seed % 3
        returns = rng.uniform(-1.0, 1.0, size=(n, 3))
        if seed % 2:
            returns[1] = 0.0  # a row that is never active
        yield TradeMatrix(returns)


SPAN_GAMES = [
    TradeMatrix(AXIS_RETURNS),
    TradeMatrix([[1.0, 0.5], [-1.0, -0.5]]),
    TradeMatrix([[1.0, 0.5, 0.2], [-1.0, -0.5, 0.3]]),
    *(make() for make in GAMES.values()),
    *_random_games(),
]


@pytest.mark.parametrize("grid", [8, 360])
@pytest.mark.parametrize("index", range(len(SPAN_GAMES)))
def test_stacked_span_matches_per_direction_rank(index, grid):
    matrix = SPAN_GAMES[index]
    for seed in (0, 3):
        diag = risk_measures.span_diagnostic(matrix, grid, seed)
        want = per_direction_span(matrix, grid, seed)
        assert (diag.failures, diag.checked, diag.passed) == (want, grid, not want)


def test_axis_game_fails_one_direction():
    # only theta = (1, 0) has exact zero dots, with the rows (0, +-1)
    assert risk_measures.span_diagnostic(TradeMatrix(AXIS_RETURNS)).failures == (0,)
    res = verify.suite_span(TradeMatrix(AXIS_RETURNS))
    assert (res.failed, res.notes) == (1, ["1 of 360 directions fail"])


# ---------------------------------------------------------------------------
# Call count and sample validation


def _reference_file(tmp_path) -> str:
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"returns": EXAMPLE_RETURNS, "probs": EXAMPLE_PROBS}))
    return str(path)


def test_count_form_calls_do_not_grow_with_samples(tmp_path, monkeypatch, capsys):
    calls = []
    count_form = risk_measures._count_form

    def counted(*args, **kwargs):
        calls.append(1)
        return count_form(*args, **kwargs)

    monkeypatch.setattr(risk_measures, "_count_form", counted)
    path = _reference_file(tmp_path)
    per_run = []
    for samples in (4, 40):
        calls.clear()
        assert main(["verify", path, "--K", "3", "--samples", str(samples)]) == 0
        per_run.append(len(calls))
    capsys.readouterr()
    # one call per measure kind and suite (17 today); a per-point loop scales with samples
    assert per_run[0] == per_run[1] > 0


def test_negative_samples_exit_one_without_traceback(tmp_path, capsys):
    assert main(["verify", _reference_file(tmp_path), "--samples", "-1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: samples must be >= 0\n"


def test_run_suites_rejects_negative_samples(example_matrix):
    with pytest.raises(ValidationError):
        verify.run_suites(example_matrix, draws=2, samples=-1)


# ---------------------------------------------------------------------------
# Path-form expectations: one block pass for every point


def per_point_expectation(matrix, phi, draws, quantity, budget=None) -> float:
    """One point's path expectation, block by block, as the single-point route summed it."""
    rows = path_engine.log_hpr_rows(matrix, phi)
    acc = 0.0
    for digits in path_engine.iter_path_blocks(matrix.n_periods, draws, budget):
        w = np.prod(matrix.probs[digits], axis=1)
        acc += float(w @ quantity(np.cumsum(rows[digits], axis=1)))
    return acc


#: Each ``expected_*`` route with the pathwise quantity it weights.
EXPECTATIONS = (
    (risk_measures.expected_uptrade, path_engine.gain_from_prefix),
    (risk_measures.expected_downtrade, path_engine.loss_from_prefix),
    (risk_measures.expected_current_drawdown, path_engine.drawdown_from_prefix),
    (risk_measures.expected_runup, path_engine.runup_from_prefix),
)


def _bits(values) -> list[bytes]:
    return [np.float64(v).tobytes() for v in values]


def _assert_expectations_bitwise(matrix, phis, draws):
    quantities = [quantity for _, quantity in EXPECTATIONS]
    got = risk_measures._path_expectations(matrix, phis, draws, None, quantities)
    assert got.shape == (4, len(phis))
    for (route, quantity), row in zip(EXPECTATIONS, got):
        assert _bits(row) == _bits(route(matrix, phi, draws) for phi in phis)
        assert _bits(row) == _bits(per_point_expectation(matrix, phi, draws, quantity)
                                   for phi in phis)


@pytest.mark.parametrize("name", sorted(BATCH_GAMES))
def test_path_expectations_bitwise_equal_single_point_routes(name):
    matrix = BATCH_GAMES[name]()
    phis = sample_interior(matrix, np.random.default_rng(7), 5)
    for draws in range(1, 6):
        _assert_expectations_bitwise(matrix, phis, draws)


def test_streamed_path_expectations_bitwise_equal_single_point_routes():
    # 3^11 paths come in three digit blocks, each its own chunk of one point
    matrix = STREAMED
    _assert_expectations_bitwise(matrix, sample_interior(matrix, np.random.default_rng(3), 2), 11)


@pytest.mark.parametrize("name", ["reference", "random", "unbounded"])
def test_path_expectations_do_not_depend_on_the_chunk_bound(name, monkeypatch):
    matrix = BATCH_GAMES[name]()
    phis = sample_interior(matrix, np.random.default_rng(11), 7)
    quantities = [quantity for _, quantity in EXPECTATIONS]
    for draws in (1, 3, 4):
        want = risk_measures._path_expectations(matrix, phis, draws, None, quantities)
        paths = matrix.n_periods**draws
        for bound in (1, 3, 2 * paths, 3 * paths):
            monkeypatch.setattr(path_engine, "_BLOCK", bound)
            got = risk_measures._path_expectations(matrix, phis, draws, None, quantities)
            assert got.tobytes() == want.tobytes(), (draws, bound)
            monkeypatch.undo()


def test_path_expectations_without_points_enumerate_nothing(example_matrix):
    # no point, no budget check: the count forms decide the error of an empty suite
    got = risk_measures._path_expectations(example_matrix, np.empty((0, 2)), 30, 1,
                                           [path_engine.loss_from_prefix])
    assert got.shape == (1, 0)


def per_point_small_s(matrix, draws, samples, rng, budget=None) -> SuiteResult:
    res = SuiteResult("small-s")
    dirs = min(64, samples) if samples else 64
    for theta in sample_directions(matrix, rng, dirs):
        for s in verify.SMALL_SCALES:
            ok_down = risk_measures.small_s_down_verified(matrix, s, theta, draws, budget)
            ok_cur = risk_measures.small_s_cur_verified(matrix, s, theta, draws, budget)
            if ok_down and ok_cur:
                break
        res.record(ok_down, f"terminal sign pattern along {theta}")
        res.record(ok_cur, f"topping pattern along {theta}")
        phi = s * theta
        ed = risk_measures.expected_downtrade(matrix, phi, draws, budget)
        d1 = risk_measures.d_first_approx(matrix, s, theta, draws, budget)
        res.record(abs(ed - d1) <= verify.SMALL_S_TOL, f"terminal equality along {theta}")
        ec = risk_measures.expected_current_drawdown(matrix, phi, draws, budget)
        c1 = risk_measures.d_cur_first_approx(matrix, s, theta, draws, budget)
        res.record(abs(ec - c1) <= verify.SMALL_S_TOL, f"drawdown equality along {theta}")
    return res


#: A game that passes the structural check but whose first four rows sum to
#: (0, 0, 2.8e-17) in binary: at K = 4 the small-scale regime checks fail.
NOISE_GAME = TradeMatrix(
    [[0.5, -0.2, 0.3], [-0.4, 0.6, 0.1], [0.2, 0.3, -0.7], [-0.3, -0.7, 0.3], [0.1, 0.2, 0.4]],
    [0.3, 0.25, 0.2, 0.15, 0.1],
)


@pytest.mark.parametrize("name", sorted(BATCH_GAMES))
def test_batched_small_s_matches_per_direction_loop(name):
    matrix = BATCH_GAMES[name]()
    for draws in range(1, 5):
        for seed in range(3):
            got = verify.suite_small_s(matrix, draws, 4, np.random.default_rng(seed))
            want = per_point_small_s(matrix, draws, 4, np.random.default_rng(seed))
            assert _outcome(got) == _outcome(want), (draws, seed)


def test_batched_small_s_keeps_the_failure_notes():
    got = verify.suite_small_s(NOISE_GAME, 4, 50, np.random.default_rng(5))
    want = per_point_small_s(NOISE_GAME, 4, 50, np.random.default_rng(5))
    assert _outcome(got) == _outcome(want)
    assert got.failed > 0 and got.notes


def test_path_expectation_calls_do_not_grow_with_samples(tmp_path, monkeypatch, capsys):
    calls = []
    expectations = risk_measures._path_expectations

    def counted(*args, **kwargs):
        calls.append(1)
        return expectations(*args, **kwargs)

    monkeypatch.setattr(risk_measures, "_path_expectations", counted)
    path = _reference_file(tmp_path)
    per_run = []
    for samples in (4, 40):
        calls.clear()
        assert main(["verify", path, "--K", "3", "--samples", str(samples)]) == 0
        per_run.append(len(calls))
    capsys.readouterr()
    # one call each in the identities, ordering and small-s suites
    assert per_run == [3, 3]
