"""The block ``suite_topping`` against a per-path reference, and mutations it must catch."""

from __future__ import annotations

import math

import numpy as np
import pytest

from drawdown_risk import path_engine, verify
from drawdown_risk.verify import SuiteResult, sample_interior
from test_kernel import GAMES

RECORDS = ("topping order", "pathwise identities", "running-maximum form")


def per_path_topping(matrix, draws, samples, rng, budget=None) -> SuiteResult:
    """``suite_topping`` as one loop over ``enumerate_paths`` and the single-path functions."""
    res = SuiteResult("topping")
    points = min(10, max(1, samples))
    paths = list(path_engine.enumerate_paths(matrix.probs, draws, budget))
    for phi in sample_interior(matrix, rng, points):
        theta = phi / np.linalg.norm(phi)
        ok_order = True
        ok_ident = True
        ok_oracle = True
        for path in paths:
            om = path.omega
            lstar = path_engine.twr_topping_point(matrix, phi, om)
            lhat = path_engine.linear_topping_point(matrix, theta, om)
            ok_order &= lstar <= lhat
            z = sum(
                math.log(path_engine.twr_segment(matrix, phi, om, j, j))
                for j in range(1, draws + 1)
            )
            u = path_engine.uptrade_log(matrix, phi, om)
            d = path_engine.downtrade_log(matrix, phi, om)
            dc = path_engine.current_drawdown_log(matrix, phi, om)
            ur = path_engine.runup_log(matrix, phi, om)
            ok_ident &= abs(u + d - z) <= 1e-12 and abs(dc + ur - z) <= 1e-12
            ok_ident &= dc <= d + 1e-15 and d <= 0.0
            prefix = np.cumsum(
                [math.log(path_engine.twr_segment(matrix, phi, om, j, j)) for j in range(1, draws + 1)]
            )
            alt = prefix[-1] - max(0.0, float(prefix.max()))
            ok_oracle &= abs(dc - alt) <= 1e-12
        res.record(ok_order, f"topping order at {phi}")
        res.record(ok_ident, f"pathwise identities at {phi}")
        res.record(ok_oracle, f"running-maximum form at {phi}")
    return res


def _failing_records(res: SuiteResult) -> set[str]:
    return {name for name in RECORDS for note in res.notes if note.startswith(name)}


@pytest.mark.parametrize("name", ["reference", "dependent"])
def test_block_suite_matches_per_path_loop(name):
    matrix = GAMES[name]()
    for draws in range(1, 6):
        got = verify.suite_topping(matrix, draws, 3, np.random.default_rng(draws))
        want = per_path_topping(matrix, draws, 3, np.random.default_rng(draws))
        assert (got.passed, got.failed, got.notes) == (want.passed, want.failed, want.notes)


def _shifted(fn, by):
    return lambda *args: fn(*args) + by


MUTATIONS = {
    # the linear topping point never leaves the start, so compounded tops come later
    "topping order": ("linear_prefix_blocks", lambda fn: lambda r, d, t: -np.abs(fn(r, d, t))),
    "pathwise identities": ("gain_from_prefix", lambda fn: _shifted(fn, 1e-9)),
    "running-maximum form": ("drawdown_from_prefix", lambda fn: _shifted(fn, -1e-9)),
}


@pytest.mark.parametrize("record", RECORDS)
def test_each_record_fails_when_its_quantity_is_wrong(example_matrix, monkeypatch, record):
    clean = verify.suite_topping(example_matrix, 4, 3, np.random.default_rng(0))
    assert clean.failed == 0 and clean.passed == 9
    attr, mutate = MUTATIONS[record]
    monkeypatch.setattr(path_engine, attr, mutate(getattr(path_engine, attr)))
    res = verify.suite_topping(example_matrix, 4, 3, np.random.default_rng(0))
    assert res.failed > 0
    assert record in _failing_records(res)


@pytest.mark.parametrize("bound", [1, 3, 2 * 4**3, 3 * 4**3])
def test_block_suite_matches_per_path_loop_in_every_point_chunk(example_matrix, monkeypatch, bound):
    # a gain off by 1e-9 on paths that end above 0.4 fails some points and not others
    gain = path_engine.gain_from_prefix
    monkeypatch.setattr(path_engine, "gain_from_prefix",
                        lambda prefix: gain(prefix) + 1e-9 * (prefix[:, -1] > 0.4))
    want = per_path_topping(example_matrix, 3, 10, np.random.default_rng(2))
    assert 0 < want.failed < 10
    monkeypatch.setattr(path_engine, "_BLOCK", bound)
    got = verify.suite_topping(example_matrix, 3, 10, np.random.default_rng(2))
    assert (got.passed, got.failed, got.notes) == (want.passed, want.failed, want.notes)
