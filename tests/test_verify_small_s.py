"""The small-scale suite picks its scale per direction and still reports failures."""

from __future__ import annotations

import json

import numpy as np

from conftest import EXAMPLE_PROBS, EXAMPLE_RETURNS
from drawdown_risk import TradeMatrix, risk_measures, verify
from drawdown_risk.cli import main

#: Market whose verify run samples theta = (0.22888687, -0.97345303), about
#: 5e-6 from a hyperplane direction: the sign patterns fail at SMALL_S = 1e-4
#: and hold at 1e-5.
NEAR_HYPERPLANE_MARKET = {
    "R": 1.0185831233520404,
    "S0": [1.9885226003971752, 1.5006756077336587],
    "scenarios": [
        [2.299761720496893, 2.055692496857182],
        [1.7012281403377691, 0.6568860562847194],
        [3.0716408651122045, 1.9855763383596738],
        [1.2311371186564297, 1.6462902512506274],
    ],
    "probs": [0.1990203798161532, 0.2166928542147935, 0.3439159625486119, 0.2403708034204414],
}


def test_direction_near_a_hyperplane_verifies_at_a_smaller_scale(tmp_path, capsys):
    path = tmp_path / "market.json"
    path.write_text(json.dumps(NEAR_HYPERPLANE_MARKET))
    argv = ["verify", str(path), "--K", "4", "--samples", "4", "--seed", "1303504860"]
    assert main(argv) == 0
    assert "small-s: 16/16 pass\n" in capsys.readouterr().out


def test_no_verified_scale_still_fails(monkeypatch):
    matrix = TradeMatrix(EXAMPLE_RETURNS, EXAMPLE_PROBS)
    calls = []

    def never(matrix, s, theta, draws, budget=None):
        calls.append(s)
        return False

    monkeypatch.setattr(risk_measures, "small_s_down_verified", never)
    res = verify.suite_small_s(matrix, 3, 2, np.random.default_rng(0))
    assert res.passed + res.failed == 8
    assert res.failed >= 2
    assert sum(note.startswith("terminal sign pattern") for note in res.notes) == 2
    # every direction tried SMALL_S and each tenfold smaller scale down to the floor
    assert calls == 2 * list(verify.SMALL_SCALES)
