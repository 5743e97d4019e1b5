"""Every package name the benchmark in ``bench/`` reaches still exists and still traces.

The benchmark reads the cache statistics of two ``lru_cache`` functions and
wraps the public functions of five modules, among them the path helpers
``risk_measures`` looks up for its prefix and topping layers, on single-block
and streamed path enumerations alike.  A refactor that deletes or renames one
of them, or stops reaching it, fails here rather than in a benchmark run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracer  # noqa: E402
import worker  # noqa: E402
from conftest import EXAMPLE_PROBS, EXAMPLE_RETURNS  # noqa: E402
from drawdown_risk import cli, market_bridge, path_engine, risk_measures, verify  # noqa: E402
from test_topping_pass import STREAMED  # noqa: E402

MODS = {"cli": cli, "risk_measures": risk_measures, "path_engine": path_engine,
        "verify": verify, "market_bridge": market_bridge}


def test_cache_counts_are_readable():
    counts = worker._cache_counts()
    assert len(counts) == 2
    for info in counts.values():
        assert info.hits >= 0 and info.misses >= 0


def test_tracer_installs_runs_and_uninstalls(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"returns": EXAMPLE_RETURNS, "probs": EXAMPLE_PROBS}))
    streamed = tmp_path / "streamed.json"
    streamed.write_text(json.dumps(STREAMED.to_dict()))
    before = {name: dict(vars(mod)) for name, mod in MODS.items()}
    trace = tracer.Tracer()
    tracer.install(trace, MODS)
    try:
        assert cli.main(["verify", str(path), "--K", "2", "--samples", "2"]) == 0
        assert cli.main(["eval", str(path), "--measure", "downFirstApprox", "--K", "3",
                         "--phi=0.1,0.1"]) == 0
        # a streamed enumeration: lead blocks from one cached suffix table
        assert cli.main(["eval", str(streamed), "--measure", "curFirstApprox", "--K", "11",
                         "--phi=0.05,0.02"]) == 0
        # a point whose regime flag a witness path rejects before any path check
        assert cli.main(["eval", str(streamed), "--measure", "runupExpect", "--K", "11",
                         "--phi=0.3,0.1"]) == 0
    finally:
        trace.uninstall()
    capsys.readouterr()
    after = {name: dict(vars(mod)) for name, mod in MODS.items()}
    assert after == before
    metrics = tracer.layer_metrics(trace, 1, {}, 1.0)
    assert metrics["verify.checks"] > 0
    assert metrics["risk_measures.count_states"] > 0
    assert metrics["path_engine.block_paths"] > 0
    assert metrics["path_engine.prefix_s"] > 0
    assert metrics["path_engine.topping_s"] > 0
