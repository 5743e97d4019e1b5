"""One pass per coefficient family, validated inputs, one input loader.

A checked terminal ``eval`` splits the count plan with one ``linear_signs``
call for its value and its regime flag; the D and U tables keep the bytes
they had before the split and the flag shared a pass.  Every coefficient kind
checks draws and budget before any shortcut, and the CLI reads an input file
once to detect a market and once to load it.
"""

from __future__ import annotations

import hashlib
import pathlib

import numpy as np
import pytest

from drawdown_risk import (
    ValidationError,
    drawdown_coefficients,
    hyperplane_directions,
    risk_measures,
    small_s_cur_verified,
    small_s_down_verified,
    updown_coefficients,
)
from drawdown_risk.cli import main
from drawdown_risk.risk_measures import MeasureKind
from test_golden import write_game
from test_kernel import GAMES

#: sha256 of the U and D table bytes over ``directions``, captured before the
#: terminal family and its regime flag shared one pass.
UPDOWN_DIGESTS = {
    ("reference", 1): "e9bd1e35a64a6f2fee7c1af844f62d8214fb092ef7a0d88824539abf15251070",
    ("reference", 2): "ef371c4af9978112cae064edb380fd837b17187c938c133eab9667618b08bd03",
    ("reference", 3): "78647229508ec3b1cb663646e4d5055af4143246f1dd331a7a78bd5d7ad47f3d",
    ("reference", 4): "95395e35142debdf59c468aff6063621a8aac7d8482d985ec47aa54a30c33ae0",
    ("reference", 5): "62d82c1c177c565fc0ce8d14b9d623d2a2374860fba2addc467a71c37a5f57ab",
    ("flat", 1): "70e8df557033a3b79f22a975546c4d8704b4e1ef8ba77dbeded421f0dd233f11",
    ("flat", 2): "fdff611e81d9d48db7505ce938df91fab42cd874b3d4311296bf39e83b46d008",
    ("flat", 3): "d134f6b43758774cda73bec5fa3e2a420802202dece295352d736d2726f19433",
    ("flat", 4): "d09725d0d07e6be71a010b9f24d3d324c67671166ac9b24ff889ffdd5a8f9fc6",
    ("flat", 5): "d254c1d7ca9be6fa1dfea141090ef6808ef09acab970c2bb871b15ecee59d257",
    ("dependent", 1): "7cf2d5b4c50d7f8dc8b24f7d328c2b0220d4b6c067d71e6f5935b779fa261d8f",
    ("dependent", 2): "b2642b1e17d36e702b5a61b418235ab9132aae3791eb614ee3da77f4e537a04e",
    ("dependent", 3): "4a33f06f63bad2a696813895bd3f43a6e722590d617251bc4104b2a85afb5998",
    ("dependent", 4): "4e5a2c93d2a557282d2edc890aa5e6fc350fb830fee509993d6f7d9c3900183b",
    ("dependent", 5): "b58f77f5fb2c68c7a4a3e5883828e036369738cdb1733e8ecbbb039ec318786a",
}


def directions(matrix, draws):
    """Hyperplane directions, the four axes and two seeded random directions."""
    found = [theta for theta, _ in hyperplane_directions(matrix, draws)]
    axes = [np.array(v, dtype=float) for v in ([1, 0], [0, 1], [-1, 0], [0, -1])]
    raw = np.random.default_rng(draws).standard_normal((2, 2))
    return found + axes + list(raw / np.linalg.norm(raw, axis=1, keepdims=True))


@pytest.mark.parametrize("name, draws", sorted(UPDOWN_DIGESTS))
def test_updown_tables_keep_their_bytes(name, draws):
    matrix = GAMES[name]()
    digest = hashlib.sha256()
    for theta in directions(matrix, draws):
        for table in updown_coefficients(matrix, theta, draws):
            digest.update(table.values.tobytes())
    assert digest.hexdigest() == UPDOWN_DIGESTS[name, draws]


@pytest.mark.parametrize("name", ["reference", "flat", "dependent"])
def test_regime_flags_are_views_of_the_passes(name):
    matrix = GAMES[name]()
    for draws in (2, 4):
        for theta in directions(matrix, draws):
            for s in (1e-4, 0.2, 1.5):
                checked = {}
                for kind in (MeasureKind.DOWN_FIRST_APPROX, MeasureKind.CUR_FIRST_APPROX):
                    checked[kind] = risk_measures._coefficient_value(
                        matrix, kind, s, theta, draws, None, True
                    )
                down = small_s_down_verified(matrix, s, theta, draws)
                cur = small_s_cur_verified(matrix, s, theta, draws)
                assert checked[MeasureKind.DOWN_FIRST_APPROX][1] is down
                assert checked[MeasureKind.CUR_FIRST_APPROX][1] is cur


@pytest.mark.parametrize("measure", ["downFirstApprox", "upExpect"])
def test_checked_terminal_eval_splits_the_plan_once(tmp_path, capsys, monkeypatch, measure):
    calls = []
    signs = risk_measures.linear_signs
    monkeypatch.setattr(
        risk_measures, "linear_signs", lambda *a, **k: calls.append(1) or signs(*a, **k)
    )
    path = write_game(tmp_path, "reference")
    for phi in ("0.01,0.01", "0.3,0.1", "1.5,0.2"):
        calls.clear()
        main(["eval", path, "--measure", measure, "--K", "4", f"--phi={phi}"])
        capsys.readouterr()
        assert len(calls) == 1


@pytest.mark.parametrize("measure", [kind.value for kind in MeasureKind])
@pytest.mark.parametrize("command", ["eval", "surface"])
@pytest.mark.parametrize("draws", ["0", "-2"])
@pytest.mark.parametrize("zero", [True, False], ids=["phi0", "phi"])
def test_nonpositive_draws_exit_one(tmp_path, capsys, measure, command, draws, zero):
    if command == "eval":
        where = "--phi=0,0" if zero else "--phi=0.1,0.05"
    else:
        where = "--grid=-0.2:0.2:3,-0.2:0.2:3" if zero else "--grid=0.1:0.2:2,0.1:0.2:2"
    argv = [command, write_game(tmp_path, "reference"), "--measure", measure, "--K", draws, where]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: draws must be >= 1\n")


@pytest.mark.parametrize(
    "call",
    [
        lambda m: drawdown_coefficients(m, [1.0, 0.0], -3),
        lambda m: updown_coefficients(m, [1.0, 0.0], -3),
        lambda m: small_s_cur_verified(m, 10.0, [1.0, 0.0], 0),
        lambda m: small_s_down_verified(m, 10.0, [1.0, 0.0], 0),
    ],
    ids=["drawdown", "updown", "small_s_cur", "small_s_down"],
)
def test_library_draws_raise_validation_error(example_matrix, call):
    # scale 10 is inadmissible, so the flags would return False without the check
    with pytest.raises(ValidationError, match="draws must be >= 1"):
        call(example_matrix)


def record_reads(monkeypatch):
    """Every path whose text is read from now on, in order."""
    reads = []
    read_text = pathlib.Path.read_text
    monkeypatch.setattr(
        pathlib.Path, "read_text", lambda self, *a, **k: reads.append(self) or read_text(self, *a, **k)
    )
    return reads


@pytest.mark.parametrize(
    "name, argv",
    [
        ("market", ["verify", "--K", "2", "--samples", "2"]),
        ("market", ["check"]),
        ("reference", ["check"]),
        ("reference", ["verify", "--K", "2", "--samples", "2"]),
    ],
)
def test_input_file_is_read_twice(tmp_path, capsys, monkeypatch, name, argv):
    path = write_game(tmp_path, name)
    reads = record_reads(monkeypatch)
    assert main([argv[0], path, *argv[1:]]) == 0
    capsys.readouterr()
    assert reads.count(pathlib.Path(path)) == 2


def test_market_check_rejects_bad_probs(tmp_path, capsys):
    path = write_game(tmp_path, "market")
    assert main(["check", path, "--probs", "abc"]) == 1
    assert capsys.readouterr().err.startswith("error: bad probabilities 'abc'")
