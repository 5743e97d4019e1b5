"""Golden stdout digests: ``verify`` and the exact-measure surfaces keep their bytes.

The digests were captured from the CLI before the linear-walk sign rule was
made exact.  They cover outputs that rule must not move: the verification
battery on three fixture games, and the default 121x121 surfaces of the four
count-form measures, none of which reads the sign of the linear walk.

The exit-code digests were captured before the verify suites were batched:
a game that fails the span diagnostic, a three-system game, and a market file
that adds the bridge-consistency line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from conftest import EXAMPLE_PROBS, EXAMPLE_RETURNS, FLAT_SEGMENT_RETURNS
from drawdown_risk.cli import main
from test_kernel import DEPENDENT_PROBS, DEPENDENT_RETURNS

GAME_FILES = {
    "reference": {"returns": EXAMPLE_RETURNS, "probs": EXAMPLE_PROBS},
    "dependent": {"returns": DEPENDENT_RETURNS, "probs": DEPENDENT_PROBS},
    "flat": {"returns": FLAT_SEGMENT_RETURNS},
    "axis": {"returns": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]},
    "three": {
        "returns": [[0.5, -0.2, 0.3], [-0.4, 0.6, 0.1], [0.2, 0.3, -0.7],
                    [-0.35, -0.6, 0.25], [0.1, 0.2, 0.4]],
        "probs": [0.3, 0.25, 0.2, 0.15, 0.1],
    },
    "market": {
        "R": 1.0,
        "S0": [1.0, 1.0],
        "scenarios": [[2.0, 2.0], [0.5, 2.0], [2.0, 0.0], [0.5, 0.0]],
        "probs": EXAMPLE_PROBS,
    },
}

VERIFY_DIGESTS = {
    ("reference", 0): "3366048afde2c12162574c4d44a98b6141702736a30b49faa113adfc2828d417",
    ("reference", 1): "3366048afde2c12162574c4d44a98b6141702736a30b49faa113adfc2828d417",
    ("dependent", 0): "9fd47d497443fd33fc3eeea96fb5b3406ec002145c61f8b2cd7988eb237a7675",
    ("dependent", 1): "9fd47d497443fd33fc3eeea96fb5b3406ec002145c61f8b2cd7988eb237a7675",
    ("flat", 0): "9debc07c728bbb7c5c1438baf41692bcb03b170d316bf1ec1015edc5f8899fcb",
    ("flat", 1): "9debc07c728bbb7c5c1438baf41692bcb03b170d316bf1ec1015edc5f8899fcb",
}

VERIFY_EXIT_DIGESTS = {
    ("axis", 0): (3, "72ec30871709cfea8582580188114292dcabf93fa7220c26b6555ab40152a2f1"),
    ("axis", 1): (3, "72ec30871709cfea8582580188114292dcabf93fa7220c26b6555ab40152a2f1"),
    ("three", 0): (0, "212647d0489089c6fd2916596215b8e5b236d2b7ca6784bf0d8312a90ff072f3"),
    ("three", 1): (0, "212647d0489089c6fd2916596215b8e5b236d2b7ca6784bf0d8312a90ff072f3"),
    ("market", 0): (0, "0bbe7f51c00fdacf2849b2c1342fb53da3f1622788e70b2e9c250a004720a974"),
    ("market", 1): (0, "0bbe7f51c00fdacf2849b2c1342fb53da3f1622788e70b2e9c250a004720a974"),
}

SURFACE_DIGESTS = {
    ("down", 1): "d464bb355ce49e1b066324ad02bb62759d179856229cca4486653ad4a6dea57b",
    ("down", 2): "21dd27e2324bdb46ef7d8dcab1888503235b6de3a59d4da632b1f28eb053e870",
    ("down", 3): "64c224d647af1d8e259cd43bf7d434fa07f2df2893bab978438eb8b51b4cc5b7",
    ("down", 4): "705739db1432ead20d384a24e1c6bcfe4841c3d5412251c7ec9d7583cba37ea9",
    ("down", 5): "f6c4a7e580b955170ed5cd41f6b8b6300cb9fc5759847a6ea2f12bd1e98fd181",
    ("downX", 1): "24b032b3682e23e6f13419eaa5b5ded6359ee9d4189b4f95fe0f1202ec4c9e01",
    ("downX", 2): "9fdbd3acf27b8c40c3e0e7e8b32b68967990202d9f929e3cc41196a55b9b5bbf",
    ("downX", 3): "f5c5414fbb4fe59bbe5e5d17b7a2cd6ad010d68523be49c7f1bcfb5db3944017",
    ("downX", 4): "8095caa4672994d1b6121fbbcfdee846ff9d6bb5b05bd841ca10dcb652c499f3",
    ("downX", 5): "5a5fac11bfd3db2cfa892370faa94b2b49c5dbac51b4e212f1f04253d2e7a92c",
    ("cur", 1): "d464bb355ce49e1b066324ad02bb62759d179856229cca4486653ad4a6dea57b",
    ("cur", 2): "d3c243326a9c31dcee1a95a76bc4be24ea270052c7576236e4cd8c2db8a795fd",
    ("cur", 3): "0b55bf865e1b57371a69606ad8ac05796d0f3fcabebd0017037e1ebb8a4e6850",
    ("cur", 4): "ea3c7660ff67116c971b759fe5f4bf1264918d5cfdf746f796d472cd25bf44b6",
    ("cur", 5): "f8e21a5999f7c01fa1c8a6068c92e9466ee249a0008a238428f93b4e609d1126",
    ("curX", 1): "24b032b3682e23e6f13419eaa5b5ded6359ee9d4189b4f95fe0f1202ec4c9e01",
    ("curX", 2): "1833596973cb0cd0eb2815d050224d640b34ba7694d8d42750e172466b99455a",
    ("curX", 3): "12f520fe5df581ea087279358be1125f9fa6ac010a3e59e3bf3568e2247e53a2",
    ("curX", 4): "4b93c523d8f353865be1e1b982f0455f137079bc75168e1863cce9443c4cc4f5",
    ("curX", 5): "2eafae967d75f15c9850226d55316c82634098139d15fa79ff0f8ac54f687e80",
}


def stdout_digest(argv) -> tuple[int, str]:
    """Exit code and sha256 of the stdout of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def write_game(directory, name) -> str:
    path = directory / f"{name}.json"
    path.write_text(json.dumps(GAME_FILES[name]))
    return str(path)


@pytest.mark.parametrize("name, seed", sorted(VERIFY_DIGESTS))
def test_verify_stdout_digest(tmp_path, name, seed):
    argv = ["verify", write_game(tmp_path, name), "--K", "3", "--seed", str(seed)]
    assert stdout_digest(argv) == (0, VERIFY_DIGESTS[name, seed])


@pytest.mark.parametrize("measure, draws", sorted(SURFACE_DIGESTS))
def test_surface_stdout_digest(tmp_path, measure, draws):
    argv = ["surface", write_game(tmp_path, "reference"), "--measure", measure,
            "--K", str(draws)]
    assert stdout_digest(argv) == (0, SURFACE_DIGESTS[measure, draws])


@pytest.mark.parametrize("name, seed", sorted(VERIFY_EXIT_DIGESTS))
def test_verify_exit_and_stdout_digest(tmp_path, name, seed):
    argv = ["verify", write_game(tmp_path, name), "--K", "3", "--seed", str(seed)]
    assert stdout_digest(argv) == VERIFY_EXIT_DIGESTS[name, seed]


#: A game that passes the structural check but whose first four rows sum to
#: (0, 0, 2.8e-17) in binary, so at K = 4 the small-scale suite fails 48 of
#: its 200 checks and prints its notes.  Captured before the path-form second
#: routes of the suites were batched.
NOISE_GAME = {
    "returns": [[0.5, -0.2, 0.3], [-0.4, 0.6, 0.1], [0.2, 0.3, -0.7],
                [-0.3, -0.7, 0.3], [0.1, 0.2, 0.4]],
    "probs": [0.3, 0.25, 0.2, 0.15, 0.1],
}

VERIFY_K4_DIGESTS = {
    0: (3, "6e678648b37a1a74044d9b0e49979a3654cd9cd6b6601fad5a135c802ac7b284"),
    1: (3, "96dd5b6c6fbf7e5ef6305921e8ead44823211f008f5fe8f08733a95fddf5e679"),
}


@pytest.mark.parametrize("seed", sorted(VERIFY_K4_DIGESTS))
def test_verify_noise_game_exit_and_stdout_digest(tmp_path, seed):
    path = tmp_path / "noise.json"
    path.write_text(json.dumps(NOISE_GAME))
    argv = ["verify", str(path), "--K", "4", "--seed", str(seed)]
    assert stdout_digest(argv) == VERIFY_K4_DIGESTS[seed]
