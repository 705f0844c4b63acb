"""Byte-level golden outputs of the tiling bridge, the SVG renderer and the
brute-force oracles.

The bridge and SVG digests were recorded from the commit before the bridge
lost its repeated passes, and the verify/enumerate digests from the commit
before the oracles shared one Schröder-row generator; any change to these
outputs' bytes is a behaviour change.
"""

from __future__ import annotations

import hashlib

import pytest

import pathcomb as pc
import pathcomb.cli


GOLDEN = {
    "family.txt": "73004c6c7754aa732ae818477425c941c080e2cb45e5b9062283e80a4978d6c8",
    "tiling.txt": "9a3ad93c6da81b486fdb167efe775c301c439f51f39243ff658d9ee51b78cbf6",
    "family-back.txt": "73004c6c7754aa732ae818477425c941c080e2cb45e5b9062283e80a4978d6c8",
    "overlay-0.svg": "fc185d1b06c6c2cadf7799acdce8bb3ae1aa43d1c754b319752b894cfc537f18",
    "overlay-1.svg": "3bfa4f17169a5e6b9218bf155de75966f63de949dca3fa178cfbd59aa65d7de4",
    "overlay-2.svg": "8149cbe2203f10118e1607692073839367f9691dcf848eb291936be4c93bb361",
    "overlay-3.svg": "95608d1142cf9212affe70b4c3e01e7381c6823a21c4b5f1e06852a4146c6c17",
    "dual.svg": "c748c46d6eac74eed6f9972b823d206be980a9004bf8198c86bb79c6d7bcb22b",
    "tiling.svg": "0d5ac66c32d44efc8dbdd70c42b0ecd751991db31b8d8ba92e40f3494c05ccbb",
    "sample.stdout": "e5a13daaf06c473a49bde76bbd8085d6016f36834d77ecfb2a96d7f8aa537055",
    "sample.svg": "d09fa3f7c52ab464a3ac7240ba447b44432911b44d01b8c8f7cd52944f64fa7f",
}

ORACLE_GOLDEN = {
    ("verify", "--n", "5"):
        "ee7ab203ff157487a01cc39787c349a30d3513f658db407c47f41f4e53af9b3d",
    ("enumerate", "--n", "5", "--stat", "columns"):
        "8ead63c1b8577c911887b7e2a53f583a93294d49759159903309e37295646868",
    ("enumerate", "--n", "5", "--stat", "intercolumns"):
        "eddacafd33431b9fca2b242b189c2936227ae77755266e53426a8b143f35a4f2",
    ("enumerate", "--n", "5", "--stat", "rows"):
        "8ead63c1b8577c911887b7e2a53f583a93294d49759159903309e37295646868",
    ("enumerate", "--n", "5", "--stat", "diagonals"):
        "31b1e4c2cae9b6fe0dc442cb6bda5ec3e65f23ccdc6e0b457118f004aeb1b61a",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    fam, til = d / "family.txt", d / "tiling.txt"
    fam.write_text(pc.comb(pc.random_triangle(65, 5)).to_text())
    runs = [["tile", "--input", fam, "--direction", "to-tiling", "--output", til],
            ["tile", "--input", til, "--direction", "to-family",
             "--output", d / "family-back.txt"],
            ["render", "--input", fam, "--style", "dual", "--output", d / "dual.svg"],
            ["render", "--input", til, "--style", "tiling", "--output", d / "tiling.svg"]]
    runs += [["render", "--input", til, "--style", "overlay", "--convention", str(c),
              "--output", d / f"overlay-{c}.svg"] for c in range(4)]
    for argv in runs:
        assert pathcomb.cli.main([str(a) for a in argv]) == 0
    return d


def test_sample_golden(tmp_path, capsys):
    svg = tmp_path / "sample.svg"
    assert pathcomb.cli.main(["sample", "--n", "40", "--seed", "3",
                              "--svg", str(svg)]) == 0
    out = capsys.readouterr().out.encode()
    assert _sha(out) == GOLDEN["sample.stdout"]
    assert _sha(svg.read_bytes()) == GOLDEN["sample.svg"]


@pytest.mark.parametrize("name", [k for k in GOLDEN if not k.startswith("sample")])
def test_bridge_golden(outputs, name):
    assert _sha((outputs / name).read_bytes()) == GOLDEN[name]


@pytest.mark.parametrize("argv", list(ORACLE_GOLDEN), ids=" ".join)
def test_oracle_golden(argv, capsys):
    assert pathcomb.cli.main(list(argv)) == 0
    assert _sha(capsys.readouterr().out.encode()) == ORACLE_GOLDEN[argv]
