"""Byte-level golden outputs of the tiling bridge, the SVG renderer and the
brute-force oracles.

The bridge and SVG digests were recorded from the commit before the bridge
lost its repeated passes, the verify/enumerate digests from the commit
before the oracles shared one Schröder-row generator, and the small-order
digests from the commit before the SVG formatted each coordinate once per
batch; any change to these outputs' bytes is a behaviour change.
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
    # small orders and edge cases, where signed zeros and the bounding box
    # decide the bytes: the overlay under each convention and the dual of the
    # families of orders 1-4 (diamonds of orders 0-3), a tiling with cells on
    # level -1 (its rects print y="-0") and an empty tiling file.
    "empty.svg": "6fd0f6fa115ccae1ca72bf07266c44a9d850f0a70d46cb1d613778db80e737e4",
    "level-minus-one.svg": "8b8625edfa880cafeafe79e8cbcff193e872d86ff52e2a2ba02123db817e6a4a",
    "n1-dual.svg": "97f0cea50a9655d84d7da079b6e3b440487e890a2b89ef10057ba0a35f1a322f",
    "n1-overlay-0.svg": "ffd20d2a93b7d004db8d2b84abc174dc9bbaa7478ad1e6b8025572c5687fed5d",
    "n1-overlay-1.svg": "589f68ccfd411b54b4ad0e4e152a1ec5dbc4fc5334253f8cc35f9714d320ff51",
    "n1-overlay-2.svg": "f0219b1c14aa9d60e0c09337d2a5834613a36cae4e2bcde2f029b5fb46e9ba09",
    "n1-overlay-3.svg": "b955b391f3aeaedce425391f685e7c8a2683c0db3d1472f17554f5048358be4b",
    "n2-dual.svg": "51518c4fe82f41bba2b16e8825002a1305486d007cd72f9f1d60c9cf6631abce",
    "n2-overlay-0.svg": "ffa724465dd411bc0c889fd29ec84fde3d8d41386f44fd08507905091c009309",
    "n2-overlay-1.svg": "e6506313ba1860998a10bb881c36e4b30bfba8544a3eab42ee0cb6fad58f79b9",
    "n2-overlay-2.svg": "625fa064ada664e1e87ddfcddf30c764b2e010cd8238239f90b9ea7688dab7df",
    "n2-overlay-3.svg": "f227decea83bb24e505391fc64559a5c8c5b328f039789683a608d746521b72c",
    "n3-dual.svg": "e83dfd8734535a31a8d0940ed8a2687579002915d898b98e4487a135fe4f700b",
    "n3-overlay-0.svg": "4f598e4c8b1cfbc4116bce15207d69ea836d8332e1a564fed590064ef556c16c",
    "n3-overlay-1.svg": "7ad5cfd4e79ea098bda4b7bd7fd606ca96b9a3caec77f86e3276b74ba51a514f",
    "n3-overlay-2.svg": "5f559048b044fccbc0549184422c143688dc2122c77d8c6ceccb7fbca0f6ed27",
    "n3-overlay-3.svg": "dcb470d9b69708df5ad8acef6b3ed77aba3f6a35063794b7a506e28ace82d1e7",
    "n4-dual.svg": "b1a3f9d3e3b6b59f49183316c8d7c44c4c3693b32f094c21f988a88ebfd05607",
    "n4-overlay-0.svg": "ac1999f2ea1d37c695e207352976d37e772b2a193db745d6693396d28203cca1",
    "n4-overlay-1.svg": "a8d3edb35654d7e05a936c9fbb4d908519edf58938b9a77df248f1990139dbf0",
    "n4-overlay-2.svg": "3928a588aeed0ba37e02eaccbb7c2943f1718c5bd14161c34df224a7d9999c0e",
    "n4-overlay-3.svg": "e13e94bed6b379f8a0f81cdb4afbb4115f877ae40c57a5daabc7d16b59332f8e",
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
    for n in range(1, 5):
        fam, til = d / f"n{n}-family.txt", d / f"n{n}-tiling.txt"
        fam.write_text(pc.comb(pc.random_triangle(n, 7)).to_text())
        runs.append(["tile", "--input", fam, "--direction", "to-tiling", "--output", til])
        runs.append(["render", "--input", fam, "--style", "dual",
                     "--output", d / f"n{n}-dual.svg"])
        runs += [["render", "--input", til, "--style", "overlay", "--convention", str(c),
                  "--output", d / f"n{n}-overlay-{c}.svg"] for c in range(4)]
    (d / "level-minus-one.txt").write_text("-1 0 -1 1\n-2 0 -2 1\n0 -1 1 -1\n-1 2 -2 2\n")
    (d / "empty.txt").write_text("")
    for name in ("level-minus-one", "empty"):
        runs.append(["render", "--input", d / f"{name}.txt", "--style", "tiling",
                     "--output", d / f"{name}.svg"])
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
