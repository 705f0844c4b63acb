"""The benchmark workloads.

Each workload makes its inputs from a seed, names the ``pathcomb`` command
lines that make up one op, and checks that op's outputs.  A workload is
built at an order: the benchmark runs it at ``ORDER``, and set-up timing
runs it once at order 2.  Nothing here imports ``pathcomb`` at module level,
so that importing this file costs set-up timing nothing.
"""

from __future__ import annotations

import os
import xml.etree.ElementTree as ET
from math import comb as binomial

SVG = "{http://www.w3.org/2000/svg}"


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _svg_counts(path: str) -> dict[str, int]:
    """Element counts of an SVG file; raises if it is not an SVG document."""
    root = ET.parse(path).getroot()
    if root.tag != SVG + "svg":
        raise ValueError(f"{os.path.basename(path)}: root element is {root.tag}")
    counts: dict[str, int] = {}
    for el in root.iter():
        counts[el.tag] = counts.get(el.tag, 0) + 1
    return counts


class Workload:
    """One closed-loop workload.  Subclasses set ``name``, ``ORDER`` and
    ``cycle`` (ops after which the op inputs repeat) and implement
    ``calls`` and ``check``."""

    name = ""
    ORDER = 0
    cycle = 1

    def __init__(self, workdir: str, seed: int, order: int | None = None):
        self.dir = workdir
        self.seed = seed
        self.n = self.ORDER if order is None else order

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def calls(self, i: int) -> list[list[str]]:
        """The argv lists of op i, run in order through ``pathcomb.cli.main``."""
        raise NotImplementedError

    def check(self, i: int, stdouts: list[str]) -> str | None:
        """None when op i's outputs are correct, else what is wrong.

        ``stdouts`` holds each call's captured standard output; file outputs
        are read from the work directory."""
        raise NotImplementedError


class SampleRoundtrip(Workload):
    name = "sample-roundtrip"
    ORDER = 180

    def calls(self, i: int) -> list[list[str]]:
        seed = str(self.seed * 1_000_000 + i)
        return [["sample", "--n", str(self.n), "--seed", seed,
                 "--out-triangle", self.path("T"), "--out-family", self.path("F")],
                ["uncomb", "--input", self.path("F"), "--output", self.path("T2")]]

    def check(self, i: int, stdouts: list[str]) -> str | None:
        t, t2 = _read(self.path("T")), _read(self.path("T2"))
        lines = t.splitlines()
        if not lines or lines[0] != str(self.n) or len(lines) != max(self.n, 1):
            return f"triangle file is not an order-{self.n} triangle"
        if t2 != t:
            return "uncombed triangle differs from the sampled one"
        return None


class AztecBridge(Workload):
    name = "aztec-bridge"
    ORDER = 65
    cycle = 4  # the four overlay conventions

    def __init__(self, workdir: str, seed: int, order: int | None = None):
        super().__init__(workdir, seed, order)
        from pathcomb import comb, random_triangle
        self.family = comb(random_triangle(self.n, seed)).to_text()
        _write(self.path("F"), self.family)

    def calls(self, i: int) -> list[list[str]]:
        f, tl = self.path("F"), self.path("Tl")
        return [["tile", "--input", f, "--direction", "to-tiling", "--output", tl],
                ["tile", "--input", tl, "--direction", "to-family",
                 "--output", self.path("F2")],
                ["render", "--input", tl, "--style", "overlay",
                 "--convention", str(i % 4), "--output", self.path("overlay.svg")],
                ["render", "--input", f, "--style", "dual",
                 "--output", self.path("dual.svg")]]

    def check(self, i: int, stdouts: list[str]) -> str | None:
        m = self.n - 1
        seen: set[tuple[int, int]] = set()
        lines = _read(self.path("Tl")).splitlines()
        for line in lines:
            a, b, c, d = (int(x) for x in line.split())
            if abs(a - c) + abs(b - d) != 1 or (a, b) in seen or (c, d) in seen:
                return f"tiling line {line!r} is not a fresh domino"
            seen.update(((a, b), (c, d)))
        if len(lines) != m * (m + 1):
            return f"tiling has {len(lines)} dominoes, expected {m * (m + 1)}"
        if _read(self.path("F2")) != self.family:
            return "family from the tiling differs from the input family"
        overlay = _svg_counts(self.path("overlay.svg"))
        if overlay.get(SVG + "rect", 0) != m * (m + 1) or overlay.get(SVG + "path", 0) != m + 1:
            return "overlay SVG does not hold one rect per domino and one path per path"
        if _svg_counts(self.path("dual.svg")).get(SVG + "path", 0) != 2 * self.n:
            return "dual SVG does not hold the family and its dual"
        return None


class DelannoyDet(Workload):
    name = "delannoy-det"
    ORDER = 45

    def calls(self, i: int) -> list[list[str]]:
        return [["det", "--n", str(self.n)]]

    def check(self, i: int, stdouts: list[str]) -> str | None:
        e = self.n * (self.n - 1) // 2
        if stdouts[0] != f"{1 << e} = 2^{e}\n":
            return f"det output is not the line '<2^{e}> = 2^{e}'"
        return None


class Exhaustive5(Workload):
    name = "exhaustive-5"
    ORDER = 5

    def calls(self, i: int) -> list[list[str]]:
        n = str(self.n)
        return [["verify", "--n", n], ["enumerate", "--n", n, "--stat", "diagonals"]]

    def check(self, i: int, stdouts: list[str]) -> str | None:
        bits = self.n * (self.n - 1) // 2
        count = 1 << bits
        verify = stdouts[0].splitlines()
        if verify != [f"triangles combed: {count}",
                      f"image matched {count}/{count} disjoint families", "PASS"]:
            return "verify did not report a full match and PASS"
        # combing conserves the number of diagonal steps, which is the number
        # of 1 bits of the triangle, so the histogram is binomial
        expected = [f"{count} disjoint families of order {self.n}"]
        expected += [f"{k} : {binomial(bits, k)}" for k in range(bits + 1)]
        if stdouts[1].splitlines() != expected:
            return "diagonal-step histogram is not binomial over all families"
        return None


WORKLOADS = {w.name: w for w in (SampleRoundtrip, AztecBridge, DelannoyDet, Exhaustive5)}
