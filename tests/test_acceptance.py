"""Acceptance suite: one pass/fail line per criterion (run with -s to see
them as they print; pytest also shows captured output for failures)."""

from __future__ import annotations

import random
import time
from collections import Counter
from contextlib import contextmanager
from math import comb as choose

import pytest

import pathcomb as pc
from pathcomb.cli import cmd_sample
from pathcomb.combing import CombTrace

import oracles
from conftest import column_sums
from test_tilings import random_region


@contextmanager
def criterion(num: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL criterion {num:2d}: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE PASS criterion {num:2d}: {description} ({elapsed:.2f}s)")


def test_criterion_01_disjoint_family_counts():
    with criterion(1, "disjoint family counts are 2^(n(n-1)/2) for n=1..5"):
        started = time.perf_counter()
        for n, want in [(1, 1), (2, 2), (3, 8), (4, 64), (5, 1024)]:
            assert len(pc.enumerate_disjoint(n)) == want
        assert time.perf_counter() - started < 10.0


def test_criterion_02_determinant_identity():
    with criterion(2, "exact Delannoy determinant and reduction identity, n=1..12"):
        started = time.perf_counter()
        for n in range(1, 13):
            assert pc.det_exact(pc.delannoy_matrix(n)) == 2 ** (n * (n - 1) // 2)
            assert pc.verify_reduction(n)
        assert time.perf_counter() - started < 5.0


def test_criterion_03_bijection():
    with criterion(3, "combing is a verified bijection for n=1..5"):
        started = time.perf_counter()
        for n in range(1, 6):
            report = pc.verify_bijection(n)
            assert report.ok, report.failures[:3]
            assert report.triangles == report.disjoint_families == \
                2 ** (n * (n - 1) // 2)
        assert time.perf_counter() - started < 30.0


def test_criterion_04_stage_bijectivity(schroder_by_n):
    with criterion(4, "every column stage is a bijection with its inverse, n=1..4"):
        for n in range(1, 5):
            count = 2 ** (n * (n - 1) // 2)
            stage = {k: {f for f in schroder_by_n[n] if oracles.in_pathfam_nk(f, k)}
                     for k in range(n + 1)}
            for k in range(n):
                domain, codomain = stage[k + 1], stage[k]
                assert len(domain) == len(codomain) == count
                image = {pc.comb_column(f, k) for f in domain}
                assert image == codomain
                for f in domain:
                    assert pc.uncomb_column(pc.comb_column(f, k), k) == f
                for g in codomain:
                    assert pc.comb_column(pc.uncomb_column(g, k), k) == g
            for f in stage[n]:
                assert pc.comb_column(f, n - 1) == f
                assert pc.uncomb_column(f, n - 1) == f
            for f in stage[0]:
                assert pc.comb_column(f, 0) == f
                assert pc.uncomb_column(f, 0) == f


def test_criterion_05_statistics(triangles_by_n):
    with criterion(5, "order-4 step statistics match the binomial tables"):
        diag = pc.joint_distribution(4, pc.diagonal_step_count)
        assert [diag[d] for d in range(7)] == [1, 6, 15, 20, 15, 6, 1]

        cols = pc.joint_distribution(4, pc.column_counts)
        want = Counter()
        for c1 in range(2):
            for c2 in range(3):
                for c3 in range(4):
                    want[(0, c1, c2, c3)] = choose(1, c1) * choose(2, c2) * choose(3, c3)
        assert cols == want

        fam_hist = pc.joint_distribution(
            4, lambda f: (pc.column_counts(f), pc.intercolumn_counts(f)))
        tri_hist = Counter()
        for t in triangles_by_n[4]:
            row_zeros = tuple(i - sum(t.bits[i]) for i in range(4))
            col_zeros = tuple(sum(1 for i in range(j + 1, 4) if t.bits[i][j] == 0)
                              for j in range(3))
            tri_hist[(row_zeros, col_zeros)] += 1
        assert fam_hist == tri_hist


def test_criterion_06_tiling_correspondence(disjoint_by_n):
    with criterion(6, "tiling counts, bridge inverses, and region round trips"):
        for m, want in [(1, 2), (2, 8), (3, 64)]:
            region = pc.aztec_region(m)
            tilings = oracles.enumerate_tilings(region)
            assert len(tilings) == want
            families = disjoint_by_n[m + 1]
            assert {pc.family_to_tiling(f) for f in families} == tilings
            for f in families:
                assert pc.tiling_to_family(pc.family_to_tiling(f)) == f
            for t in tilings:
                assert pc.family_to_tiling(pc.tiling_to_family(t)) == t

        rng = random.Random(20260810)
        regions = 0
        while regions < 1000:
            region = random_region(rng)
            regions += 1
            for t in oracles.enumerate_tilings(region):
                paths = pc.tiling_to_paths(region, t)
                assert pc.paths_to_tiling(region, paths) == t
                assert pc.tiling_to_paths(region, pc.paths_to_tiling(region, paths)) == paths


class _SweepAudit:
    """One traced pass over every required input, recording violations of
    per-column sum conservation and of adjacent-trace dominance."""

    def __init__(self) -> None:
        self.conservation: list[str] = []
        self.dominance: list[str] = []

    def sweep(self, f: pc.PathFamily, forward: bool) -> None:
        b_sums = column_sums(f.B)
        d_sums = column_sums(f.D)
        n = f.n
        columns = range(n - 1, -1, -1) if forward else range(n)
        for k in columns:
            traces: list[CombTrace] = []
            f = (pc.comb_column(f, k, traces) if forward
                 else pc.uncomb_column(f, k, traces))
            if column_sums(f.B) != b_sums or column_sums(f.D) != d_sums:
                self.conservation.append(f"n={n} k={k} forward={forward}")
            for earlier, later in zip(traces, traces[1:]):
                pairs = zip(later.d_seq, earlier.d_seq)
                ok = (all(e <= d for e, d in pairs) if forward
                      else all(d >= e for d, e in pairs))
                if not ok:
                    self.dominance.append(
                        f"n={n} k={k} i={later.i} forward={forward}")
        if not (pc.is_disjoint(f) if forward else pc.is_cliff_shaped(f)):
            self.conservation.append(f"n={n} forward={forward}: wrong endpoint stage")


@pytest.fixture(scope="module")
def sweep_audit(triangles_by_n, disjoint_by_n):
    audit = _SweepAudit()
    for n in range(1, 5):
        for t in triangles_by_n[n]:
            audit.sweep(pc.family_from_bits(t), forward=True)
        for f in disjoint_by_n[n]:
            audit.sweep(f, forward=False)
    for i in range(1000):
        t = pc.random_triangle(30, seed=i)
        audit.sweep(pc.family_from_bits(t), forward=True)
        audit.sweep(pc.comb(t), forward=False)
    return audit


def test_criterion_07_conservation(sweep_audit):
    with criterion(7, "per-column B and D sums conserved by every stage call"):
        assert sweep_audit.conservation == []


def test_criterion_08_dominance(sweep_audit):
    with criterion(8, "adjacent traces dominate pointwise in both directions"):
        assert sweep_audit.dominance == []


def test_criterion_09_duality(disjoint_by_n):
    from test_tilings import TestDuality

    with criterion(9, "duality is an involution with midpoint crossings, n<=4"):
        from pathcomb.families import H_STEP, V_STEP

        starts = TestDuality._step_starts
        for n in range(1, 5):
            for f in disjoint_by_n[n]:
                g = pc.dual_family(f)
                assert pc.dual_family(g) == f
                reflect = lambda pts: {(n - k, n - 1 - l) for k, l in pts}
                assert reflect(starts(f, H_STEP)) == starts(g, V_STEP)
                assert reflect(starts(f, V_STEP)) == starts(g, H_STEP)


def test_criterion_10_performance_smoke(tmp_path):
    with criterion(10, "sampling 200 paths combs, validates and renders in < 2s"):
        fam_file = tmp_path / "sample.txt"
        svg_file = tmp_path / "sample.svg"
        started = time.perf_counter()
        code = cmd_sample(200, seed=7, out_family=str(fam_file),
                          svg_path=str(svg_file))
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < 2.0
        family = pc.PathFamily.from_text(fam_file.read_text())
        assert family.n == 200
        assert pc.is_disjoint(family)
        assert svg_file.read_text().startswith("<svg")
