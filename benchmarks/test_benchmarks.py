"""Self-tests of the benchmark: its counters, its output checks and its
tracing.  Run with ``python3 benchmarks/test_benchmarks.py``."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from collections import Counter
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pathcomb  # noqa: E402
import pathcomb.cli as cli  # noqa: E402
from child import attempt, run_op  # noqa: E402
from tracing import CombCounts, Counters, Tracer, patched  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {"sample-roundtrip": 12, "aztec-bridge": 7, "delannoy-det": 8, "exhaustive-5": 3}


def bindings() -> list[tuple[object, str, object]]:
    """Every module attribute, class attribute and default value in pathcomb."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("pathcomb"):
            continue
        for attr, value in vars(mod).items():
            out.append((mod, attr, value))
            if isinstance(value, type):
                out.extend((value, a, v) for a, v in vars(value).items())
            if getattr(value, "__defaults__", None):
                out.append((value, "__defaults__", value.__defaults__))
    return out


class WorkDir(unittest.TestCase):
    def setUp(self) -> None:
        parent = os.path.join(ROOT, ".bench_work")
        os.makedirs(parent, exist_ok=True)
        self.dir = tempfile.mkdtemp(dir=parent)

    def tearDown(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def workload(self, name: str, seed: int = 1, order: int | None = None):
        return WORKLOADS[name](self.dir, seed, SMALL[name] if order is None else order)


class CountersTest(WorkDir):
    def test_comb_counts_for_the_reference_triangle(self):
        counts = Counter()
        pathcomb.comb(pathcomb.random_triangle(200, 3), trace_sink=CombCounts(counts))
        self.assertEqual(counts["combing.basic_ops"], 19_900)
        self.assertEqual(counts["combing.scanned_columns"], 1_313_400)
        self.assertEqual(counts["combing.swaps"], 242_735)
        self.assertEqual(counts["combing.zero_transfer_ops"], 3_657)

    def test_counting_pass_reaches_comb_through_the_cli(self):
        # op 3 of seed 0 samples random_triangle(200, 3)
        w = self.workload("sample-roundtrip", seed=0, order=200)
        counters = Counters()
        with patched(counters.wrap):
            self.assertIsNone(attempt(cli, w, 3)[1])
        c = counters.counts
        self.assertEqual((c["combing.calls"], c["combing.basic_ops"], c["combing.swaps"]),
                         (2, 19_900, 242_735))
        self.assertEqual(c["families.is_disjoint.calls"], 2)

    def test_counting_pass_reaches_comb_through_default_arguments(self):
        w = self.workload("exhaustive-5")
        counters = Counters()
        with patched(counters.wrap):
            self.assertIsNone(attempt(cli, w, 0)[1])
        # verify_bijection combs each of the 8 triangles and each of the 8 families
        self.assertEqual(counters.counts["combing.calls"], 8 + 8 + 8 + 8)
        self.assertEqual(counters.counts["enumeration.families"], 8 + 8)

    def test_bareiss_updates_from_the_order(self):
        w = self.workload("delannoy-det")
        counters = Counters()
        with patched(counters.wrap):
            self.assertIsNone(attempt(cli, w, 0)[1])
        self.assertEqual(counters.counts["delannoy.bareiss_updates"],
                         sum((8 - 1 - k) ** 2 for k in range(8 - 1)))
        self.assertEqual(counters.counts["delannoy.verify_reduction.calls"], 8)


def _flip_first_bit(path: str) -> None:
    with open(path) as fh:
        header, _, rest = fh.read().partition("\n")
    k = next(i for i, ch in enumerate(rest) if ch in "01")
    with open(path, "w") as fh:
        fh.write(header + "\n" + rest[:k] + "10"[int(rest[k])] + rest[k + 1:])


def _drop_line(path: str, index: int) -> None:
    with open(path) as fh:
        lines = fh.readlines()
    del lines[index]
    with open(path, "w") as fh:
        fh.writelines(lines)


def _truncate(path: str) -> None:
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[: len(text) // 2])


class ChecksBiteTest(WorkDir):
    """Each check passes the real output and fails a corrupted one."""

    def assert_corruption_fails(self, name, corrupt_files=None, corrupt_stdouts=None):
        w = self.workload(name)
        self.assertEqual(attempt(cli, w, 0), (mock.ANY, None))

        def corrupted_check(i, stdouts):
            if corrupt_files:
                corrupt_files(w)
            if corrupt_stdouts:
                stdouts = corrupt_stdouts(w, stdouts)
            return type(w).check(w, i, stdouts)

        w.check = corrupted_check
        took, problem = attempt(cli, w, 1)
        self.assertIsNone(took)
        self.assertIsNotNone(problem)
        return problem

    def test_flipped_bit_in_uncombed_triangle(self):
        self.assert_corruption_fails(
            "sample-roundtrip", corrupt_files=lambda w: _flip_first_bit(w.path("T2")))

    def test_dropped_domino_line(self):
        self.assert_corruption_fails(
            "aztec-bridge", corrupt_files=lambda w: _drop_line(w.path("Tl"), 3))

    def test_svg_that_does_not_parse(self):
        self.assert_corruption_fails(
            "aztec-bridge", corrupt_files=lambda w: _truncate(w.path("overlay.svg")))
        self.assert_corruption_fails(
            "aztec-bridge", corrupt_files=lambda w: _truncate(w.path("dual.svg")))

    def test_wrong_exponent_line(self):
        e = 8 * 7 // 2
        self.assert_corruption_fails(
            "delannoy-det", corrupt_stdouts=lambda w, s: [f"{1 << e} = 2^{e + 1}\n"])

    def test_verify_reports_fail(self):
        def fail(w, stdouts):
            return [stdouts[0].replace("PASS", "FAIL"), stdouts[1]]
        self.assert_corruption_fails("exhaustive-5", corrupt_stdouts=fail)

    def test_nonzero_exit_fails(self):
        w = self.workload("sample-roundtrip")
        w.calls = lambda i: [["uncomb", "--input", w.path("missing"), "--output", w.path("x")]]
        took, problem = attempt(cli, w, 0)
        self.assertIsNone(took)
        self.assertIn("exited 1", problem)


class TracingTest(WorkDir):
    def test_every_binding_is_restored(self):
        before = bindings()
        comb = pathcomb.combing.comb
        tracer = Tracer()
        with patched(tracer.wrap):
            self.assertIs(pathcomb.cli.comb.__wrapped__, comb)
            self.assertIs(pathcomb.enumeration.comb.__wrapped__, comb)
            self.assertIs(pathcomb.enumeration.verify_bijection.__wrapped__.__defaults__[1],
                          pathcomb.enumeration.comb)
            self.assertTrue(hasattr(pathcomb.PathFamily.from_text, "__wrapped__"))
            for name in WORKLOADS:
                self.assertIsNone(attempt(cli, self.workload(name), 0)[1])
        after = bindings()
        self.assertEqual(len(before), len(after))
        for (o1, a1, v1), (o2, a2, v2) in zip(before, after):
            self.assertTrue(o1 is o2 and a1 == a2 and v1 is v2, f"{o1!r}.{a1} not restored")

    def test_self_times_account_for_the_op(self):
        w = self.workload("aztec-bridge", order=30)
        tracer = Tracer()
        with patched(tracer.wrap):
            took, stdouts = run_op(cli, w, 0)
        self.assertIsNone(w.check(0, stdouts))
        total = sum(tracer.self_s.values())
        self.assertLessEqual(total, took * 1.05)
        self.assertGreater(total, took * 0.9)
        self.assertGreater(tracer.self_s["tilings.tiling_to_paths"], 0)
        self.assertFalse(tracer.errors)


class CommandTest(unittest.TestCase):
    def test_refuses_to_run_without_the_sources(self):
        parent = os.path.join(ROOT, ".bench_work")
        os.makedirs(parent, exist_ok=True)
        bare = tempfile.mkdtemp(dir=parent)
        try:
            shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, "benchmarks/run.py", "--workload", "delannoy-det",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
