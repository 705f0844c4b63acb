"""Benchmark for pathcomb: CLI workloads in a closed loop with one client.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout that holds ``src/pathcomb``.  Each workload runs in its
own child interpreter, one child at a time.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).  Times
are reference seconds: wall time scaled by ``CAL_REF_S`` over the time of
``child.calibrate`` measured around it, which removes most of the drift in
machine speed that a shared machine shows from minute to minute.  Every
metric is printed by name with its unit; the last line of standard output is
one JSON object.  The exit code is 1 when any op failed, 2 when the sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TAIL_PCT = 80  # fixed, so parent and change compare the same percentile
SETUP_RUNS = 11  # measured set-ups per run, after one unmeasured one
TIME_LIMIT_S = 170  # per workload, below the 180 s a run may take
CAL_REF_S = 0.010  # calibration time of the reference machine

# Spans reported one by one; the others count only towards their layer.
REPORTED_SPANS = (
    "cli", "rng.random_triangle",
    "families.is_disjoint", "families.explicit_paths", "families.family_from_bits",
    "families.family_from_paths", "families.to_text", "families.from_text",
    "combing.comb", "combing.uncomb",
    "tilings.family_to_tiling", "tilings.tiling_to_family", "tilings.dual_family",
    "tilings.convention_paths", "tilings.tiling_to_paths", "tilings.paths_to_tiling",
    "tilings.aztec_region", "tilings.text",
    "svg.render_overlay", "svg.render_dual",
    "delannoy.delannoy_matrix", "delannoy.det_exact", "delannoy.verify_reduction",
    "enumeration.verify_bijection", "enumeration.enumerate_disjoint",
)
COUNTS = (
    ("combing.calls", "count"), ("combing.basic_ops", "count"),
    ("combing.scanned_columns", "count"), ("combing.swaps", "count"),
    ("combing.zero_transfer_ops", "count"), ("families.is_disjoint.calls", "count"),
    ("delannoy.verify_reduction.calls", "count"), ("delannoy.bareiss_updates", "count"),
    ("enumeration.families", "count"), ("tilings.cells", "count"),
    ("svg.bytes_out", "bytes"),
)


class ChildFailed(Exception):
    pass


def child(mode: str, name: str, workdir: str, deadline: float, *extra: str) -> dict:
    """Run child.py to completion and return its JSON result."""
    os.makedirs(workdir)
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), mode, ROOT, name, workdir, *extra],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise ChildFailed(proc.stderr.strip() or f"child exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def normalized(r: dict) -> list[float]:
    """The successful ops' times in reference seconds, sorted."""
    return sorted(t * CAL_REF_S / c for t, c in zip(r["times"], r["cals"]))


def percentile(sorted_times: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = math.ceil(pct / 100 * len(sorted_times))
    return sorted_times[rank - 1], len(sorted_times) - rank


def end_to_end(name: str, seed: int, seconds: float, work: str, deadline: float):
    setups = [child("setup", name, os.path.join(work, f"setup-{k}"), deadline)
              for k in range(SETUP_RUNS + 1)][1:]
    r = child("loop", name, os.path.join(work, "loop"), deadline, str(seed), str(seconds), "0")
    times = normalized(r)
    n = len(times)
    metrics, notes = {}, {}
    if n:
        tail, beyond = percentile(times, TAIL_PCT)
        metrics["ops_per_s"] = (n / sum(times), "1/s")
        metrics["op_p50_s"] = (statistics.median(times), "s")
        metrics["op_tail_s"] = (tail, "s")
        notes["op_p50_s"] = (f"p50 of {n} ops; wall time {statistics.median(r['times']):.6f} s"
                             f" at calibration {statistics.median(r['cals']):.6f} s")
        notes["op_tail_s"] = f"p{TAIL_PCT} of {n} ops, {beyond} beyond" + (
            "" if beyond >= 10 else "; fewer than 10 beyond, too few ops for this tail")
    metrics["setup_s"] = (
        statistics.median(s["setup_s"] * CAL_REF_S / s["cal"] for s in setups), "s")
    notes["setup_s"] = f"median of {SETUP_RUNS} fresh interpreters"
    metrics["peak_rss_mb"] = (r["peak_rss_kb"] / 1024, "MB")
    return metrics, notes, r["attempted"], r["failures"]


def per_layer(name: str, seed: int, seconds: float, work: str, deadline: float):
    r = child("loop", name, os.path.join(work, "loop"), deadline, str(seed), str(seconds), "1")
    plain, traced = normalized(r["plain"]), normalized(r["traced"])
    failures = r["plain"]["failures"] + r["traced"]["failures"] + r["count_failures"]
    attempted = r["plain"]["attempted"] + r["traced"]["attempted"] + r["count_ops"]
    if not (plain and traced):
        return {}, {}, attempted, failures
    ops = len(traced)
    scale = CAL_REF_S / statistics.median(r["traced"]["cals"])
    self_s = {k: v * scale for k, v in r["self_s"].items()}
    counts = r["counts"]
    metrics, notes = {}, {}
    for key in REPORTED_SPANS:
        metrics[key + ".self_s"] = (self_s.get(key, 0.0) / ops, "s")
        notes[key + ".self_s"] = f"per op, mean of {ops} traced ops"
    for layer in LAYERS[1:]:
        total = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        metrics[layer + ".self_s"] = (total / ops, "s")
    for layer in LAYERS:
        metrics[layer + ".errors"] = (r["errors"].get(layer, 0), "count")
    for key, unit in COUNTS:
        metrics[key] = (counts.get(key, 0) / r["count_ops"], unit)
        notes[key] = f"per op, counted over {r['count_ops']} untimed ops"
    comb_s = metrics["combing.comb.self_s"][0]
    metrics["combing.swaps_per_s"] = (
        metrics["combing.swaps"][0] / comb_s if comb_s else 0.0, "1/s")
    metrics["trace_overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain), "ratio")
    notes["trace_overhead_ratio"] = (
        f"p50 of {ops} traced ops over p50 of {len(plain)} untraced ops")
    metrics["trace_accounted_ratio"] = (
        sum(r["self_s"].values()) / sum(r["traced"]["times"]), "ratio")
    notes["trace_accounted_ratio"] = "span self times summed over traced op time"
    return metrics, notes, attempted, failures


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: str):
    deadline = time.monotonic() + TIME_LIMIT_S
    measure = per_layer if trace else end_to_end
    metrics, notes, attempted, failures = measure(name, seed, seconds, work, deadline)
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{name:<17} {key:<36} {value:>16.6f} {unit}{note}")
    ratio = len(failures) / attempted if attempted else 1.0
    print(f"{name:<17} {'failed_ops_ratio':<36} {ratio:>16.6f} ratio"
          f"  ({len(failures)} of {attempted} ops)")
    for failure in failures[:5]:
        print(f"{name:<17} failed {failure}", file=sys.stderr)
    return metrics, attempted, len(failures)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pathcomb", "__init__.py")):
        print(f"benchmark: no pathcomb sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    attempted = failed = 0
    out = {}
    try:
        for name in names:
            metrics, a, f = run_workload(name, args.seed, args.seconds, args.trace == 1,
                                         os.path.join(work, name))
            attempted += a
            failed += f
            prefix = "" if len(names) == 1 else name + "."
            out.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
