"""One benchmark pass in a fresh interpreter; ``run.py`` starts it.

    child.py setup ROOT WORKLOAD WORKDIR
        Time ``import pathcomb.cli`` plus one order-2 op of the workload.
    child.py loop ROOT WORKLOAD WORKDIR SEED SECONDS TRACE
        Make the workload's inputs, run one warm-up op (checked, not
        timed), then run ops in a closed loop with one client for SECONDS.
        With TRACE 1 the time is split between an untraced and a traced
        pass, followed by one untimed counting pass over a cycle of ops.

Every op is bracketed by runs of ``calibrate``, so that the parent can
correct op times for the speed of the machine at that moment.  The last line
of standard output is the result as JSON.
"""

from __future__ import annotations

import sys
import time

T0 = time.perf_counter()  # before anything of pathcomb's is imported


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python task that, like pathcomb, builds
    tuples, sets and lists of small integers.  It shares no code with
    pathcomb, so its time follows only the speed of the machine."""
    start = time.perf_counter()
    seen = set()
    rows = []
    acc = 0
    for i in range(30_000):
        seen.add((i, i * 7 % 13))
        acc += (len(seen) ^ i) & 0xFF
        if i % 100 == 0:
            rows.append([j * acc for j in range(50)])
    return time.perf_counter() - start


def _use_sources(root: str) -> None:
    """Import pathcomb from ROOT/src and nowhere else."""
    import os
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import pathcomb
    if os.path.dirname(os.path.dirname(os.path.realpath(pathcomb.__file__))) != src:
        raise SystemExit(f"pathcomb was imported from {pathcomb.__file__}, not {src}")


def run_op(cli, w, i: int) -> tuple[float, list[str]]:
    """Run op i of workload w through ``cli.main``; return the seconds spent
    in the program and each call's standard output.  Raises on a nonzero
    exit."""
    import io
    from contextlib import redirect_stderr, redirect_stdout
    took = 0.0
    stdouts = []
    for argv in w.calls(i):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            rc = cli.main(argv)
            took += time.perf_counter() - start
        if rc != 0:
            raise RuntimeError(f"{' '.join(argv[:1])} exited {rc}: {err.getvalue().strip()}")
        stdouts.append(out.getvalue())
    return took, stdouts


def attempt(cli, w, i: int) -> tuple[float | None, str | None]:
    """Run and check op i: (seconds, None) when it succeeds, else
    (None, reason).  A nonzero exit, an exception or a failed check fails."""
    try:
        took, stdouts = run_op(cli, w, i)
        problem = w.check(i, stdouts)
    except (Exception, SystemExit) as exc:
        return None, f"{type(exc).__name__}: {exc}"
    return (took, None) if problem is None else (None, problem)


def closed_loop(cli, w, seconds: float) -> dict:
    """Ops one after another for SECONDS: each successful op's time, and the
    mean calibration time measured just before and just after it."""
    times: list[float] = []
    cals: list[float] = []
    failures: list[str] = []
    i = 0
    deadline = time.perf_counter() + seconds
    before = calibrate()
    while time.perf_counter() < deadline:
        took, problem = attempt(cli, w, i)
        after = calibrate()
        if problem is None:
            times.append(took)
            cals.append((before + after) / 2)
        else:
            failures.append(f"op {i}: {problem}")
        before = after
        i += 1
    return {"times": times, "cals": cals, "attempted": i, "failures": failures}


def setup(root: str, workload: str, workdir: str) -> dict:
    _use_sources(root)
    import pathcomb.cli as cli
    imported = time.perf_counter() - T0
    from workloads import WORKLOADS
    w = WORKLOADS[workload](workdir, 0, order=2)  # input making is not timed
    took, problem = attempt(cli, w, 0)
    if problem is not None:
        raise SystemExit(f"order-2 warm-up of {workload} failed: {problem}")
    return {"setup_s": imported + took, "cal": calibrate()}


def loop(root: str, workload: str, workdir: str, seed: int, seconds: float,
         trace: bool) -> dict:
    import resource
    _use_sources(root)
    import pathcomb.cli as cli
    from workloads import WORKLOADS
    w = WORKLOADS[workload](workdir, seed)
    warm = attempt(cli, w, 0)[1]  # fills caches and lazy tables before timing
    plain = closed_loop(cli, w, seconds if not trace else seconds / 2)
    plain["attempted"] += 1  # the warm-up op counts as attempted, and failed if it did
    if warm is not None:
        plain["failures"].insert(0, f"warm-up op: {warm}")
    if not trace:
        plain["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return plain
    from tracing import Counters, Tracer, patched
    tracer = Tracer()
    with patched(tracer.wrap):
        traced = closed_loop(cli, w, seconds / 2)
    counters = Counters()
    with patched(counters.wrap):
        counted = [attempt(cli, w, i)[1] for i in range(w.cycle)]
    return {"plain": plain, "traced": traced, "self_s": tracer.self_s,
            "errors": tracer.errors, "counts": counters.counts, "count_ops": w.cycle,
            "count_failures": [p for p in counted if p is not None]}


def main(argv: list[str]) -> int:
    import json
    mode, root, workload, workdir = argv[:4]
    if mode == "setup":
        result = setup(root, workload, workdir)
    else:
        seed, seconds, trace = int(argv[4]), float(argv[5]), argv[6] == "1"
        result = loop(root, workload, workdir, seed, seconds, trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
