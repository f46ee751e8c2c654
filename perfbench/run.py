"""weylot benchmark: one workload, one process, closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from the checkout's ``src/``.  Operations run one
after another, with no threads, in whole passes until ``--seconds`` have
passed and the workload's ``min_passes`` ran.  Every result is checked.
The last line of standard output is one JSON object: correct, attempted,
failed and the metrics, the end-to-end ones with ``--trace 0`` and the
per-layer ones with ``--trace 1``.  The traced run also writes its spans to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("certify-refined", "classify-gl", "ot-direct")
SETUP_REPEATS = 7
LAYER_TIMES = (
    "measures.discretize", "transport.solve_invariant_ot",
    "transport.check_stability_support", "transport.check_chamber_support",
    "transport.check_reflection_sign", "transport.check_cyclical_monotonicity",
    "transport.solve_ot", "rootsystems.weyl_group",
    "symmetry.automorphism_group", "symmetry.unimodular_equivalent",
    "weyl.weyl_polytope", "weyl.is_weyl_polytope", "weyl.vertex_condition",
    "weyl.star_containment_check", "polytope.hull", "polytope.dual",
    "polytope.barycenter", "polytope.is_delzant", "fileio.parse",
    "fileio.report")
LAYER_COUNTS = ("measures.cloud_points", "transport.support_pairs",
                "rootsystems.group_order", "symmetry.aut_order")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up and exit (times setup_s)")
    return ap.parse_args(argv)


def time_setups(args):
    """Median wall time of fresh processes that only set the workload up,
    from process start (before weylot is imported) until inputs are ready.

    Each process prints the monotonic clock when its inputs are ready; the
    clock is system-wide, so no wait for the process's exit is timed."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                              text=True, timeout=120)
        times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times)


def measure(workload, seconds, tracer):
    """Run whole passes for ``seconds`` and at least ``workload.min_passes``;
    with a ``tracer``, every untraced pass is followed by a traced one that
    must reproduce its results."""
    runs = {"plain": [], "traced": []}
    t0 = perf_counter()
    index = 0
    while (perf_counter() - t0 < seconds
           or len(runs["plain"]) < workload.min_passes):
        runs["plain"].append(workload.run_pass(index))
        if tracer is not None:
            runs["traced"].append(workload.run_pass(index, tracer))
        index += 1
    problems = [p for res in runs["plain"] + runs["traced"]
                for p in res.problems]
    return runs, problems


def end_to_end(runs, setup_s):
    """op_s is the interquartile mean of the operation times, the mean of
    their middle half.  Their median is less steady on classify-gl: it falls
    on a few 0.05 s operations, each of which load on a shared host moves by
    up to 30%, and it moved by about 20% between runs of the same inputs."""
    op_s = sorted(t for res in runs["plain"] for t in res.op_s)
    quarter = len(op_s) // 4
    busy = sum(res.busy_s for res in runs["plain"])
    return {
        "setup_s": (setup_s, "s"),
        "op_s": (statistics.mean(op_s[quarter:len(op_s) - quarter]), "s"),
        "ops_per_s": (len(op_s) / busy, "1/s"),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(runs, tracer):
    """Per traced pass: mean self seconds in each layer and mean counts."""
    passes = len(runs["traced"])
    layer = tracer.self_times()
    plain = statistics.median(t for res in runs["plain"] for t in res.op_s)
    traced = statistics.median(
        t for (_, k), t in tracer.op_durations().items() if k != "dedupe")
    out = {f"{name}_s": (layer.get(name, 0.0) / passes, "s")
           for name in LAYER_TIMES}
    out.update({name: (tracer.counts.get(name, 0) / passes, "count")
                for name in LAYER_COUNTS})
    out["harness.op_self_s"] = (layer[tracer.OP] / passes, "s")
    out["harness.trace_overhead_s"] = (traced - plain, "s")
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "weylot" / "__init__.py").is_file():
        sys.stderr.write(f"error: no weylot sources under {ROOT / 'src'}; "
                         "run this from a checkout of the repository\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS as MAKERS

    workload = MAKERS[args.workload]()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload.setup(args.seed, workdir)
        if args.setup_only:
            print(time.clock_gettime(time.CLOCK_MONOTONIC))
            return 0
        setup_s = None if args.trace else time_setups(args)
        tracer = Tracer() if args.trace else None
        runs, problems = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        if p:
            sys.stderr.write(f"failed: {'; '.join(p)}\n")
    failed = sum(1 for p in problems if p)
    if args.trace:
        metrics = per_layer(runs, tracer)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end(runs, setup_s)
        sys.stderr.write(f"{args.workload}: {len(runs['plain'])} passes\n")
    for name, (value, unit) in metrics.items():
        sys.stderr.write(f"  {name:45s} {value:14.6f} {unit}\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(problems), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
