"""One benchmark process: set up a workload, time it, check it, report.

Started by ``run.py`` in a fresh interpreter.  With ``--role setup`` it
only sets up and reports when set-up ended, so the parent can time
set-up in several fresh processes.  With ``--role measure`` it goes on
to the timed phase and prints one JSON object as its last line.

The timed phase is a closed loop: one pass of the workload, check the
outputs, next pass, until ``--seconds`` have gone by (at least one pass).
With ``--trace 1`` the first half of that time runs untraced and the
second half under the per-layer tracer, so the two give the overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time


def timed_passes(workload, seconds, reference):
    """Run passes for about ``seconds``; returns (walls, failed points, outputs).

    At least one pass runs; no pass starts that would, at the median
    pass wall so far, end past ``seconds``."""
    walls, failed, outputs = [], 0, None
    began = time.perf_counter()
    while True:
        start = time.perf_counter()
        try:
            outputs = workload.run_pass()
        except Exception as exc:  # a failed pass fails all of its points
            print(f"pass failed: {exc!r}", file=sys.stderr)
            outputs = None
        walls.append(time.perf_counter() - start)
        failed += workload.points if outputs is None else workload.check(outputs, reference)
        if time.perf_counter() - began + statistics.median(walls) > seconds:
            return walls, failed, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from workloads import DEFAULT_SEED, WORKLOADS, load_reference

    workload = WORKLOADS[args.workload](args.seed)
    from repro.mva import autobatch

    if workload.uses_autobatch:
        autobatch.crossover()  # the calibration probe is lazy set-up
    ready = time.monotonic()
    if args.role == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    reference = None
    reference_ok = True
    if args.seed == DEFAULT_SEED:
        reference = load_reference(args.workload)
        reference_ok = reference["inputs"] == workload.inputs()

    untraced_s = args.seconds / 2 if args.trace else args.seconds
    walls, failed, outputs = timed_passes(workload, untraced_s, reference)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = len(walls)

    report = {
        "ready": ready,
        "walls": walls,
        "peak_rss_mb": peak_rss_mb,
        "reference_ok": reference_ok,
    }
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        autobatch.reset_stats()
        try:
            traced_walls, traced_failed, outputs = timed_passes(
                workload, args.seconds - untraced_s, reference
            )
        finally:
            tracer.uninstall()
        layers = tracer.metrics(len(traced_walls), sum(traced_walls), autobatch.batch_stats())
        overhead = statistics.median(traced_walls) / statistics.median(walls)
        layers["trace.overhead_ratio"] = (overhead, "ratio")
        report["layers"] = layers
        report["coverage_errors"] = tracer.coverage_errors(args.workload)
        failed += traced_failed
        passes += len(traced_walls)

    checked, spot_failed = workload.spot_check(outputs) if outputs is not None else (0, 0)
    report["attempted"] = passes * workload.points + checked
    report["failed"] = failed + spot_failed
    report["stamp"] = {
        "workload": args.workload,
        "seed": args.seed,
        "reference": "default-seed reference" if reference is not None else "invariants only",
        "soa_crossover": autobatch.batch_stats()["crossover"],
        **workload.describe(),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
