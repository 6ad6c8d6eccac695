"""WINDIM benchmark: run one named workload and print its metrics.

Usage, from the root of a source checkout::

    python3 windimbench/run.py --workload arpanet-loads --seed 0 --seconds 36 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``; the workloads
themselves are in ``workloads.py`` and the per-layer spans in
``tracing.py``.  Every workload runs in fresh ``worker.py`` processes
that import ``repro`` from the checkout's ``src`` with all ``REPRO_*``
settings removed from the environment and a fresh, empty kernel cache,
so no earlier run and no other commit's calibration leaks in.

``--trace 0`` prints the end-to-end metrics:

* ``points_per_s`` -- points completed / seconds spent in timed passes;
* ``setup_s`` -- median over several fresh processes of the time from
  process start until timing begins (imports, fixture, calibration);
* ``peak_rss_mb`` -- peak resident memory of the measuring process.

``--trace 1`` prints the per-layer metrics of ``tracing.py`` instead.
Failed points (exceptions, unconverged solves, disagreement with the
reference or the invariants) are counted in ``failed``; the error rate
is ``failed / attempted``.  The last line of standard output is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: Processes that only set up, on top of the measuring one, for setup_s;
#: half run before the measuring process and half after it, so the
#: median spans the run rather than one moment of it.
SETUP_PROBES = 6

#: Wall-clock allowance for the whole run, kept under the 180 s limit.
RUN_BUDGET_S = 170.0


def worker_env(state: pathlib.Path) -> dict:
    """A clean environment: no ``REPRO_*`` settings, a fresh kernel cache."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_KERNEL_CACHE"] = tempfile.mkdtemp(dir=state, prefix="kernel-cache-")
    env["PYTHONPATH"] = str(SOURCE)
    return env


def spawn(args, state: pathlib.Path, deadline: float) -> tuple:
    """Run one worker; returns (its report, seconds from spawn to ready)."""
    command = [sys.executable, str(HERE / "worker.py"), *args]
    started = time.monotonic()
    done = subprocess.run(
        command,
        env=worker_env(state),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - started),
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}: {' '.join(args)}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    return report, report["ready"] - started


def quartiles(values):
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def host_stamp() -> dict:
    import importlib.util

    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"no repro source tree under {SOURCE}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    (HERE / ".state").mkdir(exist_ok=True)
    state = pathlib.Path(tempfile.mkdtemp(dir=HERE / ".state", prefix="run-"))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        probes = 0 if args.trace else SETUP_PROBES
        for _ in range(probes // 2):
            setups.append(spawn(["--role", "setup", *common], state, deadline)[1])
        report, setup_s = spawn(
            ["--role", "measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            state,
            deadline,
        )
        setups.append(setup_s)
        for _ in range(probes - probes // 2):
            setups.append(spawn(["--role", "setup", *common], state, deadline)[1])
    finally:
        shutil.rmtree(state, ignore_errors=True)
        try:
            (HERE / ".state").rmdir()
        except OSError:
            pass

    points = report["stamp"]["points_per_pass"]
    rates = [points / wall for wall in report["walls"]]
    stamp = {**host_stamp(), **report["stamp"], "passes": len(report["walls"])}
    correct = report["failed"] == 0 and report["reference_ok"]
    if args.trace:
        metrics = dict(report["layers"])
        if report["coverage_errors"]:
            correct = False
            for error in report["coverage_errors"]:
                print(f"span coverage: {error}", file=sys.stderr)
    else:
        metrics = {
            "points_per_s": (points * len(rates) / sum(report["walls"]), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        }
        stamp["pass_rate_quartiles"] = quartiles(rates)
        stamp["pass_rate_max"] = max(rates)
        stamp["setup_s_samples"] = setups
    if not report["reference_ok"]:
        print("reference.json was recorded for other inputs", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  error_rate {report['failed'] / report['attempted']:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:.6g} {unit}")
    print("stamp " + json.dumps(stamp))
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
