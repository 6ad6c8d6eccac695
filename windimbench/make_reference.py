"""Record ``reference.json``: the default seed's outputs on the scalar tier.

Run from the root of a source checkout::

    PYTHONPATH=src python3 windimbench/make_reference.py

Every workload runs once with ``REPRO_SOLVER_BACKEND=scalar``, the
per-chain reference loops that the dense kernels are held to within the
1e-8 parity band; the benchmark then checks its default-seed outputs
against these values.  Re-record only when the inputs of a workload are
changed on purpose.
"""

from __future__ import annotations

import json
import os
import sys
import time

os.environ["REPRO_SOLVER_BACKEND"] = "scalar"

from workloads import DEFAULT_SEED, REFERENCE_PATH, WORKLOADS  # noqa: E402


def main() -> int:
    reference = {}
    for name, cls in WORKLOADS.items():
        began = time.perf_counter()
        workload = cls(DEFAULT_SEED)
        outputs = workload.run_pass()
        reference[name] = workload.reference_payload(outputs)
        print(f"{name}: {time.perf_counter() - began:.1f} s", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
