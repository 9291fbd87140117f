"""Training benchmark for adrgnn, one workload per process.

    python3 perfbench/run.py --workload cora-sparse --seed 1 --seconds 45 --trace 0

Builds nothing: it imports the package from ``src/`` of the checkout it
sits in. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--out FILE`` also writes every measurement, the machine description and
(traced) the aggregated span table to FILE. The exit code is 1 when a
correctness check fails or an operation fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cora-sparse", "chickenpox-temporal")
# One BLAS thread: the training loops are single-threaded per run, and one
# thread keeps run-to-run spread low on a shared machine.
THREADS = 1


def pin_threads() -> int:
    """Pin BLAS threads through the program's own ADRGNN_THREADS, which
    adrgnn propagates to the BLAS variables before numpy loads; variables
    already set would take precedence, so they are cleared first."""
    threads = min(THREADS, os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.pop(var, None)
    os.environ["ADRGNN_THREADS"] = str(threads)
    return threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "adrgnn").is_dir():
        print(f"error: no adrgnn package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import adrgnn  # first: it hands ADRGNN_THREADS to BLAS before numpy loads
    import numpy
    import scipy

    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    res = workloads.run(args.workload, args.seed, args.seconds, tracer)
    # a run whose every training call failed has no metrics
    metrics = res.get("per_layer" if tracer else "end_to_end", {})
    for failure in res["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "traced": bool(args.trace),
            "machine": {"nproc": os.cpu_count(), "blas_threads": threads,
                        "python": platform.python_version(), "numpy": numpy.__version__,
                        "scipy": scipy.__version__, "platform": platform.platform()},
            **{k: v for k, v in res.items() if k not in ("end_to_end", "per_layer")},
        }
        for part in ("end_to_end", "per_layer"):
            if part in res:
                record[part] = {k: {"value": v, "unit": u} for k, (v, u) in res[part].items()}
        if tracer:
            record["spans"] = tracer.table()
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
