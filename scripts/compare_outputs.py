#!/usr/bin/env python3
"""Check that two checkouts train to byte-identical outputs.

    python3 scripts/compare_outputs.py --parent ../parent --change . --epochs 3

Builds two download-free dataset containers once, from the benchmark's own
input generators (``cora_inputs`` and ``chickenpox_inputs`` in
``perfbench/workloads.py`` of the checkout this script sits in, imported
read-only): a Cora-scale bag-of-words bundle, which trains on the CSR input
path, and a chickenpox-like temporal series. Then it runs
``python -m adrgnn.cli`` from each checkout, with ``PYTHONPATH`` set to that
checkout's ``src`` and one OpenBLAS thread, for each case, in float64 and
with ``ADRGNN_DTYPE=float32``:

- ``train`` with the checkout's ``configs/cora.json`` and
  ``configs/chameleon.json`` (batch norm) on the bundle and
  ``configs/chickenpox.json`` on the series, for one split;
- ``energy --depths 2`` with ``configs/cora.json`` on the bundle, which also
  trains the GCN baseline (the bias-free constant-operator product).

Every run takes ``--epochs`` epochs. The script compares ``metrics.csv``,
``metrics.jsonl`` and ``checkpoint.bin`` of every ``train`` run and
``energy.csv`` of every ``energy`` run byte for byte, prints one line per
file, and exits 1 on any difference or failed run.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (command, config, dataset); a dataset name keys the containers of build_inputs
CASES = (("train", "cora", "cora"), ("train", "chameleon", "cora"),
         ("train", "chickenpox", "chickenpox"), ("energy", "cora", "cora"))
DTYPES = ("float64", "float32")
# each command's compared outputs and its options beyond the shared ones
OUTPUTS = {"train": ("metrics.csv", "metrics.jsonl", "checkpoint.bin"),
           "energy": ("energy.csv",)}
OPTIONS = {"train": ("--splits", "1"), "energy": ("--depths", "2")}
# variables that would change what a run computes, set per run below
RUN_VARIABLES = ("ADRGNN_DTYPE", "ADRGNN_THREADS", "OMP_NUM_THREADS",
                 "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONPATH")


def build_inputs(work: Path, seed: int) -> dict[str, Path]:
    """The benchmark's cora and chickenpox inputs for ``seed``, saved as
    dataset containers under ``work``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from adrgnn.data import save_bundle, save_temporal

    return {"cora": save_bundle(workloads.cora_inputs(seed), work / "cora"),
            "chickenpox": save_temporal(workloads.chickenpox_inputs(seed),
                                        work / "chickenpox")}


def run(checkout: Path, command: str, config: str, dataset: Path, dtype: str, epochs: int,
        out: Path) -> subprocess.CompletedProcess:
    """One ``adrgnn <command>`` run of ``checkout`` with its own ``config``."""
    env = {k: v for k, v in os.environ.items() if k not in RUN_VARIABLES}
    env.update(PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1")
    if dtype != "float64":
        env["ADRGNN_DTYPE"] = dtype
    argv = [sys.executable, "-m", "adrgnn.cli", command, "--dataset", str(dataset),
            "--out", str(out), "--config", str(checkout / "configs" / f"{config}.json"),
            "--epochs", str(epochs), *OPTIONS[command]]
    return subprocess.run(argv, env=env, cwd=checkout, capture_output=True, text=True)


def compare(parent: Path, change: Path, datasets: dict[str, Path], epochs: int,
            work: Path, cases=CASES, dtypes=DTYPES) -> list[str]:
    """Run every case and dtype in both checkouts, one process at a time;
    print one line per output file and return the failures: each differing
    or missing file and each failed run."""
    failures = []
    for command, config, dataset in cases:
        for dtype in dtypes:
            case = f"{config}-{dtype}" if command == "train" else f"{command}-{config}-{dtype}"
            runs = {}
            for side, checkout in (("parent", parent), ("change", change)):
                runs[side] = work / side / case
                done = run(checkout, command, config, datasets[dataset], dtype, epochs,
                           runs[side])
                if done.returncode != 0:
                    failures.append(f"{case}: the {side} run exited {done.returncode}")
                    print(f"{case}: {side} run failed\n{done.stderr}", file=sys.stderr)
            for name in OUTPUTS[command]:
                a, b = runs["parent"] / name, runs["change"] / name
                same = a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()
                print(f"{case:24} {name:16} {'identical' if same else 'DIFFERENT'}")
                if not same:
                    failures.append(f"{case}: {name} differs or is missing")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="reference checkout")
    parser.add_argument("--change", type=Path, required=True, help="checkout under test")
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1, help="benchmark input seed")
    parser.add_argument("--work", type=Path, default=None,
                        help="keep the containers and runs here (default: a temporary directory)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        work = args.work or Path(scratch)
        work.mkdir(parents=True, exist_ok=True)
        failures = compare(args.parent.resolve(), args.change.resolve(),
                           build_inputs(work, args.seed), args.epochs, work)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
