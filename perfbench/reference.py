"""Run every workload over several seeds and summarize.

    python3 perfbench/reference.py --seeds 1-10

Each (workload, seed) runs ``run.py`` in its own process, one after
another, timed (--trace 0) for ``run_seconds`` from BENCHMARK.json. Then,
per workload, the first seed runs OVERHEAD_PAIRS times untraced and traced
in turn (--trace 1). Every run's full record goes to
``perfbench/results/``, together with ``summary.json``. The table printed
at the end gives, per workload and end-to-end metric, the median over seeds
and the spread (distance between the first and third quartile over the
median), and per workload the tracing overhead: the median, over the pairs,
of traced minus untraced step_ms on the same inputs. The exit code is 1
when any run fails or reports a failed check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "results"
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
OVERHEAD_PAIRS = 3


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload: str, seed: int, trace: int, out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0 or not out.exists():
        sys.stderr.write(proc.stderr)
        return {"correct": False, "failed_run": True}
    return json.loads(out.read_text())


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = parser.parse_args(argv)
    seeds = seed_list(args.seeds)
    ok = True
    summary = {"seeds": seeds, "seconds": SECONDS, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in seeds:
            rec = run_one(workload, seed, 0, OUT / f"{workload}-s{seed}.json")
            ok &= rec.get("correct", False)
            runs.append(rec)
            print(f"{workload} seed {seed}: "
                  + ("FAILED" if not rec.get("correct") else
                     ", ".join(f"{k}={v['value']:.4g}" for k, v in rec["end_to_end"].items())),
                  flush=True)
        pairs = []
        for i in range(OVERHEAD_PAIRS):
            pair = [run_one(workload, seeds[0], trace,
                            OUT / f"{workload}-s{seeds[0]}-pair{i}-trace{trace}.json")
                    for trace in (0, 1)]
            ok &= all(r.get("correct", False) for r in pair)
            if all(r.get("correct") for r in pair):
                pairs.append(pair)
        good = [r for r in runs if r.get("correct")]
        if not good:
            continue
        table = {}
        for name, entry in good[0]["end_to_end"].items():
            values = [r["end_to_end"][name]["value"] for r in good]
            table[name] = {"unit": entry["unit"], "median": statistics.median(values),
                           "spread": spread(values) if len(values) > 1 else None,
                           "values": values}
        row = {"end_to_end": table, "machine": good[0]["machine"],
               "failed_share": [r["failed"] / r["attempted"] for r in good]}
        if pairs:
            step = [[r["end_to_end"]["step_ms"]["value"] for r in pair] for pair in pairs]
            row["per_layer"] = pairs[0][1]["per_layer"]
            row["untraced_step_ms"] = statistics.median(untraced for untraced, _ in step)
            row["tracing_overhead_step_ms"] = statistics.median(t - u for u, t in step)
        summary["workloads"][workload] = row
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")

    for workload, row in summary["workloads"].items():
        print(f"\n{workload}  ({len(seeds)} seeds, {SECONDS:g} s runs)")
        for name, t in row["end_to_end"].items():
            sp = "n/a" if t["spread"] is None else f"{100 * t['spread']:.2f}%"
            print(f"  {name:<18} median {t['median']:>12.5g} {t['unit']:<3} spread {sp}")
        if "tracing_overhead_step_ms" in row:
            overhead = row["tracing_overhead_step_ms"]
            print(f"  tracing overhead on step_ms: {overhead:+.4g} ms "
                  f"({100 * overhead / row['untraced_step_ms']:+.1f}%)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
