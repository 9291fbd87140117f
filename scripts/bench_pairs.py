#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, from two checkouts.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload chickenpox-temporal --seed 1 --pairs 10

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, for
the ``run_seconds`` of the change's ``BENCHMARK.json`` and one process at a
time; odd pairs run the parent first, even pairs the change. It prints
every pair's end-to-end metrics, then per metric each side's median and
quartiles, the change's wins (ties count for neither), whether the
change's median is within the metric's bound in the change's
``BENCHMARK.json``, and whether a gain may be claimed: the change wins at
least nine tenths of at least ten pairs and its median beats the parent's
by more than the distance between the parent's quartiles. A bound that
holds is reported ``unresolved`` when that distance exceeds the bound
times the parent's median, unless every change run beats every parent
run: the parent's own spread is then too wide to tell. Quartiles are
``statistics.quantiles(values, n=4)``, as in ``perfbench/reference.py``,
so at least two pairs are needed. It exits 1 if a run fails or reports
``correct: false``, and, after printing the summary, if any metric's bound
is ``EXCEEDED``; so it can gate a change. ``unresolved`` does not fail.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def summarize(pairs: list[tuple[float, float]], better: str, bound: float) -> dict:
    """Medians, quartiles, wins and verdicts for one metric over
    ``(parent, change)`` value pairs; ``better`` is "lower" or "higher"."""
    parent, change = zip(*pairs)
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4)
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    gain = sign * (p_med - c_med)
    return {
        "parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
        "wins": wins, "pairs": len(pairs),
        "within_bound": -gain <= bound * abs(p_med),
        "resolved": (p_q3 - p_q1 <= bound * abs(p_med)
                     or all(sign * (p - c) > 0 for p in parent for c in change)),
        "gain_holds": (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
                       and gain > p_q3 - p_q1),
    }


def bound_verdict(s: dict) -> str:
    if not s["within_bound"]:
        return "EXCEEDED"
    return "ok" if s["resolved"] else "unresolved"


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct") or result.get("failed"):
        raise SystemExit(f"run failed in {root} (exit {proc.returncode}):\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    spec, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    runs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        values = {side: run_once(getattr(args, side).resolve(), args.workload, args.seed,
                                 seconds) for side in order}
        runs.append((values["parent"], values["change"]))
        print(f"pair {i + 1} ({order[0]} first): " + "  ".join(
            f"{m['name']} {values['parent'][m['name']]:.4g}/{values['change'][m['name']]:.4g}"
            for m in spec), flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {seconds:g} s: "
          "median [quartiles], parent -> change")
    exceeded = []
    for m in spec:
        s = summarize([(p[m["name"]], c[m["name"]]) for p, c in runs], m["better"], m["bound"])
        (pm, p1, p3), (cm, c1, c3) = s["parent"], s["change"]
        verdict = bound_verdict(s)
        if verdict == "EXCEEDED":
            exceeded.append(m["name"])
        print(f"{m['name']:16s} {pm:.4g} [{p1:.4g}, {p3:.4g}] -> {cm:.4g} [{c1:.4g}, {c3:.4g}]"
              f"  wins {s['wins']}/{s['pairs']}"
              f"  bound {verdict}"
              f"  gain {'holds' if s['gain_holds'] else 'not shown'}")
    if exceeded:
        print(f"bound EXCEEDED: {', '.join(exceeded)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
