"""Command-line entry point: training, evaluation, and the study drivers,
all emitting machine-readable results under --out.

Exit codes are a stable contract: 0 success, 2 usage/config errors,
3 numeric failures. Every subcommand honors --seed, writes a run manifest
before doing work, and sends data to files (stdout is progress only).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import multiprocessing
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .data import (DataFormatError, _resolve_manifest, dataset_checksum,
                   load_graph_dataset, load_temporal_dataset, make_transport_task,
                   normalize_series)
from .gradcheck import run_all_checks
from .models import save_checkpoint
from .operators import splitting_error_study
from .runtime import blas_threads, philox
from .training import (TrainConfig, TrainingDiverged, TrainResult, ablation_study,
                       aggregate_metrics, depth_energy_study, evaluate,
                       evaluate_temporal, train_node_classification,
                       train_temporal, transport_fit)
from .models import load_checkpoint

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# The TrainConfig fields that train, energy and ablate take as flags, with
# their types; the flag of dropout_io is --dropout-io.
TRAIN_FLAGS = {"seed": int, "epochs": int, "patience": int, "layers": int, "hidden": int,
               "h": float, "terms": str, "loss": str, "dropout_io": float,
               "dropout_hidden": float, "cg_iterations": int}
# each command's own options and their defaults; its manifest records them as
# "run_options", and a rerun from that manifest takes those not given as flags
RUN_OPTIONS = {"train": {"splits": None, "normalize": "per_node"},
               "energy": {"depths": [2, 4, 8, 16, 32, 64], "split": 0},
               "ablate": {"terms_list": ["A", "D", "R", "ADR"], "splits": None}}


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


class RunManifest:
    """Resolved configuration and provenance, written before work starts so
    a run can be reproduced from the manifest alone."""

    def __init__(self, out_dir: Path, command: str, config: dict, seed: int,
                 dataset_path=None, run_options=None):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.path = out_dir / "manifest.json"
        self.payload = {
            "schema": "adrgnn-run-v1",
            "command": command,
            "artifact_version": __version__,
            "resolved_config": config,
            "run_options": run_options or {},
            "seed": seed,
            "blas_threads": blas_threads(),
            "dataset": None,
            "outputs": [],
            "wall_clock_seconds": None,
        }
        if dataset_path is not None:
            self.payload["dataset"] = {
                "path": str(dataset_path),
                "checksum": dataset_checksum(dataset_path),
            }
        self._start = time.monotonic()
        self.write()

    def write(self) -> None:
        self.path.write_text(json.dumps(self.payload, indent=1, sort_keys=True))

    def finish(self, outputs: list[str]) -> None:
        self.payload["outputs"] = sorted(outputs)
        self.payload["wall_clock_seconds"] = time.monotonic() - self._start
        self.write()


def _load_config(args, command: str) -> tuple[TrainConfig, dict]:
    """The config of ``--config`` with the flags given applied, and the
    command's run options: a flag given wins over a rerun manifest's record,
    and that over the default."""
    data, recorded = {}, {}
    if getattr(args, "config", None):
        raw = json.loads(Path(args.config).read_text())
        # Accept a previous run manifest for exact reruns.
        if "resolved_config" in raw:
            # float64 bytes depend on the BLAS thread count
            threads, current = raw.get("blas_threads"), blas_threads()
            if None not in (threads, current) and threads != current:
                logger.warning("manifest %s was run with %d BLAS threads, this run has %d; "
                               "results may differ in the last bits",
                               args.config, threads, current)
            recorded, raw = raw.get("run_options", {}), raw["resolved_config"]
        data = raw
    overrides = {key: getattr(args, key) for key in TRAIN_FLAGS if getattr(args, key) is not None}
    options = {key: getattr(args, key, recorded.get(key, default))
               for key, default in RUN_OPTIONS[command].items()}
    return replace(TrainConfig.from_dict(data), **overrides), options


def _train_split_worker(payload: tuple) -> TrainResult:
    """Process-pool worker: fully independent, seeded train of one split."""
    dataset_path, cfg_dict, split = payload
    return train_node_classification(load_graph_dataset(dataset_path),
                                     TrainConfig.from_dict(cfg_dict), split_index=split)


def _metrics_rows(dataset_name: str, results, seed: int) -> list[list]:
    rows = []
    for split, metrics in enumerate(results):
        for name, value in metrics.to_dict().items():
            rows.append([dataset_name, split, seed + split, name, float(value)])
    summary = aggregate_metrics(results)
    for name, (mean, std) in summary.items():
        rows.append([dataset_name, "mean", seed, name, mean])
        rows.append([dataset_name, "std", seed, name, std])
    return rows


def _split_count(text: str) -> int | None:
    """The value of ``--splits``: None for 'all', else an integer of at least 1."""
    if text == "all":
        return None
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected 'all' or an integer >= 1, got {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_train(args) -> int:
    out_dir = Path(args.out)
    cfg, options = _load_config(args, "train")
    manifest = RunManifest(out_dir, "train", cfg.to_dict(), cfg.seed, args.dataset, options)
    kind = json.loads(_resolve_manifest(args.dataset)[0].read_text())["kind"]
    history_records: list[dict] = []
    if kind == "node_classification":
        bundle = load_graph_dataset(args.dataset)
        indices = list(range(len(bundle.splits)))[:options["splits"]]
        # each split is seeded by its index, so a worker process trains it
        # exactly as this process would
        if args.workers > 1 and len(indices) > 1:
            payloads = [(str(args.dataset), cfg.to_dict(), s) for s in indices]
            with multiprocessing.Pool(min(args.workers, len(indices))) as pool:
                runs = pool.map(_train_split_worker, payloads)
        else:
            runs = [train_node_classification(bundle, cfg, split_index=s) for s in indices]
        for split, run in zip(indices, runs):
            history_records += [{"split": split, **record} for record in run.history]
            print(f"split {split}: test accuracy {run.metrics.accuracy:.4f} "
                  f"(best epoch {run.best_epoch})")
        name = bundle.name
    elif kind == "temporal":
        dataset = load_temporal_dataset(args.dataset)
        if options["normalize"] != "none":
            dataset, _inv = normalize_series(dataset, scheme=options["normalize"])
        runs = []
        for rep in range(options["splits"] or 10):
            runs.append(train_temporal(dataset, replace(cfg, seed=cfg.seed + rep)))
            history_records += [{"repetition": rep, **record} for record in runs[-1].history]
            print(f"repetition {rep}: test MSE {runs[-1].metrics.mse:.4f}")
        name = dataset.name
    else:
        raise DataFormatError("/kind", f"unsupported dataset kind {kind!r}")
    rows = _metrics_rows(name, [run.metrics for run in runs], cfg.seed)
    save_checkpoint(out_dir / "checkpoint.bin", runs[0].model)
    _write_csv(out_dir / "metrics.csv", ["dataset", "split", "seed", "metric", "value"], rows)
    _write_jsonl(out_dir / "metrics.jsonl", history_records)
    manifest.finish(["metrics.csv", "metrics.jsonl", "checkpoint.bin"])
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.out:
        out_dir = Path(args.out)
        manifest = RunManifest(out_dir, "eval", {"split": args.split, "part": args.part},
                               0, args.dataset)
    model = load_checkpoint(args.checkpoint)
    if model.config.get("kind") == "temporal":
        dataset = load_temporal_dataset(args.dataset)
        if args.normalize != "none":
            dataset, _inv = normalize_series(dataset, scheme=args.normalize)
        metrics = evaluate_temporal(model, dataset)
        name = dataset.name
    else:
        bundle = load_graph_dataset(args.dataset)
        metrics = evaluate(model, bundle, split_index=args.split, part=args.part)
        name = bundle.name
    print(json.dumps(metrics.to_dict(), sort_keys=True))
    if args.out:
        rows = [[name, args.split, 0, metric, float(value)]
                for metric, value in metrics.to_dict().items()]
        _write_csv(out_dir / "metrics.csv", ["dataset", "split", "seed", "metric", "value"], rows)
        manifest.finish(["metrics.csv"])
    return EXIT_OK


def cmd_transport(args) -> int:
    out_dir = Path(args.out)
    config = {"n": args.n, "p": args.p, "sources": args.sources, "terms": args.terms,
              "layers": args.layers, "epochs": args.epochs, "lr": args.lr,
              "channels": args.channels}
    manifest = RunManifest(out_dir, "transport", config, args.seed)
    task = make_transport_task(args.n, args.p, args.sources, args.seed)
    summary_rows = []
    outputs = []
    for terms in args.terms.split(","):
        terms = terms.strip().upper()
        result = transport_fit(task, terms, layers=args.layers, h=1.0, lr=args.lr,
                               epochs=args.epochs, seed=args.seed,
                               channels=args.channels)
        print(f"terms {terms}: final MSE {result.final_mse:.3e}")
        summary_rows.append([terms, result.final_mse])
        _write_csv(out_dir / f"trace_{terms}.csv", ["step", "mse", "mass"],
                   [[t["step"], t["mse"], t["mass"]] for t in result.trace])
        _write_csv(out_dir / f"node_values_{terms}.csv", ["node", "value", "target"],
                   [[i, float(result.node_values[i, 0]), float(task.target_features[i, 0])]
                    for i in range(task.graph.n_nodes)])
        outputs += [f"trace_{terms}.csv", f"node_values_{terms}.csv"]
    _write_csv(out_dir / "transport.csv", ["terms", "final_mse"], summary_rows)
    manifest.finish(outputs + ["transport.csv"])
    return EXIT_OK


def cmd_energy(args) -> int:
    out_dir = Path(args.out)
    cfg, options = _load_config(args, "energy")
    manifest = RunManifest(out_dir, "energy", cfg.to_dict(), cfg.seed, args.dataset, options)
    bundle = load_graph_dataset(args.dataset)
    rows = depth_energy_study(bundle, options["depths"], cfg, split_index=options["split"])
    csv_rows = []
    for row in rows:
        print(f"{row['model']} depth {row['depth']}: accuracy {row['accuracy']:.4f}")
        for layer, rel in enumerate(row["relative_energy"]):
            csv_rows.append([row["model"], row["depth"], layer,
                             row["energies"][layer], rel, row["accuracy"]])
    _write_csv(out_dir / "energy.csv",
               ["model", "depth", "layer", "energy", "relative_energy", "accuracy"],
               csv_rows)
    manifest.finish(["energy.csv"])
    return EXIT_OK


def cmd_ablate(args) -> int:
    out_dir = Path(args.out)
    cfg, options = _load_config(args, "ablate")
    manifest = RunManifest(out_dir, "ablate", cfg.to_dict(), cfg.seed, args.dataset, options)
    bundle = load_graph_dataset(args.dataset)
    rows = ablation_study(bundle, options["terms_list"], cfg,
                          split_indices=list(range(len(bundle.splits)))[:options["splits"]])
    csv_rows = []
    for row in rows:
        for metric, (mean, std) in row["summary"].items():
            csv_rows.append([row["terms"], metric, mean, std])
        acc = row["summary"].get("accuracy", (float("nan"),))[0]
        print(f"terms {row['terms']}: mean accuracy {acc:.4f}")
    _write_csv(out_dir / "ablation.csv", ["terms", "metric", "mean", "std"], csv_rows)
    manifest.finish(["ablation.csv"])
    return EXIT_OK


def cmd_split_study(args) -> int:
    out_dir = Path(args.out)
    manifest = RunManifest(out_dir, "split-study",
                           {"trials": args.trials, "dt": args.dt}, args.seed)
    rows = []
    ratios = []
    for trial in range(args.trials):
        rng = philox(args.seed, trial)
        a, d, r = (rng.standard_normal((4, 4)) for _ in range(3))
        u = rng.standard_normal(4)
        coarse = splitting_error_study(a, d, r, args.dt, u)
        fine = splitting_error_study(a, d, r, args.dt / 2.0, u)
        rows.append([trial, args.dt, coarse])
        rows.append([trial, args.dt / 2.0, fine])
        if fine > 0:
            ratios.append(coarse / fine)
    mean_ratio = float(np.mean(ratios)) if ratios else float("nan")
    print(f"mean discrepancy ratio under dt-halving: {mean_ratio:.3f}")
    _write_csv(out_dir / "split_study.csv", ["trial", "dt", "discrepancy"], rows)
    _write_csv(out_dir / "split_study_summary.csv", ["mean_ratio"], [[mean_ratio]])
    manifest.finish(["split_study.csv", "split_study_summary.csv"])
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    out_dir = Path(args.out)
    manifest = RunManifest(out_dir, "gradcheck", {}, args.seed)
    results = run_all_checks(args.seed)
    rows = [[r["check"], r["max_rel_err"], r["tol"], "pass" if r["passed"] else "fail"]
            for r in results]
    _write_csv(out_dir / "gradcheck.csv", ["check", "max_rel_err", "tol", "status"], rows)
    manifest.finish(["gradcheck.csv"])
    failures = [r["check"] for r in results if not r["passed"]]
    for r in results:
        print(f"{'pass' if r['passed'] else 'FAIL'} {r['check']} ({r['max_rel_err']:.2e})")
    if failures:
        print(f"gradient checks failed: {failures}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adrgnn",
                                     description="Advection-diffusion-reaction graph networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_train_flags(p):
        p.add_argument("--config", help="JSON config (or a previous run manifest)")
        for key, kind in TRAIN_FLAGS.items():
            p.add_argument("--" + key.replace("_", "-"), type=kind, dest=key)

    p = sub.add_parser("train", help="train on a dataset container")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    # the run options of each command are not set unless given: see RUN_OPTIONS
    p.add_argument("--splits", type=_split_count, default=argparse.SUPPRESS,
                   help="'all' (the default) or a count")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for multi-split fanout")
    p.add_argument("--normalize", default=argparse.SUPPRESS,
                   choices=["per_node", "global", "none"],
                   help="temporal series scaling (default per_node)")
    add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", type=int, default=0)
    p.add_argument("--part", default="test", choices=["train", "val", "test"])
    p.add_argument("--normalize", default="per_node",
                   choices=["per_node", "global", "none"], help="temporal series scaling")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("transport", help="synthetic transport-task fits")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--p", type=float, default=0.55)
    p.add_argument("--sources", type=int, default=2)
    p.add_argument("--seed", type=int, default=2)
    p.add_argument("--terms", default="A,D,R")
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--epochs", type=int, default=800)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("energy", help="depth vs accuracy and Dirichlet energy")
    p.add_argument("--dataset", required=True)
    p.add_argument("--depths", type=lambda t: list(map(int, t.split(","))),
                   default=argparse.SUPPRESS)
    p.add_argument("--split", type=int, default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    add_train_flags(p)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("ablate", help="per-term ablation study")
    p.add_argument("--dataset", required=True)
    p.add_argument("--terms-list", dest="terms_list", default=argparse.SUPPRESS,
                   type=lambda t: [terms.strip().upper() for terms in t.split(",")])
    p.add_argument("--splits", type=_split_count, default=argparse.SUPPRESS,
                   help="'all' (the default) or a count")
    p.add_argument("--out", required=True)
    add_train_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("split-study", help="operator-splitting discrepancy study")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split_study)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataFormatError, FileNotFoundError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingDiverged, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
