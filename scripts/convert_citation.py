#!/usr/bin/env python3
"""One-shot converter: citation-network raw files -> dataset container.

Two input layouts are supported:

  * Classic TSV pair: a `.content` file with lines
    `<paper_id> <w_1> ... <w_k> <class_label>` and a `.cites` file with
    `<cited> <citing>` pairs.
  * A generic NPZ with arrays `edges` (m, 2), `features` (n, k) and
    `labels` (n,) for datasets distributed in other layouts.

Split masks are taken from published per-split NPZ files when provided
(arrays `train_mask`, `val_mask`, `test_mask`), otherwise generated at the
48/32/20 ratios with 10 seeds. The library itself never fetches anything
from the network; obtain the raw files separately.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from adrgnn.data import DatasetBundle, generate_splits, save_bundle
from adrgnn.graph import build_graph


def read_content_cites(content_path: Path, cites_path: Path):
    ids, rows, label_names = [], [], []
    for line in content_path.read_text().splitlines():
        parts = line.split()
        if not parts:
            continue
        ids.append(parts[0])
        rows.append([float(v) for v in parts[1:-1]])
        label_names.append(parts[-1])
    index = {node_id: i for i, node_id in enumerate(ids)}
    classes = {name: i for i, name in enumerate(sorted(set(label_names)))}
    labels = np.array([classes[name] for name in label_names], dtype=np.int64)
    features = np.asarray(rows, dtype=np.float64)
    edges = []
    skipped = 0
    for line in cites_path.read_text().splitlines():
        parts = line.split()
        if len(parts) != 2:
            continue
        if parts[0] in index and parts[1] in index:
            edges.append((index[parts[0]], index[parts[1]]))
        else:
            skipped += 1
    if skipped:
        print(f"note: skipped {skipped} citation rows referencing unknown ids")
    return np.asarray(edges, dtype=np.int64), features, labels


def read_npz(path: Path):
    with np.load(path) as data:
        return (data["edges"].astype(np.int64), data["features"].astype(np.float64),
                data["labels"].astype(np.int64))


def load_split_files(splits_dir: Path, name: str, n: int):
    files = sorted(splits_dir.glob(f"{name}_split*.npz"))
    if not files:
        return None
    splits = []
    for f in files:
        with np.load(f) as data:
            masks = tuple(data[k].astype(bool) for k in ("train_mask", "val_mask", "test_mask"))
        if any(m.shape != (n,) for m in masks):
            sys.exit(f"split file {f} has masks of the wrong length")
        splits.append(masks)
    return splits


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--content", type=Path, help=".content TSV file")
    parser.add_argument("--cites", type=Path, help=".cites TSV file")
    parser.add_argument("--npz", type=Path, help="generic edges/features/labels NPZ")
    parser.add_argument("--splits-dir", type=Path, help="directory of published split NPZ files")
    parser.add_argument("--name", required=True)
    parser.add_argument("--row-normalize", action=argparse.BooleanOptionalAction, default=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k-splits", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    if args.npz:
        edges, features, labels = read_npz(args.npz)
    elif args.content and args.cites:
        edges, features, labels = read_content_cites(args.content, args.cites)
    else:
        parser.error("provide either --npz or both --content and --cites")
    n = features.shape[0]
    if args.row_normalize:
        sums = features.sum(axis=1, keepdims=True)
        features = features / np.where(sums == 0, 1.0, sums)

    graph = build_graph(edges, n)
    splits = load_split_files(args.splits_dir, args.name, n) if args.splits_dir else None
    split_source = "file" if splits else "generated"
    if splits is None:
        splits = generate_splits(n, (0.48, 0.32, 0.20), k=args.k_splits, seed=args.seed)

    same = labels[graph.edge_src] == labels[graph.edge_dst]
    bundle = DatasetBundle(
        graph=graph, features=features, labels=labels, splits=splits, name=args.name,
        homophily=float(same.mean()) if graph.n_edges else None,
        row_normalized=args.row_normalize, split_source=split_source)
    out = save_bundle(bundle, args.out)
    print(f"wrote {args.name}: n={n}, undirected edges={graph.n_edges // 2}, "
          f"features={features.shape[1]}, classes={labels.max() + 1}, "
          f"splits={len(splits)} ({split_source}) -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
