"""Dataset containers, on-disk format, split generation, temporal windows,
and the synthetic transport-task generator.

On disk a dataset is a directory with a manifest.json plus flat little-
endian binary sidecar arrays (float64 / int64, row major); small fixtures
may inline arrays directly in the manifest. See FORMATS.md for the byte-
exact layout. Loaders either produce a fully validated bundle or raise
with a JSON-pointer-style location.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .graph import Graph, build_graph, erdos_renyi
from .models import SparseFeatures
from .runtime import default_dtype, philox

logger = logging.getLogger(__name__)

SCHEMA_VERSION = "adrgnn-bundle-v1"
_INLINE_LIMIT = 4096  # elements; larger arrays go to .bin sidecars


class DataFormatError(ValueError):
    """Schema violation with the JSON-pointer-ish path of the offender."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# bundle types

@dataclass
class DatasetBundle:
    graph: Graph
    features: np.ndarray
    labels: Optional[np.ndarray]
    splits: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    name: str = "unnamed"
    homophily: Optional[float] = None
    row_normalized: bool = False
    split_source: Optional[str] = None
    # (features, dtype, sparse_features()) as last built
    _sparse: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_classes(self) -> int:
        if self.labels is None:
            raise ValueError("bundle has no labels")
        return int(self.labels.max()) + 1

    def sparse_features(self) -> Optional[SparseFeatures]:
        """``features`` in CSR form at the working dtype if they are a bag
        of words (under 5% nonzero in over 2^20 entries), else None. Built
        on first use and kept until ``features`` is rebound or the working
        dtype changes."""
        x, dtype = self.features, default_dtype()
        if self._sparse is None or self._sparse[0] is not x or self._sparse[1] != dtype:
            sparse = (SparseFeatures(x)
                      if x.size > 1 << 20 and np.count_nonzero(x) < 0.05 * x.size else None)
            self._sparse = (x, dtype, sparse)
        return self._sparse[2]


@dataclass
class TemporalDataset:
    graph: Graph
    series: np.ndarray  # (T, n, c)
    timestamps: np.ndarray  # (T,)
    tau_in: int = 4
    tau_out: int = 1
    name: str = "unnamed"


@dataclass
class TransportTask:
    graph: Graph
    source_features: np.ndarray  # (n, 1), 1/|sources| on sources
    target_features: np.ndarray  # (n, 1), 1 at the destination
    source_set: np.ndarray
    destination: int


# ---------------------------------------------------------------------------
# container format

def _array_spec(name: str, arr: np.ndarray, out_dir: Path, inline_limit: int) -> dict:
    dtype = "int64" if np.issubdtype(arr.dtype, np.integer) else "float64"
    arr = arr.astype("<i8" if dtype == "int64" else "<f8")
    spec = {"dtype": dtype, "shape": list(arr.shape)}
    if arr.size <= inline_limit:
        spec["inline"] = arr.ravel().tolist()
    else:
        filename = f"{name}.bin"
        (out_dir / filename).write_bytes(arr.tobytes(order="C"))
        spec["file"] = filename
    return spec


def _is_int(value, minimum: int) -> bool:
    """A JSON integer (not a bool) of at least ``minimum``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _read_array(spec, base_dir: Path, path: str) -> np.ndarray:
    if not isinstance(spec, dict):
        raise DataFormatError(path, "array spec must be an object")
    for key in ("dtype", "shape"):
        if key not in spec:
            raise DataFormatError(f"{path}/{key}", "missing")
    dtype = {"int64": "<i8", "float64": "<f8"}.get(spec["dtype"])
    if dtype is None:
        raise DataFormatError(f"{path}/dtype", f"unsupported dtype {spec['dtype']!r}")
    if not (isinstance(spec["shape"], list) and all(_is_int(d, 0) for d in spec["shape"])):
        raise DataFormatError(f"{path}/shape",
                              f"must be a list of integers >= 0, got {spec['shape']!r}")
    shape = tuple(spec["shape"])
    if "inline" in spec:
        arr = np.asarray(spec["inline"], dtype=dtype)
    elif "file" in spec:
        raw = (base_dir / spec["file"]).read_bytes()
        arr = np.frombuffer(raw, dtype=dtype).copy()
    else:
        raise DataFormatError(path, "array spec needs 'inline' or 'file'")
    if arr.size != int(np.prod(shape)) if shape else arr.size != 1:
        raise DataFormatError(f"{path}/shape", f"{arr.size} values do not fill shape {shape}")
    return arr.reshape(shape)


def _resolve_manifest(path) -> tuple[Path, Path]:
    path = Path(path)
    if path.is_dir():
        manifest = path / "manifest.json"
    else:
        manifest = path
    if not manifest.exists():
        raise FileNotFoundError(f"no manifest at {manifest}")
    return manifest, manifest.parent


def _open_container(path, kind: str):
    """The header checks both container kinds share: schema, ``kind``,
    ``n_nodes`` and the edges. Returns the manifest, ``n_nodes``, the edges
    and a reader of the named arrays."""
    manifest_path, base = _resolve_manifest(path)
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("schema") != SCHEMA_VERSION:
        raise DataFormatError("/schema", f"expected {SCHEMA_VERSION!r}")
    if manifest.get("kind") != kind:
        raise DataFormatError("/kind", f"expected {kind!r}, got {manifest.get('kind')!r}")
    n = manifest.get("n_nodes")
    if not _is_int(n, 1):
        raise DataFormatError("/n_nodes", "must be a positive integer")
    arrays = manifest.get("arrays", {})

    def read(name: str) -> np.ndarray:
        return _read_array(arrays.get(name), base, f"/arrays/{name}")

    return manifest, n, read("edges").astype(np.int64), read


def _write_container(out_dir, kind: str, graph: Graph, name: str, arrays: dict,
                     inline_limit: int, **fields) -> Path:
    """The header :func:`_open_container` checks, then ``fields`` and the
    edges followed by the named ``arrays``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    arrays = {"edges": np.stack([graph.edge_src, graph.edge_dst], axis=1), **arrays}
    manifest = {"schema": SCHEMA_VERSION, "kind": kind, "name": name, "n_nodes": graph.n_nodes,
                **fields, "arrays": {key: _array_spec(key, arr, out_dir, inline_limit)
                                     for key, arr in arrays.items()}}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return out_dir


def save_bundle(bundle: DatasetBundle, out_dir, inline_limit: int = _INLINE_LIMIT) -> Path:
    arrays = {"features": bundle.features}
    if bundle.labels is not None:
        arrays["labels"] = bundle.labels
    for idx, part in enumerate(("train", "val", "test")):
        arrays[f"split_{part}"] = np.stack([s[idx].astype(np.int64) for s in bundle.splits])
    return _write_container(out_dir, "node_classification", bundle.graph, bundle.name, arrays,
                            inline_limit, homophily=bundle.homophily,
                            row_normalized=bundle.row_normalized,
                            split_source=bundle.split_source)


def load_graph_dataset(path) -> DatasetBundle:
    """Load a node-classification bundle, validating the whole schema."""
    manifest, n, edges, read = _open_container(path, "node_classification")
    arrays = manifest.get("arrays", {})
    graph = build_graph(edges, n, symmetrize=True)
    features = read("features")
    if features.shape[0] != n:
        raise DataFormatError("/arrays/features/shape", f"rows {features.shape[0]} != n_nodes {n}")
    labels = None
    if "labels" in arrays:
        labels = read("labels").astype(np.int64)
        if labels.shape != (n,):
            raise DataFormatError("/arrays/labels/shape", f"{labels.shape} != ({n},)")
        if (labels < 0).any():
            raise DataFormatError("/arrays/labels", f"class ids must be >= 0, got {labels.min()}")
    splits = []
    masks = {}
    for part in ("train", "val", "test"):
        key = f"split_{part}"
        if key not in arrays:
            raise DataFormatError(f"/arrays/{key}", "missing")
        masks[part] = read(key).astype(bool)
        if masks[part].ndim != 2 or masks[part].shape[1] != n:
            raise DataFormatError(f"/arrays/{key}/shape", f"expected (k, {n})")
    k = masks["train"].shape[0]
    if any(masks[p].shape[0] != k for p in ("val", "test")) or k < 1:
        raise DataFormatError("/arrays", "split parts must share the same k >= 1")
    for s in range(k):
        train, val, test = masks["train"][s], masks["val"][s], masks["test"][s]
        if ((train & val) | (train & test) | (val & test)).any():
            raise DataFormatError(f"/arrays/split_train/{s}", "split masks overlap")
        splits.append((train, val, test))
    return DatasetBundle(
        graph=graph, features=features, labels=labels, splits=splits,
        name=manifest.get("name", "unnamed"), homophily=manifest.get("homophily"),
        row_normalized=bool(manifest.get("row_normalized", False)),
        split_source=manifest.get("split_source"),
    )


def save_temporal(dataset: TemporalDataset, out_dir, inline_limit: int = _INLINE_LIMIT) -> Path:
    return _write_container(out_dir, "temporal", dataset.graph, dataset.name,
                            {"series": dataset.series, "timestamps": dataset.timestamps},
                            inline_limit, tau_in=dataset.tau_in, tau_out=dataset.tau_out)


def load_temporal_dataset(path) -> TemporalDataset:
    manifest, n, edges, read = _open_container(path, "temporal")
    series, timestamps = read("series"), read("timestamps")
    if series.ndim != 3 or series.shape[1] != n:
        raise DataFormatError("/arrays/series/shape", f"expected (T, {n}, c), got {series.shape}")
    if timestamps.shape != (series.shape[0],):
        raise DataFormatError("/arrays/timestamps/shape",
                              f"{timestamps.shape} != ({series.shape[0]},)")
    tau_in, tau_out = manifest.get("tau_in", 4), manifest.get("tau_out", 1)
    for key, value in (("tau_in", tau_in), ("tau_out", tau_out)):
        if not _is_int(value, 1):
            raise DataFormatError(f"/{key}", f"must be an integer >= 1, got {value!r}")
    if series.shape[0] < tau_in + tau_out:
        raise DataFormatError("/arrays/series/shape",
                              f"T={series.shape[0]} < tau_in + tau_out = {tau_in + tau_out}")
    return TemporalDataset(
        graph=build_graph(edges, n, symmetrize=True), series=series,
        timestamps=timestamps, tau_in=tau_in, tau_out=tau_out,
        name=manifest.get("name", "unnamed"),
    )


def dataset_checksum(path) -> str:
    """sha256 over the manifest and every sidecar, for run manifests."""
    manifest_path, base = _resolve_manifest(path)
    digest = hashlib.sha256(manifest_path.read_bytes())
    for bin_file in sorted(base.glob("*.bin")):
        digest.update(bin_file.name.encode())
        digest.update(bin_file.read_bytes())
    return digest.hexdigest()


def from_temporal_json(payload: dict, name: str = "converted",
                       tau_in: int = 4, tau_out: int = 1) -> TemporalDataset:
    """Convert the upstream {"edges": [[i, j], ...], "FX": [[...], ...]}
    JSON shape (per-time-step rows of per-node values) to a dataset."""
    if "edges" not in payload or "FX" not in payload:
        raise DataFormatError("/", "payload needs 'edges' and 'FX'")
    fx = np.asarray(payload["FX"], dtype=np.float64)
    if fx.ndim == 2:
        fx = fx[:, :, None]
    n = fx.shape[1]
    graph = build_graph(np.asarray(payload["edges"], dtype=np.int64), n, symmetrize=True)
    timestamps = np.arange(fx.shape[0], dtype=np.float64)
    return TemporalDataset(graph=graph, series=fx, timestamps=timestamps,
                           tau_in=tau_in, tau_out=tau_out, name=name)


# ---------------------------------------------------------------------------
# splits

def generate_splits(n: int, ratios: tuple[float, float, float] = (0.48, 0.32, 0.20),
                    k: int = 10, seed: int = 0, labels: Optional[np.ndarray] = None,
                    stratified: bool = False) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """k seeded permutation splits partitioned by the given ratios.

    With ``stratified=True`` each class of ``labels`` is partitioned
    proportionally; ValueError without labels. Deterministic and platform
    independent for fixed seed.
    """
    if stratified and labels is None:
        raise ValueError("stratified splits need labels")
    if sum(ratios) > 1 + 1e-12:
        raise ValueError(f"ratios {ratios} sum to more than 1")
    full_cover = abs(sum(ratios) - 1.0) < 1e-12
    splits = []
    for s in range(k):
        rng = philox(seed, s)
        train = np.zeros(n, dtype=bool)
        val = np.zeros(n, dtype=bool)
        test = np.zeros(n, dtype=bool)
        pools = ([np.flatnonzero(labels == c) for c in np.unique(labels)]
                 if stratified else [np.arange(n)])
        for pool in pools:
            perm = pool[rng.permutation(len(pool))]
            n_train = int(round(ratios[0] * len(pool)))
            n_val = int(round(ratios[1] * len(pool)))
            if full_cover:
                n_test = len(pool) - n_train - n_val
            else:
                n_test = int(round(ratios[2] * len(pool)))
            if min(n_train, n_val, n_test) < 1:
                raise ValueError(
                    f"pool of {len(pool)} nodes too small for nonempty parts at ratios {ratios}")
            train[perm[:n_train]] = True
            val[perm[n_train:n_train + n_val]] = True
            test[perm[n_train + n_val:n_train + n_val + n_test]] = True
        splits.append((train, val, test))
    return splits


# ---------------------------------------------------------------------------
# temporal windows and normalization

class SeriesWindows:
    """The stride-1 sliding windows of a temporal dataset, in chronological
    order. Window t is built when asked for, as read-only views of one
    node-major copy of the series: inputs n x (tau_in*c), targets
    n x (tau_out*c) and the inputs' frame times. So the windows of a series
    take the series' bytes once, whatever their number."""

    def __init__(self, dataset: TemporalDataset):
        series, timestamps = dataset.series, dataset.timestamps
        self.tau_in, self.tau_out = dataset.tau_in, dataset.tau_out
        t_total = series.shape[0]
        if len(timestamps) != t_total:
            raise ValueError(f"{len(timestamps)} timestamps for a series of {t_total} frames")
        if t_total < self.tau_in + self.tau_out:
            raise ValueError(f"series length {t_total} < tau_in + tau_out = "
                             f"{self.tau_in + self.tau_out}")
        self.frames = np.array(series.transpose(1, 0, 2), order="C")  # (n, T, c)
        self.frames.flags.writeable = False
        self.timestamps = timestamps
        self.count = t_total - self.tau_in - self.tau_out + 1

    def window(self, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n, split = self.frames.shape[0], t + self.tau_in
        return (self.frames[:, t:split].reshape(n, -1),
                self.frames[:, split:split + self.tau_out].reshape(n, -1),
                self.timestamps[t:split])


def make_windows(dataset: TemporalDataset):
    """Every window of :class:`SeriesWindows`, as a list of (inputs,
    targets, frame_times) in chronological order."""
    windows = SeriesWindows(dataset)
    return [windows.window(t) for t in range(windows.count)]


class SeriesNormalizer:
    """Invertible affine normalization. Temporal metrics are reported in
    the normalized units; ``inverse`` maps a normalized series back."""

    def __init__(self, mean: np.ndarray, std: np.ndarray):
        self.mean = mean
        self.std = std

    def transform(self, series: np.ndarray) -> np.ndarray:
        return (series - self.mean) / self.std

    def inverse(self, series: np.ndarray) -> np.ndarray:
        return series * self.std + self.mean


def normalize_series(dataset: TemporalDataset, scheme: str = "per_node"):
    """Z-score the series per node (or globally); returns the normalized
    dataset and the inverse-transform handle. Zero-variance units fall back
    to identity with a warning."""
    series = dataset.series
    if scheme == "per_node":
        mean = series.mean(axis=0, keepdims=True)
        std = series.std(axis=0, keepdims=True)
    elif scheme == "global":
        mean = series.mean(keepdims=True).reshape(1, 1, 1)
        std = series.std(keepdims=True).reshape(1, 1, 1)
    else:
        raise ValueError(f"unknown normalization scheme {scheme!r}")
    degenerate = std < 1e-12
    if degenerate.any():
        logger.warning("normalize_series: %d zero-variance units left unscaled",
                       int(degenerate.sum()))
        std = np.where(degenerate, 1.0, std)
        mean = np.where(degenerate, 0.0, mean)
    normalizer = SeriesNormalizer(mean, std)
    normalized = TemporalDataset(
        graph=dataset.graph, series=normalizer.transform(series),
        timestamps=dataset.timestamps, tau_in=dataset.tau_in,
        tau_out=dataset.tau_out, name=dataset.name)
    return normalized, normalizer


# ---------------------------------------------------------------------------
# synthetic tasks

def make_transport_task(n: int, p: float, n_sources: int, seed: int) -> TransportTask:
    """Unit mass spread over random source nodes, to be gathered at a random
    destination; regenerates (seed+1, ...) until sources and destination
    share a component, in at most 20 tries."""
    # imported on use: scipy.sparse.csgraph adds about 11 MB of resident
    # memory to a process, and only transport tasks need it
    from scipy.sparse.csgraph import connected_components

    if n_sources >= n:
        raise ValueError(f"n_sources={n_sources} must be < n={n}")
    max_retries = 20
    for attempt in range(max_retries):
        trial_seed = seed + attempt
        graph = erdos_renyi(n, p, trial_seed)
        rng = philox(trial_seed, 1)
        nodes = rng.permutation(n)
        sources = np.sort(nodes[:n_sources])
        destination = int(nodes[n_sources])
        _count, comp = connected_components(graph.adjacency(), directed=False)
        if len(set(comp[sources]) | {comp[destination]}) == 1:
            source_features = np.zeros((n, 1))
            source_features[sources, 0] = 1.0 / n_sources
            target_features = np.zeros((n, 1))
            target_features[destination, 0] = 1.0
            return TransportTask(graph, source_features, target_features,
                                 sources, destination)
    raise ValueError(
        f"could not generate a connected transport task in {max_retries} tries; increase p")


def make_planted_partition(n: int, n_classes: int, p_in: float, p_out: float,
                           feat_dim: int, noise: float, seed: int,
                           k_splits: int = 3,
                           ratios: tuple[float, float, float] = (0.48, 0.32, 0.20)
                           ) -> DatasetBundle:
    """Citation-like synthetic bundle: class-clustered edges and Gaussian
    class-mean features, with stratified generated splits."""
    rng = philox(seed)
    labels = rng.integers(0, n_classes, size=n)
    iu, ju = np.triu_indices(n, k=1)
    same = labels[iu] == labels[ju]
    prob = np.where(same, p_in, p_out)
    keep = rng.random(len(iu)) < prob
    graph = build_graph(np.stack([iu[keep], ju[keep]], axis=1), n, symmetrize=True)
    means = rng.normal(0.0, 1.0, size=(n_classes, feat_dim))
    features = means[labels] + noise * rng.normal(0.0, 1.0, size=(n, feat_dim))
    splits = generate_splits(n, ratios, k=k_splits, seed=seed, labels=labels,
                             stratified=True)
    same_frac = float(same[keep].mean()) if keep.any() else None
    return DatasetBundle(graph=graph, features=features, labels=labels,
                         splits=splits, name=f"planted-{n}", homophily=same_frac,
                         split_source="generated")
