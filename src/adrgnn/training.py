"""Optimization loop with per-term parameter groups, metrics, and the
study drivers (depth/energy, term ablation, transport fit).

Training is deterministic for a fixed (config, seed, dataset) triple: all
randomness flows through counter-based generators, and the optimizer walks
parameter groups in a fixed order.
"""

from __future__ import annotations

import bisect
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace, asdict
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Variable, backward
# make_windows is not called here, but perfbench/tracing.py patches the name in
# this module, so it stays importable from it
from .data import (DatasetBundle, SeriesWindows, TemporalDataset, TransportTask,
                   make_windows)  # noqa: F401
from .graph import dirichlet_energy
from .models import (AdrGnnStatic, AdrGnnTemporal, GcnBaseline, broadcast_time_embedding,
                     param_groups, time_embedding_table)
from .operators import AdrLayerParams, adr_layer
from .runtime import SeedStream

import logging

logger = logging.getLogger(__name__)


class TrainingDiverged(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# configuration

GROUPS = ("embedding", "advection", "diffusion", "reaction")
LOSSES = ("cross_entropy", "mse", "mae")
LAYER_CHOICES = (2, 4, 8, 16, 32, 64)
CHANNEL_CHOICES = (8, 16, 32, 64, 128, 256)
# the documented continuous ranges, [lo, hi] with their printed bounds: validate
# warns on a config value outside them
RANGES = {"lr": (1e-4, 1e-1, "[1e-4, 1e-1]"), "weight_decay": (0.0, 1e-2, "[0, 1e-2]"),
          "dropout": (0.0, 0.9, "[0, 0.9]"), "h": (1e-3, 1.0, "[1e-3, 1]")}


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# what TrainConfig.from_dict accepts for each field annotation: bools are not
# numbers, ints count as floats, and the dicts (lr, weight_decay) map each
# group to a number
_FIELD_CHECKS = {
    "int": (lambda v: _number(v) and isinstance(v, int), "an integer"),
    "float": (_number, "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "dict": (lambda v: isinstance(v, dict) and all(map(_number, v.values())),
             "a table of numbers by group"),
}


@dataclass
class TrainConfig:
    lr: dict = field(default_factory=lambda: {g: 1e-2 for g in GROUPS})
    weight_decay: dict = field(default_factory=lambda: {g: 5e-4 for g in GROUPS})
    dropout_io: float = 0.2
    dropout_hidden: float = 0.2
    h: float = 1.0
    layers: int = 4
    hidden: int = 64
    use_batchnorm: bool = False
    epochs: int = 1500
    patience: int = 200
    seed: int = 0
    cg_iterations: int = 5
    loss: str = "cross_entropy"
    terms: str = "ADR"
    n_frequencies: int = 10

    def validate(self) -> list[str]:
        """Check the documented hyperparameter ranges; each value outside
        them is logged as a warning and returned."""
        checked = [(f"{key}[{g}]", getattr(self, key)[g], key)
                   for g in GROUPS for key in ("lr", "weight_decay")]
        checked += [("dropout_io", self.dropout_io, "dropout"),
                    ("dropout_hidden", self.dropout_hidden, "dropout"), ("h", self.h, "h")]
        problems = [f"{name}={value} outside {RANGES[key][2]}" for name, value, key in checked
                    if not RANGES[key][0] <= value <= RANGES[key][1]]
        if self.layers not in LAYER_CHOICES:
            problems.append(f"layers={self.layers} not in {LAYER_CHOICES}")
        if self.hidden not in CHANNEL_CHOICES:
            problems.append(f"hidden={self.hidden} not in {CHANNEL_CHOICES}")
        if self.loss not in LOSSES:
            problems.append(f"loss={self.loss!r} not in {LOSSES}")
        for p in problems:
            logger.warning("config: %s", p)
        return problems

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        """The config of parsed JSON; ValueError for an unknown key, and one
        naming the key for a value of the wrong type."""
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            accepts, expected = _FIELD_CHECKS[fields[key].type]
            if not accepts(value):
                raise ValueError(f"config {key} must be {expected}, got {value!r}")
        cfg = cls(**data)
        for table, label in ((cfg.lr, "lr"), (cfg.weight_decay, "weight_decay")):
            missing = set(GROUPS) - set(table)
            if missing:
                raise ValueError(f"{label} missing groups: {sorted(missing)}")
        return cfg


# ---------------------------------------------------------------------------
# metrics

@dataclass
class Metrics:
    accuracy: Optional[float] = None
    mse: Optional[float] = None
    rmse: Optional[float] = None
    mae: Optional[float] = None
    mape: Optional[float] = None
    mape_excluded: Optional[int] = None
    roc_auc: Optional[float] = None

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def predict_classes(logits: np.ndarray) -> np.ndarray:
    return np.argmax(logits, axis=1)  # ties break to the lowest class index


def _binary_roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    # 1-based ranks, tied scores sharing the mean of the positions they span
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    first = np.cumsum(counts) - counts
    ranks = ((2 * first + counts + 1) / 2.0)[inverse]
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def classification_metrics(logits: np.ndarray, labels: np.ndarray,
                           mask: np.ndarray) -> Metrics:
    pred = predict_classes(logits[mask])
    truth = labels[mask]
    metrics = Metrics(accuracy=float((pred == truth).mean()))
    if logits.shape[1] == 2:
        scores = logits[mask, 1] - logits[mask, 0]
        metrics.roc_auc = _binary_roc_auc(scores, truth)
    return metrics


def regression_metrics(pred: np.ndarray, target: np.ndarray) -> Metrics:
    """MSE, RMSE, MAE, and MAPE over the targets of magnitude >= 1e-8 (the
    rest are counted in ``mape_excluded``)."""
    diff = pred - target
    mse_val = float((diff * diff).mean())
    defined = np.abs(target) >= 1e-8
    excluded = int(diff.size - defined.sum())
    mape_val = (float((np.abs(diff[defined] / target[defined])).mean())
                if defined.any() else None)
    return Metrics(mse=mse_val, rmse=float(math.sqrt(mse_val)),
                   mae=float(np.abs(diff).mean()), mape=mape_val,
                   mape_excluded=excluded)


def aggregate_metrics(results: list[Metrics]) -> dict[str, tuple[float, float]]:
    """Per-field mean and standard deviation over splits/repetitions."""
    summary = {}
    for name in ("accuracy", "mse", "rmse", "mae", "mape", "roc_auc"):
        values = [getattr(m, name) for m in results if getattr(m, name) is not None]
        if values:
            arr = np.asarray(values, dtype=np.float64)
            summary[name] = (float(arr.mean()), float(arr.std()))
    return summary


# ---------------------------------------------------------------------------
# optimizer

class AdamW:
    """Adaptive moment estimation with decoupled weight decay, one
    (lr, weight_decay) pair per parameter group.

    Construction moves every parameter's value and gradient into two flat
    buffers in group order and rebinds ``p.value`` and ``p.grad`` to views
    of them, so backward accumulates into the flat gradient; rebinding
    either later detaches ``p``, so write into them in place. Each step runs
    whole-buffer ufuncs over these and the two flat moments: the update is
    elementwise, so this is the per-parameter arithmetic element for
    element. Two scratch buffers hold the update and its intermediates.

    Every ``FLUSH_EVERY`` steps the moments below the smallest normal float
    are set to zero. A moment whose gradient stays zero decays into the
    subnormal range and sticks there, where the ufuncs over it are several
    times slower. Its update is below one ulp of any parameter value not
    itself near that range, so the flush leaves such values as they were,
    and a parameter at exactly 0.0 stays there.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    FLUSH_EVERY = 1024

    def __init__(self, groups: dict[str, list[Variable]], lr: dict[str, float],
                 weight_decay: dict[str, float]):
        for label, table in (("lr", lr), ("weight_decay", weight_decay)):
            missing = [name for name in groups if name not in table]
            if missing:
                raise ValueError(f"AdamW: {label} has no entry for group(s) {missing}")
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._params = [p for ps in groups.values() for p in ps]
        if len({id(p) for p in self._params}) != len(self._params):
            raise ValueError("AdamW: a parameter is listed more than once")
        dtypes = {p.value.dtype for p in self._params}
        if len(dtypes) > 1:
            raise ValueError(f"AdamW: parameters of mixed dtypes {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float64)
        size = sum(p.value.size for p in self._params)
        self._values, self._grad = np.empty(size, dtype), np.empty(size, dtype)
        self._m, self._v = np.zeros(size, dtype), np.zeros(size, dtype)
        self._update, self._work = np.empty(size, dtype), np.empty(size, dtype)
        self._spans, self._stops, offset = [], [], 0
        for name, params in groups.items():
            first = offset
            for p in params:
                stop = offset + p.value.size
                for flat, attr in ((self._values, "value"), (self._grad, "grad")):
                    view = flat[offset:stop].reshape(p.value.shape)
                    view[...] = getattr(p, attr)
                    setattr(p, attr, view)
                offset = stop
                self._stops.append(stop)
            self._spans.append((name, slice(first, offset)))

    def step(self) -> None:
        """Raises TrainingDiverged, before changing anything, naming the
        first parameter in group order whose gradient is not finite or
        overflows when squared (an infinite second moment would freeze it)."""
        g, m, v, update, work = self._grad, self._m, self._v, self._update, self._work
        np.multiply(g, 1.0 - self.beta2, out=work)
        with np.errstate(over="ignore"):  # an overflow raises below
            np.multiply(work, g, out=work)
        finite = np.isfinite(work)
        if not finite.all():
            bad = self._params[bisect.bisect_right(self._stops, int(finite.argmin()))]
            raise TrainingDiverged(f"gradient of parameter {bad.name!r} is not finite "
                                   "or overflows when squared")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        v *= self.beta2
        v += work
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=work)
        if self.t % self.FLUSH_EVERY == 0:
            tiny = np.finfo(m.dtype).tiny
            m[np.abs(m, out=work) < tiny] = 0.0
            v[v < tiny] = 0.0
        np.divide(m, bc1, out=update)
        np.sqrt(np.divide(v, bc2, out=work), out=work)
        work += self.eps
        update /= work
        values = self._values
        for name, span in self._spans:
            lr = self.lr[name]
            wd = self.weight_decay[name]
            update[span] *= lr
            if wd:
                values[span] -= np.multiply(values[span], lr * wd, out=work[span])
        values -= update

    def zero_grad(self) -> None:
        self._grad.fill(0)


def train_step(optimizer: AdamW, build_loss: Callable[[], Variable], where: str) -> float:
    """One optimizer step: tape ``build_loss()`` (the forward pass and the
    loss), backpropagate, apply and clear the gradients. Returns the loss
    value. A non-finite loss or a FloatingPointError (a non-finite solve)
    raises TrainingDiverged naming ``where``; AdamW names the parameter of
    a non-finite gradient."""
    try:
        with Tape() as tape:
            loss = build_loss()
        value = float(loss.value)
        if not np.isfinite(value):
            raise TrainingDiverged(f"non-finite loss at {where}")
        backward(tape, loss)
    except FloatingPointError as exc:
        raise TrainingDiverged(f"{where}: {exc}") from exc
    optimizer.step()
    optimizer.zero_grad()
    return value


# ---------------------------------------------------------------------------
# node-classification training

@dataclass
class TrainResult:
    model: object
    metrics: Metrics
    val_metrics: Metrics
    history: list[dict]
    best_epoch: int


def split_masks(bundle: DatasetBundle, split_index: int):
    """The (train, val, test) masks of ``bundle.splits[split_index]``;
    ValueError for an index outside the bundle's splits or an empty part."""
    count = len(bundle.splits)
    if not 0 <= split_index < count:
        raise ValueError(f"split {split_index} out of range: the bundle has {count} split(s)")
    masks = bundle.splits[split_index]
    for part, mask in zip(("train", "val", "test"), masks):
        if not mask.any():
            raise ValueError(f"split {split_index} has an empty {part} mask")
    return masks


def model_input(model, bundle: DatasetBundle):
    """The features ``model`` reads from ``bundle``: the cached CSR form for
    the ADR classifier on a bag-of-words bundle, the dense array otherwise."""
    sparse = bundle.sparse_features() if isinstance(model, AdrGnnStatic) else None
    return bundle.features if sparse is None else sparse


def _classifier_loop(model, bundle: DatasetBundle, cfg: TrainConfig,
                     split_index: int) -> TrainResult:
    if cfg.loss != "cross_entropy":
        raise ValueError(f"node classification trains cross_entropy, not loss={cfg.loss!r}")
    if cfg.epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {cfg.epochs}")
    train_mask, val_mask, test_mask = split_masks(bundle, split_index)
    g, x, labels = bundle.graph, model_input(model, bundle), bundle.labels
    optimizer = AdamW(model.param_groups(), cfg.lr, cfg.weight_decay)
    stream = SeedStream(cfg.seed + split_index)
    history: list[dict] = []
    best = {"val": -np.inf, "epoch": -1}  # and, once an epoch settles, its view and logits
    pending = []  # the last stepped epoch: (epoch, loss, model view, validation)

    def build_loss() -> Variable:
        logits = model.forward(g, x, train=True, rng=stream)
        return ad.cross_entropy(logits, labels, train_mask)

    def settle() -> bool:
        """Bookkeeping of the pending epoch, if any; False stops early."""
        if not pending:
            return True
        epoch, loss_value, view, validation = pending.pop()
        try:
            eval_logits = validation.result().value
        except FloatingPointError as exc:
            raise TrainingDiverged(f"epoch {epoch}: {exc}") from exc
        val_acc = classification_metrics(eval_logits, labels, val_mask).accuracy
        history.append({"epoch": epoch, "train_loss": loss_value, "val_accuracy": val_acc})
        if val_acc > best["val"]:
            best.update(val=val_acc, epoch=epoch, view=view, logits=eval_logits)
            return True
        if val_acc == best["val"]:
            # keep the most-trained checkpoint among equal validation maxima;
            # patience still counts from the first time the maximum was hit
            best.update(view=view, logits=eval_logits)
        return epoch - best["epoch"] < cfg.patience

    # Epoch e's validation forward runs on a helper thread, on a detached
    # copy of the model after step e, while this thread takes step e+1. A
    # step taken past an early stop is undone by the restore below, and its
    # failure is dropped: the serial loop would not have run it.
    with ThreadPoolExecutor(1) as helper:
        for epoch in range(cfg.epochs):
            try:
                loss_value = train_step(optimizer, build_loss, f"epoch {epoch}")
            except Exception:
                if settle():
                    raise
                break
            if not settle():
                break
            view = model.detached()
            pending.append((epoch, loss_value, view,
                            helper.submit(view.forward, g, x, train=False)))
        settle()
    # The best view is a private copy that nothing wrote after its forward,
    # so its snapshot, taken once here, restores the model its logits scored.
    model.restore(**best["view"].snapshot())
    metrics = classification_metrics(best["logits"], labels, test_mask)
    val_metrics = classification_metrics(best["logits"], labels, val_mask)
    return TrainResult(model, metrics, val_metrics, history, best["epoch"])


def train_node_classification(bundle: DatasetBundle, cfg: TrainConfig,
                              split_index: int = 0) -> TrainResult:
    """Optimize masked cross-entropy with four parameter groups; early-stops
    on best validation accuracy and reports test metrics at that point."""
    cfg.validate()
    model = AdrGnnStatic.init(
        c_in=bundle.features.shape[1], c_out=bundle.n_classes, hidden=cfg.hidden,
        layers=cfg.layers, h=cfg.h, dropout_io=cfg.dropout_io,
        dropout_hidden=cfg.dropout_hidden, use_batchnorm=cfg.use_batchnorm,
        cg_iterations=cfg.cg_iterations, terms=cfg.terms, seed=cfg.seed + split_index)
    return _classifier_loop(model, bundle, cfg, split_index)


def train_gcn_baseline(bundle: DatasetBundle, cfg: TrainConfig,
                       split_index: int = 0) -> TrainResult:
    model = GcnBaseline.init(
        c_in=bundle.features.shape[1], c_out=bundle.n_classes, hidden=cfg.hidden,
        layers=cfg.layers, dropout=cfg.dropout_hidden, seed=cfg.seed + split_index)
    return _classifier_loop(model, bundle, cfg, split_index)


def run_splits(bundle: DatasetBundle, cfg: TrainConfig,
               split_indices: Optional[list[int]] = None):
    """Train over several splits; returns per-split results and the
    mean/std summary."""
    indices = split_indices if split_indices is not None else list(range(len(bundle.splits)))
    results = [train_node_classification(bundle, cfg, split_index=s) for s in indices]
    return results, aggregate_metrics([r.metrics for r in results])


def evaluate(model, bundle: DatasetBundle, split_index: int = 0,
             part: str = "test") -> Metrics:
    """Deterministic evaluation-mode metrics on one split part, from the
    input the training loop reads (:func:`model_input`)."""
    train_mask, val_mask, test_mask = split_masks(bundle, split_index)
    mask = {"train": train_mask, "val": val_mask, "test": test_mask}[part]
    logits = model.forward(bundle.graph, model_input(model, bundle), train=False).value
    return classification_metrics(logits, bundle.labels, mask)


# ---------------------------------------------------------------------------
# temporal training

def _chronological_split(dataset: TemporalDataset, count: int) -> tuple[range, range]:
    """Indices of the ``count`` windows in the training prefix and in the
    final 10% horizon; windows whose targets straddle the boundary are
    dropped."""
    horizon_start = int(math.ceil(0.9 * dataset.series.shape[0]))
    return (range(min(count, horizon_start - dataset.tau_in - dataset.tau_out + 1)),
            range(max(0, horizon_start - dataset.tau_in), count))


def _window_source(dataset: TemporalDataset, n_frequencies: int):
    """The window source of train_temporal and evaluate_temporal: the
    chronological split of the dataset's windows, and a function that builds
    window i's (inputs, targets, time embedding tiled to every node) when
    its step runs. The embedding row is a view of one per-frame table, so a
    step tiles one embedding, and no window's array is made in advance."""
    windows = SeriesWindows(dataset)
    table = time_embedding_table(dataset.timestamps, n_frequencies)
    n = dataset.graph.n_nodes

    def window(i: int):
        x, y, _times = windows.window(i)
        return x, y, broadcast_time_embedding(table[i:i + dataset.tau_in].reshape(-1), n)

    return _chronological_split(dataset, windows.count), window


def _forecast_metrics(model, g, test_idx, window) -> Metrics:
    preds, targets = [], []
    for i in test_idx:
        x, y, emb = window(i)
        preds.append(model.forward(g, x, emb, train=False).value)
        targets.append(y)
    return regression_metrics(np.concatenate(preds), np.concatenate(targets))


def train_temporal(dataset: TemporalDataset, cfg: TrainConfig) -> TrainResult:
    """Incremental-mode training: one gradient step per window, chronological
    order, over the training prefix; evaluation on the final 10% horizon.
    Each window's inputs are built when its step runs."""
    cfg.validate()
    if set(cfg.terms.upper()) != set("ADR"):
        raise ValueError(f"temporal training runs all three terms, not terms={cfg.terms!r}")
    if cfg.loss not in ("mse", "mae"):
        raise ValueError(f"temporal training needs loss 'mse' or 'mae', not {cfg.loss!r}")
    if cfg.epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {cfg.epochs}")
    (train_idx, test_idx), window = _window_source(dataset, cfg.n_frequencies)
    if not train_idx or not test_idx:
        raise ValueError("series too short for a 90/10 chronological split")
    c_in = dataset.series.shape[2]
    model = AdrGnnTemporal.init(
        c_in=c_in, c_out=c_in, hidden=cfg.hidden, layers=cfg.layers, h=cfg.h,
        tau_in=dataset.tau_in, tau_out=dataset.tau_out,
        n_frequencies=cfg.n_frequencies, dropout_io=cfg.dropout_io,
        dropout_hidden=cfg.dropout_hidden, use_batchnorm=cfg.use_batchnorm,
        cg_iterations=cfg.cg_iterations, seed=cfg.seed)
    optimizer = AdamW(model.param_groups(), cfg.lr, cfg.weight_decay)
    stream = SeedStream(cfg.seed)
    loss_fn = ad.mae if cfg.loss == "mae" else ad.mse
    history = []
    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        for i in train_idx:
            x, y, emb = window(i)

            def build_loss() -> Variable:
                pred = model.forward(dataset.graph, x, emb, train=True, rng=stream)
                return loss_fn(pred, y)

            epoch_loss += train_step(optimizer, build_loss, f"epoch {epoch}, window {i}")
        history.append({"epoch": epoch, "train_loss": epoch_loss / len(train_idx)})
    metrics = _forecast_metrics(model, dataset.graph, test_idx, window)
    return TrainResult(model, metrics, metrics, history, cfg.epochs - 1)


def evaluate_temporal(model, dataset: TemporalDataset) -> Metrics:
    """Deterministic forecast metrics over the final 10% horizon."""
    (_train_idx, test_idx), window = _window_source(dataset, model.config["n_frequencies"])
    if not test_idx:
        raise ValueError("series too short for a 10% evaluation horizon")
    return _forecast_metrics(model, dataset.graph, test_idx, window)


# ---------------------------------------------------------------------------
# studies

def depth_energy_study(bundle: DatasetBundle, depths, cfg: TrainConfig,
                       split_index: int = 0) -> list[dict]:
    """Train the ADR model and the convolution baseline at each depth;
    record test accuracy and the Dirichlet energy of each stage of the
    trained models (the embedding, then each layer's output), absolute and
    relative to stage 0. A zero stage-0 energy leaves the energies as they
    are."""
    rows = []
    for depth in depths:
        cfg_d = replace(cfg, layers=int(depth))
        for kind, trainer in (("adr", train_node_classification),
                              ("gcn", train_gcn_baseline)):
            result = trainer(bundle, cfg_d, split_index=split_index)
            _logits, stages = result.model.forward(
                bundle.graph, model_input(result.model, bundle), train=False,
                diagnostics=True)
            energies = [dirichlet_energy(bundle.graph, s.value) for s in stages]
            base = energies[0] if energies[0] > 0 else 1.0
            rows.append({
                "model": kind, "depth": int(depth),
                "accuracy": result.metrics.accuracy,
                "energies": energies,
                "relative_energy": [e / base for e in energies],
            })
    return rows


def ablation_study(bundle: DatasetBundle, term_masks, cfg: TrainConfig,
                   split_indices: Optional[list[int]] = None) -> list[dict]:
    """One metrics row per term subset; inactive terms are the identity."""
    rows = []
    for terms in term_masks:
        if not terms:
            raise ValueError("ablation_study: empty term subset")
        cfg_t = replace(cfg, terms=terms)
        results, summary = run_splits(bundle, cfg_t, split_indices)
        rows.append({"terms": terms, "summary": summary,
                     "per_split": [r.metrics.to_dict() for r in results]})
    return rows


# ---------------------------------------------------------------------------
# synthetic transport fit

@dataclass
class TransportFitResult:
    terms: str
    final_mse: float
    trace: list[dict]  # step, mse, mass
    node_values: np.ndarray


def transport_fit(task: TransportTask, terms: str, layers: int = 4, h: float = 1.0,
                  lr: float = 0.05, epochs: int = 800, seed: int = 0,
                  channels: int = 8) -> TransportFitResult:
    """Fit the selected term subset to the transport task by MSE; the trace
    records every 25th step and the final model.

    The unit source mass is replicated into ``channels`` identical channels
    and the prediction is their plain average, so each term's expressiveness
    is measured on its own (no learned pointwise embedding or head). Every
    channel individually conserves mass under advection, hence so does the
    average. A single channel leaves the velocity nets with exactly tied
    ReLU inputs on equal-valued edges (zero gradients); the replicated
    channels diverge after one step and break those ties. Diffusion runs at
    the layer's default series degree, as in training.
    """
    g = task.graph
    stream = SeedStream(seed)
    layer_params = [AdrLayerParams.init(channels, stream.child(), name=f"layers.{l}")
                    for l in range(layers)]
    groups = param_groups([part for lp in layer_params for part in lp.parts()])
    optimizer = AdamW(groups, {k: lr for k in groups}, {k: 0.0 for k in groups})
    source = np.tile(task.source_features, (1, channels))
    channel_mean = np.full((channels, 1), 1.0 / channels)

    def forward() -> Variable:
        u = Variable(source)
        u0 = Variable(source)
        for lp in layer_params:
            u = adr_layer(g, u, u0, lp, h, terms=terms)
        return ad.matmul(u, Variable(channel_mean))

    last = {}  # the step's forward output, whose mass the trace records

    def build_loss() -> Variable:
        last["out"] = forward()
        return ad.mse(last["out"], task.target_features)

    trace = []
    for step in range(epochs):
        mse = train_step(optimizer, build_loss, f"step {step}")
        if step % 25 == 0:
            trace.append({"step": step, "mse": mse, "mass": float(last["out"].value.sum())})
    final = forward()
    final_mse = float(np.mean((final.value - task.target_features) ** 2))
    trace.append({"step": epochs, "mse": final_mse, "mass": float(final.value.sum())})
    return TransportFitResult(terms, final_mse, trace, final.value.copy())
