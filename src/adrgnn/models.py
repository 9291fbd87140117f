"""Network assemblies: the static node classifier, the temporal forecaster,
and a minimal graph-convolution baseline for depth/energy comparisons.

The static model embeds input features, applies L operator-split layers
with per-layer (unshared) weights, and classifies with a linear head. The
temporal model keeps two feature tracks: a state track that the ADR terms
evolve, and a history track that drives the edge velocities and is advanced
by per-layer update maps over the concatenated state, history and time
embedding.
"""

from __future__ import annotations

import copy
import json
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Linear, Variable
from .graph import Graph, dirichlet_energy
from .operators import AdrLayerParams, ReactionParams, adr_layer, check_step_size
from .runtime import SeedStream, default_dtype


def _dropout_rng(rng, train: bool, needed: bool):
    if not train or not needed:
        return None
    if rng is None:
        raise ValueError("training-mode forward with dropout needs an rng (SeedStream)")
    return rng


class SparseFeatures:
    """Input features in CSR form, for very sparse feature matrices
    (citation bags of words). Dropout acts on the stored values only, which
    matches dense dropout exactly because zeros are fixed points of the
    inverted-scaling rule."""

    def __init__(self, features):
        self.csr = sp.csr_matrix(features).astype(default_dtype())
        self.shape = self.csr.shape

    def dropout(self, p: float, rng: np.random.Generator) -> "SparseFeatures":
        out = copy.copy(self)
        out.csr = self.csr.copy()
        out.csr.data *= (rng.random(self.csr.data.shape) >= p) / (1.0 - p)
        return out


def _dropout(x, p: float, rng):
    """The one dropout rule of every forward: ``x`` itself, drawing nothing,
    in evaluation (``rng`` is None, see :func:`_dropout_rng`) or at p = 0;
    else inverted dropout with a mask from the next child of ``rng``."""
    if rng is None or p == 0:
        return x
    child = rng.child()
    return x.dropout(p, child) if isinstance(x, SparseFeatures) else ad.dropout(x, p, child)


def _input_linear(x, lin: Linear, p_io: float, rng) -> Variable:
    """Dropout followed by the embedding layer, with a CSR fast path."""
    x = _dropout(x, p_io, rng)
    if not isinstance(x, SparseFeatures):
        return lin(x)
    # the CSC view csr.T is the backward operand: no transpose is built
    y = ad.fixed_sparse_matmul(x.csr, x.csr.T, lin.w)
    return ad.add(y, lin.b) if lin.b is not None else y


# ---------------------------------------------------------------------------
# parameter registry

def param_groups(parts) -> dict[str, list[Variable]]:
    """Parameters of ``(group, container)`` pairs by optimizer group; groups
    keep the order of their first part, parameters the order of the parts."""
    groups: dict[str, list[Variable]] = {}
    for group, part in parts:
        groups.setdefault(group, []).extend(part.parameters())
    return groups


class ParameterRegistry:
    """Parameter names, optimizer groups and batch-norm state, all derived
    from one ordered ``_parts()`` list of ``(group, container)`` pairs. The
    order of that list is the order of the checkpoint arrays."""

    def _parts(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def named_parameters(self) -> dict[str, Variable]:
        return {p.name: p for _group, part in self._parts() for p in part.parameters()}

    def param_groups(self) -> dict[str, list[Variable]]:
        return param_groups(self._parts())

    def extra_state(self) -> dict[str, np.ndarray]:
        """The live batch-norm running statistics, by checkpoint name."""
        return {name: arr for _group, part in self._parts()
                if isinstance(part, ReactionParams) for name, arr in part.state().items()}

    def detached(self):
        """A copy of the model as it is now, whose parameters take no
        gradient: its ops never reach a tape, and training this model leaves
        what the copy reads unchanged. Gradient buffers are not copied."""
        fresh = {id(p): Variable(p.value.copy(), name=p.name)
                 for p in self.named_parameters().values()}
        return copy.deepcopy(self, fresh)

    def snapshot(self) -> dict:
        """Copies of every parameter and state array, for :meth:`restore`."""
        return {"params": {n: v.value.copy() for n, v in self.named_parameters().items()},
                "state": {n: a.copy() for n, a in self.extra_state().items()}}

    def restore(self, params: dict, state: dict) -> None:
        """Load parameter values (with zeroed gradients) and, in place, the
        batch-norm statistics; names and shapes must match the model's."""
        named, extra = self.named_parameters(), self.extra_state()
        current = {**{n: v.value for n, v in named.items()}, **extra}
        saved = {**params, **state}
        if set(saved) != set(current):
            raise ValueError("checkpoint array names do not match config: "
                             f"{sorted(set(saved) ^ set(current))}")
        for name, arr in current.items():
            if saved[name].shape != arr.shape:
                raise ValueError(
                    f"checkpoint {name}: shape {saved[name].shape} != expected {arr.shape}")
        for name, var in named.items():
            var.value = params[name].astype(default_dtype())
            var.grad = np.zeros_like(var.value)
        for name, arr in extra.items():
            arr[...] = state[name]


# ---------------------------------------------------------------------------
# static classifier

class AdrGnnStatic(ParameterRegistry):
    """Embedding, L operator-split layers with unshared weights, classifier."""

    def __init__(self, config: dict, g_in: Linear, layers: list[AdrLayerParams],
                 g_out: Linear):
        self.config = config
        self.g_in = g_in
        self.layers = layers
        self.g_out = g_out

    @classmethod
    def init(cls, c_in: int, c_out: int, hidden: int, layers: int, h: float,
             dropout_io: float = 0.0, dropout_hidden: float = 0.0,
             use_batchnorm: bool = False, cg_iterations: int = 5,
             terms: str = "ADR", seed: int = 0) -> "AdrGnnStatic":
        if layers < 1:
            raise ValueError("layers must be >= 1")
        check_step_size(h, "AdrGnnStatic.init")
        stream = SeedStream(seed)
        g_in = Linear.init(c_in, hidden, stream.child(), name="g_in")
        layer_params = [
            AdrLayerParams.init(hidden, stream.child(), use_batchnorm, name=f"layers.{l}")
            for l in range(layers)
        ]
        g_out = Linear.init(hidden, c_out, stream.child(), name="g_out")
        config = {
            "kind": "static", "c_in": c_in, "c_out": c_out, "hidden": hidden,
            "layers": layers, "h": h, "dropout_io": dropout_io,
            "dropout_hidden": dropout_hidden, "use_batchnorm": use_batchnorm,
            "cg_iterations": cg_iterations, "terms": terms,
        }
        return cls(config, g_in, layer_params, g_out)

    def forward(self, g: Graph, x, train: bool = False, rng: Optional[SeedStream] = None,
                terms: Optional[str] = None, diagnostics: bool = False):
        """Logits of the model's own ``terms`` unless ``terms`` names others."""
        cfg = self.config
        terms = cfg["terms"] if terms is None else terms
        p_io, p_h = cfg["dropout_io"], cfg["dropout_hidden"]
        rng = _dropout_rng(rng, train, p_io > 0 or p_h > 0)
        if not isinstance(x, (SparseFeatures, Variable)):
            x = ad._as_variable(x)
        if tuple(x.shape) != (g.n_nodes, cfg["c_in"]):
            raise ValueError(
                f"forward: features {tuple(x.shape)} != ({g.n_nodes}, {cfg['c_in']})")
        u0 = _input_linear(x, self.g_in, p_io, rng)
        u = u0
        stages = [u0]
        for layer in self.layers:
            u = adr_layer(g, _dropout(u, p_h, rng), u0, layer, cfg["h"], cfg["cg_iterations"],
                          train=train, terms=terms)
            stages.append(u)
        logits = self.g_out(_dropout(u, p_io, rng))
        if diagnostics:
            return logits, stages
        return logits

    def _parts(self) -> list[tuple[str, object]]:
        return ([("embedding", self.g_in), ("embedding", self.g_out)]
                + [part for layer in self.layers for part in layer.parts()])


def static_parameter_count(c_in: int, c_out: int, hidden: int, layers: int,
                           use_batchnorm: bool = False) -> int:
    """Closed-form trainable-parameter count of the static model.

    Embeddings: (c_in+1)h + (h+1)c_out. Per layer: advection
    2(h^2+h) + 2h^2, diffusion h, reaction 3(h^2+h) (+2h with batch norm).
    """
    c = hidden
    per_layer = 2 * (c * c + c) + 2 * c * c + c + 3 * (c * c + c)
    if use_batchnorm:
        per_layer += 2 * c
    return (c_in * c + c) + layers * per_layer + (c * c_out + c_out)


# ---------------------------------------------------------------------------
# time embedding

def time_embedding_table(frame_times, n_frequencies: int = 10) -> np.ndarray:
    """Sin/cos features at geometrically spaced frequencies, one row per
    frame time: n_frequencies sines then n_frequencies cosines, with
    omega_k = 10000^(-k/n_frequencies). Each value depends on its own frame
    time only, so the rows of one table for a whole series are the rows of
    a table for any run of its frames, to the bit."""
    if n_frequencies < 1:
        raise ValueError("n_frequencies must be >= 1")
    t = np.asarray(frame_times, dtype=np.float64)
    k = np.arange(n_frequencies)
    omega = 10000.0 ** (-k / n_frequencies)
    angles = t[:, None] * omega[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


def time_embedding(frame_times, n_frequencies: int = 10) -> np.ndarray:
    """The rows of :func:`time_embedding_table` for ``frame_times`` as one
    flat vector of len(frame_times) * 2 * n_frequencies values (identical
    for all nodes). A window's vector is
    ``table[t:t + tau_in].reshape(-1)``, a view of its series' table."""
    return time_embedding_table(frame_times, n_frequencies).reshape(-1)


def broadcast_time_embedding(emb: np.ndarray, n_nodes: int) -> np.ndarray:
    return np.tile(emb[None, :], (n_nodes, 1)).astype(default_dtype())


# ---------------------------------------------------------------------------
# temporal forecaster

class AdrGnnTemporal(ParameterRegistry):
    """Two-track temporal model: ADR dynamics on the state track, velocities
    and reaction skip from the history track, plus a projected time embedding."""

    def __init__(self, config: dict, g_time_embed: Linear, g_in_state: Linear,
                 g_in_hist: Linear, layers: list[AdrLayerParams],
                 g_hist: list[Linear], g_out_state: Linear):
        self.config = config
        self.g_time_embed = g_time_embed
        self.g_in_state = g_in_state
        self.g_in_hist = g_in_hist
        self.layers = layers
        self.g_hist = g_hist
        self.g_out_state = g_out_state

    @classmethod
    def init(cls, c_in: int, c_out: int, hidden: int, layers: int, h: float,
             tau_in: int, tau_out: int, n_frequencies: int = 10,
             dropout_io: float = 0.0, dropout_hidden: float = 0.0,
             use_batchnorm: bool = False, cg_iterations: int = 5,
             seed: int = 0) -> "AdrGnnTemporal":
        if tau_in < 1 or tau_out < 1:
            raise ValueError("tau_in and tau_out must be >= 1")
        check_step_size(h, "AdrGnnTemporal.init")
        c_t = 2 * n_frequencies
        stream = SeedStream(seed)
        g_time_embed = Linear.init(tau_in * c_t, hidden, stream.child(), name="g_time_embed")
        g_in_state = Linear.init(c_in + hidden, hidden, stream.child(), name="g_in_state")
        g_in_hist = Linear.init(tau_in * c_in + hidden, hidden, stream.child(),
                                name="g_in_hist")
        layer_params = [
            AdrLayerParams.init(hidden, stream.child(), use_batchnorm, name=f"layers.{l}")
            for l in range(layers)
        ]
        g_hist = [
            Linear.init(3 * hidden, hidden, stream.child(), name=f"g_hist.{l}")
            for l in range(layers)
        ]
        g_out_state = Linear.init(hidden, tau_out * c_out, stream.child(), name="g_out_state")
        config = {
            "kind": "temporal", "c_in": c_in, "c_out": c_out, "hidden": hidden,
            "layers": layers, "h": h, "tau_in": tau_in, "tau_out": tau_out,
            "n_frequencies": n_frequencies, "dropout_io": dropout_io,
            "dropout_hidden": dropout_hidden, "use_batchnorm": use_batchnorm,
            "cg_iterations": cg_iterations,
        }
        return cls(config, g_time_embed, g_in_state, g_in_hist, layer_params,
                   g_hist, g_out_state)

    def forward(self, g: Graph, x_temporal, t_emb, train: bool = False,
                rng: Optional[SeedStream] = None, diagnostics: bool = False):
        cfg = self.config
        tau_in, c_in = cfg["tau_in"], cfg["c_in"]
        p_io, p_h = cfg["dropout_io"], cfg["dropout_hidden"]
        rng = _dropout_rng(rng, train, p_io > 0 or p_h > 0)
        x = ad._as_variable(x_temporal)
        if x.value.shape != (g.n_nodes, tau_in * c_in):
            raise ValueError(
                f"forward: temporal features {x.value.shape} != ({g.n_nodes}, {tau_in * c_in})")
        t_emb = ad._as_variable(t_emb)
        c_t = tau_in * 2 * cfg["n_frequencies"]
        if t_emb.value.shape != (g.n_nodes, c_t):
            raise ValueError(
                f"forward: time embedding {t_emb.value.shape} != ({g.n_nodes}, {c_t})")
        x = _dropout(x, p_io, rng)
        temb = self.g_time_embed(t_emb)
        last_frame = ad.slice_columns(x, (tau_in - 1) * c_in, tau_in * c_in)
        u_state = self.g_in_state(ad.concat_columns([last_frame, temb]))
        u_hist = self.g_in_hist(ad.concat_columns([x, temb]))
        u_hist0 = u_hist
        stages = [u_state]
        for layer, g_hist_l in zip(self.layers, self.g_hist):
            u_state = adr_layer(g, _dropout(u_state, p_h, rng), u_hist0, layer, cfg["h"],
                                cfg["cg_iterations"], train=train,
                                velocity_features=u_hist)
            u_hist = g_hist_l(ad.concat_columns([u_hist, u_state, temb]))
            stages.append(u_state)
        predictions = self.g_out_state(_dropout(u_state, p_io, rng))
        if diagnostics:
            return predictions, stages
        return predictions

    def _parts(self) -> list[tuple[str, object]]:
        embeddings = (self.g_time_embed, self.g_in_state, self.g_in_hist, self.g_out_state)
        return ([("embedding", lin) for lin in embeddings]
                + [part for layer in self.layers for part in layer.parts()]
                + [("embedding", lin) for lin in self.g_hist])


# ---------------------------------------------------------------------------
# graph-convolution baseline

class GcnBaseline(ParameterRegistry):
    """Plain convolution stack: ReLU(A_hat (U W)) per layer, linear head."""

    def __init__(self, config: dict, convs: list[Linear], head: Linear):
        self.config = config
        self.convs = convs
        self.head = head

    @classmethod
    def init(cls, c_in: int, c_out: int, hidden: int, layers: int,
             dropout: float = 0.0, seed: int = 0) -> "GcnBaseline":
        stream = SeedStream(seed)
        widths = [c_in] + [hidden] * layers
        convs = [Linear.init(widths[l], widths[l + 1], stream.child(), name=f"convs.{l}")
                 for l in range(layers)]
        head = Linear.init(hidden, c_out, stream.child(), name="head")
        config = {"kind": "gcn", "c_in": c_in, "c_out": c_out, "hidden": hidden,
                  "layers": layers, "dropout": dropout}
        return cls(config, convs, head)

    def forward(self, g: Graph, x, train: bool = False,
                rng: Optional[SeedStream] = None, diagnostics: bool = False):
        p = self.config.get("dropout", 0.0)
        rng = _dropout_rng(rng, train, p > 0)
        # symmetric: its own transpose; in the working dtype, so float32 stays float32
        a_hat = g.gcn_adjacency.astype(default_dtype(), copy=False)
        u = ad._as_variable(x)
        stages = [u]
        for conv in self.convs:
            u = ad.relu(ad.fixed_sparse_matmul(a_hat, a_hat, conv(_dropout(u, p, rng))))
            stages.append(u)
        logits = self.head(u)
        if diagnostics:
            return logits, stages
        return logits

    def _parts(self) -> list[tuple[str, object]]:
        return [("embedding", lin) for lin in self.convs + [self.head]]


# ---------------------------------------------------------------------------
# checkpoint container

def save_checkpoint(path, model) -> None:
    """Single self-describing container: JSON config plus named arrays."""
    arrays = {"__config__": np.frombuffer(
        json.dumps(model.config, sort_keys=True).encode("utf-8"), dtype=np.uint8)}
    for name, var in model.named_parameters().items():
        arrays[f"param:{name}"] = var.value
    for name, arr in model.extra_state().items():
        arrays[f"state:{name}"] = arr
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path):
    """Rebuild a model from a checkpoint; validates every array name and shape."""
    with np.load(path) as data:
        config = json.loads(bytes(data["__config__"]).decode("utf-8"))
        params = {k[len("param:"):]: data[k] for k in data.files if k.startswith("param:")}
        state = {k[len("state:"):]: data[k] for k in data.files if k.startswith("state:")}
    model = build_model(config)
    model.restore(params, state)
    return model


MODEL_KINDS = {"static": AdrGnnStatic, "temporal": AdrGnnTemporal, "gcn": GcnBaseline}


def build_model(config: dict):
    """A freshly initialized model of ``config["kind"]``; the other config
    keys are the keyword arguments of that class's ``init``."""
    kind = config.get("kind")
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    return MODEL_KINDS[kind].init(**{k: v for k, v in config.items() if k != "kind"})


def count_parameters(model) -> int:
    return sum(v.value.size for v in model.named_parameters().values())


def layer_energy_profile(g: Graph, stages) -> list[float]:
    """Dirichlet energy of each recorded layer stage."""
    return [dirichlet_energy(g, s.value) for s in stages]
