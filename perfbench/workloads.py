"""The workloads and the loop that measures them.

Each workload generates its inputs from the benchmark seed, sets up (inputs,
then one short untimed call of its training entry point as a warm-up), calls
that entry point for a fixed amount of work, times tape-free eval forwards
of the trained model, and checks the outputs. The program's own seeds (the
configs' ``seed``) keep their shipped values; only the inputs change with
the benchmark seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import adrgnn.autodiff as ad
import adrgnn.data as data
import adrgnn.graph as graph
import adrgnn.models as models
import adrgnn.operators as operators
import adrgnn.training as training
from adrgnn.runtime import philox

import checks

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _config(name: str, **overrides) -> training.TrainConfig:
    cfg = training.TrainConfig.from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


# ---------------------------------------------------------------------------
# cora-sparse

# Cora's shape: 2708 nodes, 7 classes, a 1433-word vocabulary. Every node
# links to one partner and EXTRA_EDGES random nodes link to one more, about
# 5.4k undirected edges as in Cora; a partner shares the node's class with
# probability HOMOPHILY, Cora's edge homophily. Each node's bag of words has
# WORDS draws, a share ON_TOPIC of them from a CLASS_WORDS-word class
# vocabulary, so features are about 1.3% dense, as in Cora, and sparse
# enough for the CSR input path.
CORA_NODES, CORA_CLASSES, CORA_VOCAB = 2708, 7, 1433
EXTRA_EDGES, HOMOPHILY = 2700, 0.8
WORDS, CLASS_WORDS, ON_TOPIC = 19, 150, 0.6


def cora_inputs(seed: int) -> data.DatasetBundle:
    """Citation-like bundle at Cora scale, built without all-pairs work."""
    n, classes, vocab = CORA_NODES, CORA_CLASSES, CORA_VOCAB
    rng = philox(seed, 0)
    labels = rng.integers(0, classes, n)
    src = np.concatenate([np.arange(n), rng.integers(0, n, EXTRA_EDGES)])
    other = (labels[src] + rng.integers(1, classes, len(src))) % classes
    partner_class = np.where(rng.random(len(src)) < HOMOPHILY, labels[src], other)
    by_class = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=classes)
    starts = np.concatenate(([0], np.cumsum(counts)))
    pick = (rng.random(len(src)) * counts[partner_class]).astype(np.int64)
    dst = by_class[starts[partner_class] + pick]
    g = graph.build_graph(np.stack([src, dst], axis=1), n)

    topics = rng.permutation(vocab)[:classes * CLASS_WORDS].reshape(classes, CLASS_WORDS)
    drawn = np.where(rng.random((n, WORDS)) < ON_TOPIC,
                     topics[labels[:, None], rng.integers(0, CLASS_WORDS, (n, WORDS))],
                     rng.integers(0, vocab, (n, WORDS)))
    features = np.zeros((n, vocab))
    features[np.arange(n)[:, None], drawn] = 1.0
    splits = data.generate_splits(n, k=1, seed=seed, labels=labels, stratified=True)
    same = float((labels[g.edge_src] == labels[g.edge_dst]).mean())
    return data.DatasetBundle(g, features, labels, splits, name="cora-synthetic",
                              homophily=same, split_source="generated")


class CoraSparse:
    """Static node classification with configs/cora.json for a fixed epoch
    count. The features are sparse enough for the CSR input path."""

    epochs = 4
    setups_per_round = 1
    evals_per_round = 2

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.bundle = cora_inputs(self.seed)
        self.cfg = _config("cora", epochs=self.epochs)
        if self.cfg.patience <= self.epochs:
            raise ValueError("patience must exceed the epoch count, or training stops early")
        # warm-up: one epoch through the entry point itself
        training.train_node_classification(self.bundle, _config("cora", epochs=1))

    def train(self):
        return training.train_node_classification(self.bundle, self.cfg)

    def eval_forward(self, result) -> None:
        training.evaluate(result.model, self.bundle)

    def check(self, result) -> list[str]:
        b, cfg, model = self.bundle, self.cfg, result.model
        g = b.graph
        x = models.SparseFeatures(b.features)
        train_mask = b.splits[0][0]
        fails = checks.falls([e["train_loss"] for e in result.history], 0.5, "training loss")
        fails += checks.at_least(result.metrics.accuracy, 3.0 / b.n_classes, "test accuracy")

        # Eval-mode stages, layer by layer, as AdrGnnStatic.forward runs them.
        u0 = ad.Variable(x.csr @ model.g_in.w.value + model.g_in.b.value)
        eig = checks.laplacian_eigh(checks.normalized_laplacian(g.n_nodes, g.edge_src,
                                                                g.edge_dst))
        u, stages = u0, []
        for l, layer in enumerate(model.layers):
            u_next, st = operators.adr_layer(g, u, u0, layer, cfg.h, cfg.cg_iterations,
                                             train=False, terms=cfg.terms, diagnostics=True)
            tag = f"layer {l}: "
            fails += [tag + f for f in checks.velocities(st.velocities.values.value,
                                                         g.edge_src, g.n_nodes)]
            fails += [tag + f for f in checks.mass_conserved(u.value, st.after_advection.value)]
            kappa = np.clip(layer.diffusion.theta.value, 0.0, 1.0)
            fails += [tag + f for f in checks.cg_within_bound(
                st.after_advection.value, st.after_diffusion.value, kappa, cfg.h, eig,
                cfg.cg_iterations, 1e-10)]
            stages.append(st)
            u = u_next
        logits = model.forward(g, x, train=False, terms=cfg.terms).value
        fails += checks.close(model.g_out(u).value, logits, what="staged and model logits")

        # Parameters downstream of the last diffusion step: reverse mode over
        # the whole eval-mode model against central differences of the tail.
        for p in model.named_parameters().values():
            p.zero_grad()
        with ad.Tape() as tape:
            loss = ad.cross_entropy(model.forward(g, x, train=False, terms=cfg.terms),
                                    b.labels, train_mask)
        ad.backward(tape, loss)
        last = model.layers[-1].reaction
        u_diff = stages[-1].after_diffusion

        def tail_loss() -> float:
            out = operators.react(u_diff, u0, last, cfg.h, train=False)
            return float(ad.cross_entropy(model.g_out(out), b.labels, train_mask).value)

        for i, p in enumerate(last.parameters() + model.g_out.parameters()):
            fails += checks.directional_gradient(p.grad.copy(), p.value, tail_loss,
                                                 seed=self.seed + i, name=p.name)
        return fails


# ---------------------------------------------------------------------------
# chickenpox-temporal

# Hungary's 20 counties and 522 weekly frames, as in the chickenpox data:
# a ring plus CHORDS random chords, and a yearly (PERIOD-week) seasonal
# signal with noise at NOISE of each node's amplitude.
POX_NODES, POX_FRAMES, CHORDS, PERIOD, NOISE = 20, 522, 30, 52.0, 0.3
# The shortest series with a training window and a test window under
# train_temporal's 90/10 chronological split: 5 training windows.
WARM_UP_FRAMES = 10


def chickenpox_inputs(seed: int) -> data.TemporalDataset:
    """Weekly case-count-like series on a county-sized graph, one channel
    per node, per-node amplitude and phase, normalized per node."""
    n, frames = POX_NODES, POX_FRAMES
    rng = philox(seed, 0)
    ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    g = graph.build_graph(np.concatenate([ring, rng.integers(0, n, (CHORDS, 2))]), n)
    t = np.arange(frames, dtype=np.float64)
    amp = rng.uniform(0.5, 2.0, n)
    phase = rng.uniform(-0.5, 0.5, n)
    season = 1.0 + np.sin(2.0 * np.pi * t[:, None] / PERIOD + phase[None, :])
    series = amp * (season + NOISE * rng.standard_normal((frames, n)))
    raw = data.TemporalDataset(g, series[:, :, None], t, tau_in=4, tau_out=1,
                               name="chickenpox-synthetic")
    normalized, _ = data.normalize_series(raw)
    return normalized


class ChickenpoxTemporal:
    """train_temporal with configs/chickenpox.json for a few epochs: tiny
    arrays, so per-op Python overhead dominates."""

    epochs = 2
    setups_per_round = 4
    evals_per_round = 52

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        ds = self.dataset = chickenpox_inputs(self.seed)
        self.cfg = _config("chickenpox", epochs=self.epochs)
        n = ds.graph.n_nodes
        horizon = math.ceil(0.9 * ds.series.shape[0])
        self.test = [(x, y, models.broadcast_time_embedding(
                          models.time_embedding(times, self.cfg.n_frequencies), n))
                     for i, (x, y, times) in enumerate(data.make_windows(ds))
                     if i + ds.tau_in >= horizon]
        self._next = 0
        # warm-up: the entry point itself on the shortest usable prefix
        prefix = dataclasses.replace(ds, series=ds.series[:WARM_UP_FRAMES],
                                     timestamps=ds.timestamps[:WARM_UP_FRAMES])
        training.train_temporal(prefix, _config("chickenpox", epochs=1))

    def train(self):
        return training.train_temporal(self.dataset, self.cfg)

    def eval_forward(self, result) -> None:
        x, _y, emb = self.test[self._next % len(self.test)]
        self._next += 1
        result.model.forward(self.dataset.graph, x, emb, train=False)

    def check(self, result) -> list[str]:
        model, g = result.model, self.dataset.graph
        fails = checks.falls([e["train_loss"] for e in result.history], 1.0,
                             "epoch training loss")
        # evaluate_temporal's MSE, recomputed from one forward per test window
        preds = np.concatenate([model.forward(g, x, emb).value for x, _y, emb in self.test])
        targets = np.concatenate([y for _x, y, _emb in self.test])
        fails += checks.close(np.array(result.metrics.mse),
                              np.array(np.mean((preds - targets) ** 2)), what="test MSE")

        # Output head: reverse mode over the whole model against central
        # differences of the head alone.
        x, y, emb = self.test[0]
        for p in model.named_parameters().values():
            p.zero_grad()
        with ad.Tape() as tape:
            pred, stages = model.forward(g, x, emb, diagnostics=True)
            loss = ad.mse(pred, y)
        ad.backward(tape, loss)

        def head_loss() -> float:
            return float(ad.mse(model.g_out_state(stages[-1]), y).value)

        for i, p in enumerate(model.g_out_state.parameters()):
            fails += checks.directional_gradient(p.grad.copy(), p.value, head_loss,
                                                 seed=self.seed + i, name=p.name)
        return fails


WORKLOADS = {
    "cora-sparse": CoraSparse,
    "chickenpox-temporal": ChickenpoxTemporal,
}


# ---------------------------------------------------------------------------
# measurement

class StepClock:
    """Wraps ``AdamW.step`` and keeps the interval between consecutive
    steps of the same optimizer, while ``counting`` is set."""

    def __init__(self):
        self._original = training.AdamW.__dict__["step"]
        self.intervals: list[float] = []
        self.steps = 0
        self.counting = True
        self.new_call()

    def install(self) -> None:
        original = self._original

        def step(opt):
            original(opt)
            if not self.counting:
                return
            now = time.perf_counter()
            if self._last[0] is opt:
                self.intervals.append(now - self._last[1])
            self._last = (opt, now)
            self.steps += 1

        training.AdamW.step = step

    def uninstall(self) -> None:
        training.AdamW.step = self._original

    def new_call(self) -> None:
        self._last = (None, 0.0)


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


# The program's own errors: a diverged or non-finite training run, or inputs
# it rejects. Anything else is a fault of the benchmark and ends the run.
PROGRAM_ERRORS = (training.TrainingDiverged, FloatingPointError, ValueError,
                  np.linalg.LinAlgError)


def run(name: str, seed: int, seconds: float, tracer=None) -> dict:
    """Measure for ``seconds`` in whole rounds, then check the last good
    round's outputs. A round is the workload's set-ups, one training call
    and its eval forwards; the set-ups are spread over the run, so that
    set-up time samples the same stretch of machine time as the steps. A
    round whose training call or an eval forward raises one of
    PROGRAM_ERRORS counts its training call and its eval forwards as
    attempted and failed."""
    workload = WORKLOADS[name](seed)
    clock = StepClock()
    clock.install()
    if tracer is not None:
        tracer.install()
    try:
        setup_s, setup_layers = [], []
        train_s, eval_s, layers, errors = [], [], {}, []
        faults_train = rounds = failed = 0
        result = None
        deadline = time.perf_counter() + seconds
        while rounds == 0 or time.perf_counter() < deadline:
            rounds += 1
            clock.counting = False  # the warm-up's own optimizer steps
            for _ in range(workload.setups_per_round):
                before = tracer.snapshot() if tracer else None
                start = time.perf_counter()
                workload.setup()
                setup_s.append(time.perf_counter() - start)
                if tracer:
                    setup_layers.append(tracer.since(before))
            clock.counting = True
            if tracer:
                before = tracer.snapshot()
                tracer.sample_next_tape = True
            clock.new_call()
            faults = _minor_faults()
            try:
                start = time.perf_counter()
                round_result = workload.train()
                round_train_s = time.perf_counter() - start
                round_faults = _minor_faults() - faults
                round_layers = tracer.since(before) if tracer else {}
                round_eval_s = []
                for _ in range(workload.evals_per_round):
                    start = time.perf_counter()
                    workload.eval_forward(round_result)
                    round_eval_s.append(time.perf_counter() - start)
            except PROGRAM_ERRORS as exc:
                failed += 1 + workload.evals_per_round
                errors.append(f"round {rounds}: {type(exc).__name__}: {exc}")
            else:
                train_s.append(round_train_s)
                eval_s += round_eval_s
                faults_train += round_faults
                for key, delta in round_layers.items():
                    layers[key] = [a + b for a, b in zip(layers.get(key, [0, 0.0, 0.0]), delta)]
                result = round_result
        steps = clock.steps
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.uninstall()
        clock.uninstall()

    attempted = rounds * (1 + workload.evals_per_round)
    if result is None:
        return {"correct": False, "attempted": attempted, "failed": failed, "failures": errors}
    failures = errors + workload.check(result)
    end_to_end = {
        "setup_s": (statistics.median(setup_s), "s"),
        "train_s": (statistics.median(train_s), "s"),
        "step_ms": (1e3 * statistics.median(clock.intervals), "ms"),
        "eval_forward_ms": (1e3 * statistics.median(eval_s), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    out = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "failures": failures,
        "samples": {"setup_s": setup_s, "train_s": train_s,
                    "step_intervals": len(clock.intervals), "eval_forwards": len(eval_s),
                    "optimizer_steps": steps},
    }
    if tracer is not None:
        out["per_layer"] = per_layer(layers, setup_layers, steps, tracer.tape_bytes,
                                     faults_train)
    return out


def per_layer(layers: dict, setup_layers: list[dict], steps: int, tape_bytes: list[int],
              faults_train: int) -> dict:
    """Per-layer metrics, per optimizer step unless noted."""
    def get(key, field):
        return layers.get(key, [0, 0.0, 0.0])[field]

    def ms(key, field=1):
        return (1e3 * get(key, field) / steps, "ms")

    def per_setup(keys):
        return (1e3 * statistics.median(
            sum(s.get(k, [0, 0.0, 0.0])[1] for k in keys) for s in setup_layers), "ms")

    return {
        "graph.laplacian_apply_calls": (get("graph.laplacian_apply", 0) / steps, "count"),
        "graph.laplacian_apply_ms": ms("graph.laplacian_apply"),
        "graph.build_graph_ms": per_setup(["graph.build_graph"]),
        "autodiff.cg_solve_ms": ms("autodiff.cg_solve"),
        "autodiff.cg_solve_self_ms": ms("autodiff.cg_solve", 2),
        "autodiff.cg_adjoint_ms": ms("autodiff.cg_adjoint"),
        "autodiff.cg_adjoint_self_ms": ms("autodiff.cg_adjoint", 2),
        "autodiff.segment_softmax_ms": ms("autodiff.segment_softmax"),
        "autodiff.fixed_sparse_matmul_ms": ms("autodiff.fixed_sparse_matmul"),
        "autodiff.fixed_sparse_matmul_calls": (get("autodiff.fixed_sparse_matmul", 0) / steps,
                                               "count"),
        "autodiff.matmul_ms": ms("autodiff.matmul"),
        "autodiff.backward_ms": ms("autodiff.backward"),
        "autodiff.tape_records": (get("autodiff.tape_records", 0) / steps, "count"),
        "autodiff.tape_mb": (statistics.median(tape_bytes) / 2 ** 20, "MB"),
        "operators.edge_velocities_ms": ms("operators.edge_velocities"),
        "operators.edge_velocities_self_ms": ms("operators.edge_velocities", 2),
        "operators.advect_ms": ms("operators.advect"),
        "operators.diffuse_ms": ms("operators.diffuse"),
        "operators.diffuse_self_ms": ms("operators.diffuse", 2),
        "operators.react_ms": ms("operators.react"),
        "models.forward_train_ms": ms("models.forward_train"),
        "models.input_embedding_ms": ms("models.input_embedding"),
        "training.adamw_step_ms": ms("training.adamw_step"),
        "training.loss_ms": ms("training.loss"),
        "data.setup_ms": per_setup(["data.make_windows", "data.generate_splits",
                                    "data.normalize_series"]),
        "memory.minor_faults_train_step": (faults_train / steps, "count"),
        "memory.minor_faults_eval_forward": (
            get("memory.tape_free_forward", 1) / max(get("memory.tape_free_forward", 0), 1),
            "count"),
    }
