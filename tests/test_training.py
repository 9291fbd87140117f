from __future__ import annotations

import json
import math
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import adrgnn.autodiff as ad
from adrgnn.autodiff import Tape, Variable, backward
from adrgnn.data import (DatasetBundle, TemporalDataset, generate_splits,
                         make_planted_partition, make_transport_task)
from adrgnn.graph import build_graph, dirichlet_energy, erdos_renyi
from adrgnn.models import (AdrGnnStatic, AdrGnnTemporal, GcnBaseline, SparseFeatures,
                           broadcast_time_embedding, time_embedding)
from adrgnn.training import (GROUPS, LOSSES, AdamW, Metrics, TrainConfig, TrainingDiverged,
                             _binary_roc_auc, ablation_study, aggregate_metrics, classification_metrics,
                             depth_energy_study, evaluate, evaluate_temporal, model_input,
                             regression_metrics, train_gcn_baseline,
                             train_node_classification, train_step, train_temporal,
                             transport_fit)
from adrgnn.runtime import SeedStream, default_dtype, philox, set_default_dtype


def flat_cfg(**kwargs) -> TrainConfig:
    base = dict(
        lr={g: 1e-2 for g in GROUPS},
        weight_decay={g: 0.0 for g in GROUPS},
        dropout_io=0.0, dropout_hidden=0.0,
        epochs=60, patience=30, layers=2, hidden=8, h=1.0, seed=0)
    base.update(kwargs)
    return TrainConfig(**base)


def separable_bundle(seed=0, n=24) -> DatasetBundle:
    """Features alone identify the class: an MLP suffices."""
    gen = philox(seed)
    labels = np.array([i % 2 for i in range(n)])
    features = np.where(labels[:, None] == 1, 3.0, -3.0) + 0.1 * gen.standard_normal((n, 2))
    graph = erdos_renyi(n, 0.3, seed=seed)
    splits = generate_splits(n, (0.5, 0.25, 0.25), k=1, seed=seed, labels=labels,
                             stratified=True)
    return DatasetBundle(graph=graph, features=features, labels=labels,
                         splits=splits, name="separable")


class _ReferenceAdamW:
    """Per-parameter AdamW, one parameter at a time in group order: the
    arithmetic the flat-buffer optimizer must reproduce element for element."""

    def __init__(self, groups, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
        self.groups, self.lr, self.weight_decay = groups, lr, weight_decay
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = {id(p): np.zeros_like(p.value) for ps in groups.values() for p in ps}
        self.v = {id(p): np.zeros_like(p.value) for ps in groups.values() for p in ps}

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, params in self.groups.items():
            lr = self.lr[name]
            wd = self.weight_decay[name]
            for p in params:
                g = p.grad
                m, v = self.m[id(p)], self.v[id(p)]
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                v += (1.0 - self.beta2) * g * g
                update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
                if wd:
                    p.value -= lr * wd * p.value
                p.value -= lr * update


def _reference_roc_auc(scores, labels):
    """Rank-sum AUC with tie ranks averaged by a scan over the sorted scores."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    ranks[order] = np.arange(1, len(scores) + 1)
    sorted_scores = scores[order]
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        if j > i:
            ranks[order[i:j + 1]] = (i + 1 + j + 1) / 2.0
        i = j + 1
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


class TestAdamW:
    def test_zero_gradient_zero_decay_no_motion(self):
        p = Variable(np.array([1.0, -2.0]), requires_grad=True, name="p")
        opt = AdamW({"g": [p]}, {"g": 0.1}, {"g": 0.0})
        opt.step()
        np.testing.assert_array_equal(p.value, [1.0, -2.0])

    def test_first_step_is_learning_rate(self):
        p = Variable(np.array([0.0]), requires_grad=True, name="p")
        opt = AdamW({"g": [p]}, {"g": 0.1}, {"g": 0.0})
        p.grad[...] = 1.0
        opt.step()
        assert p.value[0] == pytest.approx(-0.1, rel=1e-6)

    def test_decoupled_decay_shrinks_parameter(self):
        p = Variable(np.array([2.0]), requires_grad=True, name="p")
        opt = AdamW({"g": [p]}, {"g": 0.1}, {"g": 0.01})
        opt.step()
        assert p.value[0] == pytest.approx(2.0 * (1 - 0.1 * 0.01))

    def test_nonfinite_gradient_names_parameter(self):
        p = Variable(np.array([0.0]), requires_grad=True, name="theta.bad")
        opt = AdamW({"g": [p]}, {"g": 0.1}, {"g": 0.0})
        p.grad[...] = np.nan
        with pytest.raises(TrainingDiverged, match="theta.bad"):
            opt.step()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_flat_buffers_match_per_parameter_reference_bit_for_bit(self, dtype):
        previous = default_dtype().name
        set_default_dtype(dtype)
        try:
            def make_groups():
                gen = philox(31)
                return {name: [Variable(gen.standard_normal(shape), requires_grad=True,
                                        name=f"{name}.{i}") for i, shape in enumerate(shapes)]
                        for name, shapes in (("decayed", [(3, 4), (4,)]),
                                             ("plain", [(2,), (5, 2), (1,)]),
                                             ("frozen", [(3,)]))}

            lr = {"decayed": 0.03, "plain": 0.01, "frozen": 0.0}
            wd = {"decayed": 5e-3, "plain": 0.0, "frozen": 0.0}
            flat, ref = make_groups(), make_groups()
            opt, oracle = AdamW(flat, lr, wd), _ReferenceAdamW(ref, lr, wd)
            for step in range(4):
                gen = philox(100 + step)
                for a, b in zip(*(sum(g.values(), []) for g in (flat, ref))):
                    a.grad[...] = gen.standard_normal(a.shape).astype(dtype)
                    b.grad = a.grad.copy()
                opt.step()
                oracle.step()
                for a, b in zip(*(sum(g.values(), []) for g in (flat, ref))):
                    assert a.value.dtype == np.dtype(dtype)
                    assert a.value.tobytes() == b.value.tobytes(), (step, a.name)
                for got, want in ((opt._m, oracle.m), (opt._v, oracle.v)):
                    assert got.tobytes() == np.concatenate(
                        [m.ravel() for m in want.values()]).tobytes()
        finally:
            set_default_dtype(previous)

    def test_nonfinite_gradient_changes_nothing_and_names_first_parameter(self):
        params = [Variable(np.full(2, float(i)), requires_grad=True, name=f"p{i}")
                  for i in range(4)]
        opt = AdamW({"a": params[:2], "b": params[2:]}, {"a": 0.1, "b": 0.1},
                    {"a": 0.01, "b": 0.0})
        for p in params:
            p.grad[...] = 1.0
        opt.step()
        before = [p.value.copy() for p in params], opt._m.copy(), opt._v.copy(), opt.t
        params[1].grad[...] = 1.0
        params[1].grad[0] = np.inf
        params[3].grad[1] = np.nan
        with pytest.raises(TrainingDiverged, match="'p1'"):
            opt.step()
        for p, value in zip(params, before[0]):
            assert np.array_equal(p.value, value)
        assert np.array_equal(opt._m, before[1]) and np.array_equal(opt._v, before[2])
        assert opt.t == before[3]

    def test_overflowing_squared_gradient_changes_nothing_and_names_parameter(self):
        # a finite gradient above about 1.3e154 would make v infinite, and the
        # parameter would never move again
        params = [Variable(np.ones(2), requires_grad=True, name=f"p{i}") for i in range(3)]
        opt = AdamW({"g": params}, {"g": 0.1}, {"g": 0.0})
        for p in params:
            p.grad[...] = 1.0
        params[1].grad[0] = 1e160
        params[2].grad[1] = 1e200
        with pytest.raises(TrainingDiverged, match=r"^gradient of parameter 'p1' is not "
                                                   r"finite or overflows when squared$"):
            opt.step()
        assert all(np.array_equal(p.value, np.ones(2)) for p in params)
        assert not opt._m.any() and not opt._v.any() and opt.t == 0

    def test_group_missing_from_a_table_rejected(self):
        p = Variable(np.ones(2), requires_grad=True, name="p")
        q = Variable(np.ones(2), requires_grad=True, name="q")
        groups = {"a": [p], "b": [q]}
        with pytest.raises(ValueError, match=r"^AdamW: lr has no entry for group\(s\) \['b'\]$"):
            AdamW(groups, {"a": 0.1}, {"a": 0.0, "b": 0.0})
        with pytest.raises(ValueError, match=r"weight_decay has no entry .*\['a'\]$"):
            AdamW(groups, {"a": 0.1, "b": 0.1}, {"b": 0.0})

    @staticmethod
    def _decayed(dtype):
        """An optimizer after one nonzero gradient and then 20,000 exactly
        zero ones: m *= beta1 takes the first moment into the subnormal
        range, where it would stick (0.9 times the smallest subnormal
        rounds back to it)."""
        previous = default_dtype().name
        set_default_dtype(dtype)
        try:
            p = Variable(np.array([1.0, -2.0, 0.5]), requires_grad=True, name="p")
        finally:
            set_default_dtype(previous)
        opt = AdamW({"g": [p]}, {"g": 0.1}, {"g": 0.01})
        p.grad[...] = [1e-3, -1.0, 0.0]
        opt.step()
        opt.zero_grad()
        for _ in range(20_000):
            opt.step()
        return p, opt

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_no_moment_stays_subnormal(self, dtype):
        _p, opt = self._decayed(dtype)
        tiny = np.finfo(dtype).tiny
        for moment in (opt._m, opt._v):
            assert moment.dtype == np.dtype(dtype)
            assert np.all((moment == 0.0) | (np.abs(moment) >= tiny))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_parameter_at_zero_stays_zero(self, dtype):
        # a subnormal moment would move a parameter at exactly 0.0 to a
        # subnormal value of the other sign
        p, opt = self._decayed(dtype)
        p.value[...] = 0.0
        for _ in range(AdamW.FLUSH_EVERY):
            opt.step()
        assert np.all(p.value == 0.0) and not np.signbit(p.value).any()

    def test_parameter_listed_twice_rejected(self):
        p = Variable(np.ones(2), requires_grad=True, name="p")
        with pytest.raises(ValueError, match="more than once"):
            AdamW({"a": [p], "b": [p]}, {"a": 0.1, "b": 0.1}, {"a": 0.0, "b": 0.0})

    def test_mixed_dtypes_rejected(self):
        # one pair of flat moment buffers has one dtype
        a = Variable(np.ones(2), requires_grad=True, name="a")
        b = Variable(np.ones(2), requires_grad=True, name="b")
        b.value = b.value.astype(np.float32)
        with pytest.raises(ValueError, match="mixed dtypes"):
            AdamW({"g": [a, b]}, {"g": 0.1}, {"g": 0.0})

    def test_no_parameters_steps(self):
        opt = AdamW({}, {}, {})
        opt.step()
        opt.zero_grad()
        assert opt.t == 1
        p = Variable(np.array([2.0]), requires_grad=True, name="p")
        opt = AdamW({"empty": [], "g": [p]}, {"empty": 0.1, "g": 0.1},
                    {"empty": 0.01, "g": 0.01})
        opt.step()
        assert p.value[0] == 2.0 * (1 - 0.1 * 0.01) and opt.t == 1

    def test_parameters_become_views_of_the_flat_buffers(self):
        params = [Variable(np.full(shape, float(i)), requires_grad=True, name=f"p{i}")
                  for i, shape in enumerate([(2, 3), (4,), ()])]
        params[1].grad[...] = [1.0, -2.0, 3.0, -4.0]  # accumulated before construction
        opt = AdamW({"a": params[1:], "b": params[:1]}, {"a": 0.1, "b": 0.1},
                    {"a": 0.0, "b": 0.0})
        for p, shape, fill in zip(params, [(2, 3), (4,), ()], [0.0, 1.0, 2.0]):
            assert p.value.shape == p.grad.shape == shape
            assert np.shares_memory(p.value, opt._values)
            assert np.shares_memory(p.grad, opt._grad)
            assert np.all(p.value == fill)
        np.testing.assert_array_equal(params[1].grad, [1.0, -2.0, 3.0, -4.0])
        assert not params[0].grad.any() and not params[2].grad.any()
        opt.step()
        # the first step moves each coordinate by lr against its gradient's sign
        np.testing.assert_allclose(params[1].value, [0.9, 1.1, 0.9, 1.1], rtol=1e-6)
        assert np.all(params[0].value == 0.0) and params[2].value == 2.0

    def test_zero_grad_clears_all_groups(self):
        a = Variable(np.ones(2), requires_grad=True, name="a")
        b = Variable(np.ones(2), requires_grad=True, name="b")
        opt = AdamW({"x": [a], "y": [b]}, {"x": 0.1, "y": 0.1}, {"x": 0, "y": 0})
        a.grad[...] = 3.0
        b.grad[...] = 4.0
        opt.zero_grad()
        assert a.grad.max() == 0 and b.grad.max() == 0


class TestMetrics:
    def test_rmse_squares_to_mse(self):
        gen = philox(0)
        m = regression_metrics(gen.standard_normal((10, 2)), gen.standard_normal((10, 2)))
        assert m.rmse ** 2 == pytest.approx(m.mse, abs=1e-12)

    def test_mape_excludes_and_counts_zero_targets(self):
        pred = np.array([[1.0], [2.0], [3.0]])
        target = np.array([[0.0], [4.0], [6.0]])
        m = regression_metrics(pred, target)
        assert m.mape_excluded == 1
        assert m.mape == pytest.approx(0.5)

    def test_perfect_and_all_wrong_predictors(self):
        labels = np.array([0, 1, 0, 1])
        perfect = np.eye(2)[labels] * 10
        assert classification_metrics(perfect, labels, np.ones(4, bool)).accuracy == 1.0
        wrong = np.eye(2)[1 - labels] * 10
        assert classification_metrics(wrong, labels, np.ones(4, bool)).accuracy == 0.0

    def test_argmax_ties_take_lowest_class(self):
        logits = np.zeros((3, 4))
        m = classification_metrics(logits, np.zeros(3, dtype=int), np.ones(3, bool))
        assert m.accuracy == 1.0

    def test_roc_auc_perfect_ordering(self):
        logits = np.array([[0.0, 3.0], [0.0, 2.0], [2.0, 0.0], [3.0, 0.0]])
        labels = np.array([1, 1, 0, 0])
        m = classification_metrics(logits, labels, np.ones(4, bool))
        assert m.roc_auc == 1.0

    @pytest.mark.parametrize("kind", ["untied", "tied", "all_tied", "signed_zeros"])
    def test_roc_auc_tie_ranks_match_loop_bit_for_bit(self, kind):
        gen = philox(70)
        scores = {"untied": gen.standard_normal(41),
                  "tied": gen.integers(-3, 4, 41).astype(float) * 0.1,
                  "all_tied": np.full(41, 0.25),
                  "signed_zeros": np.where(gen.random(41) < 0.5, 0.0, -0.0)}[kind]
        for seed in range(5):
            labels = philox(seed).integers(0, 2, 41)
            got = _binary_roc_auc(scores, labels)
            want = _reference_roc_auc(scores, labels)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_aggregate_mean_std(self):
        summary = aggregate_metrics([Metrics(accuracy=0.8), Metrics(accuracy=0.6)])
        mean, std = summary["accuracy"]
        assert mean == pytest.approx(0.7) and std == pytest.approx(0.1)


class TestConfig:
    def test_round_trip(self):
        cfg = flat_cfg()
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            TrainConfig.from_dict({"learning_rate": 0.1})

    @pytest.mark.parametrize("key, value", [
        ("layers", "2"), ("layers", True), ("epochs", 1.5), ("h", "1"), ("h", False),
        ("use_batchnorm", 1), ("loss", 3), ("lr", 0.01), ("lr", [0.01]),
        ("weight_decay", {grp: "0" for grp in GROUPS})])
    def test_wrongly_typed_field_rejected_by_name(self, key, value):
        with pytest.raises(ValueError, match=rf"^config {key} must be "):
            TrainConfig.from_dict({key: value})

    def test_ints_count_as_floats(self):
        cfg = TrainConfig.from_dict({"h": 1, "dropout_io": 0, "lr": {g: 1 for g in GROUPS}})
        assert cfg.h == 1 and cfg.lr["embedding"] == 1

    def test_out_of_range_warns_not_raises(self, caplog):
        cfg = flat_cfg(layers=3)  # not a documented depth choice
        with caplog.at_level("WARNING"):
            problems = cfg.validate()
        assert problems and "layers" in problems[0]
        with caplog.at_level("WARNING"):
            problems = flat_cfg(loss="mea").validate()
        assert problems == [f"loss='mea' not in {LOSSES}"]
        for loss in LOSSES:
            assert flat_cfg(loss=loss).validate() == []


class TestShippedConfigs:
    """Every file under configs/ loads, is in range, and trains the loss
    its task needs; an unread or out-of-range key fails here."""

    CONFIGS = Path(__file__).resolve().parent.parent / "configs"
    LOSS_BY_CONFIG = {"cora": ("cross_entropy",), "chameleon": ("cross_entropy",),
                      "chickenpox": ("mse", "mae"), "pedalme": ("mse", "mae")}

    def test_every_config_is_classified(self):
        shipped = {p.stem for p in self.CONFIGS.glob("*.json")}
        assert shipped == set(self.LOSS_BY_CONFIG)

    @pytest.mark.parametrize("name", sorted(LOSS_BY_CONFIG))
    def test_config_loads_in_range_with_its_task_loss(self, name):
        data = json.loads((self.CONFIGS / f"{name}.json").read_text())
        cfg = TrainConfig.from_dict(data)
        assert cfg.validate() == []
        assert cfg.loss in self.LOSS_BY_CONFIG[name]


class TestNodeClassification:
    def test_separable_fixture_reaches_full_accuracy(self):
        result = train_node_classification(separable_bundle(), flat_cfg(epochs=200))
        assert result.metrics.accuracy == 1.0
        assert result.best_epoch < 200

    def test_initial_loss_near_log_n_classes(self):
        bundle = make_planted_partition(40, 4, 0.2, 0.05, feat_dim=6, noise=1.0, seed=3)
        from adrgnn.models import AdrGnnStatic
        model = AdrGnnStatic.init(6, 4, hidden=8, layers=2, h=1.0, seed=0)
        logits = model.forward(bundle.graph, bundle.features)
        loss = float(ad.cross_entropy(logits, bundle.labels, bundle.splits[0][0]).value)
        assert abs(loss - math.log(4)) / math.log(4) < 0.2

    def test_label_mask_invariance(self):
        """Perturbing a non-train node's label never changes the training
        loss (features may matter through message passing; labels cannot)."""
        bundle = separable_bundle(seed=5)
        train_mask = bundle.splits[0][0]
        from adrgnn.models import AdrGnnStatic
        model = AdrGnnStatic.init(2, 2, hidden=8, layers=2, h=1.0, seed=1)
        logits = model.forward(bundle.graph, bundle.features)
        base = float(ad.cross_entropy(logits, bundle.labels, train_mask).value)
        tampered = bundle.labels.copy()
        non_train = np.flatnonzero(~train_mask)
        tampered[non_train] = 1 - tampered[non_train]
        after = float(ad.cross_entropy(logits, tampered, train_mask).value)
        assert base == after

    def test_two_runs_identical(self):
        bundle = separable_bundle(seed=6)
        cfg = flat_cfg(epochs=30, dropout_io=0.2, dropout_hidden=0.2)
        a = train_node_classification(bundle, cfg)
        b = train_node_classification(bundle, cfg)
        assert a.metrics.accuracy == b.metrics.accuracy
        assert [h["train_loss"] for h in a.history] == [h["train_loss"] for h in b.history]

    def test_early_stopping_returns_logged_maximum(self):
        bundle = separable_bundle(seed=7)
        result = train_node_classification(bundle, flat_cfg(epochs=80, patience=15))
        logged_best = max(h["val_accuracy"] for h in result.history)
        assert result.val_metrics.accuracy == logged_best

    def test_regression_loss_rejected(self):
        with pytest.raises(ValueError, match="loss='mse'"):
            train_node_classification(separable_bundle(seed=8), flat_cfg(loss="mse"))

    def test_empty_train_mask_rejected(self):
        bundle = separable_bundle(seed=8)
        n = bundle.graph.n_nodes
        bundle.splits = [(np.zeros(n, bool), np.ones(n, bool), np.zeros(n, bool))]
        with pytest.raises(ValueError, match="empty train mask"):
            train_node_classification(bundle, flat_cfg())

    def test_divergence_aborts_with_diagnostic(self):
        bundle = separable_bundle(seed=9)
        bundle.features = bundle.features * 1e150  # overflow quickly
        cfg = flat_cfg(epochs=10)
        cfg.lr = {g: 1e30 for g in GROUPS}
        with pytest.raises(TrainingDiverged):
            train_node_classification(bundle, cfg)

    def test_evaluate_deterministic(self):
        bundle = separable_bundle(seed=10)
        result = train_node_classification(bundle, flat_cfg(epochs=20))
        first = evaluate(result.model, bundle, 0, "test")
        second = evaluate(result.model, bundle, 0, "test")
        assert first.to_dict() == second.to_dict()


def _serial_classifier_loop(model, bundle: DatasetBundle, cfg: TrainConfig):
    """The classifier loop run serially: train step, then the validation
    forward, then the epoch's bookkeeping. Returns the history, the best
    epoch and the restored model."""
    g, x, labels = bundle.graph, bundle.features, bundle.labels
    train_mask, val_mask, _test_mask = bundle.splits[0]
    optimizer = AdamW(model.param_groups(), cfg.lr, cfg.weight_decay)
    stream = SeedStream(cfg.seed)
    history = []
    best = {"val": -np.inf, "epoch": -1, "snapshot": model.snapshot()}

    def build_loss():
        return ad.cross_entropy(model.forward(g, x, train=True, rng=stream), labels, train_mask)

    for epoch in range(cfg.epochs):
        loss_value = train_step(optimizer, build_loss, f"epoch {epoch}")
        logits = model.forward(g, x, train=False).value
        val_acc = classification_metrics(logits, labels, val_mask).accuracy
        history.append({"epoch": epoch, "train_loss": loss_value, "val_accuracy": val_acc})
        if val_acc > best["val"]:
            best = {"val": val_acc, "epoch": epoch, "snapshot": model.snapshot()}
        elif val_acc == best["val"]:
            best["snapshot"] = model.snapshot()
            if epoch - best["epoch"] >= cfg.patience:
                break
        elif epoch - best["epoch"] >= cfg.patience:
            break
    model.restore(**best["snapshot"])
    return history, best["epoch"], model


def _static_model(bundle: DatasetBundle, cfg: TrainConfig) -> AdrGnnStatic:
    return AdrGnnStatic.init(
        c_in=bundle.features.shape[1], c_out=bundle.n_classes, hidden=cfg.hidden,
        layers=cfg.layers, h=cfg.h, dropout_io=cfg.dropout_io,
        dropout_hidden=cfg.dropout_hidden, use_batchnorm=cfg.use_batchnorm,
        cg_iterations=cfg.cg_iterations, terms=cfg.terms, seed=cfg.seed)


def _gcn_model(bundle: DatasetBundle, cfg: TrainConfig) -> GcnBaseline:
    return GcnBaseline.init(c_in=bundle.features.shape[1], c_out=bundle.n_classes,
                            hidden=cfg.hidden, layers=cfg.layers, dropout=cfg.dropout_hidden,
                            seed=cfg.seed)


def _fingerprint(history, best_epoch, model):
    """History with losses in hex, the best epoch, and the bytes of every
    parameter and batch-norm statistic."""
    return ([(h["epoch"], float(h["train_loss"]).hex(), h["val_accuracy"]) for h in history],
            best_epoch,
            {n: p.value.tobytes() for n, p in model.named_parameters().items()},
            {n: a.tobytes() for n, a in model.extra_state().items()})


def _early_stopping_bundle() -> DatasetBundle:
    return make_planted_partition(48, 3, 0.3, 0.05, feat_dim=6, noise=1.5, seed=0, k_splits=1)


def _patch_forward(monkeypatch, train_call=None, eval_call=None):
    """Make AdrGnnStatic.forward raise FloatingPointError on its
    ``train_call``-th training-mode call or ``eval_call``-th evaluation-mode
    call, counting from 0; the classifier loop makes call e of each kind in
    epoch e."""
    forward = AdrGnnStatic.forward
    calls = {True: 0, False: 0}

    def failing(self, g, x, train=False, **kwargs):
        k = calls[train]
        calls[train] += 1
        if k == (train_call if train else eval_call):
            raise FloatingPointError("training pass" if train else "validation pass")
        return forward(self, g, x, train=train, **kwargs)

    monkeypatch.setattr(AdrGnnStatic, "forward", failing)


class TestEpochPipeline:
    """The classifier loop runs epoch e's validation forward on a helper
    thread, overlapped with epoch e+1's training pass; its results are those
    of the serial loop."""

    def test_dropout_model_matches_the_serial_loop(self):
        bundle = make_planted_partition(40, 3, 0.3, 0.05, feat_dim=6, noise=1.0, seed=3,
                                        k_splits=1)
        cfg = flat_cfg(epochs=25, dropout_io=0.3, dropout_hidden=0.2)
        result = train_node_classification(bundle, cfg)
        want = _fingerprint(*_serial_classifier_loop(_static_model(bundle, cfg), bundle, cfg))
        assert _fingerprint(result.history, result.best_epoch, result.model) == want

    def test_batchnorm_early_stop_matches_the_serial_loop(self):
        bundle = _early_stopping_bundle()
        cfg = flat_cfg(epochs=40, patience=3, use_batchnorm=True, dropout_io=0.2,
                       dropout_hidden=0.2)
        want = _fingerprint(*_serial_classifier_loop(_static_model(bundle, cfg), bundle, cfg))
        history, best_epoch = want[0], want[1]
        assert 0 < best_epoch < len(history) - 1 < cfg.epochs - 1  # stops mid-run
        for _ in range(3):
            result = train_node_classification(bundle, cfg)
            assert _fingerprint(result.history, result.best_epoch, result.model) == want

    def test_gcn_baseline_matches_the_serial_loop(self):
        bundle = make_planted_partition(40, 3, 0.3, 0.05, feat_dim=6, noise=1.0, seed=4,
                                        k_splits=1)
        cfg = flat_cfg(epochs=30, patience=4, dropout_hidden=0.3)
        result = train_gcn_baseline(bundle, cfg)
        want = _fingerprint(*_serial_classifier_loop(_gcn_model(bundle, cfg), bundle, cfg))
        assert _fingerprint(result.history, result.best_epoch, result.model) == want

    def test_validation_failure_names_its_epoch(self, monkeypatch):
        _patch_forward(monkeypatch, eval_call=3)
        with pytest.raises(TrainingDiverged, match=r"^epoch 3: validation pass$"):
            train_node_classification(separable_bundle(seed=11), flat_cfg(epochs=10))

    def test_validation_failure_wins_over_the_next_training_pass(self, monkeypatch):
        _patch_forward(monkeypatch, train_call=4, eval_call=3)
        with pytest.raises(TrainingDiverged, match=r"^epoch 3: validation pass$"):
            train_node_classification(separable_bundle(seed=11), flat_cfg(epochs=10))

    def test_training_failure_names_its_epoch(self, monkeypatch):
        _patch_forward(monkeypatch, train_call=4)
        with pytest.raises(TrainingDiverged, match=r"^epoch 4: training pass$"):
            train_node_classification(separable_bundle(seed=11), flat_cfg(epochs=10))

    def test_early_stop_wins_over_the_next_training_pass(self, monkeypatch):
        bundle = _early_stopping_bundle()
        cfg = flat_cfg(epochs=40, patience=3, use_batchnorm=True)
        clean = train_node_classification(bundle, cfg)
        assert len(clean.history) < cfg.epochs
        _patch_forward(monkeypatch, train_call=len(clean.history))
        stopped = train_node_classification(bundle, cfg)
        assert (_fingerprint(stopped.history, stopped.best_epoch, stopped.model)
                == _fingerprint(clean.history, clean.best_epoch, clean.model))

    def test_the_helper_thread_ends_with_the_loop(self, monkeypatch):
        before = threading.active_count()
        train_node_classification(separable_bundle(seed=12), flat_cfg(epochs=5))
        assert threading.active_count() == before
        result = train_node_classification(_early_stopping_bundle(),
                                           flat_cfg(epochs=40, patience=3))
        assert len(result.history) < 40
        assert threading.active_count() == before
        _patch_forward(monkeypatch, eval_call=2)
        with pytest.raises(TrainingDiverged):
            train_node_classification(separable_bundle(seed=12), flat_cfg(epochs=5))
        assert threading.active_count() == before


class TestOneForwardPerEpoch:
    """Each epoch runs one tape-free forward, its validation, and the final
    metrics come from the best epoch's validation logits."""

    def test_each_epoch_runs_one_tape_free_forward(self, monkeypatch):
        forward = AdrGnnStatic.forward
        modes = []

        def counting(self, g, x, train=False, **kwargs):
            modes.append(train)
            return forward(self, g, x, train=train, **kwargs)

        monkeypatch.setattr(AdrGnnStatic, "forward", counting)
        result = train_node_classification(separable_bundle(seed=13),
                                           flat_cfg(epochs=7, patience=100))
        assert len(result.history) == 7
        assert modes.count(False) == 7
        assert modes.count(True) == 7

    def test_metrics_equal_a_fresh_evaluation_after_an_early_stop(self):
        bundle = _early_stopping_bundle()
        result = train_node_classification(
            bundle, flat_cfg(epochs=40, patience=3, use_batchnorm=True, dropout_io=0.2))
        assert len(result.history) < 40
        assert evaluate(result.model, bundle) == result.metrics
        assert evaluate(result.model, bundle, 0, "val") == result.val_metrics


def _bag_of_words_bundle(seed=0, n=1100, vocab=1000) -> DatasetBundle:
    """Over 2^20 feature entries, about 1% nonzero: the CSR input path."""
    gen = philox(seed)
    labels = gen.integers(0, 3, n)
    on_topic = labels[:, None] * 50 + gen.integers(0, 50, (n, 10))
    words = np.where(gen.random((n, 10)) < 0.6, on_topic, gen.integers(0, vocab, (n, 10)))
    features = np.zeros((n, vocab))
    features[np.arange(n)[:, None], words] = 1.0
    splits = generate_splits(n, k=1, seed=seed, labels=labels, stratified=True)
    return DatasetBundle(graph=erdos_renyi(n, 4.0 / n, seed=seed), features=features,
                         labels=labels, splits=splits, name="bag-of-words")


class TestSparseInput:
    def test_bag_of_words_bundle_builds_its_csr_once(self):
        bundle = _bag_of_words_bundle()
        sparse = bundle.sparse_features()
        assert isinstance(sparse, SparseFeatures)
        assert bundle.sparse_features() is sparse
        np.testing.assert_array_equal(sparse.csr.toarray(), bundle.features)
        assert model_input(_static_model(bundle, flat_cfg()), bundle) is sparse
        assert model_input(_gcn_model(bundle, flat_cfg()), bundle) is bundle.features
        bundle.features = bundle.features.copy()
        assert bundle.sparse_features() is not sparse

    def test_dense_bundle_reads_its_dense_features(self):
        bundle = separable_bundle()
        assert bundle.sparse_features() is None
        assert model_input(_static_model(bundle, flat_cfg()), bundle) is bundle.features

    def test_evaluate_scores_what_training_scored(self, monkeypatch):
        bundle = _bag_of_words_bundle()
        result = train_node_classification(bundle, flat_cfg(epochs=3, dropout_io=0.2))
        forward, inputs = AdrGnnStatic.forward, []

        def recording(self, g, x, **kwargs):
            inputs.append(x)
            return forward(self, g, x, **kwargs)

        monkeypatch.setattr(AdrGnnStatic, "forward", recording)
        assert evaluate(result.model, bundle) == result.metrics
        assert evaluate(result.model, bundle, 0, "val") == result.val_metrics
        assert all(x is bundle.sparse_features() for x in inputs) and len(inputs) == 2

    def test_cached_input_follows_the_working_dtype(self):
        bundle = _bag_of_words_bundle()
        assert bundle.sparse_features().csr.dtype == np.float64
        previous = default_dtype().name
        set_default_dtype("float32")
        try:
            assert bundle.sparse_features().csr.dtype == np.float32
            result = train_node_classification(bundle, flat_cfg(epochs=1))
            assert result.model.g_in.w.value.dtype == np.float32
        finally:
            set_default_dtype(previous)
        assert bundle.sparse_features().csr.dtype == np.float64


class TestSplitAndEpochChecks:
    @pytest.mark.parametrize("index", [1, -1])
    def test_split_index_outside_the_bundle_rejected(self, index):
        bundle = separable_bundle(seed=14)  # one split
        message = rf"^split {index} out of range: the bundle has 1 split\(s\)$"
        with pytest.raises(ValueError, match=message):
            train_node_classification(bundle, flat_cfg(epochs=2), split_index=index)
        with pytest.raises(ValueError, match=message):
            evaluate(_static_model(bundle, flat_cfg()), bundle, index)

    @pytest.mark.parametrize("part", ["train", "val", "test"])
    def test_empty_split_part_rejected(self, part):
        bundle = separable_bundle(seed=14)
        masks = list(bundle.splits[0])
        masks[("train", "val", "test").index(part)] = np.zeros(bundle.graph.n_nodes, bool)
        bundle.splits = [tuple(masks)]
        message = f"^split 0 has an empty {part} mask$"
        with pytest.raises(ValueError, match=message):
            train_node_classification(bundle, flat_cfg(epochs=2))
        with pytest.raises(ValueError, match=message):
            train_gcn_baseline(bundle, flat_cfg(epochs=2))
        with pytest.raises(ValueError, match=message):
            evaluate(_static_model(bundle, flat_cfg()), bundle)

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_epochs_below_one_rejected(self, epochs):
        bundle = separable_bundle(seed=14)
        message = f"^epochs must be >= 1, got {epochs}$"
        for trainer in (train_node_classification, train_gcn_baseline):
            with pytest.raises(ValueError, match=message):
                trainer(bundle, flat_cfg(epochs=epochs))
        ds = TemporalDataset(graph=erdos_renyi(5, 0.8, seed=3),
                             series=philox(4).standard_normal((30, 5, 1)),
                             timestamps=np.arange(30, dtype=np.float64))
        with pytest.raises(ValueError, match=message):
            train_temporal(ds, flat_cfg(epochs=epochs, layers=1, hidden=4, loss="mse"))


class TestTrainStep:
    def test_steps_and_clears_the_gradients(self):
        p = Variable(np.array([1.0, -2.0]), requires_grad=True, name="p")
        opt = AdamW({"g": [p]}, {"g": 0.1}, {"g": 0.0})
        value = train_step(opt, lambda: ad.total_sum(ad.hadamard(p, p)), "here")
        assert value == 5.0
        np.testing.assert_allclose(p.value, [0.9, -1.9])
        np.testing.assert_array_equal(p.grad, 0.0)

    def test_failures_name_where(self):
        p = Variable(np.array([1.0]), requires_grad=True, name="p")
        opt = AdamW({"g": [p]}, {"g": 0.1}, {"g": 0.0})
        with pytest.raises(TrainingDiverged, match=r"^non-finite loss at here$"):
            train_step(opt, lambda: ad.total_sum(ad.hadamard(p, np.inf)), "here")

        def overflow():
            raise FloatingPointError("boom")

        with pytest.raises(TrainingDiverged, match=r"^here: boom$"):
            train_step(opt, overflow, "here")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_temporal_divergence_names_epoch_and_window(self):
        g = erdos_renyi(5, 0.8, seed=3)
        series = philox(4).standard_normal((30, 5, 1)) * 1e300
        ds = TemporalDataset(graph=g, series=series,
                             timestamps=np.arange(30, dtype=np.float64))
        with pytest.raises(TrainingDiverged, match=r"^non-finite loss at epoch 0, window 0$"):
            train_temporal(ds, flat_cfg(epochs=2, layers=1, hidden=4, loss="mse"))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("terms, message", [("A", r"^non-finite loss at step 0$"),
                                                ("D", r"^non-finite loss at step 0$")])
    def test_transport_divergence_names_the_step(self, terms, message):
        task = make_transport_task(5, 0.55, 2, seed=2)
        task = replace(task, source_features=task.source_features * 1e300)
        with pytest.raises(TrainingDiverged, match=message):
            transport_fit(task, terms, epochs=3, channels=2)


def _reference_train_temporal(ds: TemporalDataset, cfg: TrainConfig):
    """train_temporal with MSE loss, as a loop that copies every window and
    tiles every time embedding before its first step; returns the trained
    model and its metrics over the final 10% horizon."""
    series, tau_in, tau_out = ds.series, ds.tau_in, ds.tau_out
    frames, n, c = series.shape
    windows = [(series[t:t + tau_in].transpose(1, 0, 2).reshape(n, -1),
                series[t + tau_in:t + tau_in + tau_out].transpose(1, 0, 2).reshape(n, -1),
                broadcast_time_embedding(
                    time_embedding(ds.timestamps[t:t + tau_in], cfg.n_frequencies), n))
               for t in range(frames - tau_in - tau_out + 1)]
    horizon = math.ceil(0.9 * frames)
    train = [w for t, w in enumerate(windows) if t + tau_in + tau_out <= horizon]
    test = [w for t, w in enumerate(windows) if t + tau_in >= horizon]
    model = AdrGnnTemporal.init(
        c_in=c, c_out=c, hidden=cfg.hidden, layers=cfg.layers, h=cfg.h, tau_in=tau_in,
        tau_out=tau_out, n_frequencies=cfg.n_frequencies, dropout_io=cfg.dropout_io,
        dropout_hidden=cfg.dropout_hidden, use_batchnorm=cfg.use_batchnorm,
        cg_iterations=cfg.cg_iterations, seed=cfg.seed)
    optimizer = AdamW(model.param_groups(), cfg.lr, cfg.weight_decay)
    stream = SeedStream(cfg.seed)
    for _epoch in range(cfg.epochs):
        for x, y, emb in train:
            train_step(optimizer, lambda: ad.mse(
                model.forward(ds.graph, x, emb, train=True, rng=stream), y), "")
    preds = [model.forward(ds.graph, x, emb).value for x, _y, emb in test]
    return model, regression_metrics(np.concatenate(preds),
                                     np.concatenate([y for _x, y, _emb in test]))


class TestTemporal:
    def test_constant_series_learned_to_high_accuracy(self):
        g = erdos_renyi(8, 0.5, seed=1)
        series = np.full((16, 8, 1), 2.0)
        ds = TemporalDataset(graph=g, series=series,
                             timestamps=np.arange(16, dtype=np.float64))
        cfg = flat_cfg(epochs=200, layers=1, hidden=4, loss="mse",
                       lr={g_: 0.05 for g_ in GROUPS})
        result = train_temporal(ds, cfg)
        assert result.metrics.mse <= 1e-4

    def test_too_short_series_rejected(self):
        g = erdos_renyi(4, 0.9, seed=2)
        ds = TemporalDataset(graph=g, series=np.zeros((6, 4, 1)),
                             timestamps=np.arange(6, dtype=np.float64),
                             tau_in=4, tau_out=1)
        # only two windows, all of them straddle the 90% boundary
        with pytest.raises(ValueError, match="too short"):
            train_temporal(ds, flat_cfg(epochs=2, loss="mse"))

    def test_mae_loss_option(self):
        g = erdos_renyi(5, 0.8, seed=3)
        gen = philox(4)
        series = gen.standard_normal((30, 5, 1))
        ds = TemporalDataset(graph=g, series=series,
                             timestamps=np.arange(30, dtype=np.float64))
        result = train_temporal(ds, flat_cfg(epochs=2, layers=1, hidden=4, loss="mae"))
        assert result.metrics.mae is not None

    def test_unhonored_settings_rejected(self):
        g = erdos_renyi(5, 0.8, seed=3)
        ds = TemporalDataset(graph=g, series=philox(4).standard_normal((30, 5, 1)),
                             timestamps=np.arange(30, dtype=np.float64))
        with pytest.raises(ValueError, match="'cross_entropy'"):
            train_temporal(ds, flat_cfg(epochs=1, layers=1, hidden=4))
        with pytest.raises(ValueError, match="terms='AD'"):
            train_temporal(ds, flat_cfg(epochs=1, layers=1, hidden=4, loss="mse", terms="AD"))

    def test_evaluation_uses_the_model_time_embedding(self):
        g = erdos_renyi(5, 0.8, seed=3)
        ds = TemporalDataset(graph=g, series=philox(4).standard_normal((30, 5, 1)),
                             timestamps=np.arange(30, dtype=np.float64))
        result = train_temporal(ds, flat_cfg(epochs=1, layers=1, hidden=4, loss="mse",
                                             n_frequencies=3))
        assert evaluate_temporal(result.model, ds) == result.metrics

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_matches_a_loop_that_builds_every_window_up_front(self, dtype):
        """Windows built at their step, from views and one embedding table,
        train the parameters and score the metrics of a loop that copies
        every window and tiles every embedding before its first step."""
        ds = TemporalDataset(graph=erdos_renyi(6, 0.6, seed=5),
                             series=philox(6).standard_normal((40, 6, 2)),
                             timestamps=np.linspace(0.0, 97.0, 40), tau_in=3, tau_out=2)
        cfg = flat_cfg(epochs=2, layers=2, hidden=4, loss="mse", n_frequencies=3,
                       dropout_io=0.1, dropout_hidden=0.2)
        previous = default_dtype().name
        set_default_dtype(dtype)
        try:
            result = train_temporal(ds, cfg)
            model, metrics = _reference_train_temporal(ds, cfg)
            assert evaluate_temporal(result.model, ds) == result.metrics
        finally:
            set_default_dtype(previous)
        got, want = result.model.named_parameters(), model.named_parameters()
        assert got.keys() == want.keys()
        for name, p in got.items():
            assert p.value.dtype == np.dtype(dtype)
            assert p.value.tobytes() == want[name].value.tobytes(), name
        assert result.metrics == metrics

    def test_memory_grows_with_the_series_not_with_windows_times_embedding(self):
        """Four times the frames add a few times the added frames' own bytes
        (their series values and time-embedding rows). A copied window or a
        tiled embedding per window adds n * tau_in * 2F values per frame."""
        n, n_frequencies = 20, 10
        cfg = flat_cfg(epochs=1, layers=1, hidden=4, loss="mse", n_frequencies=n_frequencies)

        def peak(frames: int) -> int:
            ds = TemporalDataset(graph=erdos_renyi(n, 0.3, seed=1),
                                 series=philox(2).standard_normal((frames, n, 1)),
                                 timestamps=np.arange(frames, dtype=np.float64))
            tracemalloc.start()
            try:
                train_temporal(ds, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(40)  # warm-up
        small, large = peak(60), peak(240)
        frame_bytes = (n + 2 * n_frequencies) * 8
        assert large - small < 4 * (240 - 60) * frame_bytes

    def test_config_validated(self, caplog):
        g = erdos_renyi(5, 0.8, seed=3)
        series = philox(4).standard_normal((30, 5, 1))
        ds = TemporalDataset(graph=g, series=series,
                             timestamps=np.arange(30, dtype=np.float64))
        with caplog.at_level("WARNING"), pytest.raises(ValueError, match="'mea'"):
            train_temporal(ds, flat_cfg(epochs=1, layers=1, hidden=4, loss="mea"))
        assert f"config: loss='mea' not in {LOSSES}" in caplog.messages


class TestTransportFit:
    @pytest.fixture(scope="class")
    def task(self):
        return make_transport_task(5, 0.55, 2, seed=2)

    def test_advection_reaches_near_exact_fit(self, task):
        result = transport_fit(task, "A", layers=4, h=1.0, lr=0.05, epochs=800,
                               seed=0, channels=8)
        assert result.final_mse <= 1e-4

    def test_advection_conserves_mass_at_every_logged_step(self, task):
        result = transport_fit(task, "A", layers=4, h=1.0, lr=0.05, epochs=100,
                               seed=0, channels=8)
        for point in result.trace:
            assert point["mass"] == pytest.approx(1.0, abs=1e-9)

    def test_diffusion_and_reaction_cannot_fit(self, task):
        for terms in ("D", "R"):
            result = transport_fit(task, terms, layers=4, h=1.0, lr=0.05, epochs=300,
                                   seed=0, channels=8)
            assert result.final_mse >= 1e-2

    @pytest.mark.parametrize("terms", ["R", "D", "DR", "A"])
    def test_step_size_outside_the_unit_interval_rejected(self, task, terms):
        for h in (3.0, 0.0):
            with pytest.raises(ValueError, match="outside"):
                transport_fit(task, terms, layers=1, h=h, epochs=1, channels=2)

    def test_reaction_preserves_equal_rows(self, task):
        """A pointwise-only model maps nodes with identical inputs to
        identical outputs, so their ranking can never change."""
        result = transport_fit(task, "R", layers=3, h=1.0, lr=0.05, epochs=50,
                               seed=0, channels=4)
        values = result.node_values[:, 0]
        zero_rows = np.flatnonzero(task.source_features[:, 0] == 0.0)
        assert np.ptp(values[zero_rows]) == 0.0


class TestStudies:
    @pytest.fixture(scope="class")
    def bundle(self):
        return make_planted_partition(36, 3, 0.35, 0.03, feat_dim=5, noise=0.8,
                                      seed=11, k_splits=2)

    def test_ablation_rows_and_order(self, bundle):
        cfg = flat_cfg(epochs=25, patience=25, layers=2, hidden=8)
        rows = ablation_study(bundle, ["A", "ADR"], cfg, split_indices=[0])
        assert [r["terms"] for r in rows] == ["A", "ADR"]
        assert all("accuracy" in r["summary"] for r in rows)

    def test_ablation_empty_subset_rejected(self, bundle):
        with pytest.raises(ValueError, match="empty"):
            ablation_study(bundle, [""], flat_cfg(epochs=1))

    def test_depth_energy_study_rows(self, bundle):
        cfg = flat_cfg(epochs=10, patience=10, layers=2, hidden=8)
        rows = depth_energy_study(bundle, [2], cfg)
        kinds = {r["model"] for r in rows}
        assert kinds == {"adr", "gcn"}
        for r in rows:
            assert r["relative_energy"][0] == pytest.approx(1.0)
            assert len(r["relative_energy"]) == 3  # embedding plus two layers

    def test_depth_energy_study_relative_energy_is_the_ratio_to_stage_zero(self, bundle):
        cfg = flat_cfg(epochs=3, patience=3, layers=2, hidden=8)
        for r in depth_energy_study(bundle, [2], cfg):
            assert r["energies"][0] > 0
            assert r["relative_energy"] == [e / r["energies"][0] for e in r["energies"]]

    def test_depth_energy_study_zero_energy_base(self):
        """Without edges every stage has zero energy; the relative energies
        are those zeros, not a division by zero."""
        edgeless = make_planted_partition(24, 2, 0.0, 0.0, feat_dim=3, noise=1.0,
                                          seed=5, k_splits=1)
        assert edgeless.graph.n_edges == 0
        cfg = flat_cfg(epochs=2, patience=2, layers=2, hidden=4)
        for r in depth_energy_study(edgeless, [2], cfg):
            assert r["energies"] == r["relative_energy"] == [0.0, 0.0, 0.0]

    def test_depth_energy_study_runs_the_trained_terms(self, bundle):
        cfg = flat_cfg(epochs=5, patience=5, layers=2, hidden=8, terms="A")
        row = next(r for r in depth_energy_study(bundle, [2], cfg) if r["model"] == "adr")
        model = train_node_classification(bundle, cfg).model
        _logits, stages = model.forward(bundle.graph, bundle.features, terms="A",
                                        diagnostics=True)
        assert row["energies"] == [dirichlet_energy(bundle.graph, s.value) for s in stages]

    def test_deep_convolution_oversmooths_where_adr_does_not(self):
        """Trained at depth 64 on a citation-like fixture, the convolution
        baseline's final-layer relative Dirichlet energy falls below 1e-2
        while the three-term model's stays above it (thresholds pinned from
        recorded runs of this fixture: 6.8e-4 vs 1.9e27)."""
        bundle = make_planted_partition(60, 3, 0.25, 0.03, feat_dim=8, noise=1.0, seed=7)
        cfg = flat_cfg(epochs=60, patience=60, layers=64, hidden=16)
        rows = depth_energy_study(bundle, [64], cfg)
        rel = {r["model"]: r["relative_energy"][-1] for r in rows}
        assert rel["gcn"] < 1e-2
        assert rel["adr"] >= 1e-2
