from __future__ import annotations

import json

import numpy as np
import pytest

import adrgnn.autodiff as ad
from adrgnn.autodiff import Variable
from adrgnn.graph import build_graph, dirichlet_energy, erdos_renyi
from adrgnn.models import (AdrGnnStatic, AdrGnnTemporal, GcnBaseline,
                           broadcast_time_embedding, build_model, count_parameters,
                           load_checkpoint, save_checkpoint, static_parameter_count,
                           time_embedding, time_embedding_table)
from adrgnn.operators import advect, diffuse, edge_velocities, react
from adrgnn.runtime import SeedStream, philox
from adrgnn.training import GROUPS, AdamW, train_step


def small_model(kind: str, use_batchnorm: bool = False):
    """A small model of each kind, with inputs for a 7-node graph."""
    if kind == "static":
        model = AdrGnnStatic.init(c_in=3, c_out=2, hidden=4, layers=2, h=0.5,
                                  use_batchnorm=use_batchnorm, seed=1)
        return model, (philox(2).standard_normal((7, 3)),)
    if kind == "temporal":
        model = AdrGnnTemporal.init(c_in=1, c_out=1, hidden=4, layers=2, h=0.5, tau_in=2,
                                    tau_out=1, n_frequencies=2,
                                    use_batchnorm=use_batchnorm, seed=3)
        t_emb = broadcast_time_embedding(time_embedding([0.0, 1.0], 2), 7)
        return model, (philox(2).standard_normal((7, 2)), t_emb)
    return GcnBaseline.init(c_in=3, c_out=2, hidden=4, layers=2, seed=1), (
        philox(2).standard_normal((7, 3)),)


def relabel(graph, perm):
    """Graph with node i renamed perm[i]."""
    edges = np.stack([perm[graph.edge_src], perm[graph.edge_dst]], axis=1)
    return build_graph(edges, graph.n_nodes, symmetrize=False)


class TestStaticForward:
    def test_shapes_and_determinism(self):
        g = erdos_renyi(9, 0.5, seed=0)
        model = AdrGnnStatic.init(c_in=4, c_out=3, hidden=8, layers=2, h=0.5, seed=1)
        x = philox(2).standard_normal((9, 4))
        a = model.forward(g, x).value
        b = model.forward(g, x).value
        assert a.shape == (9, 3)
        assert np.array_equal(a, b)  # bit-identical evaluation

    def test_identity_layers_reduce_to_head_composition(self):
        """Zero reaction, zero diffusion, constant features on a regular
        graph: the layer is a uniform-velocity advection that leaves
        constants unchanged, so the model is g_out(g_in(x))."""
        g = build_graph([(i, (i + 1) % 7) for i in range(7)], 7)  # 2-regular
        model = AdrGnnStatic.init(c_in=2, c_out=2, hidden=4, layers=1, h=1.0, seed=4)
        model.g_in.w.value[...] = 0.0
        model.g_in.b.value[...] = 1.3  # constant embedding
        layer = model.layers[0]
        layer.diffusion.theta.value[...] = -1.0
        for lin in (layer.reaction.r1, layer.reaction.r2, layer.reaction.r3):
            lin.w.value[...] = 0.0
            lin.b.value[...] = 0.0
        x = philox(5).standard_normal((7, 2))
        out = model.forward(g, x).value
        u0 = np.full((7, 4), 1.3)
        expected = u0 @ model.g_out.w.value + model.g_out.b.value
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_matches_manual_stage_composition(self):
        g = erdos_renyi(5, 0.7, seed=6)
        model = AdrGnnStatic.init(c_in=3, c_out=2, hidden=4, layers=2, h=0.6,
                                  cg_iterations=30, seed=7)
        x = philox(8).standard_normal((5, 3))
        out = model.forward(g, x).value

        u = ad.add(ad.matmul(Variable(x), model.g_in.w), model.g_in.b)
        u0 = u
        for layer in model.layers:
            v = edge_velocities(g, u, layer.advection)
            u = advect(g, u, v, 0.6)
            u = diffuse(g, u, layer.diffusion, 0.6, cg_iterations=30)
            u = react(u, u0, layer.reaction, 0.6)
        manual = ad.add(ad.matmul(u, model.g_out.w), model.g_out.b).value
        np.testing.assert_array_equal(out, manual)

    def test_dropout_requires_rng_in_train(self):
        g = erdos_renyi(5, 0.6, seed=9)
        model = AdrGnnStatic.init(c_in=2, c_out=2, hidden=4, layers=1, h=0.5,
                                  dropout_io=0.5, seed=10)
        with pytest.raises(ValueError, match="rng"):
            model.forward(g, np.zeros((5, 2)), train=True)
        model.forward(g, np.zeros((5, 2)), train=True, rng=SeedStream(0))

    def test_feature_shape_validation(self):
        g = erdos_renyi(5, 0.6, seed=11)
        model = AdrGnnStatic.init(c_in=2, c_out=2, hidden=4, layers=1, h=0.5, seed=12)
        with pytest.raises(ValueError, match="features"):
            model.forward(g, np.zeros((5, 3)))

    def test_permutation_equivariance(self):
        for seed in range(10):
            g = erdos_renyi(8, 0.5, seed=seed)
            model = AdrGnnStatic.init(c_in=3, c_out=2, hidden=4, layers=2, h=0.7,
                                      cg_iterations=40, seed=seed + 100)
            x = philox(seed + 200).standard_normal((8, 3))
            perm = philox(seed + 300).permutation(8)
            out = model.forward(g, x).value
            out_perm = model.forward(relabel(g, perm), x[np.argsort(perm)]).value
            np.testing.assert_allclose(out_perm[perm][np.argsort(perm)],
                                       out[np.argsort(perm)], atol=1e-8)

    def test_sparse_input_path_matches_dense(self):
        """The CSR input fast path must be exactly the dense computation in
        evaluation mode and a valid dropout stream in training mode."""
        from adrgnn.models import SparseFeatures
        g = erdos_renyi(40, 0.1, seed=50)
        x = (philox(51).random((40, 200)) < 0.02).astype(float)
        model = AdrGnnStatic.init(c_in=200, c_out=3, hidden=8, layers=2, h=0.8,
                                  dropout_io=0.4, seed=52)
        dense = model.forward(g, x).value
        sparse = model.forward(g, SparseFeatures(x)).value
        np.testing.assert_array_equal(dense, sparse)
        out_a = model.forward(g, SparseFeatures(x), train=True, rng=SeedStream(3)).value
        out_b = model.forward(g, SparseFeatures(x), train=True, rng=SeedStream(3)).value
        np.testing.assert_array_equal(out_a, out_b)

    def test_sparse_input_gradient_uses_the_transpose_view(self, monkeypatch):
        """The embedding's backward multiplies by the CSC view ``mat.T`` of
        the dropped-out CSR input, which shares its arrays, and gives the
        bytes of a built CSR transpose."""
        import scipy.sparse as sp
        from adrgnn.models import SparseFeatures
        g = erdos_renyi(40, 0.1, seed=50)
        x = philox(51).random((40, 200))
        x[x > 0.03] = 0.0
        model = AdrGnnStatic.init(c_in=200, c_out=3, hidden=8, layers=2, h=0.8,
                                  dropout_io=0.4, seed=52)
        labels = np.arange(40) % 3
        fixed = ad.fixed_sparse_matmul
        views = []

        def grad_of_embedding(csr_transpose: bool) -> bytes:
            def spy(matrix, matrix_t, v):
                if sp.issparse(matrix):
                    views.append(np.shares_memory(matrix.data, matrix_t.data))
                    if csr_transpose:
                        matrix_t = matrix_t.tocsr()
                return fixed(matrix, matrix_t, v)

            monkeypatch.setattr(ad, "fixed_sparse_matmul", spy)
            model.g_in.w.zero_grad()
            with ad.Tape() as tape:
                loss = ad.cross_entropy(model.forward(g, SparseFeatures(x), train=True,
                                                      rng=SeedStream(3)), labels)
            ad.backward(tape, loss)
            return model.g_in.w.grad.tobytes()

        assert grad_of_embedding(False) == grad_of_embedding(True)
        assert views == [True, True]

    def test_mass_conservation_with_advection_only_layers(self):
        g = erdos_renyi(10, 0.5, seed=13)
        model = AdrGnnStatic.init(c_in=3, c_out=2, hidden=4, layers=3, h=1.0, seed=14)
        x = philox(15).standard_normal((10, 3))
        _logits, stages = model.forward(g, x, terms="A", diagnostics=True)
        mass0 = stages[0].value.sum(axis=0)
        for stage in stages[1:]:
            np.testing.assert_allclose(stage.value.sum(axis=0), mass0, atol=1e-9)


class TestTimeEmbedding:
    def test_zero_time(self):
        emb = time_embedding([0.0], n_frequencies=5)
        np.testing.assert_array_equal(emb[:5], 0.0)   # sines
        np.testing.assert_array_equal(emb[5:], 1.0)   # cosines

    def test_width_is_twenty_for_ten_frequencies(self):
        emb = time_embedding([3.0], n_frequencies=10)
        assert emb.shape == (20,)
        emb4 = time_embedding([0.0, 1.0, 2.0, 3.0], n_frequencies=10)
        assert emb4.shape == (80,)

    def test_values_in_unit_interval(self):
        emb = time_embedding(np.linspace(0, 500, 37), n_frequencies=10)
        assert np.abs(emb).max() <= 1.0

    def test_invalid_frequency_count(self):
        with pytest.raises(ValueError):
            time_embedding([0.0], n_frequencies=0)

    def test_broadcast(self):
        emb = broadcast_time_embedding(time_embedding([0.0, 1.0], 3), 4)
        assert emb.shape == (4, 12)
        assert np.array_equal(emb[0], emb[3])

    @pytest.mark.parametrize("times", [np.arange(522, dtype=np.float64),
                                       np.linspace(0.0, 500.0, 37)])
    def test_window_rows_of_one_table_equal_the_window_embedding(self, times):
        table, tau_in = time_embedding_table(times, 10), 4
        assert table.shape == (len(times), 20)
        for t in range(len(times) - tau_in + 1):
            row = table[t:t + tau_in].reshape(-1)
            assert np.shares_memory(row, table)
            assert row.tobytes() == time_embedding(times[t:t + tau_in], 10).tobytes()


class TestTemporalForward:
    def _build(self, seed=0, layers=2, tau_in=3):
        g = erdos_renyi(6, 0.6, seed=seed)
        model = AdrGnnTemporal.init(c_in=2, c_out=2, hidden=4, layers=layers, h=0.5,
                                    tau_in=tau_in, tau_out=1, n_frequencies=3,
                                    cg_iterations=30, seed=seed + 1)
        x = philox(seed + 2).standard_normal((6, tau_in * 2))
        emb = broadcast_time_embedding(time_embedding(np.arange(tau_in, dtype=float), 3), 6)
        return g, model, x, emb

    @pytest.mark.parametrize("h", [1.5, 0.0])
    def test_step_size_checked_at_init(self, h):
        with pytest.raises(ValueError, match="outside"):
            AdrGnnTemporal.init(c_in=2, c_out=2, hidden=4, layers=1, h=h, tau_in=1,
                                tau_out=1)

    @pytest.mark.parametrize("case", ["untiled row", "tiled to another n", "short window"])
    def test_time_embedding_shape_checked(self, case):
        g, model, x, emb = self._build()
        bad = {"untiled row": emb[0],
               "tiled to another n": broadcast_time_embedding(emb[0], 5),
               "short window": broadcast_time_embedding(time_embedding([0.0, 1.0], 3), 6),
               }[case]
        with pytest.raises(ValueError, match=r"^forward: time embedding \(.*\) != \(6, 18\)$"):
            model.forward(g, x, bad)

    def test_shapes_and_determinism(self):
        g, model, x, emb = self._build()
        a = model.forward(g, x, emb).value
        b = model.forward(g, x, emb).value
        assert a.shape == (6, 2)
        assert np.array_equal(a, b)

    def test_diagnostics_exposes_state_stages(self):
        g, model, x, emb = self._build(layers=3)
        _out, stages = model.forward(g, x, emb, diagnostics=True)
        assert len(stages) == 4  # initial state plus one per layer

    def test_degenerate_window_matches_static_composition(self):
        """With the history embedding zeroed, velocities become uniform and
        the reaction skip vanishes; the forward then equals the manually
        composed static stages on the single frame."""
        g = erdos_renyi(6, 0.7, seed=20)
        model = AdrGnnTemporal.init(c_in=2, c_out=2, hidden=4, layers=1, h=1.0,
                                    tau_in=1, tau_out=1, n_frequencies=2,
                                    cg_iterations=30, seed=21)
        model.g_in_hist.w.value[...] = 0.0
        model.g_in_hist.b.value[...] = 0.0
        x = philox(22).standard_normal((6, 2))
        emb = broadcast_time_embedding(time_embedding([0.0], 2), 6)
        out = model.forward(g, x, emb).value

        temb = ad.add(ad.matmul(Variable(emb), model.g_time_embed.w), model.g_time_embed.b)
        state_in = ad.concat_columns([Variable(x), temb])
        u = ad.add(ad.matmul(state_in, model.g_in_state.w), model.g_in_state.b)
        layer = model.layers[0]
        zero_hist = Variable(np.zeros((6, 4)))
        v = edge_velocities(g, zero_hist, layer.advection)
        u = advect(g, u, v, 1.0)
        u = diffuse(g, u, layer.diffusion, 1.0, cg_iterations=30)
        u = react(u, zero_hist, layer.reaction, 1.0)
        manual = ad.add(ad.matmul(u, model.g_out_state.w), model.g_out_state.b).value
        np.testing.assert_allclose(out, manual, atol=1e-12)

    def test_permutation_equivariance(self):
        for seed in range(10):
            g, model, x, emb = self._build(seed=30 + seed)
            perm = philox(seed + 90).permutation(6)
            inv = np.argsort(perm)
            out = model.forward(g, x, emb).value
            out_perm = model.forward(relabel(g, perm), x[inv], emb).value
            np.testing.assert_allclose(out_perm, out[inv], atol=1e-8)

    def test_shape_validation(self):
        g, model, x, emb = self._build(seed=40)
        with pytest.raises(ValueError, match="temporal features"):
            model.forward(g, x[:, :2], emb)


class TestGcnBaseline:
    def test_single_isolated_node_identity_weights(self):
        g = build_graph([], 1)
        model = GcnBaseline.init(c_in=3, c_out=3, hidden=3, layers=1, seed=0)
        model.convs[0].w.value[...] = np.eye(3)
        model.convs[0].b.value[...] = 0.0
        model.head.w.value[...] = np.eye(3)  # identity head: logits = conv output
        model.head.b.value[...] = 0.0
        x = np.array([[-1.0, 0.5, 2.0]])
        out = model.forward(g, x).value
        np.testing.assert_allclose(out, [[0.0, 0.5, 2.0]])

    def test_constant_features_zero_energy_at_every_layer(self):
        # regular graph: the renormalized adjacency maps constants to constants
        g = build_graph([(i, (i + 1) % 8) for i in range(8)], 8)
        model = GcnBaseline.init(c_in=2, c_out=2, hidden=4, layers=3, seed=2)
        x = np.full((8, 2), 1.5)
        _logits, stages = model.forward(g, x, diagnostics=True)
        for stage in stages:
            assert dirichlet_energy(g, stage.value) <= 1e-20

    def test_deep_stack_oversmooths_relative_to_adr(self):
        """On a clustered fixture the 16-layer convolution stack collapses
        the Dirichlet energy by orders of magnitude more than the ADR model
        at the same depth (both at init)."""
        from adrgnn.data import make_planted_partition
        bundle = make_planted_partition(40, 3, 0.3, 0.02, feat_dim=6, noise=1.0, seed=3)
        g, x = bundle.graph, bundle.features
        gcn = GcnBaseline.init(c_in=6, c_out=3, hidden=8, layers=16, seed=4)
        adr = AdrGnnStatic.init(c_in=6, c_out=3, hidden=8, layers=16, h=1.0, seed=5)
        _l, gcn_stages = gcn.forward(g, x, diagnostics=True)
        _l, adr_stages = adr.forward(g, x, diagnostics=True)
        gcn_rel = (dirichlet_energy(g, gcn_stages[-1].value)
                   / max(dirichlet_energy(g, gcn_stages[0].value), 1e-300))
        adr_rel = (dirichlet_energy(g, adr_stages[-1].value)
                   / max(dirichlet_energy(g, adr_stages[0].value), 1e-300))
        assert gcn_rel < adr_rel


class TestDropoutDrawOrder:
    """A training forward draws one ``SeedStream`` child per dropout site
    with p > 0, in forward order: the input, each layer's input (each
    convolution's for GCN), the classifier's input. An evaluation forward
    draws none."""

    class CountingStream(SeedStream):
        def __init__(self, seed: int):
            super().__init__(seed)
            self.drawn = []

        def child(self):
            rng = super().child()
            self.drawn.append(rng)
            return rng

    @staticmethod
    def build(case: str, p_io: float, p_h: float):
        """A two-layer model and its inputs on 7 nodes; widths 3 in, 4 hidden
        (2 in for the temporal model, whose window holds 2 frames)."""
        x = philox(2).standard_normal((7, 3))
        if case in ("static", "static_csr"):
            from adrgnn.models import SparseFeatures
            model = AdrGnnStatic.init(c_in=3, c_out=2, hidden=4, layers=2, h=0.5,
                                      dropout_io=p_io, dropout_hidden=p_h, seed=1)
            return model, (SparseFeatures(x) if case == "static_csr" else x,)
        if case == "temporal":
            model = AdrGnnTemporal.init(c_in=1, c_out=1, hidden=4, layers=2, h=0.5, tau_in=2,
                                        tau_out=1, n_frequencies=2, dropout_io=p_io,
                                        dropout_hidden=p_h, seed=3)
            t_emb = broadcast_time_embedding(time_embedding([0.0, 1.0], 2), 7)
            return model, (x[:, :2], t_emb)
        return GcnBaseline.init(c_in=3, c_out=2, hidden=4, layers=2, dropout=p_h, seed=1), (x,)

    @pytest.mark.parametrize("case, p_io, p_h, widths", [
        ("static", 0.3, 0.2, [3, 4, 4, 4]),
        ("static", 0.3, 0.0, [3, 4]),
        ("static_csr", 0.3, 0.2, [3, 4, 4, 4]),
        ("static_csr", 0.3, 0.0, [3, 4]),
        ("temporal", 0.3, 0.2, [2, 4, 4, 4]),
        ("temporal", 0.3, 0.0, [2, 4]),
        ("gcn", 0.0, 0.3, [3, 4]),
        ("gcn", 0.0, 0.0, []),
    ])
    def test_one_child_per_site_in_forward_order(self, case, p_io, p_h, widths,
                                                 monkeypatch):
        from adrgnn.models import SparseFeatures
        sites = []  # (generator, width of the masked input) in call order

        def recording(original):
            def dropout(x, p, *args):
                sites.append((args[-1], x.shape[1]))
                return original(x, p, *args)
            return dropout

        monkeypatch.setattr(ad, "dropout", recording(ad.dropout))
        monkeypatch.setattr(SparseFeatures, "dropout", recording(SparseFeatures.dropout))
        g = erdos_renyi(7, 0.5, seed=4)
        model, inputs = self.build(case, p_io, p_h)
        stream = self.CountingStream(5)
        model.forward(g, *inputs, train=True, rng=stream)
        assert [width for _rng, width in sites] == widths
        assert [rng for rng, _width in sites] == stream.drawn

        stream, sites[:] = self.CountingStream(5), []
        model.forward(g, *inputs, train=False, rng=stream)
        assert stream.drawn == [] and sites == []


class TestParameterRegistry:
    @staticmethod
    def group_of(name: str) -> str:
        for tag, group in ((".adv.", "advection"), (".diff.", "diffusion"),
                           (".react.", "reaction")):
            if tag in name:
                return group
        return "embedding"

    @pytest.mark.parametrize("kind, use_batchnorm", [
        ("static", False), ("static", True), ("temporal", False), ("gcn", False)])
    def test_groups_partition_the_parameters(self, kind, use_batchnorm):
        model, _inputs = small_model(kind, use_batchnorm)
        groups = model.param_groups()
        assert tuple(groups) == (GROUPS if kind != "gcn" else ("embedding",))
        grouped = [p for params in groups.values() for p in params]
        named = model.named_parameters()
        assert len(grouped) == len(named) == len({id(p) for p in grouped})
        assert {id(p) for p in grouped} == {id(p) for p in named.values()}
        for group, params in groups.items():
            assert all(self.group_of(p.name) == group for p in params)
        assert len(model.extra_state()) == (4 if use_batchnorm else 0)

    def test_static_parameter_order(self):
        model, _inputs = small_model("static", use_batchnorm=True)
        layer0 = ["adv.a1.w", "adv.a1.b", "adv.a2.w", "adv.a2.b", "adv.a3.w", "adv.a4.w",
                  "diff.theta", "react.r1.w", "react.r1.b", "react.r2.w", "react.r2.b",
                  "react.r3.w", "react.r3.b", "react.bn_gamma", "react.bn_beta"]
        names = list(model.named_parameters())
        assert names[:4] == ["g_in.w", "g_in.b", "g_out.w", "g_out.b"]
        assert names[4:] == ([f"layers.0.{n}" for n in layer0]
                             + [f"layers.1.{n}" for n in layer0])
        assert list(model.extra_state()) == [
            f"layers.{l}.react.bn.{stat}" for l in (0, 1)
            for stat in ("running_mean", "running_var")]


    @pytest.mark.parametrize("kind, use_batchnorm", [
        ("static", True), ("temporal", True), ("gcn", False)])
    def test_a_detached_copy_is_unchanged_by_training(self, kind, use_batchnorm):
        model, inputs = small_model(kind, use_batchnorm)
        g = erdos_renyi(7, 0.5, seed=0)

        def loss():
            return ad.total_sum(model.forward(g, *inputs, train=True, rng=SeedStream(1)))

        optimizer = AdamW(model.param_groups(), {grp: 0.1 for grp in GROUPS},
                          {grp: 0.01 for grp in GROUPS})
        train_step(optimizer, loss, "first step")  # materializes the gradient buffers
        taken = model.snapshot()
        view = model.detached()
        logits = view.forward(g, *inputs).value.tobytes()
        train_step(optimizer, loss, "second step")
        moved = model.snapshot()
        kept = view.snapshot()
        for part in ("params", "state"):
            assert list(kept[part]) == list(taken[part])
            for name, arr in taken[part].items():
                assert kept[part][name].tobytes() == arr.tobytes()
        assert any(moved["params"][n].tobytes() != a.tobytes()
                   for n, a in taken["params"].items())
        if use_batchnorm:
            assert any(moved["state"][n].tobytes() != a.tobytes()
                       for n, a in taken["state"].items())
        assert view.forward(g, *inputs).value.tobytes() == logits
        for p in view.named_parameters().values():
            assert not p.requires_grad and not p.needs_grad and p._grad is None


class TestCheckpoint:
    @pytest.mark.parametrize("kind", ["static", "temporal", "gcn"])
    def test_round_trip_preserves_outputs(self, kind, tmp_path):
        g = erdos_renyi(7, 0.5, seed=0)
        model, inputs = small_model(kind, use_batchnorm=True)
        model.forward(g, *inputs, train=True, rng=SeedStream(0))  # populate BN stats
        before = model.forward(g, *inputs).value
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, model)
        restored = load_checkpoint(path)
        after = restored.forward(g, *inputs).value
        np.testing.assert_array_equal(before, after)
        state = restored.extra_state()
        assert len(state) == (4 if kind != "gcn" else 0)
        for name, arr in model.extra_state().items():
            np.testing.assert_array_equal(arr, state[name])

    def test_state_shape_validation_on_load(self, tmp_path):
        model, _inputs = small_model("static", use_batchnorm=True)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, model)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["state:layers.0.react.bn.running_var"] = np.ones(5)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError, match="shape"):
            load_checkpoint(path)

    def test_temporal_round_trip(self, tmp_path):
        model = AdrGnnTemporal.init(c_in=1, c_out=1, hidden=4, layers=1, h=0.5,
                                    tau_in=2, tau_out=1, n_frequencies=2, seed=3)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, model)
        restored = load_checkpoint(path)
        for name, var in model.named_parameters().items():
            np.testing.assert_array_equal(var.value,
                                          restored.named_parameters()[name].value)

    def test_shape_validation_on_load(self, tmp_path):
        model = AdrGnnStatic.init(c_in=3, c_out=2, hidden=4, layers=1, h=0.5, seed=4)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, model)
        import json
        import numpy as np_
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        config = json.loads(bytes(arrays["__config__"]).decode())
        config["hidden"] = 8  # now stored arrays no longer fit
        arrays["__config__"] = np.frombuffer(json.dumps(config).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError, match="shape"):
            load_checkpoint(path)

    def test_static_model_runs_and_saves_its_own_terms(self, tmp_path):
        g = erdos_renyi(7, 0.5, seed=0)
        x = philox(2).standard_normal((7, 3))
        model = AdrGnnStatic.init(c_in=3, c_out=2, hidden=4, layers=2, h=0.5, terms="A",
                                  seed=1)
        own = model.forward(g, x).value
        np.testing.assert_array_equal(own, model.forward(g, x, terms="A").value)
        assert not np.array_equal(own, model.forward(g, x, terms="ADR").value)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, model)
        restored = load_checkpoint(path)
        assert restored.config["terms"] == "A"
        np.testing.assert_array_equal(restored.forward(g, x).value, own)

    def test_checkpoint_without_terms_loads_as_all_three(self, tmp_path):
        g = erdos_renyi(7, 0.5, seed=0)
        model, (x,) = small_model("static")
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, model)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        config = json.loads(bytes(arrays["__config__"]).decode())
        del config["terms"]  # as written before the model stored its terms
        arrays["__config__"] = np.frombuffer(json.dumps(config).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        restored = load_checkpoint(path)
        assert restored.config["terms"] == "ADR"
        np.testing.assert_array_equal(restored.forward(g, x).value,
                                      model.forward(g, x, terms="ADR").value)

    def test_build_model_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            build_model({"kind": "mystery", "c_in": 1, "c_out": 1, "hidden": 2, "layers": 1})


class TestParameterCount:
    def test_formula_matches_runtime_count(self):
        for layers in (1, 2, 4):
            for bn in (False, True):
                model = AdrGnnStatic.init(c_in=10, c_out=3, hidden=6, layers=layers,
                                          h=0.5, use_batchnorm=bn, seed=0)
                assert count_parameters(model) == static_parameter_count(
                    10, 3, 6, layers, bn)

    def test_citation_scale_configuration(self):
        """The 1433-feature, 7-class configuration at width 64 and depth 4
        lands within 5% of the published 210k figure."""
        count = static_parameter_count(1433, 7, 64, 4, use_batchnorm=True)
        assert count == 208_967
        assert abs(count - 210_000) / 210_000 < 0.05
