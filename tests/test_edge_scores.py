"""The one-record advection op against the composition of separate records
it replaced, the tape it leaves, and float32 end to end."""

from __future__ import annotations

import numpy as np
import pytest

import adrgnn.autodiff as ad
from adrgnn import operators
from adrgnn.autodiff import Tape, Variable, backward
from adrgnn.graph import build_graph, erdos_renyi
from adrgnn.models import (AdrGnnStatic, AdrGnnTemporal, GcnBaseline,
                           broadcast_time_embedding, time_embedding)
from adrgnn.operators import (AdrLayerParams, AdvectionParams, adr_layer, advect, diffuse,
                              react)
from adrgnn.runtime import SeedStream, default_dtype, philox, set_default_dtype

from conftest import prenorm_orientations, taped_scale


def _graphs():
    return {
        # node 3 has no neighbor
        "isolated_node": build_graph([(0, 1), (1, 2), (2, 0)], 4),
        # node 0 has degree 4
        "hub": build_graph([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)], 5),
        "no_edges": build_graph([], 3),
    }


def _reference_edge_scores(g, u, a1, a2, w3, w4):
    """The eleven-record composition: the a1 and a2 maps, gathers, add,
    ReLU, a3, reverse gather, subtract, ReLU, a4."""
    edge_pre = ad.add(ad.fixed_sparse_matmul(g.edge_src, g.scatter_src, a1(u)),
                      ad.fixed_sparse_matmul(g.edge_dst, g.scatter_dst, a2(u)))
    z = ad.matmul(ad.relu(edge_pre), w3)
    z_rev = ad.fixed_sparse_matmul(g.rev_edge, g.rev_edge, z)
    return ad.matmul(ad.relu(ad.subtract(z, z_rev)), w4), (z, z_rev)


def _reference_edge_velocities(g, u, params, return_prenorm=False):
    """The taped velocities: the scores, then a segment-softmax record."""
    u = ad._as_variable(u)
    pre, (z, z_rev) = _reference_edge_scores(g, u, params.a1, params.a2, params.a3.w,
                                             params.a4.w)
    v = ad.segment_softmax(pre, g.edge_src, g.scatter_src, g.max_plan)
    if return_prenorm:
        return v, ad.relu(ad.subtract(z, z_rev)), ad.relu(ad.subtract(z_rev, z))
    return v


def _reference_advect(g, u, velocities, h):
    """The transport as gather, hadamard and scatter records, then the
    outflow hadamard, subtract, scale and add records."""
    inbound = ad.fixed_sparse_matmul(g.scatter_dst, g.edge_dst, ad.hadamard(
        velocities, ad.fixed_sparse_matmul(g.edge_src, g.scatter_src, u)))
    outflow = ad.hadamard(u, (~g.isolated).astype(float)[:, None])
    return ad.add(u, taped_scale(ad.subtract(inbound, outflow), h))


def _reference_layer(g, u, u0, params, h, velocity_features=None):
    """The ADR layer with its advection written out as separate records."""
    vel_in = u if velocity_features is None else velocity_features
    u_adv = _reference_advect(g, u, _reference_edge_velocities(g, vel_in, params.advection), h)
    return react(diffuse(g, u_adv, params.diffusion, h), u0, params.reaction, h, train=True)


def _same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.fixture
def float32_mode():
    previous = default_dtype().name
    set_default_dtype("float32")
    yield
    set_default_dtype(previous)


class TestEdgeScoresBitIdentical:
    @pytest.mark.parametrize("name", list(_graphs()))
    def test_value_and_four_gradients(self, name):
        """Output and the gradients of u and of the four maps: a1 and a2
        (weight and bias), a3 and a4, with velocities from u and u also
        used outside the op, so its gradient sums six parts in order."""
        g = _graphs()[name]
        gen = philox(70)
        c = 4
        u_value = gen.standard_normal((g.n_nodes, c))
        upstream = Variable(gen.standard_normal((g.n_nodes, c)))
        outside = Variable(gen.standard_normal((g.n_nodes, c)))
        biases = gen.standard_normal((2, c))
        results = []
        for fused in (True, False):
            params = AdvectionParams.init(c, philox(75))
            params.a1.b.value[:], params.a2.b.value[:] = biases  # nonzero, so their use is checked
            u = Variable(u_value, requires_grad=True)
            with Tape() as tape:
                if fused:
                    out = advect(g, u, operators.edge_velocities(g, u, params), 0.7)
                else:
                    out = _reference_advect(g, u, _reference_edge_velocities(g, u, params), 0.7)
                loss = ad.add(ad.total_sum(ad.hadamard(out, upstream)),
                              ad.total_sum(ad.hadamard(u, outside)))
            backward(tape, loss)
            results.append(([out.value, u.grad] + [p.grad for p in params.parameters()],
                            len(tape.records)))
        (fused, fused_records), (composed, composed_records) = results
        assert fused_records == composed_records - 18
        for got, want in zip(fused, composed):
            assert _same_bytes(got, want)

    @pytest.mark.parametrize("separate", [False, True], ids=["u", "velocity_features"])
    @pytest.mark.parametrize("name", list(_graphs()))
    def test_through_the_layer(self, name, separate):
        """A whole taped ADR layer, velocities from ``u`` itself (whose
        gradient then sums several uses) or from ``velocity_features``, in
        float64 and float32: output and every gradient equal those of the
        layer whose advection is written out as separate records."""
        g = _graphs()[name]
        c = 3
        gen = philox(71)
        values = [gen.standard_normal((g.n_nodes, c)) for _ in range(3)]
        previous = default_dtype().name
        try:
            for dtype in ("float64", "float32"):
                set_default_dtype(dtype)
                upstream = Variable(gen.standard_normal((g.n_nodes, c)))
                results = []
                for reference in (False, True):
                    params = AdrLayerParams.init(c, philox(72))
                    u, u0, feats = (Variable(v, requires_grad=True) for v in values)
                    layer = _reference_layer if reference else adr_layer
                    with Tape() as tape:
                        out = layer(g, u, u0, params, 0.7,
                                    velocity_features=feats if separate else None)
                        loss = ad.total_sum(ad.hadamard(out, upstream))
                    backward(tape, loss)
                    wrt = [u, u0, feats] + [p for _group, part in params.parts()
                                            for p in part.parameters()]
                    results.append([out.value] + [v.grad for v in wrt])
                for got, want in zip(*results):
                    assert got.dtype == np.dtype(dtype)
                    assert _same_bytes(got, want)
        finally:
            set_default_dtype(previous)

    @pytest.mark.parametrize("name", list(_graphs()))
    def test_prenorm_orientations(self, name):
        g = _graphs()[name]
        params = AdvectionParams.init(3, philox(73))
        u = Variable(philox(74).standard_normal((g.n_nodes, 3)))
        got = (operators.edge_velocities(g, u, params), *prenorm_orientations(g, u, params))
        want = _reference_edge_velocities(g, u, params, return_prenorm=True)
        assert _same_bytes(got[0].values.value, want[0].value)
        for got_part, want_part in zip(got[1:], want[1:]):
            assert _same_bytes(got_part.value, want_part.value)


def _tape_arrays(tape) -> list[np.ndarray]:
    """The distinct array buffers a tape keeps alive, found as
    ``perfbench/tracing.tape_bytes`` finds them: record slots, and arrays in
    the backward closures (two levels deep)."""
    buffers: dict[int, np.ndarray] = {}

    def visit(obj, depth: int = 0) -> None:
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            buffers[id(base)] = base
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                visit(item, depth)
        elif callable(obj) and depth < 2:
            for cell in getattr(obj, "__closure__", None) or ():
                try:
                    visit(cell.cell_contents, depth + 1)
                except ValueError:  # empty cell
                    pass
        elif isinstance(getattr(obj, "value", None), np.ndarray):
            visit(obj.value)

    for node, slots, rule in tape.records:
        visit(node.value)
        for slot in slots:
            visit(slot.value)
        visit(rule)
    return list(buffers.values())


def _static_loss(layers):
    g = erdos_renyi(40, 0.2, seed=2)
    model = AdrGnnStatic.init(c_in=5, c_out=3, hidden=6, layers=layers, h=1.0,
                              dropout_io=0.5, dropout_hidden=0.3, seed=1)
    x = philox(3).standard_normal((40, 5))
    return g, lambda: ad.cross_entropy(model.forward(g, x, train=True, rng=SeedStream(4)),
                                       philox(5).integers(0, 3, 40))


def _temporal_loss(layers):
    g = erdos_renyi(12, 0.5, seed=2)
    model = AdrGnnTemporal.init(c_in=1, c_out=1, hidden=5, layers=layers, h=0.5, tau_in=3,
                                tau_out=1, n_frequencies=2, dropout_io=0.2,
                                dropout_hidden=0.2, seed=3)
    x = philox(5).standard_normal((12, 3))
    emb = broadcast_time_embedding(time_embedding([0.0, 1.0, 2.0], 2), 12)
    return g, lambda: ad.mse(model.forward(g, x, emb, train=True, rng=SeedStream(7)),
                             philox(6).standard_normal((12, 1)))


@pytest.mark.parametrize("model, layers", [("static", 1), ("static", 3), ("temporal", 2)])
def test_taped_forward_keeps_no_edge_array(model, layers):
    """A taped forward (with dropout) keeps no array with a row per directed
    edge: the advection record recomputes its velocities in backward."""
    g, build_loss = {"static": _static_loss, "temporal": _temporal_loss}[model](layers)
    with Tape() as tape:
        build_loss()
    assert g.n_edges > 2 * g.n_nodes  # so no node-sized array has a row per edge
    assert [a.shape for a in _tape_arrays(tape) if a.ndim and a.shape[0] == g.n_edges] == []


def _float32_run(monkeypatch, build_loss, params) -> int:
    """Tape and backpropagate ``build_loss()``, checking that every op
    computes a float32 value and every backward rule receives and returns
    float32 gradients; returns the number of records checked."""
    seen = []
    emit = ad._emit

    def checked_emit(out_value, inputs, backward_fn):
        name = backward_fn.__qualname__
        seen.append((name, "value", out_value.dtype))

        def rule(g):
            grads = backward_fn(g)
            seen.append((name, "upstream", g.dtype))
            seen.extend((name, "gradient", gi.dtype) for gi in grads if gi is not None)
            return grads

        return emit(out_value, inputs, rule)

    monkeypatch.setattr(ad, "_emit", checked_emit)
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = build_loss()
    backward(tape, loss)
    monkeypatch.setattr(ad, "_emit", emit)
    assert [s for s in seen if s[2] != np.float32] == []
    assert all(p.grad.dtype == np.float32 for p in params)
    return len(tape.records)


@pytest.mark.usefixtures("float32_mode")
class TestFloat32Tape:
    def test_static_with_dropout(self, monkeypatch):
        g = erdos_renyi(30, 0.2, seed=1)
        model = AdrGnnStatic.init(c_in=5, c_out=3, hidden=8, layers=2, h=1.0,
                                  dropout_io=0.5, dropout_hidden=0.3, seed=2)
        x, labels = philox(3).standard_normal((30, 5)), philox(4).integers(0, 3, 30)
        records = _float32_run(monkeypatch, lambda: ad.cross_entropy(
            model.forward(g, x, train=True, rng=SeedStream(5)), labels),
            list(model.named_parameters().values()))
        # per ADR layer: dropout, advection, hardtanh, the diffusion series
        # and reaction; dropouts, maps and the loss around
        assert records == 14

    def test_temporal(self, monkeypatch):
        g = erdos_renyi(6, 0.6, seed=2)
        model = AdrGnnTemporal.init(c_in=1, c_out=1, hidden=4, layers=2, h=0.5, tau_in=2,
                                    tau_out=1, n_frequencies=2, dropout_io=0.2,
                                    dropout_hidden=0.2, seed=3)
        x = philox(5).standard_normal((6, 2))
        emb = broadcast_time_embedding(time_embedding([0.0, 1.0], 2), 6)
        target = philox(6).standard_normal((6, 1))
        records = _float32_run(monkeypatch, lambda: ad.mse(
            model.forward(g, x, emb, train=True, rng=SeedStream(7)), target),
            list(model.named_parameters().values()))
        assert records == 22

    def test_gcn(self, monkeypatch):
        g = erdos_renyi(30, 0.2, seed=1)
        model = GcnBaseline.init(c_in=5, c_out=3, hidden=8, layers=2, dropout=0.3, seed=2)
        x, labels = philox(3).standard_normal((30, 5)), philox(4).integers(0, 3, 30)
        records = _float32_run(monkeypatch, lambda: ad.cross_entropy(
            model.forward(g, x, train=True, rng=SeedStream(5)), labels),
            list(model.named_parameters().values()))
        assert records > 5
