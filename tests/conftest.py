from __future__ import annotations

import numpy as np
import pytest

import adrgnn.autodiff as ad
from adrgnn.autodiff import Tape, Variable, backward
from adrgnn.data import DatasetBundle, generate_splits
from adrgnn.graph import build_graph, erdos_renyi
from adrgnn.runtime import philox


@pytest.fixture
def path2():
    """Two nodes joined by one undirected edge."""
    return build_graph([(0, 1)], 2)


@pytest.fixture
def rng():
    return philox(1234)


def bag_of_words_bundle(seed=0, n=1100, vocab=1000) -> DatasetBundle:
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


def fd_gradient(loss_fn, variables, eps: float = 1e-6):
    """Independent central-difference oracle: loss_fn() -> Variable (scalar),
    re-evaluated around each coordinate of each listed Variable."""
    grads = []
    for var in variables:
        flat = var.value.ravel()
        out = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = float(loss_fn().value)
            flat[i] = orig - eps
            down = float(loss_fn().value)
            flat[i] = orig
            out[i] = (up - down) / (2 * eps)
        grads.append(out.reshape(var.value.shape))
    return grads


def ad_gradient(loss_fn, variables):
    """Gradients from one taped forward/backward pass."""
    for var in variables:
        var.zero_grad()
    with Tape() as tape:
        loss = loss_fn()
    backward(tape, loss)
    return [var.grad.copy() for var in variables]


def max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-6))


def check_grads(loss_fn, variables, tol):
    ad_grads = ad_gradient(loss_fn, variables)
    fd_grads = fd_gradient(loss_fn, variables)
    for got, want in zip(ad_grads, fd_grads):
        assert max_rel_err(got, want) <= tol


def random_velocities(graph, c: int, seed: int) -> np.ndarray:
    """Valid random edge velocities: positive with unit outbound sums."""
    gen = philox(seed)
    raw = gen.uniform(0.05, 1.0, size=(graph.n_edges, c))
    sums = np.zeros((graph.n_nodes, c))
    np.add.at(sums, graph.edge_src, raw)
    return raw / sums[graph.edge_src]


def laplacian_dense(g) -> np.ndarray:
    """Dense normalized Laplacian from the graph's own degree mask and
    normalized adjacency (small graphs only)."""
    return np.diag(g._deg_mask) - g._adj_norm.toarray()


def prenorm_orientations(g, u, params):
    """The two ReLU(z_ij - z_ji) orientations of the edge scores that
    ``operators.edge_velocities`` computes before a4 and the softmax, by the
    same untaped calls, as Variables."""
    u = ad._as_variable(u)
    a1, a2 = params.a1, params.a2
    asym = ad.edge_asymmetry(ad.edge_hidden(ad._affine(u.value, a1.w.value, a1.b.value),
                                            ad._affine(u.value, a2.w.value, a2.b.value),
                                            g.edge_src, g.edge_dst),
                             params.a3.w.value, g.rev_edge)
    return Variable(asym), Variable(np.take(asym, g.rev_edge, axis=0))


# ---------------------------------------------------------------------------
# broadcasting ops that the tests build losses and oracles from: no shipped
# path records them

def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def taped_add(a, b):
    """``a + b`` as its own record (the ``ad.add`` the fused bias replaced)."""
    a, b = ad._as_variable(a), ad._as_variable(b)
    try:
        out = a.value + b.value
    except ValueError:
        raise ValueError(f"add: shapes {a.value.shape} and {b.value.shape} do not broadcast")
    ash, bsh = a.value.shape, b.value.shape

    def bwd(g):
        return _unbroadcast(g, ash), _unbroadcast(g, bsh)

    return ad._emit(out, (a, b), bwd)


def taped_hadamard(a, b):
    """``a * b`` as its own record."""
    a, b = ad._as_variable(a), ad._as_variable(b)
    try:
        out = a.value * b.value
    except ValueError:
        raise ValueError(f"hadamard: shapes {a.value.shape} and {b.value.shape} do not broadcast")
    av, bv = a.value, b.value

    def bwd(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return ad._emit(out, (a, b), bwd)


def taped_total_sum(x):
    """The sum of every entry of ``x``, as its own record."""
    x = ad._as_variable(x)
    shape = x.value.shape

    def bwd(g):
        return (np.broadcast_to(g, shape).astype(g.dtype),)

    return ad._emit(np.asarray(x.value.sum()), (x,), bwd)


# ---------------------------------------------------------------------------
# op-by-op oracles of the fused ops: records the fused ops replaced

def taped_scale(x, s: float):
    """``x * s`` as its own record."""
    x = ad._as_variable(x)
    return ad._emit(x.value * s, (x,), lambda g: (g * s,))


def taped_tanh(x):
    """``tanh(x)`` as its own record."""
    x = ad._as_variable(x)
    out = np.tanh(x.value)
    return ad._emit(out, (x,), lambda g: (g * (1.0 - out * out),))


def taped_batch_norm(x, gamma, beta, state, train: bool):
    """``gamma * xhat + beta`` as its own record, ``xhat`` from ``state.normalize``."""
    x, gamma, beta = (ad._as_variable(v) for v in (x, gamma, beta))
    xhat, inv_std = state.normalize(x.value, train)

    def bwd(g):
        dgamma, dbeta, dxhat = (g * xhat).sum(axis=0), g.sum(axis=0), g * gamma.value
        if not train:
            return dxhat * inv_std, dgamma, dbeta
        n = len(g)
        return (inv_std / n * (n * dxhat - dxhat.sum(axis=0)
                               - xhat * (dxhat * xhat).sum(axis=0)), dgamma, dbeta)

    return ad._emit(gamma.value * xhat + beta.value, (x, gamma, beta), bwd)


def composed_reaction(u, u0, weights, h, state=None, train=False):
    """``ad.reaction`` as the ten records (eleven with batch norm) it
    replaced: three maps, tanh, hadamard, two adds, [batch norm,] ReLU,
    scale and the skip's add."""
    w1, b1, w2, b2, w3, b3 = weights[:6]
    pre = taped_add(taped_add(ad.matmul(u, w1, b1),
                              taped_hadamard(taped_tanh(ad.matmul(u, w2, b2)), u)),
                    ad.matmul(u0, w3, b3))
    if state is not None:
        pre = taped_batch_norm(pre, *weights[6:], state, train)
    return taped_add(u, taped_scale(ad.relu(pre), h))


def taped_subtract(a, b):
    """``a - b`` as its own record (the ``ad.subtract`` the fused ops replaced)."""
    a, b = ad._as_variable(a), ad._as_variable(b)
    try:
        out = a.value - b.value
    except ValueError:
        raise ValueError(f"subtract: shapes {a.value.shape} and {b.value.shape} do not broadcast")
    ash, bsh = a.value.shape, b.value.shape

    def bwd(g):
        return _unbroadcast(g, ash), _unbroadcast(-g, bsh)

    return ad._emit(out, (a, b), bwd)


def _apply_operator(op, x: np.ndarray) -> np.ndarray:
    """``op @ x``; an int ndarray ``op`` stands for the 0/1 selector whose
    row i picks row ``op[i]`` of ``x``, and is applied as that row gather."""
    if isinstance(op, np.ndarray):
        return np.take(x, op, axis=0)
    return op @ x


def taped_operator(matrix, matrix_t, x):
    """A constant linear operator (edge gathers and scatters) as its own
    record; the backward rule applies the supplied transpose. Either operand
    may be an int row index, the compact form of a 0/1 row selector."""
    x = ad._as_variable(x)

    def bwd(g):
        return (_apply_operator(matrix_t, g),)

    return ad._emit(_apply_operator(matrix, x.value), (x,), bwd)


def taped_segment_softmax(values, source_index, scatter, max_plan):
    """Channel-wise softmax over each source node's contiguous edge block,
    as its own record with the softmax rule that ``ad.advection`` inlines.

    ``source_index`` holds each row's segment id, sorted non-decreasing (the
    graph's directed-edge order); ``scatter`` is the constant node-by-edge
    sum matrix and ``max_plan`` the tree-reduction plan over the same
    blocks (:attr:`Graph.scatter_src`, :attr:`Graph.max_plan`).
    """
    values = ad._as_variable(values)
    expand_sum = lambda x: np.take(scatter @ x, source_index, axis=0)
    # shift, exponentiate and normalize in the buffer that holds the maxima
    y = ad._segment_max_rows(values.value, max_plan)
    np.subtract(values.value, y, out=y)
    np.exp(y, out=y)
    y /= expand_sum(y)

    def bwd(g):
        return (y * (g - expand_sum(y * g)),)

    return ad._emit(y, (values,), bwd)


# ---------------------------------------------------------------------------
# dense oracle of the advection step

# largest graph advection_matrix densifies
DENSE_LIMIT = 200


def advection_matrix(g, v, h: float, channel: int) -> np.ndarray:
    """Dense one-channel transport matrix A with A @ u = advect(u).

    A = (1-h) I + h M with M[dst, src] = v[src->dst]; isolated nodes get
    A_ii = 1. Column stochastic and nonnegative for h in (0, 1].
    """
    if g.n_nodes > DENSE_LIMIT:
        raise ValueError(f"advection_matrix: n={g.n_nodes} exceeds dense limit {DENSE_LIMIT}")
    vals = v.values.value[:, channel]
    m = np.zeros((g.n_nodes, g.n_nodes))
    np.add.at(m, (g.edge_dst, g.edge_src), vals)
    diag = np.where(g.isolated, 1.0, 1.0 - h)
    return np.diag(diag) + h * m
