from __future__ import annotations

import numpy as np
import pytest

import adrgnn.autodiff as ad
from adrgnn.autodiff import Tape, Variable, backward
from adrgnn.graph import build_graph, erdos_renyi
from adrgnn.runtime import philox


@pytest.fixture
def path2():
    """Two nodes joined by one undirected edge."""
    return build_graph([(0, 1)], 2)


@pytest.fixture
def rng():
    return philox(1234)


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
    pre = ad.add(ad.add(ad.matmul(u, w1, b1), ad.hadamard(taped_tanh(ad.matmul(u, w2, b2)), u)),
                 ad.matmul(u0, w3, b3))
    if state is not None:
        pre = taped_batch_norm(pre, *weights[6:], state, train)
    return ad.add(u, taped_scale(ad.relu(pre), h))
