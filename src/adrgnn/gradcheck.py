"""Finite-difference verification of every backward rule, runnable as a
suite (the `gradcheck` CLI subcommand exits nonzero on any failure)."""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tape, Variable, backward
from .graph import erdos_renyi, laplacian_apply
from .models import (AdrGnnStatic, AdrGnnTemporal, broadcast_time_embedding,
                     time_embedding)
from .operators import AdrLayerParams, adr_layer
from .runtime import philox

PRIMITIVE_TOL = 1e-5
MODEL_TOL = 1e-4
FD_STEP = 1e-6
# the shipped diffusion series degree (TrainConfig.cg_iterations) and a deep one
SERIES_DEGREES = (5, 40)


def relative_gradient_error(build_loss: Callable[[], Variable],
                            wrt: list[Variable], step: float = FD_STEP) -> float:
    """Max over parameters of ||grad_ad - grad_fd||_inf / max(||grad_fd||_inf, 1e-6),
    with central differences of the re-evaluated loss."""
    for p in wrt:
        p.zero_grad()
    with Tape() as tape:
        loss = build_loss()
    backward(tape, loss)
    worst = 0.0
    for p in wrt:
        fd = np.zeros_like(p.value)
        flat = p.value.ravel()
        fd_flat = fd.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = float(build_loss().value)
            flat[i] = orig - step
            down = float(build_loss().value)
            flat[i] = orig
            fd_flat[i] = (up - down) / (2.0 * step)
        denom = max(np.abs(fd).max(), 1e-6)
        worst = max(worst, float(np.abs(p.grad - fd).max() / denom))
    return worst


def _weighted_sum(out: Variable, rng: np.random.Generator) -> Variable:
    w = Variable(rng.standard_normal(out.value.shape))
    return ad.total_sum(ad.hadamard(out, w))


def primitive_checks(seed: int = 0) -> list[dict]:
    rng = philox(seed)
    g = erdos_renyi(6, 0.6, seed=seed + 1)
    n, c = 6, 3
    x = Variable(rng.standard_normal((n, c)) + 0.1, requires_grad=True)
    y = Variable(rng.standard_normal((n, c)) + 0.05, requires_grad=True)
    w = Variable(rng.standard_normal((c, c)), requires_grad=True)
    bias = Variable(rng.standard_normal(c), requires_grad=True)
    edge_vals = Variable(rng.standard_normal((g.n_edges, c)), requires_grad=True)
    labels = rng.integers(0, c, size=n)
    mask = np.ones(n, dtype=bool)
    mask[0] = False
    target = rng.standard_normal((n, c))
    gamma = Variable(rng.uniform(0.5, 1.5, c), requires_grad=True)
    beta = Variable(rng.standard_normal(c), requires_grad=True)
    w2 = Variable(rng.standard_normal((c, c)), requires_grad=True)
    w3 = Variable(rng.standard_normal((c, c)), requires_grad=True)
    w4 = Variable(rng.standard_normal((c, c)), requires_grad=True)
    bias2 = Variable(rng.standard_normal(c), requires_grad=True)
    bn_state = BatchNormState.zeros(c)

    cases = {
        "matmul": (lambda: _weighted_sum(ad.matmul(x, w), philox(seed + 3)), [x, w]),
        "linear": (lambda: _weighted_sum(ad.matmul(x, w, bias), philox(seed + 20)),
                   [x, w, bias]),
        "add": (lambda: _weighted_sum(ad.add(x, bias), philox(seed + 4)), [x, bias]),
        "subtract": (lambda: _weighted_sum(ad.subtract(x, y), philox(seed + 5)), [x, y]),
        "hadamard": (lambda: _weighted_sum(ad.hadamard(x, y), philox(seed + 6)), [x, y]),
        "scale_by_scalar": (lambda: _weighted_sum(ad.scale_by_scalar(x, 0.37), philox(seed + 7)), [x]),
        "relu": (lambda: _weighted_sum(ad.relu(x), philox(seed + 8)), [x]),
        "tanh": (lambda: _weighted_sum(ad.tanh(x), philox(seed + 9)), [x]),
        "hardtanh": (lambda: _weighted_sum(ad.hardtanh(x, 0.0, 1.0), philox(seed + 10)), [x]),
        "dropout": (lambda: _weighted_sum(ad.dropout(x, 0.4, 123), philox(seed + 11)), [x]),
        "row_gather": (lambda: _weighted_sum(
            ad.fixed_sparse_matmul(g.edge_src, g.scatter_src, x), philox(seed + 12)), [x]),
        "slice_columns": (lambda: _weighted_sum(ad.slice_columns(x, 1, 3), philox(seed + 13)), [x]),
        "concat_columns": (lambda: _weighted_sum(ad.concat_columns([x, y]), philox(seed + 14)), [x, y]),
        "segment_sum": (lambda: _weighted_sum(
            ad.fixed_sparse_matmul(g.scatter_dst, g.edge_dst, edge_vals), philox(seed + 15)),
            [edge_vals]),
        "rev_edge_gather": (lambda: _weighted_sum(
            ad.fixed_sparse_matmul(g.rev_edge, g.rev_edge, edge_vals), philox(seed + 19)),
            [edge_vals]),
        "weighted_transport": (lambda: _weighted_sum(
            ad.weighted_transport(edge_vals, x, g.edge_src, g.scatter_src, g.scatter_dst,
                                  g.edge_dst), philox(seed + 23)), [edge_vals, x]),
        "edge_scores": (lambda: _weighted_sum(
            ad.edge_scores(x, w, bias, w2, bias2, w3, w4, g.edge_src, g.edge_dst,
                           g.scatter_src, g.scatter_dst, g.rev_edge), philox(seed + 24)),
            [x, w, bias, w2, bias2, w3, w4]),
        "segment_softmax": (lambda: _weighted_sum(
            ad.segment_softmax(edge_vals, g.edge_src, g.scatter_src, g.max_plan),
            philox(seed + 16)), [edge_vals]),
        "total_sum": (lambda: ad.total_sum(x), [x]),
        "batch_norm_train": (lambda: _weighted_sum(
            ad.batch_norm(x, gamma, beta, bn_state, train=True), philox(seed + 17)),
            [x, gamma, beta]),
        "batch_norm_eval": (lambda: _weighted_sum(
            ad.batch_norm(x, gamma, beta, bn_state, train=False), philox(seed + 18)),
            [x, gamma, beta]),
        "cross_entropy": (lambda: ad.cross_entropy(x, labels, mask), [x]),
        "mse": (lambda: ad.mse(x, target, mask), [x]),
        "mae": (lambda: ad.mae(x, target, mask), [x]),
    }
    results = []
    for name, (build, wrt) in cases.items():
        err = relative_gradient_error(build, wrt)
        results.append({"check": name, "max_rel_err": err, "tol": PRIMITIVE_TOL,
                        "passed": err <= PRIMITIVE_TOL})
    return results


def series_checks(seed: int = 0) -> list[dict]:
    """The diffusion solve and a full layer at the shipped series degree and
    a deep one; the backward rule is exact for the series at any degree."""
    g7, g5 = erdos_renyi(7, 0.6, seed=seed + 20), erdos_renyi(5, 0.7, seed=seed + 30)
    rng = philox(seed + 21)
    rhs = Variable(rng.standard_normal((7, 2)), requires_grad=True)
    kappa = Variable(rng.uniform(0.2, 0.9, 2), requires_grad=True)
    rng = philox(seed + 31)
    params = AdrLayerParams.init(2, rng)
    u, u0 = (Variable(rng.standard_normal((5, 2)), requires_grad=True) for _ in range(2))
    layer_wrt = ([u, u0] + params.advection.parameters() + params.diffusion.parameters()
                 + params.reaction.parameters())
    results = []
    for k in SERIES_DEGREES:
        for name, build, wrt, tol in (
                ("cg_solve", lambda: _weighted_sum(ad.cg_solve(
                    lambda v: laplacian_apply(g7, v), rhs, kappa, h=0.8, iterations=k),
                    philox(seed + 22)), [rhs, kappa], PRIMITIVE_TOL),
                ("adr_layer", lambda: _weighted_sum(adr_layer(
                    g5, u, u0, params, h=0.6, cg_iterations=k), philox(seed + 32)),
                 layer_wrt, MODEL_TOL)):
            err = relative_gradient_error(build, wrt)
            results.append({"check": f"{name}_degree{k}", "max_rel_err": err, "tol": tol,
                            "passed": err <= tol})
    return results


def model_checks(seed: int = 0) -> list[dict]:
    results = []
    g = erdos_renyi(5, 0.7, seed=seed + 40)
    rng = philox(seed + 41)
    x = rng.standard_normal((5, 3))
    static = AdrGnnStatic.init(c_in=3, c_out=2, hidden=2, layers=2, h=0.5,
                               seed=seed + 42)
    labels = rng.integers(0, 2, size=5)

    def build_static():
        return ad.cross_entropy(static.forward(g, x, train=False), labels)

    params = list(static.named_parameters().values())
    err = relative_gradient_error(build_static, params)
    results.append({"check": "forward_static", "max_rel_err": err, "tol": MODEL_TOL,
                    "passed": err <= MODEL_TOL})

    g4 = erdos_renyi(4, 0.8, seed=seed + 43)
    tau_in = 2
    temporal = AdrGnnTemporal.init(c_in=1, c_out=1, hidden=2, layers=2, h=0.5,
                                   tau_in=tau_in, tau_out=1, n_frequencies=2,
                                   seed=seed + 44)
    xt = philox(seed + 45).standard_normal((4, tau_in))
    emb = broadcast_time_embedding(time_embedding([0.0, 1.0], 2), 4)
    target = philox(seed + 46).standard_normal((4, 1))

    def build_temporal():
        return ad.mse(temporal.forward(g4, xt, emb, train=False), target)

    params = list(temporal.named_parameters().values())
    err = relative_gradient_error(build_temporal, params)
    results.append({"check": "forward_temporal", "max_rel_err": err, "tol": MODEL_TOL,
                    "passed": err <= MODEL_TOL})
    return results


def run_all_checks(seed: int = 0) -> list[dict]:
    return primitive_checks(seed) + series_checks(seed) + model_checks(seed)
