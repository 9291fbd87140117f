"""Finite-difference verification of every backward rule, runnable as a
suite (the `gradcheck` CLI subcommand exits nonzero on any failure).

It checks each taped primitive of :mod:`adrgnn.autodiff`: ``matmul`` (as
``matmul`` and, with its fused bias, ``linear``), ``relu``, ``hardtanh``,
``dropout``, ``concat_columns``, ``advection``, ``reaction`` (plain and with
batch norm in training and evaluation), the losses ``cross_entropy``,
``mse`` and ``mae``, and ``cg_solve`` (alone and in a full layer) at the
shipped series degree and a deep one; then the static and temporal models.
``fixed_sparse_matmul`` is checked in the tests. Each checked output is
reduced to a scalar by its ``mse`` to a fixed random target."""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Linear, Tape, Variable, backward
from .graph import erdos_renyi, laplacian_apply
from .models import (AdrGnnStatic, AdrGnnTemporal, broadcast_time_embedding,
                     time_embedding)
from .operators import AdrLayerParams, AdvectionParams, adr_layer, advect, edge_velocities
from .runtime import philox

PRIMITIVE_TOL = 1e-5
MODEL_TOL = 1e-4
FD_STEP = 1e-6
# largest gradient, relative to the largest one of its check, of a parameter
# whose exact gradient is zero
VANISHING_TOL = 1e-12
# the shipped diffusion series degree (TrainConfig.cg_iterations) and a deep one
SERIES_DEGREES = (5, 40)


def relative_gradient_error(build_loss: Callable[[], Variable], wrt: list[Variable],
                            step: float = FD_STEP, vanishing: tuple = ()) -> float:
    """Max over ``wrt`` of ||grad_ad - grad_fd||_inf / max(||grad_fd||_inf, 1e-6),
    with central differences of the re-evaluated loss. Each of ``vanishing``
    has an exact zero gradient, which differences resolve only to their
    noise: it is not differenced, and the error is infinite unless its
    gradient is within ``VANISHING_TOL`` times the largest of ``wrt``'s."""
    for p in (*wrt, *vanishing):
        p.zero_grad()
    with Tape() as tape:
        loss = build_loss()
    backward(tape, loss)
    largest = max(np.abs(p.grad).max() for p in wrt)
    if any(np.abs(p.grad).max() > VANISHING_TOL * largest for p in vanishing):
        return float("inf")
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


def _to_scalar(out: Variable, rng: np.random.Generator) -> Variable:
    """The scalar a check differentiates: ``out``'s mean squared distance to
    a random target drawn from ``rng``."""
    return ad.mse(out, rng.standard_normal(out.value.shape))


def primitive_checks(seed: int = 0) -> list[dict]:
    rng = philox(seed)
    g = erdos_renyi(6, 0.6, seed=seed + 1)
    n, c = 6, 3
    x = Variable(rng.standard_normal((n, c)) + 0.1, requires_grad=True)
    y = Variable(rng.standard_normal((n, c)) + 0.05, requires_grad=True)
    w = Variable(rng.standard_normal((c, c)), requires_grad=True)
    bias = Variable(rng.standard_normal(c), requires_grad=True)
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
    bias3 = Variable(rng.standard_normal(c), requires_grad=True)
    reaction_weights = [w, bias, w2, bias2, w3, bias3]
    # velocities from y: the op records them with this network, apart from x
    velocity_net = AdvectionParams(Linear(w, bias), Linear(w2, bias2), Linear(w3), Linear(w4))

    cases = {
        "matmul": (lambda: _to_scalar(ad.matmul(x, w), philox(seed + 3)), [x, w]),
        "linear": (lambda: _to_scalar(ad.matmul(x, w, bias), philox(seed + 20)),
                   [x, w, bias]),
        "relu": (lambda: _to_scalar(ad.relu(x), philox(seed + 8)), [x]),
        "hardtanh": (lambda: _to_scalar(ad.hardtanh(x, 0.0, 1.0), philox(seed + 10)), [x]),
        "dropout": (lambda: _to_scalar(ad.dropout(x, 0.4, philox(123)), philox(seed + 11)), [x]),
        "concat_columns": (lambda: _to_scalar(ad.concat_columns([x, y]), philox(seed + 14)), [x, y]),
        "advection": (lambda: _to_scalar(
            advect(g, x, edge_velocities(g, y, velocity_net), 0.7), philox(seed + 23)),
            [x, y, w, bias, w2, bias2, w3, w4]),
        "reaction": (lambda: _to_scalar(
            ad.reaction(x, y, reaction_weights, 0.7), philox(seed + 9)),
            [x, y] + reaction_weights),
        "reaction_batch_norm_train": (lambda: _to_scalar(ad.reaction(
            x, y, reaction_weights + [gamma, beta], 0.7, bn_state, train=True),
            philox(seed + 17)), [x, y, gamma, beta, w, w2, bias2, w3]),
        "reaction_batch_norm_eval": (lambda: _to_scalar(ad.reaction(
            x, y, reaction_weights + [gamma, beta], 0.7, bn_state, train=False),
            philox(seed + 18)), [x, y, gamma, beta] + reaction_weights),
        "cross_entropy": (lambda: ad.cross_entropy(x, labels, mask), [x]),
        "mse": (lambda: ad.mse(x, target), [x]),
        "mae": (lambda: ad.mae(x, target), [x]),
    }
    results = []
    # the batch statistics cancel b1 and b3, so their gradients vanish
    vanishing = {"reaction_batch_norm_train": (bias, bias3)}
    for name, (build, wrt) in cases.items():
        err = relative_gradient_error(build, wrt, vanishing=vanishing.get(name, ()))
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
                ("cg_solve", lambda: _to_scalar(ad.cg_solve(
                    lambda v: laplacian_apply(g7, v), rhs, kappa, h=0.8, iterations=k),
                    philox(seed + 22)), [rhs, kappa], PRIMITIVE_TOL),
                ("adr_layer", lambda: _to_scalar(adr_layer(
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
