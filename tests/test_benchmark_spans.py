"""The benchmark's traced run (perfbench/tracing.py) wraps program functions
by name from outside the program. These tests keep those names in place:
a renamed or moved function would make the traced run fail, or silently
report zero for its per-layer metric."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import numpy.polynomial.chebyshev as cheb
import pytest

import adrgnn.autodiff as ad
from adrgnn.autodiff import Tape, Variable
from adrgnn.data import TemporalDataset, make_planted_partition, make_transport_task
from adrgnn.graph import erdos_renyi
from adrgnn.runtime import philox
from adrgnn.training import (TrainConfig, train_gcn_baseline, train_node_classification,
                             train_temporal, transport_fit)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves_to_a_callable(tracing):
    assert tracing.SPANS
    for path, attr, _name in tracing.SPANS:
        owner = tracing._resolve(path)
        assert callable(getattr(owner, attr, None)), f"{path}.{attr} is gone"


def test_the_open_tape_is_the_module_level_active_tape():
    # the tracer finds the open tape under this name
    assert ad._ACTIVE_TAPE is None
    with Tape() as tape:
        assert ad._ACTIVE_TAPE is tape
    assert ad._ACTIVE_TAPE is None


def test_cg_solve_records_its_own_tape_entry():
    # the cg_adjoint span wraps the backward rule of this record
    rhs = Variable(np.ones((3, 2)), requires_grad=True)
    with Tape() as tape:
        out = ad.cg_solve(lambda x: 0.5 * x, rhs, Variable(np.ones(2)), h=1.0)
    assert out.tape_id == len(tape.records) - 1
    # L = 0.5 I, so the degree-5 series is p(-0.5) times the identity, for p
    # the first six Chebyshev coefficients of r(x) = 1 / (1 + h kappa (1 + x))
    # at h = kappa = 1; the kappa gradient of sum(g * u) for g = rhs = ones is
    # 3 q(-0.5) per channel, for q those of dr/dkappa = -(1 + x) r(x)^2
    r = cheb.Chebyshev.interpolate(lambda x: 1.0 / (2.0 + x), 60).coef[:6]
    q = cheb.Chebyshev.interpolate(lambda x: -(1.0 + x) / (2.0 + x) ** 2, 60).coef[:6]
    np.testing.assert_allclose(out.value, np.full((3, 2), cheb.chebval(-0.5, r)), rtol=1e-12)
    _, _, rule = tape.records[out.tape_id]
    g_rhs, g_kappa = rule(np.ones((3, 2)))
    np.testing.assert_allclose(g_rhs, np.full((3, 2), cheb.chebval(-0.5, r)), rtol=1e-12)
    assert g_kappa.shape == (2,)
    np.testing.assert_allclose(g_kappa, np.full(2, 3 * cheb.chebval(-0.5, q)), rtol=1e-12)


def test_traced_training_reaches_every_wrapped_stage(tracing):
    bundle = make_planted_partition(30, 2, 0.3, 0.05, feat_dim=5, noise=0.5, seed=0,
                                    k_splits=1)
    cfg = TrainConfig(epochs=1, patience=5, layers=2, hidden=8)
    series = philox(4).standard_normal((12, 5, 1))
    temporal = TemporalDataset(graph=erdos_renyi(5, 0.8, seed=3), series=series,
                               timestamps=np.arange(12, dtype=np.float64))
    task = make_transport_task(5, 0.55, 2, seed=2)
    tracer = tracing.Tracer()
    originals = [getattr(tracing._resolve(path), attr) for path, attr, _ in tracing.SPANS]
    tracer.install()
    try:
        train_node_classification(bundle, cfg)
        # GCN applies ad.fixed_sparse_matmul every layer; this dense-feature
        # ADR classifier does not
        train_gcn_baseline(bundle, cfg)
        # the other two training loops share the traced train step
        for run in (lambda: train_temporal(temporal, TrainConfig(epochs=1, layers=1,
                                                                 hidden=4, loss="mse")),
                    lambda: transport_fit(task, "ADR", layers=1, epochs=3, channels=2)):
            before = tracer.snapshot()
            run()
            ran = tracer.since(before)
            for name in ("models.forward_train", "autodiff.backward",
                         "training.adamw_step", "training.loss"):
                assert ran.get(name, [0])[0] > 0, f"span {name} never ran"
    finally:
        tracer.uninstall()
    assert [getattr(tracing._resolve(path), attr)
            for path, attr, _ in tracing.SPANS] == originals
    for name in ("graph.laplacian_apply", "autodiff.cg_solve", "autodiff.cg_adjoint",
                 "autodiff.segment_softmax", "autodiff.fixed_sparse_matmul",
                 "autodiff.matmul", "autodiff.backward", "operators.edge_velocities",
                 "operators.diffuse", "training.adamw_step", "training.loss",
                 "models.forward_train", "models.input_embedding",
                 tracing.TAPE_FREE_FORWARD):
        assert tracer.totals.get(name, [0])[0] > 0, f"span {name} never ran"
