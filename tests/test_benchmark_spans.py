"""The benchmark (perfbench/) reads program functions by name from outside
the program, and its traced run (perfbench/tracing.py) wraps some of them.
These tests keep those names in place: a renamed, moved or deleted function
would make the benchmark fail, or silently report zero for its per-layer
metric."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import re
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

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def _program_names(tree: ast.Module) -> set[str]:
    """The dotted adrgnn names a benchmark file reads: each attribute chain
    on a name bound to an adrgnn module (by ``import``, ``from adrgnn import``
    or ``importlib.import_module``), each ``from adrgnn... import`` name, and
    each string constant that is a dotted adrgnn path."""
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "adrgnn":
                    if alias.asname:
                        modules[alias.asname] = alias.name
                    else:
                        modules["adrgnn"] = "adrgnn"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "adrgnn":
            for alias in node.names:
                names.add(f"{node.module}.{alias.name}")
                if node.module == "adrgnn":
                    modules[alias.asname or alias.name] = f"adrgnn.{alias.name}"
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Attribute)
              and node.value.func.attr == "import_module"):
            path = node.value.args[0]
            if isinstance(path, ast.Constant) and str(path.value).startswith("adrgnn"):
                for target in node.targets:
                    modules[target.id] = path.value
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"adrgnn(\.\w+)+", node.value)):
            names.add(node.value)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            names.add(".".join([modules[node.id], *reversed(chain)]))
    return names


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, then look up the rest
    as attributes until they reach an object that is neither a module nor a
    class (an attribute of an instance is not checked)."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            if not (inspect.ismodule(obj) or inspect.isclass(obj)):
                return True
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_every_program_name_the_benchmark_reads_resolves():
    names = {name for path in sorted(PERFBENCH.glob("*.py"))
             for name in _program_names(ast.parse(path.read_text()))}
    # the guard sees the benchmark's own module aliases and import_module calls
    assert {"adrgnn.training.AdamW.step", "adrgnn.data.make_windows",
            "adrgnn.autodiff._ACTIVE_TAPE", "adrgnn.models.AdrGnnStatic"} <= names
    missing = sorted(name for name in names if not _resolves(name))
    assert not missing, f"perfbench/ reads names the program no longer has: {missing}"


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
