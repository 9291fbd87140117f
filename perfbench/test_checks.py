"""Each benchmark check passes a right output and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import pytest

import checks
import workloads
from adrgnn import autodiff as ad
from adrgnn.graph import erdos_renyi, laplacian_apply
from adrgnn.operators import EdgeVelocities, advect
from adrgnn.runtime import philox


@pytest.fixture(scope="module")
def g():
    return erdos_renyi(40, 0.15, seed=3)


def unit_velocities(g, c: int) -> np.ndarray:
    raw = philox(7).uniform(0.05, 1.0, size=(g.n_edges, c))
    sums = np.zeros((g.n_nodes, c))
    np.add.at(sums, g.edge_src, raw)
    return raw / sums[g.edge_src]


def test_velocities(g):
    v = unit_velocities(g, 3)
    assert checks.velocities(v, g.edge_src, g.n_nodes) == []
    assert checks.velocities(0.9 * v, g.edge_src, g.n_nodes)
    bad = v.copy()
    bad[0, 0] = -1e-3
    assert checks.velocities(bad, g.edge_src, g.n_nodes)


def test_mass_conserved(g):
    u = philox(8).standard_normal((g.n_nodes, 3))
    out = advect(g, u, EdgeVelocities(ad.Variable(unit_velocities(g, 3))), 0.7).value
    assert checks.mass_conserved(u, out) == []
    shifted = out.copy()
    shifted[5, 1] += 1e-6 * np.abs(u[:, 1]).sum()
    assert checks.mass_conserved(u, shifted)


def test_cg_within_bound(g):
    rhs = philox(9).standard_normal((g.n_nodes, 4))
    kappa = np.array([0.0, 0.3, 0.7, 1.0])
    eig = checks.laplacian_eigh(checks.normalized_laplacian(g.n_nodes, g.edge_src, g.edge_dst))
    solved = ad.cg_solve(lambda x: laplacian_apply(g, x), rhs, kappa, 1.0, iterations=5).value
    assert checks.cg_within_bound(rhs, solved, kappa, 1.0, eig, 5, 1e-10) == []
    # 2 rho^5 is at most 2.8e-3 for kappa <= 1; a 5% error is beyond it
    assert checks.cg_within_bound(rhs, 1.05 * solved, kappa, 1.0, eig, 5, 1e-10)
    # the Laplacian the check builds agrees with the program's
    assert np.allclose(checks.normalized_laplacian(g.n_nodes, g.edge_src, g.edge_dst) @ rhs,
                       laplacian_apply(g, rhs), atol=1e-14)


def test_directional_gradient():
    x = philox(11).standard_normal((30, 5))
    w = philox(12).standard_normal((5, 2))

    def loss():
        return float(np.tanh(x @ w).sum())

    grad = x.T @ (1.0 - np.tanh(x @ w) ** 2)
    assert checks.directional_gradient(grad, w, loss, seed=0) == []
    assert checks.directional_gradient(1.01 * grad, w, loss, seed=0)
    wrong = grad.copy()
    wrong[0, 0] *= -1.0
    assert checks.directional_gradient(wrong, w, loss, seed=0)
    assert np.array_equal(w, philox(12).standard_normal((5, 2)))  # restored


def test_scalar_checks():
    assert checks.falls([2.0, 1.5, 0.9], 0.5) == []
    assert checks.falls([2.0, 1.5, 1.1], 0.5)
    assert checks.falls([1.0, 1.0], 1.0)
    assert checks.at_least(0.6, 3 / 7, "accuracy") == []
    assert checks.at_least(1 / 7, 3 / 7, "accuracy")
    assert checks.close(np.ones(3), np.ones(3)) == []
    assert checks.close(np.ones(3) + 1e-9, np.ones(3))


def test_chickenpox_check_rejects_tampered_result():
    wl = workloads.ChickenpoxTemporal(seed=1)
    wl.setup()
    result = wl.train()
    assert wl.check(result) == []
    result.metrics.mse *= 1.01
    result.history.reverse()
    failures = wl.check(result)
    for part in ("test MSE", "epoch training loss"):
        assert any(part in f for f in failures), (part, failures)


def test_failed_training_call_is_counted(monkeypatch):
    def diverge(self):
        raise workloads.training.TrainingDiverged("non-finite temporal loss at epoch 0")

    monkeypatch.setattr(workloads.ChickenpoxTemporal, "train", diverge)
    res = workloads.run("chickenpox-temporal", seed=1, seconds=0.0)
    per_round = 1 + workloads.ChickenpoxTemporal.evals_per_round
    assert (res["correct"], res["attempted"], res["failed"]) == (False, per_round, per_round)
    assert "TrainingDiverged" in res["failures"][0]
