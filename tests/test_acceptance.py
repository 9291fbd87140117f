"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Criteria 1-9 run standalone on synthetic fixtures; the
published-dataset reproductions (10-14) need converted dataset containers
under $ADRGNN_DATA (default: ./data) and skip with a pointer to the
conversion scripts when those are absent.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import adrgnn.autodiff as ad
from adrgnn.autodiff import Tape, Variable, backward
from adrgnn.data import (load_graph_dataset, load_temporal_dataset,
                         make_transport_task, normalize_series)
from adrgnn.gradcheck import run_all_checks
from adrgnn.graph import dirichlet_energy, erdos_renyi, laplacian_apply, laplacian_dense
from adrgnn.operators import (AdvectionParams, DiffusionParams, EdgeVelocities,
                              advect, advection_matrix, diffuse, edge_velocities,
                              splitting_error_study)
from adrgnn.runtime import philox
from adrgnn.training import (GROUPS, TrainConfig, ablation_study, depth_energy_study,
                             run_splits, train_temporal, transport_fit)

from conftest import random_velocities

DATA_DIR = Path(os.environ.get("ADRGNN_DATA", Path(__file__).resolve().parent.parent / "data"))
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status} {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def dataset_or_skip(name: str) -> Path:
    path = DATA_DIR / name
    if not (path / "manifest.json").exists():
        pytest.skip(
            f"converted dataset {name!r} not found under {DATA_DIR}; build it with "
            f"scripts/convert_citation.py or scripts/convert_temporal.py "
            f"(raw downloads are not possible in a hermetic environment)")
    return path


def load_config(name: str) -> TrainConfig:
    return TrainConfig.from_dict(json.loads((CONFIG_DIR / f"{name}.json").read_text()))


class TestPropertyCriteria:
    def test_c01_mass_conservation(self):
        """200 random (graph, velocities, features, h): per-channel sums drift
        at most 1e-9 under one advection step."""
        worst = 0.0
        for trial in range(200):
            gen = philox(trial)
            n = int(gen.integers(3, 60))
            g = erdos_renyi(n, float(gen.uniform(0.05, 0.8)), seed=trial)
            c = int(gen.integers(1, 5))
            v = EdgeVelocities(Variable(random_velocities(g, c, trial + 1)))
            u = Variable(gen.standard_normal((n, c)) * 10)
            h = float(gen.uniform(0.001, 1.0))
            out = advect(g, u, v, h)
            worst = max(worst, float(np.abs(out.value.sum(0) - u.value.sum(0)).max()))
        report("1", worst <= 1e-9, f"max mass drift {worst:.2e}")

    def test_c02_stability(self):
        """100 random advection matrices: column sums 1 +- 1e-12, nonnegative
        entries, spectral radius <= 1 + 1e-9; 1000-fold advection never
        amplifies a unit point mass, and nonnegative features stay bounded
        by their conserved total."""
        col_err = 0.0
        min_entry = np.inf
        rho_max = 0.0
        for trial in range(100):
            gen = philox(1000 + trial)
            n = int(gen.integers(3, 25))
            g = erdos_renyi(n, float(gen.uniform(0.1, 0.8)), seed=trial)
            v = EdgeVelocities(Variable(random_velocities(g, 1, trial + 7)))
            h = float(gen.uniform(0.01, 1.0))
            a = advection_matrix(g, v, h, channel=0)
            col_err = max(col_err, float(np.abs(a.sum(axis=0) - 1.0).max()))
            min_entry = min(min_entry, float(a.min()))
            rho_max = max(rho_max, float(np.abs(np.linalg.eigvals(a)).max()))

        g = erdos_renyi(20, 0.25, seed=77)
        v = EdgeVelocities(Variable(random_velocities(g, 1, 78)))
        point = np.zeros((20, 1))
        point[5, 0] = 1.0
        u = point.copy()
        point_ok = True
        for _ in range(1000):
            u = advect(g, Variable(u), v, 1.0).value
            point_ok = point_ok and u.max() <= 1.0 + 1e-6
        u0 = philox(79).uniform(0.0, 1.0, (20, 1))
        u = u0.copy()
        bounded = True
        for _ in range(1000):
            u = advect(g, Variable(u), v, 0.9).value
            bounded = bounded and u.max() <= u0.sum() * (1 + 1e-6) and u.min() >= -1e-12
        ok = (col_err <= 1e-12 and min_entry >= 0.0 and rho_max <= 1 + 1e-9
              and point_ok and bounded)
        report("2", ok, f"col err {col_err:.1e}, min {min_entry:.1e}, rho {rho_max:.9f}")

    def test_c03_outbound_sums_and_one_sided_zero(self):
        """100 random velocity computations: softmax outbound sums 1 +- 1e-9
        per node and channel; pre-normalization one-sided zero holds exactly."""
        sum_err = 0.0
        exact = True
        for trial in range(100):
            gen = philox(2000 + trial)
            n = int(gen.integers(3, 30))
            g = erdos_renyi(n, float(gen.uniform(0.15, 0.8)), seed=trial + 3)
            c = int(gen.integers(1, 4))
            params = AdvectionParams.init(c, philox(trial + 11))
            u = Variable(gen.standard_normal((n, c)))
            v, asym, asym_rev = edge_velocities(g, u, params, return_prenorm=True)
            sums = np.zeros((n, c))
            np.add.at(sums, g.edge_src, v.values.value)
            if (~g.isolated).any():
                sum_err = max(sum_err, float(np.abs(sums[~g.isolated] - 1).max()))
            exact = exact and bool(np.all(asym.value * asym_rev.value == 0.0))
        report("3", sum_err <= 1e-9 and exact,
               f"max outbound-sum error {sum_err:.2e}, one-sided-zero exact={exact}")

    def test_c04_gradient_checks(self):
        """Every primitive, the CG solve, the full layer and both model
        forwards match central finite differences at their tolerances."""
        results = run_all_checks(seed=0)
        failures = [r for r in results if not r["passed"]]
        worst = max(r["max_rel_err"] / r["tol"] for r in results)
        report("4", not failures,
               f"{len(results)} checks, worst err/tol ratio {worst:.3f}")

    def test_c05_cg_oracle_and_adjoint(self):
        """A degree-4n diffusion series matches a dense direct solve to 1e-8
        on graphs up to n=30, and at degree 24 its backward rule matches the
        exact solve's gradient (the dense inverse applied to the upstream
        gradient, and -h <A^-1 w, L A^-1 b> for kappa) to 1e-6."""
        worst = 0.0
        for seed in range(8):
            n = int(philox(seed).integers(5, 31))
            g = erdos_renyi(n, 0.3, seed=seed)
            gen = philox(seed + 50)
            rhs = gen.standard_normal((n, 2))
            kappa = gen.uniform(0.0, 1.0, 2)
            h = float(gen.uniform(0.1, 1.0))
            out = ad.cg_solve(lambda x, g=g: laplacian_apply(g, x), Variable(rhs),
                              Variable(kappa), h, iterations=4 * n)
            dense = laplacian_dense(g)
            for c in range(2):
                direct = np.linalg.solve(np.eye(n) + h * kappa[c] * dense, rhs[:, c])
                worst = max(worst, float(np.abs(out.value[:, c] - direct).max()))

        g = erdos_renyi(6, 0.6, seed=7)
        dense = laplacian_dense(g)
        gen = philox(60)
        rhs_val = gen.standard_normal((6, 2))
        kappa_val = gen.uniform(0.3, 0.9, 2)
        w = gen.standard_normal((6, 2))
        rhs = Variable(rhs_val, requires_grad=True)
        kappa = Variable(kappa_val, requires_grad=True)
        with Tape() as tape:
            out = ad.cg_solve(lambda x: laplacian_apply(g, x), rhs, kappa, 0.6, iterations=24)
            loss = ad.total_sum(ad.hadamard(out, Variable(w)))
        backward(tape, loss)
        adj_err = 0.0
        for c in range(2):
            a = np.eye(6) + 0.6 * kappa_val[c] * dense
            g_rhs = np.linalg.solve(a, w[:, c])
            g_kappa = -0.6 * g_rhs @ dense @ np.linalg.solve(a, rhs_val[:, c])
            adj_err = max(adj_err, float(np.abs(rhs.grad[:, c] - g_rhs).max()
                                         / np.abs(g_rhs).max()),
                          abs(kappa.grad[c] - g_kappa) / abs(g_kappa))
        report("5", worst <= 1e-8 and adj_err <= 1e-6,
               f"dense gap {worst:.2e}, gradient vs exact solve {adj_err:.2e}")

    def test_c06_operator_splitting(self):
        """Commuting triples produce discrepancy <= 1e-12; halving dt shrinks
        the discrepancy of random 4x4 triples by 3.3x to 4.7x on average."""
        gen = philox(123)
        diag = [np.diag(gen.standard_normal(5)) for _ in range(3)]
        commuting = splitting_error_study(*diag, 0.4, gen.standard_normal(5))
        ratios = []
        for trial in range(50):
            g2 = philox(0, trial)
            a, d, r = (g2.standard_normal((4, 4)) for _ in range(3))
            u = g2.standard_normal(4)
            ratios.append(splitting_error_study(a, d, r, 0.05, u)
                          / splitting_error_study(a, d, r, 0.025, u))
        mean_ratio = float(np.mean(ratios))
        report("6", commuting <= 1e-12 and 3.3 <= mean_ratio <= 4.7,
               f"commuting {commuting:.1e}, mean halving ratio {mean_ratio:.3f}")

    def test_c07_diffusion_contracts_energy(self):
        """Implicit diffusion at degree 4n never raises the Dirichlet energy
        on 50 random instances; zero coefficients are the exact identity."""
        worst_increase = -np.inf
        for trial in range(50):
            gen = philox(3000 + trial)
            n = int(gen.integers(4, 30))
            g = erdos_renyi(n, float(gen.uniform(0.15, 0.8)), seed=trial + 5)
            u = Variable(gen.standard_normal((n, 3)))
            params = DiffusionParams(Variable(gen.uniform(0.0, 1.0, 3)))
            out = diffuse(g, u, params, h=float(gen.uniform(0.05, 1.0)),
                          cg_iterations=4 * n)
            worst_increase = max(worst_increase,
                                 dirichlet_energy(g, out.value) - dirichlet_energy(g, u.value))
        g = erdos_renyi(12, 0.5, seed=404)
        u = Variable(philox(405).standard_normal((12, 2)))
        identity_out = diffuse(g, u, DiffusionParams(Variable(np.array([-2.0, 0.0]))), h=0.7)
        exact_identity = np.array_equal(identity_out.value, u.value)
        report("7", worst_increase <= 1e-9 and exact_identity,
               f"worst energy increase {worst_increase:.2e}, kappa=0 identity={exact_identity}")

    def test_c08_training_determinism(self, tmp_path):
        """Two identical seeded training runs produce byte-identical
        metrics.csv files."""
        from adrgnn.cli import main
        from adrgnn.data import make_planted_partition, save_bundle
        bundle = make_planted_partition(24, 2, 0.35, 0.05, feat_dim=4, noise=0.6,
                                        seed=3, k_splits=1)
        data = tmp_path / "toy"
        save_bundle(bundle, data)
        payloads = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = main(["train", "--dataset", str(data), "--out", str(out),
                         "--epochs", "20", "--patience", "20", "--hidden", "8",
                         "--layers", "2", "--seed", "5"])
            assert code == 0
            payloads.append((out / "metrics.csv").read_bytes())
        report("8", payloads[0] == payloads[1],
               f"{len(payloads[0])} bytes, identical={payloads[0] == payloads[1]}")


class TestQuantitativeCriteria:
    def test_c09_synthetic_transport(self):
        """On the 5-node fixture: advection-only reaches MSE <= 1e-4 while
        diffusion-only and reaction-only stay >= 1e-2, inside one minute."""
        start = time.monotonic()
        task = make_transport_task(5, 0.55, 2, seed=2)
        mse = {}
        for terms in ("A", "D", "R"):
            mse[terms] = transport_fit(task, terms, layers=4, h=1.0, lr=0.05,
                                       epochs=800, seed=0, channels=8).final_mse
        elapsed = time.monotonic() - start
        ok = mse["A"] <= 1e-4 and mse["D"] >= 1e-2 and mse["R"] >= 1e-2 and elapsed < 60
        report("9", ok, f"A {mse['A']:.1e}, D {mse['D']:.1e}, R {mse['R']:.1e}, "
                        f"{elapsed:.0f}s")

    def test_c10_cora_accuracy(self):
        """Mean test accuracy over the 10 splits >= 87.9 with the shipped
        tuned config (runtime budget: one hour on a desktop CPU)."""
        bundle = load_graph_dataset(dataset_or_skip("cora"))
        cfg = load_config("cora")
        _results, summary = run_splits(bundle, cfg)
        mean_acc = summary["accuracy"][0] * 100
        report("10", mean_acc >= 87.9, f"Cora mean accuracy {mean_acc:.2f}%")

    def test_c11_chameleon_accuracy(self):
        """Mean accuracy >= 76.0 over the 10 splits (45-minute budget)."""
        bundle = load_graph_dataset(dataset_or_skip("chameleon"))
        cfg = load_config("chameleon")
        _results, summary = run_splits(bundle, cfg)
        mean_acc = summary["accuracy"][0] * 100
        report("11", mean_acc >= 76.0, f"Chameleon mean accuracy {mean_acc:.2f}%")

    def test_c12_ablation_ordering(self):
        """Full three-term model beats every single term on the mean over 10
        splits; the pointwise-only variant is the weakest single term."""
        bundle = load_graph_dataset(dataset_or_skip("cora"))
        cfg = load_config("cora")
        rows = ablation_study(bundle, ["A", "D", "R", "ADR"], cfg)
        acc = {r["terms"]: r["summary"]["accuracy"][0] for r in rows}
        ok = (acc["ADR"] >= max(acc["A"], acc["D"], acc["R"])
              and acc["R"] <= min(acc["A"], acc["D"]))
        report("12", ok, f"accuracies {acc}")

    def test_c13_temporal_forecasting(self):
        """Chickenpox mean MSE <= 0.90 and PedalMe mean MSE <= 0.80 over 10
        seeded repetitions (20-minute budget)."""
        results = {}
        for name, bound in (("chickenpox", 0.90), ("pedalme", 0.80)):
            dataset = load_temporal_dataset(dataset_or_skip(name))
            dataset, _inv = normalize_series(dataset)
            cfg = load_config(name)
            mses = []
            for rep in range(10):
                rep_cfg = TrainConfig.from_dict({**cfg.to_dict(), "seed": cfg.seed + rep})
                mses.append(train_temporal(dataset, rep_cfg).metrics.mse)
            results[name] = (float(np.mean(mses)), bound)
        ok = all(mean <= bound for mean, bound in results.values())
        report("13", ok, f"{results}")

    def test_c14_depth_study(self):
        """Depth-64 accuracy within 2 points of depth-2 on Cora, and the
        deep model's relative Dirichlet energy stays above the convolution
        baseline's at the final layer (90-minute budget)."""
        bundle = load_graph_dataset(dataset_or_skip("cora"))
        cfg = load_config("cora")
        rows = depth_energy_study(bundle, [2, 64], cfg)
        adr = {r["depth"]: r for r in rows if r["model"] == "adr"}
        gcn = {r["depth"]: r for r in rows if r["model"] == "gcn"}
        acc_drop = (adr[2]["accuracy"] - adr[64]["accuracy"]) * 100
        energy_ok = adr[64]["relative_energy"][-1] > gcn[64]["relative_energy"][-1]
        report("14", acc_drop <= 2.0 and energy_ok,
               f"accuracy drop {acc_drop:.2f} points, "
               f"final-layer relative energy adr {adr[64]['relative_energy'][-1]:.2e} "
               f"vs gcn {gcn[64]['relative_energy'][-1]:.2e}")
