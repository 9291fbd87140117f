from __future__ import annotations

import numpy as np
import pytest

import adrgnn.autodiff as ad
from adrgnn.autodiff import Tape, Variable, backward
from adrgnn.graph import build_graph, erdos_renyi, laplacian_apply
from adrgnn.runtime import philox

from conftest import check_grads, laplacian_dense, taped_hadamard, taped_total_sum


def lap_fn(g):
    return lambda x: laplacian_apply(g, x)


class TestForwardSolve:
    def test_kappa_zero_identity_in_one_iteration(self):
        g = erdos_renyi(10, 0.5, seed=0)
        rhs = philox(1).standard_normal((10, 3))
        out = ad.cg_solve(lap_fn(g), Variable(rhs), Variable(np.zeros(3)), h=0.5,
                          iterations=1)
        np.testing.assert_array_equal(out.value, rhs)

    def test_two_node_closed_form(self, path2):
        # (I + L) = [[2,-1],[-1,2]], inverse of rhs [1,0] is [2/3, 1/3]
        rhs = np.array([[1.0], [0.0]])
        out = ad.cg_solve(lap_fn(path2), Variable(rhs), Variable(np.ones(1)), h=1.0,
                          iterations=40)
        np.testing.assert_allclose(out.value, [[2.0 / 3.0], [1.0 / 3.0]], atol=1e-14)

    def test_matches_dense_solve(self):
        for seed in range(6):
            n = 5 + seed * 5  # up to 30
            g = erdos_renyi(n, 0.3, seed=seed)
            gen = philox(seed + 10)
            rhs = gen.standard_normal((n, 2))
            kappa = gen.uniform(0.0, 1.0, 2)
            h = gen.uniform(0.1, 1.0)
            out = ad.cg_solve(lap_fn(g), Variable(rhs), Variable(kappa), h, iterations=40)
            l_dense = laplacian_dense(g)
            for c in range(2):
                direct = np.linalg.solve(np.eye(n) + h * kappa[c] * l_dense, rhs[:, c])
                np.testing.assert_allclose(out.value[:, c], direct, atol=1e-8)

    @pytest.mark.parametrize("degree", [1, 2, 5, 10, 20])
    def test_within_the_cg_bound_of_a_dense_solve(self, degree):
        """Each channel's A-norm error is within CG's bound 2 rho^k ||x*||_A
        for h in (0, 1] and kappa in [0, 1] (c = 1 + 2 h kappa <= 3), plus a
        rounding allowance of 1e-13 ||x*||_A once rho^k is below it; kappa
        = 0 returns the rhs exactly."""
        g = erdos_renyi(30, 0.12, seed=4)
        l_dense = laplacian_dense(g)
        kappa = np.array([0.0, 1e-3, 0.1, 0.4, 0.7, 1.0])
        rhs = philox(degree).standard_normal((30, kappa.size))
        for h in (0.05, 0.3, 0.7, 1.0):
            out = ad.cg_solve(lap_fn(g), Variable(rhs), Variable(kappa), h,
                              iterations=degree).value
            np.testing.assert_array_equal(out[:, 0], rhs[:, 0])
            s = np.sqrt(1.0 + 2.0 * h * kappa)
            rho = (s - 1.0) / (s + 1.0)
            for c in range(kappa.size):
                a = np.eye(30) + h * kappa[c] * l_dense
                exact = np.linalg.solve(a, rhs[:, c])
                err = out[:, c] - exact
                norm = np.sqrt(exact @ a @ exact)
                assert np.sqrt(err @ a @ err) <= (2.0 * rho[c] ** degree + 1e-13) * norm

    @pytest.mark.parametrize("degree", [1, 5])
    def test_one_laplacian_product_per_degree_each_way(self, degree):
        g = erdos_renyi(10, 0.4, seed=2)
        calls = []

        def lap(v):
            calls.append(1)
            return laplacian_apply(g, v)

        rhs = Variable(philox(3).standard_normal((10, 2)), requires_grad=True)
        with Tape() as tape:
            out = ad.cg_solve(lap, rhs, Variable(np.array([0.3, 1.0])), h=1.0,
                              iterations=degree)
        assert len(calls) == degree
        tape.records[out.tape_id][2](np.ones((10, 2)))
        assert len(calls) == 2 * degree

    def test_iterations_validation(self, path2):
        with pytest.raises(ValueError, match="iterations"):
            ad.cg_solve(lap_fn(path2), Variable(np.ones((2, 1))), Variable(np.ones(1)),
                        h=1.0, iterations=0)

    def test_nonfinite_rhs_rejected(self, path2):
        rhs = np.array([[np.inf], [0.0]])
        with pytest.raises(FloatingPointError, match="non-finite"):
            ad.cg_solve(lap_fn(path2), Variable(rhs), Variable(np.ones(1)), h=1.0)

    def test_h_validation(self, path2):
        with pytest.raises(ValueError, match="h must be positive"):
            ad.cg_solve(lap_fn(path2), Variable(np.ones((2, 1))), Variable(np.ones(1)),
                        h=0.0)


class TestInPlaceIterations:
    """The recurrence updates its own work arrays in place; nothing the
    caller passed in, or the operator returned, is written."""

    def test_rhs_and_upstream_gradient_unmodified(self):
        g = erdos_renyi(12, 0.4, seed=3)
        gen = philox(5)
        rhs = Variable(gen.standard_normal((12, 3)), requires_grad=True)
        kappa = Variable(np.array([0.2, 0.6, 1.0]), requires_grad=True)
        upstream = gen.standard_normal((12, 3))
        rhs_before, upstream_before = rhs.value.copy(), upstream.copy()
        with Tape() as tape:
            out = ad.cg_solve(lap_fn(g), rhs, kappa, h=0.9, iterations=5)
        _, _, rule = tape.records[out.tape_id]
        rule(upstream)
        assert np.array_equal(rhs.value, rhs_before)
        assert np.array_equal(upstream, upstream_before)

    def test_operator_returning_its_argument(self):
        # L = I: the solve is b / (1 + h kappa) per channel, and the kappa
        # gradient of sum(w * u) is -h sum(w * b) / (1 + h kappa)^2
        gen = philox(7)
        b = gen.standard_normal((9, 4))
        w = gen.standard_normal((9, 4))
        h, kappa_values = 0.8, np.array([0.0, 0.3, 0.7, 1.0])
        rhs = Variable(b.copy(), requires_grad=True)
        kappa = Variable(kappa_values.copy(), requires_grad=True)
        with Tape() as tape:
            out = ad.cg_solve(lambda x: x, rhs, kappa, h, iterations=40)
            loss = taped_total_sum(taped_hadamard(out, Variable(w)))
        backward(tape, loss)
        scale = 1.0 + h * kappa_values
        np.testing.assert_allclose(out.value, b / scale, rtol=1e-14)
        np.testing.assert_allclose(rhs.grad, w / scale, rtol=1e-14)
        np.testing.assert_allclose(kappa.grad, -h * (w * b).sum(axis=0) / scale ** 2,
                                   rtol=1e-12)


class TestGradients:
    def test_rhs_and_kappa_match_finite_differences(self):
        g = erdos_renyi(7, 0.6, seed=1)
        gen = philox(2)
        rhs = Variable(gen.standard_normal((7, 2)), requires_grad=True)
        kappa = Variable(gen.uniform(0.2, 0.9, 2), requires_grad=True)
        w = Variable(philox(3).standard_normal((7, 2)))

        def loss():
            out = ad.cg_solve(lap_fn(g), rhs, kappa, h=0.8, iterations=300)
            return taped_total_sum(taped_hadamard(out, w))

        check_grads(loss, [rhs, kappa], 1e-5)

    def test_shipped_degree_matches_central_differences(self):
        """At the shipped degree 5 the rule is the gradient of the function
        the forward computed, not of the exact solve it approximates (an
        implicit adjoint of the solved system is off by 1e-4 to 1e-3 here)."""
        g = erdos_renyi(40, 0.15, seed=11)
        gen = philox(12)
        rhs = Variable(gen.standard_normal((40, 3)), requires_grad=True)
        kappa = Variable(gen.uniform(0.05, 0.95, 3), requires_grad=True)
        w = Variable(philox(13).standard_normal((40, 3)))

        def loss():
            out = ad.cg_solve(lap_fn(g), rhs, kappa, h=1.0, iterations=5)
            return taped_total_sum(taped_hadamard(out, w))

        check_grads(loss, [rhs, kappa], 1e-7)


class TestResolventWeights:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("degree", [1, 5, 40])
    def test_derivatives_match_the_closed_form_to_the_bit(self, dtype, degree):
        """dw_j = -(2 - [j = 0]) / s * (j (-rho)^(j-1) drho + (-rho)^j ds / s),
        with (-rho)^(j-1) raised on its own."""
        kappa = np.concatenate([[0.0], philox(4).uniform(0.0, 1.0, 7)]).astype(dtype)
        h = 0.8
        s = np.sqrt(1.0 + 2.0 * h * kappa.astype(np.float64))
        rho, ds = (s - 1.0) / (s + 1.0), h / s
        j = np.arange(degree + 1)[:, None]
        scale, power = np.where(j == 0, 1.0, 2.0) / s, (-rho) ** j
        want = -scale * (j * (-rho) ** np.maximum(j - 1, 0) * 2.0 * ds / (s + 1.0) ** 2
                         + power * ds / s)
        w, derivatives = ad._resolvent_weights(kappa, h, degree)
        assert w.tobytes() == (scale * power).astype(dtype).tobytes()
        assert derivatives().tobytes() == want.astype(dtype).tobytes()

    def test_derivatives_only_in_the_backward_rule(self, monkeypatch):
        resolvent_weights, calls = ad._resolvent_weights, []

        def spy(*args):
            w, derivatives = resolvent_weights(*args)
            return w, lambda: calls.append(1) or derivatives()

        monkeypatch.setattr(ad, "_resolvent_weights", spy)
        g = erdos_renyi(10, 0.4, seed=2)
        rhs = Variable(philox(3).standard_normal((10, 2)), requires_grad=True)
        kappa = Variable(np.array([0.3, 1.0]), requires_grad=True)
        ad.cg_solve(lap_fn(g), rhs, kappa, h=1.0)
        assert calls == []
        with Tape() as tape:
            loss = taped_total_sum(ad.cg_solve(lap_fn(g), rhs, kappa, h=1.0))
        assert calls == []
        backward(tape, loss)
        assert calls == [1]
