from __future__ import annotations

import numpy as np
import pytest

import adrgnn.autodiff as ad
from adrgnn.autodiff import Tape, Variable, backward
from adrgnn.graph import build_graph, erdos_renyi, laplacian_apply, laplacian_dense
from adrgnn.runtime import philox

from conftest import check_grads


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
                          iterations=2)
        np.testing.assert_allclose(out.value, [[2.0 / 3.0], [1.0 / 3.0]], atol=1e-14)

    def test_matches_dense_solve(self):
        for seed in range(6):
            n = 5 + seed * 5  # up to 30
            g = erdos_renyi(n, 0.3, seed=seed)
            gen = philox(seed + 10)
            rhs = gen.standard_normal((n, 2))
            kappa = gen.uniform(0.0, 1.0, 2)
            h = gen.uniform(0.1, 1.0)
            out = ad.cg_solve(lap_fn(g), Variable(rhs), Variable(kappa), h,
                              iterations=n + 5, tol=0.0)
            l_dense = laplacian_dense(g)
            for c in range(2):
                direct = np.linalg.solve(np.eye(n) + h * kappa[c] * l_dense, rhs[:, c])
                np.testing.assert_allclose(out.value[:, c], direct, atol=1e-8)

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

    def test_early_exit_tolerance(self):
        g = erdos_renyi(12, 0.4, seed=3)
        rhs = philox(4).standard_normal((12, 2))
        kappa = np.array([0.4, 0.9])
        out = ad.cg_solve(lap_fn(g), Variable(rhs), Variable(kappa), h=0.7,
                          iterations=500, tol=1e-12)
        residual = out.value + 0.7 * laplacian_apply(g, out.value) * kappa - rhs
        assert np.abs(residual).max() < 1e-10


class TestInPlaceIterations:
    """The iterations update their own work arrays in place; nothing the
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
            out = ad.cg_solve(lambda x: x, rhs, kappa, h, iterations=5)
            loss = ad.total_sum(ad.hadamard(out, Variable(w)))
        backward(tape, loss)
        scale = 1.0 + h * kappa_values
        np.testing.assert_allclose(out.value, b / scale, rtol=1e-14)
        np.testing.assert_allclose(rhs.grad, w / scale, rtol=1e-14)
        np.testing.assert_allclose(kappa.grad, -h * (w * b).sum(axis=0) / scale ** 2,
                                   rtol=1e-12)


def _reference_cg_channels(lap_apply, b, kappa, h, iterations, tol):
    """The solve's loop as it stood with nested ``np.where`` step sizes."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    buf = np.empty_like(b)

    def column_dot(u, v):
        return np.multiply(u, v, out=buf).sum(axis=0)

    rr = column_dot(r, r)
    tol2 = tol * tol
    h_kappa = (h * kappa)[None, :]
    for _ in range(iterations):
        if rr.max() <= tol2:
            break
        a_p = lap_apply(p) * h_kappa
        a_p += p
        p_ap = column_dot(p, a_p)
        active = (rr > tol2) & (p_ap > 0)
        alpha = np.where(active, rr / np.where(p_ap > 0, p_ap, 1.0), 0.0)[None, :]
        x += np.multiply(alpha, p, out=buf)
        r -= np.multiply(alpha, a_p, out=buf)
        rr_new = column_dot(r, r)
        beta = np.where(active, rr_new / np.where(rr > 0, rr, 1.0), 0.0)
        p *= beta[None, :]
        p += r
        rr = rr_new
    return x


class TestStepSizesBitIdentical:
    """``_cg_channels`` equals the nested-``np.where`` reference loop to the
    bit: random graphs, channels frozen by kappa = 0 after their first step,
    early exits on ``tol``, and float32."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_loop(self, dtype, seed):
        gen = philox(60 + seed)
        n = int(gen.integers(4, 40))
        g = erdos_renyi(n, float(gen.uniform(0.05, 0.6)), seed=seed)
        b = gen.standard_normal((n, 5)).astype(dtype)
        kappa = gen.uniform(0.0, 1.0, 5).astype(dtype)
        kappa[seed % 5] = 0.0  # solved exactly in one step, then frozen
        applied = []

        def lap(v):
            applied.append(1)
            return laplacian_apply(g, v)

        for iterations, tol in ((5, 1e-10), (3 * n, 1e-4), (3 * n, 0.0), (1, 1e-10)):
            applied.clear()
            got = ad._cg_channels(lap, b, kappa, 0.7, iterations, tol)
            if tol == 1e-4:
                assert len(applied) < iterations  # the early exit ran
            want = _reference_cg_channels(lap, b, kappa, 0.7, iterations, tol)
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes(), (iterations, tol)

    def test_indefinite_operator_steps_by_zero(self):
        """A channel whose curvature p.Ap is not positive takes no step; an
        indefinite operator (-2 I, so A < 0 where h kappa > 1/2) reaches that
        branch, which a Laplacian never does."""
        b = philox(3).standard_normal((8, 4))
        kappa = np.array([0.0, 0.2, 0.8, 1.0])
        args = (lambda v: -2.0 * v, b, kappa, 1.0, 4, 1e-10)
        got = ad._cg_channels(*args)
        assert got.tobytes() == _reference_cg_channels(*args).tobytes()
        assert np.array_equal(got[:, 2:], np.zeros((8, 2)))


class TestGradients:
    def test_rhs_and_kappa_match_finite_differences(self):
        g = erdos_renyi(7, 0.6, seed=1)
        gen = philox(2)
        rhs = Variable(gen.standard_normal((7, 2)), requires_grad=True)
        kappa = Variable(gen.uniform(0.2, 0.9, 2), requires_grad=True)
        w = Variable(philox(3).standard_normal((7, 2)))

        def loss():
            out = ad.cg_solve(lap_fn(g), rhs, kappa, h=0.8, iterations=300, tol=1e-12)
            return ad.total_sum(ad.hadamard(out, w))

        check_grads(loss, [rhs, kappa], 1e-5)


class _Dual:
    """Forward-mode (value, derivative) arrays for the unrolled-CG oracle."""

    def __init__(self, val, dot=None):
        self.val = np.asarray(val, dtype=np.float64)
        self.dot = np.zeros_like(self.val) if dot is None else np.asarray(dot)

    def __add__(self, o):
        return _Dual(self.val + o.val, self.dot + o.dot)

    def __sub__(self, o):
        return _Dual(self.val - o.val, self.dot - o.dot)

    def __mul__(self, o):
        return _Dual(self.val * o.val, self.dot * o.val + self.val * o.dot)

    def __truediv__(self, o):
        val = self.val / o.val
        return _Dual(val, (self.dot - val * o.dot) / o.val)

    def matvec(self, mat):
        return _Dual(mat @ self.val, mat @ self.dot)

    def dot_product(self, o):
        return _Dual((self.val * o.val).sum(), (self.dot * o.val + self.val * o.dot).sum())


def _unrolled_cg_dual(l_dense, b: _Dual, kappa: _Dual, h: float, n_iter: int) -> _Dual:
    """Plain CG in dual arithmetic: differentiating through the iterations."""
    x = _Dual(np.zeros_like(b.val))
    r = _Dual(b.val.copy(), b.dot.copy())
    p = _Dual(r.val.copy(), r.dot.copy())
    rr = r.dot_product(r)
    for _ in range(n_iter):
        if rr.val <= 1e-24:
            break
        ap = p + (p.matvec(l_dense) * kappa) * _Dual(h, 0.0)
        alpha = rr / p.dot_product(ap)
        x = x + _Dual(alpha.val * p.val, alpha.dot * p.val + alpha.val * p.dot)
        r = r - _Dual(alpha.val * ap.val, alpha.dot * ap.val + alpha.val * ap.dot)
        rr_new = r.dot_product(r)
        beta = rr_new / rr
        p = r + _Dual(beta.val * p.val, beta.dot * p.val + beta.val * p.dot)
        rr = rr_new
    return x


class TestImplicitAdjointEquivalence:
    def test_matches_unrolled_iteration_gradients(self):
        """The implicit adjoint must agree with naive differentiation
        through the CG iterations (both run to convergence)."""
        g = erdos_renyi(6, 0.6, seed=7)
        n = g.n_nodes
        l_dense = laplacian_dense(g)
        gen = philox(8)
        rhs_val = gen.standard_normal((n, 2))
        kappa_val = gen.uniform(0.3, 0.9, 2)
        w = gen.standard_normal((n, 2))
        h = 0.6
        n_iter = 4 * n  # far past exact-arithmetic convergence

        rhs = Variable(rhs_val, requires_grad=True)
        kappa = Variable(kappa_val, requires_grad=True)
        with Tape() as tape:
            out = ad.cg_solve(lap_fn(g), rhs, kappa, h, iterations=n_iter, tol=1e-12)
            loss = ad.total_sum(ad.hadamard(out, Variable(w)))
        backward(tape, loss)

        # forward-mode dual numbers, one pass per input coordinate
        unrolled_rhs = np.zeros_like(rhs_val)
        unrolled_kappa = np.zeros_like(kappa_val)
        for c in range(2):
            for i in range(n):
                dot = np.zeros(n)
                dot[i] = 1.0
                sol = _unrolled_cg_dual(l_dense, _Dual(rhs_val[:, c], dot),
                                        _Dual(kappa_val[c]), h, n_iter)
                unrolled_rhs[i, c] = (sol.dot * w[:, c]).sum()
            sol = _unrolled_cg_dual(l_dense, _Dual(rhs_val[:, c]),
                                    _Dual(kappa_val[c], 1.0), h, n_iter)
            unrolled_kappa[c] = (sol.dot * w[:, c]).sum()

        assert np.abs(rhs.grad - unrolled_rhs).max() / np.abs(unrolled_rhs).max() < 1e-6
        assert np.abs(kappa.grad - unrolled_kappa).max() / np.abs(unrolled_kappa).max() < 1e-6
