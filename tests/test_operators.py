from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adrgnn.autodiff as ad
from adrgnn.autodiff import Tape, Variable, backward
from adrgnn.graph import build_graph, dirichlet_energy, erdos_renyi
from adrgnn.operators import (AdrLayerParams, AdvectionParams, DiffusionParams,
                              EdgeVelocities, ReactionParams, adr_layer, advect,
                              advection_matrix, diffuse, divergence,
                              edge_velocities, react, splitting_error_study)
from adrgnn.runtime import philox

from conftest import check_grads, random_velocities


def make_velocities(graph, c, seed):
    return EdgeVelocities(Variable(random_velocities(graph, c, seed)))


class TestEdgeVelocities:
    def test_constant_features_give_uniform_weights(self):
        g = erdos_renyi(8, 0.5, seed=0)
        u = Variable(np.full((8, 3), 1.7))
        params = AdvectionParams.init(3, philox(1))
        v = edge_velocities(g, u, params)
        expected = np.repeat((1.0 / g.degree[g.edge_src])[:, None], 3, axis=1)
        np.testing.assert_allclose(v.values.value, expected, atol=1e-12)

    def test_outbound_sums_equal_one(self):
        for seed in range(5):
            g = erdos_renyi(12, 0.4, seed=seed)
            u = Variable(philox(seed).standard_normal((12, 4)))
            v = edge_velocities(g, u, AdvectionParams.init(4, philox(seed + 50)))
            sums = np.zeros((12, 4))
            np.add.at(sums, g.edge_src, v.values.value)
            assert np.abs(sums[~g.isolated] - 1.0).max() < 1e-9

    def test_one_sided_zero_before_normalization(self):
        for seed in range(5):
            g = erdos_renyi(10, 0.5, seed=seed)
            u = Variable(philox(seed + 7).standard_normal((10, 3)))
            params = AdvectionParams.init(3, philox(seed + 60))
            _v, asym, asym_rev = edge_velocities(g, u, params, return_prenorm=True)
            product = asym.value * asym_rev.value
            assert np.all(product == 0.0)  # exact, not approximate

    def test_values_strictly_positive(self):
        g = erdos_renyi(9, 0.5, seed=2)
        u = Variable(philox(3).standard_normal((9, 2)))
        v = edge_velocities(g, u, AdvectionParams.init(2, philox(4)))
        assert (v.values.value > 0).all()
        assert (v.values.value <= 1).all()

    def test_a3_a4_have_no_bias(self):
        params = AdvectionParams.init(3, philox(0))
        assert params.a1.b is not None and params.a2.b is not None
        assert params.a3.b is None and params.a4.b is None


class TestDivergence:
    def test_two_node_hand_value(self, path2):
        v = EdgeVelocities(Variable(np.ones((2, 1))))
        out = divergence(path2, v, Variable(np.array([[1.0], [0.0]])))
        np.testing.assert_allclose(out.value, [[-1.0], [1.0]])

    def test_constant_features_uniform_velocities_zero(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)], 4)  # 2-regular
        v = EdgeVelocities(Variable(np.full((g.n_edges, 2), 0.5)))
        out = divergence(g, v, Variable(np.full((4, 2), 3.0)))
        np.testing.assert_allclose(out.value, 0.0, atol=1e-12)

    def test_column_sums_vanish(self):
        for seed in range(50):
            g = erdos_renyi(4 + (seed % 12), 0.4, seed=seed)
            c = 1 + seed % 3
            v = make_velocities(g, c, seed)
            u = Variable(philox(seed + 100).standard_normal((g.n_nodes, c)))
            out = divergence(g, v, u)
            assert np.abs(out.value.sum(axis=0)).max() < 1e-10

    def test_isolated_nodes_untouched(self):
        g = build_graph([(0, 1)], 3)
        v = EdgeVelocities(Variable(np.ones((2, 1))))
        out = divergence(g, v, Variable(np.array([[1.0], [2.0], [5.0]])))
        assert out.value[2, 0] == 0.0

    def test_edge_count_mismatch(self, path2):
        v = EdgeVelocities(Variable(np.ones((5, 1))))
        with pytest.raises(ValueError, match="edge rows"):
            divergence(path2, v, Variable(np.zeros((2, 1))))


class TestAdvect:
    def test_h_out_of_range_rejected(self, path2):
        v = EdgeVelocities(Variable(np.ones((2, 1))))
        u = Variable(np.zeros((2, 1)))
        with pytest.raises(ValueError, match="outside"):
            advect(path2, u, v, h=1.5)
        with pytest.raises(ValueError, match="outside"):
            advect(path2, u, v, h=0.0)

    def test_two_node_full_transfer(self, path2):
        v = EdgeVelocities(Variable(np.ones((2, 1))))
        out = advect(path2, Variable(np.array([[1.0], [0.0]])), v, h=1.0)
        np.testing.assert_allclose(out.value, [[0.0], [1.0]])

    @given(seed=st.integers(0, 10_000), h=st.floats(0.01, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_mass_conservation(self, seed, h):
        gen = philox(seed)
        n = int(gen.integers(3, 40))
        g = erdos_renyi(n, float(gen.uniform(0.1, 0.8)), seed=seed)
        c = int(gen.integers(1, 4))
        v = make_velocities(g, c, seed + 1)
        u = Variable(gen.standard_normal((n, c)))
        out = advect(g, u, v, h)
        drift = np.abs(out.value.sum(axis=0) - u.value.sum(axis=0)).max()
        assert drift <= 1e-9

    def test_mass_conservation_large_graph(self):
        g = erdos_renyi(500, 0.02, seed=9)
        v = make_velocities(g, 3, 10)
        u = Variable(philox(11).standard_normal((500, 3)) * 10)
        out = advect(g, u, v, h=1.0)
        assert np.abs(out.value.sum(axis=0) - u.value.sum(axis=0)).max() <= 1e-9

    def test_no_channel_mixing(self):
        g = erdos_renyi(10, 0.5, seed=12)
        v = make_velocities(g, 3, 13)
        u = philox(14).standard_normal((10, 3))
        u_zeroed = u.copy()
        u_zeroed[:, 1] = 0.0
        out_full = advect(g, Variable(u), v, 0.8).value
        out_zeroed = advect(g, Variable(u_zeroed), v, 0.8).value
        np.testing.assert_allclose(out_zeroed[:, 1], 0.0, atol=1e-15)
        np.testing.assert_array_equal(out_full[:, [0, 2]], out_zeroed[:, [0, 2]])

    def test_one_hop_locality(self):
        g = erdos_renyi(12, 0.3, seed=15)
        v = make_velocities(g, 1, 16)
        u = philox(17).standard_normal((12, 1))
        j = 4
        u_pert = u.copy()
        u_pert[j, 0] += 1.0
        diff = advect(g, Variable(u_pert), v, 0.5).value - advect(g, Variable(u), v, 0.5).value
        affected = set(np.flatnonzero(np.abs(diff[:, 0]) > 1e-14).tolist())
        allowed = {j} | set(g.neighbors(j).tolist())
        assert affected <= allowed


class TestAdvectionMatrix:
    def test_matches_advect_output(self):
        g = erdos_renyi(9, 0.5, seed=20)
        v = make_velocities(g, 2, 21)
        u = philox(22).standard_normal((9, 2))
        out = advect(g, Variable(u), v, 0.6).value
        for c in range(2):
            a = advection_matrix(g, v, 0.6, channel=c)
            np.testing.assert_allclose(a @ u[:, c], out[:, c], atol=1e-12)

    def test_cycle_uniform_h1(self):
        g = build_graph([(0, 1), (1, 2), (2, 0)], 3)
        v = EdgeVelocities(Variable(np.full((6, 1), 0.5)))
        a = advection_matrix(g, v, 1.0, channel=0)
        np.testing.assert_allclose(a.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.diag(a), 0.0)

    def test_column_stochastic_and_nonnegative(self):
        for seed in range(20):
            g = erdos_renyi(4 + (seed % 10), 0.35, seed=seed)
            v = make_velocities(g, 1, seed + 30)
            h = float(philox(seed).uniform(0.05, 1.0))
            a = advection_matrix(g, v, h, channel=0)
            np.testing.assert_allclose(a.sum(axis=0), 1.0, atol=1e-12)
            assert a.min() >= 0.0

    def test_spectral_radius_at_most_one(self):
        for seed in range(10):
            g = erdos_renyi(12, 0.4, seed=seed + 40)
            v = make_velocities(g, 1, seed + 41)
            a = advection_matrix(g, v, 0.9, channel=0)
            assert np.abs(np.linalg.eigvals(a)).max() <= 1.0 + 1e-9

    def test_dense_limit(self):
        g = erdos_renyi(201, 0.02, seed=50)
        v = make_velocities(g, 1, 51)
        with pytest.raises(ValueError, match="dense limit 200"):
            advection_matrix(g, v, 0.5, channel=0)

    def test_repeated_advection_bounded(self):
        """Point masses never amplify; general nonnegative features stay
        bounded by their total mass."""
        g = erdos_renyi(15, 0.3, seed=60)
        v = make_velocities(g, 1, 61)
        point = np.zeros((15, 1))
        point[3, 0] = 1.0
        u = point.copy()
        max_seen = u.max()
        for _ in range(1000):
            u = advect(g, Variable(u), v, 1.0).value
            max_seen = max(max_seen, u.max())
        assert max_seen <= 1.0 * (1 + 1e-6)

        gen = philox(62)
        u0 = gen.uniform(0.0, 1.0, (15, 1))
        total = u0.sum()
        u = u0.copy()
        for _ in range(1000):
            u = advect(g, Variable(u), v, 0.9).value
            assert u.max() <= total * (1 + 1e-6)
            assert u.min() >= -1e-12


class TestDiffuse:
    def test_zero_coefficients_identity(self):
        g = erdos_renyi(8, 0.5, seed=70)
        u = Variable(philox(71).standard_normal((8, 2)))
        params = DiffusionParams(Variable(np.array([-3.0, -0.5])))  # hardtanh -> 0
        out = diffuse(g, u, params, h=0.8)
        np.testing.assert_array_equal(out.value, u.value)

    def test_two_node_closed_form(self, path2):
        u = Variable(np.array([[1.0], [0.0]]))
        params = DiffusionParams(Variable(np.array([1.0])))
        out = diffuse(path2, u, params, h=1.0, cg_iterations=40)
        np.testing.assert_allclose(out.value, [[2.0 / 3.0], [1.0 / 3.0]], atol=1e-14)

    def test_energy_never_increases(self):
        for seed in range(50):
            gen = philox(seed + 80)
            n = int(gen.integers(4, 25))
            g = erdos_renyi(n, float(gen.uniform(0.2, 0.8)), seed=seed)
            u = Variable(gen.standard_normal((n, 3)))
            params = DiffusionParams(Variable(gen.uniform(0.0, 1.0, 3)))
            out = diffuse(g, u, params, h=float(gen.uniform(0.05, 1.0)),
                          cg_iterations=4 * n)
            assert dirichlet_energy(g, out.value) <= dirichlet_energy(g, u.value) + 1e-9

    def test_commutes_with_automorphism(self):
        # 4-cycle rotation is a graph automorphism
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
        perm = np.array([1, 2, 3, 0])
        gen = philox(92)
        u = gen.standard_normal((4, 2))
        params = DiffusionParams(Variable(gen.uniform(0.2, 0.9, 2)))
        out = diffuse(g, Variable(u), params, h=0.7, cg_iterations=30).value
        out_perm = diffuse(g, Variable(u[perm]), params, h=0.7, cg_iterations=30).value
        np.testing.assert_allclose(out[perm], out_perm, atol=1e-10)


class TestReact:
    def test_zero_weights_identity(self):
        c = 3
        params = ReactionParams.init(c, philox(0))
        for lin in (params.r1, params.r2, params.r3):
            lin.w.value[...] = 0.0
            lin.b.value[...] = 0.0
        u = Variable(philox(1).standard_normal((5, c)))
        out = react(u, u, params, h=0.5)
        np.testing.assert_array_equal(out.value, u.value)

    def test_scalar_hand_value(self):
        params = ReactionParams.init(1, philox(2))
        params.r1.w.value[...] = 1.0
        params.r1.b.value[...] = 0.0
        params.r2.w.value[...] = 0.0
        params.r2.b.value[...] = 0.0
        params.r3.w.value[...] = 0.0
        params.r3.b.value[...] = 0.0
        out = react(Variable(np.array([[2.0]])), Variable(np.array([[0.0]])), params, h=0.5)
        # 2 + 0.5 * relu(2 + tanh(0) * 2 + 0) = 3
        np.testing.assert_allclose(out.value, [[3.0]])

    def test_row_permutation_equivariance(self):
        params = ReactionParams.init(4, philox(3))
        gen = philox(4)
        u, u0 = gen.standard_normal((2, 6, 4))
        perm = philox(5).permutation(6)
        out = react(Variable(u), Variable(u0), params, h=0.8).value
        out_perm = react(Variable(u[perm]), Variable(u0[perm]), params, h=0.8).value
        np.testing.assert_allclose(out[perm], out_perm, atol=1e-14)

    def test_shape_mismatch(self):
        params = ReactionParams.init(2, philox(6))
        with pytest.raises(ValueError, match="shape"):
            react(Variable(np.zeros((3, 2))), Variable(np.zeros((4, 2))), params, h=0.5)

    def test_batchnorm_variant_runs_and_freezes_at_eval(self):
        params = ReactionParams.init(3, philox(7), use_batchnorm=True)
        u = Variable(philox(8).standard_normal((10, 3)))
        react(u, u, params, h=0.5, train=True)
        frozen = params.bn_state.running_mean.copy()
        react(u, u, params, h=0.5, train=False)
        np.testing.assert_array_equal(params.bn_state.running_mean, frozen)


class TestAdrLayer:
    def test_composition_equals_stage_sequence(self):
        g = erdos_renyi(5, 0.7, seed=100)
        gen = philox(101)
        params = AdrLayerParams.init(2, philox(102))
        u = Variable(gen.standard_normal((5, 2)))
        u0 = Variable(gen.standard_normal((5, 2)))
        out, stages = adr_layer(g, u, u0, params, h=0.5, cg_iterations=40,
                                diagnostics=True)
        v = edge_velocities(g, u, params.advection)
        step1 = advect(g, u, v, 0.5)
        step2 = diffuse(g, step1, params.diffusion, 0.5, cg_iterations=40)
        step3 = react(step2, u0, params.reaction, 0.5)
        np.testing.assert_array_equal(stages.after_advection.value, step1.value)
        np.testing.assert_array_equal(stages.after_diffusion.value, step2.value)
        np.testing.assert_array_equal(out.value, step3.value)

    def test_advection_only_reduction(self):
        """Zeroed diffusion coefficients and zero reaction weights reduce the
        full layer to pure advection."""
        g = erdos_renyi(6, 0.6, seed=103)
        params = AdrLayerParams.init(2, philox(104))
        params.diffusion.theta.value[...] = -1.0  # hardtanh -> 0
        for lin in (params.reaction.r1, params.reaction.r2, params.reaction.r3):
            lin.w.value[...] = 0.0
            lin.b.value[...] = 0.0
        u = Variable(philox(105).standard_normal((6, 2)))
        full = adr_layer(g, u, u, params, h=0.8, cg_iterations=20)
        v = edge_velocities(g, u, params.advection)
        only_a = advect(g, u, v, 0.8)
        np.testing.assert_allclose(full.value, only_a.value, atol=1e-14)

    def test_terms_subset_selection(self):
        g = erdos_renyi(6, 0.6, seed=106)
        params = AdrLayerParams.init(2, philox(107))
        u = Variable(philox(108).standard_normal((6, 2)))
        out_a = adr_layer(g, u, u, params, h=0.5, terms="A")
        v = edge_velocities(g, u, params.advection)
        np.testing.assert_array_equal(out_a.value, advect(g, u, v, 0.5).value)
        with pytest.raises(ValueError, match="terms"):
            adr_layer(g, u, u, params, h=0.5, terms="")
        with pytest.raises(ValueError, match="terms"):
            adr_layer(g, u, u, params, h=0.5, terms="AX")

    def test_full_layer_gradient_check(self):
        g = erdos_renyi(5, 0.7, seed=109)
        gen = philox(110)
        params = AdrLayerParams.init(2, philox(111))
        u = Variable(gen.standard_normal((5, 2)), requires_grad=True)
        u0 = Variable(gen.standard_normal((5, 2)), requires_grad=True)
        w = Variable(philox(112).standard_normal((5, 2)))

        def loss():
            out = adr_layer(g, u, u0, params, h=0.6, cg_iterations=100)
            return ad.total_sum(ad.hadamard(out, w))

        wrt = ([u, u0] + params.advection.parameters()
               + params.diffusion.parameters() + params.reaction.parameters())
        check_grads(loss, wrt, 1e-4)


class TestSplittingStudy:
    def test_commuting_triples_zero_discrepancy(self):
        gen = philox(120)
        a, d, r = (np.diag(gen.standard_normal(5)) for _ in range(3))
        u = gen.standard_normal(5)
        assert splitting_error_study(a, d, r, 0.3, u) <= 1e-12

    def test_dt_zero(self):
        gen = philox(121)
        mats = [gen.standard_normal((4, 4)) for _ in range(3)]
        assert splitting_error_study(*mats, 0.0, gen.standard_normal(4)) == 0.0

    def test_second_order_ratio_band(self):
        ratios = []
        for trial in range(50):
            gen = philox(0, trial)
            a, d, r = (gen.standard_normal((4, 4)) for _ in range(3))
            u = gen.standard_normal(4)
            coarse = splitting_error_study(a, d, r, 0.05, u)
            fine = splitting_error_study(a, d, r, 0.025, u)
            ratios.append(fine / coarse)
        mean_ratio = float(np.mean(ratios))
        assert 1 / 4.7 <= mean_ratio <= 1 / 3.3

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="square"):
            splitting_error_study(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)),
                                  0.1, np.zeros(2))
