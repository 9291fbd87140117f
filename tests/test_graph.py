from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adrgnn.graph import Graph, build_graph, dirichlet_energy, erdos_renyi, laplacian_apply
from adrgnn.runtime import philox

from conftest import laplacian_dense


class TestBuildGraph:
    def test_symmetrize_single_edge(self):
        g = build_graph([(0, 1)], 2, symmetrize=True)
        assert g.n_edges == 2
        assert set(zip(g.edge_src, g.edge_dst)) == {(0, 1), (1, 0)}
        assert g.degree.tolist() == [1, 1]

    def test_empty_graph(self):
        g = build_graph([], 3)
        assert g.n_edges == 0
        assert g.degree.tolist() == [0, 0, 0]
        assert g.isolated.all()

    def test_duplicate_edges_deduped(self):
        g = build_graph([(0, 1), (1, 0), (0, 1)], 2)
        assert g.n_edges == 2
        assert g.degree.tolist() == [1, 1]

    def test_self_loops_dropped(self):
        g = build_graph([(0, 0), (0, 1)], 2)
        assert g.n_edges == 2

    def test_out_of_range_edge_named(self):
        with pytest.raises(ValueError, match=r"\(0, 5\)"):
            build_graph([(0, 5)], 3)

    def test_asymmetric_input_rejected_without_symmetrize(self):
        with pytest.raises(ValueError, match="reversal"):
            build_graph([(0, 1)], 2, symmetrize=False)

    def test_reversal_closure(self):
        g = erdos_renyi(20, 0.3, seed=5)
        pairs = set(zip(g.edge_src.tolist(), g.edge_dst.tolist()))
        assert all((j, i) in pairs for i, j in pairs)

    def test_edges_sorted_and_indptr(self):
        g = erdos_renyi(15, 0.4, seed=2)
        keys = g.edge_src * g.n_nodes + g.edge_dst
        assert np.all(np.diff(keys) > 0)
        for i in range(g.n_nodes):
            assert np.all(g.edge_src[g.out_indptr[i]:g.out_indptr[i + 1]] == i)


class TestLaplacian:
    def test_two_node_path(self, path2):
        out = laplacian_apply(path2, np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(out, [[1.0], [-1.0]])

    def test_constant_on_regular_graph(self):
        # 4-cycle is 2-regular
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
        out = laplacian_apply(g, np.full((4, 2), 3.7))
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_matches_dense_oracle(self):
        for seed in range(5):
            g = erdos_renyi(6 + seed * 9, 0.3, seed=seed)
            u = philox(seed).standard_normal((g.n_nodes, 3))
            # independent dense assembly from adjacency and degrees
            a = g.adjacency().toarray()
            d = a.sum(axis=1)
            dm = np.where(d > 0, 1.0 / np.sqrt(np.maximum(d, 1)), 0.0)
            l_dense = np.diag((d > 0).astype(float)) - dm[:, None] * a * dm[None, :]
            np.testing.assert_allclose(laplacian_apply(g, u), l_dense @ u, atol=1e-12)
            np.testing.assert_allclose(laplacian_dense(g), l_dense, atol=1e-12)

    def test_linearity(self):
        g = erdos_renyi(12, 0.4, seed=3)
        gen = philox(9)
        u, v = gen.standard_normal((2, 12, 4))
        lhs = laplacian_apply(g, 2.5 * u - 1.3 * v)
        rhs = 2.5 * laplacian_apply(g, u) - 1.3 * laplacian_apply(g, v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_isolated_node_row_is_zero(self):
        g = build_graph([(0, 1)], 3)
        out = laplacian_apply(g, np.array([[1.0], [2.0], [5.0]]))
        assert out[2, 0] == 0.0

    def test_float32_input_applied_in_float32(self):
        g = erdos_renyi(20, 0.3, seed=1)
        u = philox(5).standard_normal((20, 3))
        for x in (u, u[:, 0]):
            out = laplacian_apply(g, x.astype(np.float32))
            assert out.dtype == np.float32
            np.testing.assert_allclose(out, laplacian_apply(g, x), rtol=1e-5, atol=1e-5)

    def test_float64_uses_the_stored_operands(self):
        g = erdos_renyi(20, 0.3, seed=1)
        u = philox(6).standard_normal((20, 3))
        np.testing.assert_array_equal(laplacian_apply(g, u),
                                      g._deg_mask[:, None] * u - g._adj_norm @ u)

    def test_float32_operands_cast_once(self):
        """Float32 calls read only the graph's one cached cast of the
        operands and give the bytes of a cast made for the call."""
        g = build_graph([(0, 1), (1, 2), (4, 5)], 7)
        u = philox(6).standard_normal((7, 3)).astype(np.float32)
        inputs = (u, u[:, 0], -u)
        mask, adj = g._deg_mask.astype(np.float32), g._adj_norm.astype(np.float32)
        wants = [(mask if x.ndim == 1 else mask[:, None]) * x - adj @ x for x in inputs]
        operands = g.laplacian_float32
        assert [a.dtype for a in operands] == [np.float32, np.float32]
        g._deg_mask = g._adj_norm = None  # a cast per call would fail
        for x, want in zip(inputs, wants):
            got = laplacian_apply(g, x)
            assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
        assert g.laplacian_float32 is operands

    @pytest.mark.parametrize("edges, n, isolated", [
        ([(0, 1), (1, 2), (2, 3), (0, 3)], 4, False),
        ([(0, 1), (1, 2), (4, 5)], 7, True),
        ([], 3, True)])
    def test_bytes_equal_masked_difference(self, edges, n, isolated):
        """One result array, masked only where a node is isolated, gives the
        bytes of mask * u - adj @ u (negative zeros of isolated rows included)."""
        g = build_graph(edges, n)
        assert g.has_isolated is isolated
        u = philox(7).standard_normal((n, 3))
        for x in (u, u[:, 0], -np.abs(u)):
            mask = g._deg_mask if x.ndim == 1 else g._deg_mask[:, None]
            want = mask * x - g._adj_norm @ x
            got = laplacian_apply(g, x)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_shape_mismatch(self, path2):
        with pytest.raises(ValueError, match="rows"):
            laplacian_apply(path2, np.zeros((3, 1)))


class TestConstantOperators:
    def test_scatters_are_the_gather_transposes(self):
        g = build_graph([(0, 1), (1, 2), (1, 3), (3, 4)], 6)  # node 5 isolated
        eye = np.eye(g.n_nodes)
        for index, scatter in ((g.edge_src, g.scatter_src), (g.edge_dst, g.scatter_dst)):
            assert scatter.shape == (g.n_nodes, g.n_edges)
            np.testing.assert_array_equal(scatter.toarray(), eye[index].T)

    def test_cached_on_first_access(self):
        g = erdos_renyi(8, 0.4, seed=2)
        for name in ("scatter_src", "scatter_dst", "max_plan", "gcn_adjacency",
                     "gcn_adjacency_float32"):
            assert getattr(g, name) is getattr(g, name)

    def test_gcn_adjacency_formula(self):
        g = build_graph([(0, 1), (1, 2), (2, 0), (2, 3)], 5)  # node 4 isolated
        a = g.adjacency().toarray() + np.eye(g.n_nodes)
        d_inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
        want = d_inv_sqrt[:, None] * a * d_inv_sqrt[None, :]
        np.testing.assert_allclose(g.gcn_adjacency.toarray(), want, rtol=1e-15, atol=0)
        np.testing.assert_array_equal(g.gcn_adjacency.toarray(), g.gcn_adjacency.T.toarray())


class TestDirichletEnergy:
    def test_constant_features_zero(self):
        g = erdos_renyi(10, 0.5, seed=0)
        assert dirichlet_energy(g, np.full((10, 3), 2.0)) == 0.0

    def test_two_node_hand_value(self, path2):
        # both orientations of the single edge: (1/2) * (1 + 1) = 1
        assert dirichlet_energy(path2, np.array([[1.0], [0.0]])) == pytest.approx(1.0)

    def test_quadratic_scaling(self):
        g = erdos_renyi(8, 0.6, seed=1)
        u = philox(2).standard_normal((8, 2))
        assert dirichlet_energy(g, 2 * u) == pytest.approx(4 * dirichlet_energy(g, u))

    def test_equals_directed_edge_sum(self):
        g = erdos_renyi(9, 0.5, seed=4)
        u = philox(3).standard_normal((9, 3))
        manual = sum(float(((u[i] - u[j]) ** 2).sum())
                     for i, j in zip(g.edge_src, g.edge_dst)) / g.n_nodes
        assert dirichlet_energy(g, u) == pytest.approx(manual)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_nonnegative(self, seed):
        g = erdos_renyi(7, 0.4, seed=seed)
        u = philox(seed).standard_normal((7, 2))
        assert dirichlet_energy(g, u) >= 0.0


class TestErdosRenyi:
    def test_p_one_complete(self):
        g = erdos_renyi(5, 1.0, seed=0)
        assert g.n_edges == 20

    def test_p_zero_empty(self):
        g = erdos_renyi(5, 0.0, seed=0)
        assert g.n_edges == 0

    def test_invalid_p(self):
        with pytest.raises(ValueError, match="outside"):
            erdos_renyi(5, 1.5, seed=0)

    def test_edge_count_within_three_sigma(self):
        # undirected pairs ~ Binomial(4950, 0.1): mean 495, sigma ~ 21.1
        g = erdos_renyi(100, 0.1, seed=7)
        undirected = g.n_edges // 2
        sigma = np.sqrt(4950 * 0.1 * 0.9)
        assert abs(undirected - 495) <= 3 * sigma

    def test_deterministic_for_seed(self):
        a = erdos_renyi(30, 0.2, seed=11)
        b = erdos_renyi(30, 0.2, seed=11)
        assert np.array_equal(a.edge_src, b.edge_src)
        assert np.array_equal(a.edge_dst, b.edge_dst)
