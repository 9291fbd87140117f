"""Immutable sparse graph with normalized-Laplacian and energy operators.

Graphs are stored as a directed edge list that is closed under reversal:
every undirected edge contributes both (i, j) and (j, i). Direction only
matters downstream, where learned per-edge transport weights live.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .autodiff import segment_max_plan
from .runtime import philox


class Graph:
    """Sparse symmetric graph over ``n_nodes`` nodes.

    Directed edges are sorted lexicographically by (source, target), held
    in ``edge_src`` / ``edge_dst``, and indexed CSR-style by ``out_indptr``
    so that the outbound edges of node i occupy the contiguous slice
    ``out_indptr[i]:out_indptr[i+1]``. ``rev_edge`` maps each directed
    edge to its reverse orientation; it is an involution, so gathering by
    it is its own transpose. The constant operators built from the edge
    list (``scatter_src``, ``scatter_dst``, ``max_plan``,
    ``laplacian_float32``, ``gcn_adjacency``, ``gcn_adjacency_float32``) are
    built on first use and cached. Instances are immutable after
    construction and safe to share across threads.
    """

    def __init__(self, n_nodes: int, edge_src: np.ndarray, edge_dst: np.ndarray):
        self.n_nodes = int(n_nodes)
        self.edge_src = edge_src
        self.edge_dst = edge_dst
        self.n_edges = len(edge_src)

        self.degree = np.bincount(edge_src, minlength=self.n_nodes).astype(np.int64)
        self.isolated = self.degree == 0
        self.has_isolated = bool(self.isolated.any())
        self.out_indptr = np.concatenate(([0], np.cumsum(self.degree)))

        # Reverse-edge permutation: position of (dst, src) in the sorted list.
        key = edge_src * self.n_nodes + edge_dst
        rev_key = edge_dst * self.n_nodes + edge_src
        self.rev_edge = np.searchsorted(key, rev_key)
        if self.n_edges:
            clipped = np.minimum(self.rev_edge, self.n_edges - 1)
            if not np.array_equal(key[clipped], rev_key):
                raise ValueError("edge set is not closed under reversal")
            self.rev_edge = clipped

        deg = self.degree.astype(np.float64)
        with np.errstate(divide="ignore"):
            d_inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1.0)), 0.0)
        self._deg_mask = (deg > 0).astype(np.float64)
        # D^{-1/2} A D^{-1/2}, with the convention that isolated nodes get
        # all-zero rows (their D^{-1/2} entry is 0).
        weights = d_inv_sqrt[edge_src] * d_inv_sqrt[edge_dst]
        self._adj_norm = sp.csr_matrix(
            (weights, (edge_dst, edge_src)), shape=(self.n_nodes, self.n_nodes)
        )
        self._adj = sp.csr_matrix(
            (np.ones(self.n_edges), (edge_dst, edge_src)), shape=(self.n_nodes, self.n_nodes)
        )

    def _scatter(self, index: np.ndarray) -> sp.csr_matrix:
        # float32 ones: exact, so a float64 product (scipy upcasts) is
        # unchanged, and a float32 one stays float32
        m = self.n_edges
        return sp.csr_matrix((np.ones(m, dtype=np.float32), (index, np.arange(m))),
                             shape=(self.n_nodes, m))

    @cached_property
    def scatter_src(self) -> sp.csr_matrix:
        """``n_nodes x n_edges`` 0/1 matrix summing edge rows onto their
        source nodes: the transpose of the row gather by ``edge_src``."""
        return self._scatter(self.edge_src)

    @cached_property
    def scatter_dst(self) -> sp.csr_matrix:
        """``n_nodes x n_edges`` 0/1 matrix summing edge rows onto their
        target nodes: the transpose of the row gather by ``edge_dst``."""
        return self._scatter(self.edge_dst)

    @cached_property
    def max_plan(self) -> tuple:
        """Tree-reduction plan for per-node maxima over the outbound edge
        blocks (see :func:`adrgnn.autodiff.segment_max_plan`)."""
        return segment_max_plan(self.out_indptr)

    @cached_property
    def laplacian_float32(self) -> tuple:
        """The degree mask and the normalized adjacency cast to float32, the
        operands :func:`laplacian_apply` uses on float32 input."""
        return self._deg_mask.astype(np.float32), self._adj_norm.astype(np.float32)

    @cached_property
    def gcn_adjacency(self) -> sp.csr_matrix:
        """Self-loop renormalized adjacency D^{-1/2}(A + I)D^{-1/2}; symmetric."""
        a = self._adj + sp.eye(self.n_nodes, format="csr")
        d_inv_sqrt = sp.diags(1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel()))
        return d_inv_sqrt @ a @ d_inv_sqrt

    @cached_property
    def gcn_adjacency_float32(self) -> sp.csr_matrix:
        """:attr:`gcn_adjacency` cast to float32, the operator of float32
        :class:`~adrgnn.models.GcnBaseline` forwards."""
        return self.gcn_adjacency.astype(np.float32)

    def adjacency(self) -> sp.csr_matrix:
        return self._adj

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n_nodes={self.n_nodes}, directed_edges={self.n_edges})"


def build_graph(edge_list, n_nodes: int) -> Graph:
    """Construct a :class:`Graph` from (i, j) pairs, adding the reverse of
    every edge. Self-loops are dropped and duplicates removed."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    edges = np.asarray(list(edge_list), dtype=np.int64).reshape(-1, 2)
    if len(edges):
        bad = (edges < 0) | (edges >= n_nodes)
        if bad.any():
            offender = edges[bad.any(axis=1)][0]
            raise ValueError(
                f"edge ({offender[0]}, {offender[1]}) out of range for n_nodes={n_nodes}"
            )
        edges = edges[edges[:, 0] != edges[:, 1]]
    if len(edges):
        edges = np.concatenate([edges, edges[:, ::-1]], axis=0)
        keys = edges[:, 0] * n_nodes + edges[:, 1]
        keys = np.unique(keys)
        src, dst = keys // n_nodes, keys % n_nodes
    else:
        src = dst = np.zeros(0, dtype=np.int64)
    return Graph(n_nodes, src, dst)


def laplacian_apply(g: Graph, u: np.ndarray) -> np.ndarray:
    """Apply the symmetric normalized Laplacian D^{-1/2}(D-A)D^{-1/2}.

    Row i of the result is u_i - sum_{j in N_i} u_j / sqrt(d_i d_j) for
    nodes with neighbors; isolated nodes map to zero rows. Float32 input is
    applied with the graph's cached float32 operands; the float64 operands
    are used as they are. The result is the one array ``adj @ u``,
    overwritten by the difference; the degree mask is applied only where a
    node is isolated (elsewhere it is exactly 1).
    """
    u = np.asarray(u)
    if u.shape[0] != g.n_nodes:
        raise ValueError(f"feature rows {u.shape[0]} != n_nodes {g.n_nodes}")
    mask, adj = g.laplacian_float32 if u.dtype == np.float32 else (g._deg_mask, g._adj_norm)
    out = adj @ u
    if g.has_isolated:
        u = (mask if u.ndim == 1 else mask[:, None]) * u
    return np.subtract(u, out, out=out)


def dirichlet_energy(g: Graph, u: np.ndarray) -> float:
    """Mean squared feature difference across directed edges.

    E(U) = (1/n) * sum_i sum_{j in N_i} ||U_i - U_j||^2, each undirected
    pair counted once per orientation. Zero iff U is constant on every
    connected component.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim == 1:
        u = u[:, None]
    if u.shape[0] != g.n_nodes:
        raise ValueError(f"feature rows {u.shape[0]} != n_nodes {g.n_nodes}")
    diff = u[g.edge_src] - u[g.edge_dst]
    return float((diff * diff).sum() / g.n_nodes)


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) random graph: each unordered pair kept with probability p,
    then symmetrized. Deterministic for a fixed seed."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = philox(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    pairs = np.stack([iu[keep], ju[keep]], axis=1)
    return build_graph(pairs, n)
