"""Correctness checks on workload outputs.

Every check compares an output with an independent computation or with a
property the method must have; none reads a saved copy of earlier output.
Each returns a list of failure messages, empty when the output passes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def normalized_laplacian(n: int, edge_src: np.ndarray, edge_dst: np.ndarray) -> sp.csc_matrix:
    """D^{-1/2}(D - A)D^{-1/2} from a directed edge list closed under
    reversal; isolated nodes get zero rows and columns."""
    deg = np.bincount(edge_src, minlength=n).astype(np.float64)
    inv_sqrt = np.zeros(n)
    inv_sqrt[deg > 0] = deg[deg > 0] ** -0.5
    adj = sp.csr_matrix((inv_sqrt[edge_src] * inv_sqrt[edge_dst], (edge_src, edge_dst)),
                        shape=(n, n))
    return (sp.diags((deg > 0).astype(np.float64)) - adj).tocsc()


def velocities(v: np.ndarray, edge_src: np.ndarray, n: int, tol: float = 1e-9) -> list[str]:
    """Edge velocities are nonnegative and sum to 1 per channel over the
    outbound edges of every node that has any."""
    out = []
    if (v < 0).any():
        out.append(f"negative velocity {v.min():.3e}")
    outbound = sp.csr_matrix((np.ones(len(edge_src)), (edge_src, np.arange(len(edge_src)))),
                             shape=(n, len(edge_src)))
    sums = outbound @ v
    has_edges = np.bincount(edge_src, minlength=n) > 0
    worst = float(np.abs(sums[has_edges] - 1.0).max()) if has_edges.any() else 0.0
    if worst > tol:
        out.append(f"outbound velocity sums off 1 by {worst:.3e} (> {tol:.0e})")
    return out


def mass_conserved(before: np.ndarray, after: np.ndarray, tol: float = 1e-9) -> list[str]:
    """Per-channel feature mass is unchanged, relative to the channel's
    total absolute mass."""
    scale = np.maximum(np.abs(before).sum(axis=0), np.finfo(np.float64).tiny)
    drift = float((np.abs(after.sum(axis=0) - before.sum(axis=0)) / scale).max())
    return [] if drift <= tol else [f"relative mass drift {drift:.3e} (> {tol:.0e})"]


def laplacian_eigh(lap: sp.spmatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of a (small) Laplacian.

    One dense decomposition gives exact solves of (I + h kappa_c L)x = b_c
    for every channel at once; a sparse LU per channel costs 0.06-0.37 s
    at Cora scale, over a minute for the 256 channel solves of one check."""
    return np.linalg.eigh(lap.toarray())


def cg_within_bound(rhs: np.ndarray, solved: np.ndarray, kappa: np.ndarray, h: float,
                    eig: tuple[np.ndarray, np.ndarray], iterations: int,
                    cg_tol: float) -> list[str]:
    """Each channel of a k-iteration CG solve of (I + h kappa_c L)x = b_c,
    started from 0, lies within the textbook bound of the exact solution:
    ||x - x*||_A <= 2 rho^k ||x*||_A with rho = (sqrt(c)-1)/(sqrt(c)+1) and
    c = 1 + 2 h kappa_c, since the normalized Laplacian's spectrum is in
    [0, 2]. The exact solution comes from the eigendecomposition ``eig`` of
    L. A solve that stopped early on its residual tolerance is within cg_tol
    instead (A >= I, so the A-norm error is at most the residual norm)."""
    lam, vecs = eig
    diag = 1.0 + h * kappa[None, :] * lam[:, None]  # A = V diag V^T, per channel
    exact = (vecs.T @ rhs) / diag
    err = vecs.T @ solved - exact
    err_a = np.sqrt((diag * err * err).sum(axis=0))
    exact_a = np.sqrt((diag * exact * exact).sum(axis=0))
    cond = 1.0 + 2.0 * h * kappa
    rho = (np.sqrt(cond) - 1.0) / (np.sqrt(cond) + 1.0)
    bound = np.maximum(2.0 * rho ** iterations * exact_a, cg_tol) + 1e-12 * exact_a
    return [f"channel {c}: A-norm error {err_a[c]:.3e} exceeds CG bound {bound[c]:.3e}"
            for c in np.flatnonzero(err_a > bound)]


def close(got: np.ndarray, want: np.ndarray, rtol: float = 1e-12, what: str = "values") -> list[str]:
    diff = float(np.abs(got - want).max())
    scale = max(float(np.abs(want).max()), np.finfo(np.float64).tiny)
    return [] if diff <= rtol * scale else [f"{what} differ by {diff / scale:.3e} relative"]


def directional_gradient(grad: np.ndarray, value: np.ndarray, loss, seed: int,
                         eps: float = 1e-7, rtol: float = 1e-4, name: str = "param") -> list[str]:
    """Compare a reverse-mode gradient with central differences of ``loss``
    (a function of no arguments reading ``value`` in place) along two unit
    directions: the gradient's own, which catches a mis-scaled gradient,
    and a random one, which catches a mis-pointed one. Errors are relative
    to the gradient's norm. The tolerance leaves room for ReLU kinks that
    the +-eps step crosses (about 3e-5 at eps=1e-6 on the Cora-scale tail)
    while still catching a gradient that is off by 1%. ``value`` is
    restored afterwards."""
    norm = float(np.linalg.norm(grad))
    if norm == 0.0:
        return [f"{name}: zero gradient"]
    rand = np.random.default_rng(seed).standard_normal(grad.shape)
    out = []
    original = value.copy()
    for label, d in (("own", grad / norm), ("random", rand / np.linalg.norm(rand))):
        value[...] = original + eps * d
        up = loss()
        value[...] = original - eps * d
        down = loss()
        value[...] = original
        fd = (up - down) / (2.0 * eps)
        err = abs(float((grad * d).sum()) - fd) / norm
        if err > rtol:
            out.append(f"{name}: gradient along {label} direction off by {err:.3e} relative")
    return out


def falls(losses, factor: float = 1.0, what: str = "loss") -> list[str]:
    """The last value is below ``factor`` times the first."""
    first, last = float(losses[0]), float(losses[-1])
    return [] if last < factor * first else [f"{what} went from {first:.4g} to {last:.4g}"]


def at_least(value: float, floor: float, what: str) -> list[str]:
    return [] if value >= floor else [f"{what} {value:.4g} below {floor:.4g}"]
