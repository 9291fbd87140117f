"""Discretized advection, diffusion and reaction terms and their
operator-split composition into a single layer.

Advection transports node features along directed edges using learned
velocities whose outbound weights sum to 1 per node and channel, which
makes the update mass conserving and column stochastic. The velocities are
computed untaped; the advection step records them with the network they
came from, as one op that recomputes them in backward. Diffusion takes an
implicit Euler step of the normalized-Laplacian heat flow, applied per
channel as a fixed-degree Chebyshev series in the Laplacian. Reaction is a
pointwise MLP update with a skip connection to the initial embedding, taped
as one op that recomputes its tanh in backward. One layer applies the three
solution operators in sequence (advection, diffusion, reaction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Linear, Variable
from .graph import Graph, laplacian_apply

# largest graph advection_matrix densifies
DENSE_LIMIT = 200


# ---------------------------------------------------------------------------
# parameter containers

@dataclass
class AdvectionParams:
    """Edge-velocity network weights: two biased maps feeding the shared
    pre-activation, and two bias-free maps.

    a3 and a4 deliberately carry no bias: a bias after the ReLU difference
    would break the guarantee that at most one direction of every edge pair
    has a nonzero pre-normalization weight.
    """

    a1: Linear
    a2: Linear
    a3: Linear
    a4: Linear

    @classmethod
    def init(cls, c: int, rng: np.random.Generator, name: str = "adv") -> "AdvectionParams":
        return cls(
            a1=Linear.init(c, c, rng, bias=True, name=f"{name}.a1"),
            a2=Linear.init(c, c, rng, bias=True, name=f"{name}.a2"),
            a3=Linear.init(c, c, rng, bias=False, name=f"{name}.a3"),
            a4=Linear.init(c, c, rng, bias=False, name=f"{name}.a4"),
        )

    def parameters(self) -> list[Variable]:
        return (self.a1.parameters() + self.a2.parameters()
                + self.a3.parameters() + self.a4.parameters())


@dataclass
class DiffusionParams:
    """Raw per-channel coefficients; the effective diffusivities are
    hardtanh(theta, 0, 1), one per channel."""

    theta: Variable

    @classmethod
    def init(cls, c: int, name: str = "diff") -> "DiffusionParams":
        # Init in the clamp interior so the coefficients keep a gradient.
        return cls(Variable(np.full(c, 0.5), requires_grad=True, name=f"{name}.theta"))

    def effective(self) -> Variable:
        return ad.hardtanh(self.theta, 0.0, 1.0)

    def parameters(self) -> list[Variable]:
        return [self.theta]


@dataclass
class ReactionParams:
    """Pointwise MLP weights plus optional batch-norm state."""

    r1: Linear
    r2: Linear
    r3: Linear
    bn_gamma: Optional[Variable] = None
    bn_beta: Optional[Variable] = None
    bn_state: Optional[BatchNormState] = None

    @classmethod
    def init(cls, c: int, rng: np.random.Generator, use_batchnorm: bool = False,
             name: str = "react") -> "ReactionParams":
        params = cls(
            r1=Linear.init(c, c, rng, bias=True, name=f"{name}.r1"),
            r2=Linear.init(c, c, rng, bias=True, name=f"{name}.r2"),
            r3=Linear.init(c, c, rng, bias=True, name=f"{name}.r3"),
        )
        if use_batchnorm:
            params.bn_gamma = Variable(np.ones(c), requires_grad=True, name=f"{name}.bn_gamma")
            params.bn_beta = Variable(np.zeros(c), requires_grad=True, name=f"{name}.bn_beta")
            params.bn_state = BatchNormState.zeros(c)
        return params

    @property
    def use_batchnorm(self) -> bool:
        return self.bn_gamma is not None

    def parameters(self) -> list[Variable]:
        out = self.r1.parameters() + self.r2.parameters() + self.r3.parameters()
        if self.use_batchnorm:
            out += [self.bn_gamma, self.bn_beta]
        return out

    def state(self) -> dict[str, np.ndarray]:
        """The live batch-norm running statistics, named after the batch-norm
        parameters (``<name>.bn.running_mean``, ``<name>.bn.running_var``)."""
        if self.bn_state is None:
            return {}
        prefix = self.bn_gamma.name.removesuffix("_gamma")
        return {f"{prefix}.running_mean": self.bn_state.running_mean,
                f"{prefix}.running_var": self.bn_state.running_var}


@dataclass
class AdrLayerParams:
    advection: AdvectionParams
    diffusion: DiffusionParams
    reaction: ReactionParams

    @classmethod
    def init(cls, c: int, rng: np.random.Generator, use_batchnorm: bool = False,
             name: str = "layer") -> "AdrLayerParams":
        return cls(
            advection=AdvectionParams.init(c, rng, name=f"{name}.adv"),
            diffusion=DiffusionParams.init(c, name=f"{name}.diff"),
            reaction=ReactionParams.init(c, rng, use_batchnorm, name=f"{name}.react"),
        )

    def parts(self) -> list[tuple[str, object]]:
        """The three terms' parameter containers, by optimizer group."""
        return [("advection", self.advection), ("diffusion", self.diffusion),
                ("reaction", self.reaction)]


@dataclass
class EdgeVelocities:
    """Per-directed-edge, per-channel transport weights in the graph's edge
    order; outbound weights of every non-isolated node sum to 1 per channel.
    ``features`` and ``params`` are the velocity network the weights came
    from (:func:`edge_velocities`); weights without them are constants."""

    values: Variable
    features: Optional[Variable] = None
    params: Optional[AdvectionParams] = None


# ---------------------------------------------------------------------------
# advection

def edge_velocities(g: Graph, u, params: AdvectionParams) -> EdgeVelocities:
    """Learn directional edge weights from node features.

    For each directed edge (i, j): z_ij = ReLU(u_i a1 + u_j a2) a3, and the
    pre-normalization weight is ReLU(z_ij - z_ji) a4 (so at most one of the
    two orientations is nonzero per channel before a4). A channel-wise
    softmax over each node's outbound edges produces the final weights.

    a1 and a2 are applied on node rows and gathered onto edges (the maps
    commute with row selection), which keeps the dense work node-sized.
    Nothing is taped here: the weights carry ``u`` and ``params``, and
    :func:`advect` records them as one op with the transport, whose record
    keeps ``u`` and the weights and recomputes the velocities in backward.
    """
    u = ad._as_variable(u)
    a1, a2 = params.a1, params.a2
    asym = ad.edge_asymmetry(ad.edge_hidden(ad._affine(u.value, a1.w.value, a1.b.value),
                                            ad._affine(u.value, a2.w.value, a2.b.value),
                                            g.edge_src, g.edge_dst),
                             params.a3.w.value, g.rev_edge)
    pre = asym @ params.a4.w.value
    del asym
    return EdgeVelocities(ad.segment_softmax(pre, g.edge_src, g.scatter_src, g.max_plan),
                          u, params)


def check_step_size(h: float, where: str) -> None:
    """Every term's step is stable, and advection mass conserving and
    nonnegative, for step sizes h in (0, 1]."""
    if not 0 < h <= 1:
        raise ValueError(f"{where}: h={h} outside (0, 1]")


def advect(g: Graph, u, v: EdgeVelocities, h: float) -> Variable:
    """Forward Euler transport step u + h * DIV(v, u), where DIV(v, u) is
    the inbound velocity-weighted neighbor sum minus the node's own
    features, and isolated nodes get zero rows; mass conserving and stable
    for h in (0, 1]. One taped op (:func:`ad.advection`), which records the
    velocity network of weights from :func:`edge_velocities` and treats
    other weights as constants."""
    check_step_size(h, "advect")
    p = v.params
    source = () if p is None else (v.features, p.a1.w, p.a1.b, p.a2.w, p.a2.b, p.a3.w, p.a4.w)
    return ad.advection(u, v.values.value, h, g, source)


def advection_matrix(g: Graph, v: EdgeVelocities, h: float, channel: int) -> np.ndarray:
    """Dense one-channel transport matrix A with A @ u = advect(u).

    A = (1-h) I + h M with M[dst, src] = v[src->dst]; isolated nodes get
    A_ii = 1. Column stochastic and nonnegative for h in (0, 1].
    """
    if g.n_nodes > DENSE_LIMIT:
        raise ValueError(f"advection_matrix: n={g.n_nodes} exceeds dense limit {DENSE_LIMIT}")
    vals = v.values.value[:, channel]
    m = np.zeros((g.n_nodes, g.n_nodes))
    np.add.at(m, (g.edge_dst, g.edge_src), vals)
    diag = np.where(g.isolated, 1.0, 1.0 - h)
    return np.diag(diag) + h * m


# ---------------------------------------------------------------------------
# diffusion

def diffuse(g: Graph, u, params: DiffusionParams, h: float,
            cg_iterations: int = 5) -> Variable:
    """Diffusion step with per-channel coefficients kappa = hardtanh(theta, 0, 1):
    the unconditionally stable implicit Euler step (I + h*kappa_c*L)^-1 u_c
    per channel, as a Chebyshev series of degree ``cg_iterations`` in L
    (:func:`autodiff.cg_solve`).
    """
    u = ad._as_variable(u)
    if u.value.shape[0] != g.n_nodes:
        raise ValueError(f"diffuse: feature rows {u.value.shape[0]} != n_nodes {g.n_nodes}")
    return ad.cg_solve(lambda x: laplacian_apply(g, x), u, params.effective(), h,
                       iterations=cg_iterations)


# ---------------------------------------------------------------------------
# reaction

def react(u, u0, params: ReactionParams, h: float, train: bool = False) -> Variable:
    """Pointwise update u + h * sigma(u r1 + tanh(u r2) (.) u + u0 r3).

    sigma is ReLU, optionally preceded by batch normalization. No cross-node
    mixing: output row i depends only on rows i of u and u0. One taped op
    (:func:`ad.reaction`), which recomputes the tanh in backward.
    """
    return ad.reaction(u, u0, params.parameters(), h, params.bn_state, train)


# ---------------------------------------------------------------------------
# operator-split layer

@dataclass
class AdrLayerStages:
    velocities: Optional[EdgeVelocities]
    after_advection: Variable
    after_diffusion: Variable
    output: Variable


def adr_layer(g: Graph, u, u0, params: AdrLayerParams, h: float,
              cg_iterations: int = 5, train: bool = False, terms: str = "ADR",
              velocity_features=None, diagnostics: bool = False):
    """One operator-split step: advection, then implicit diffusion, then
    reaction. ``terms`` selects the active subset (inactive terms are the
    identity); ``velocity_features`` optionally computes edge velocities
    from features other than ``u`` (the temporal model's history pathway).
    The step size h must lie in (0, 1] whichever terms are active.
    """
    terms = terms.upper()
    if not terms or any(t not in "ADR" for t in terms):
        raise ValueError(f"adr_layer: terms must be a non-empty subset of 'ADR', got {terms!r}")
    check_step_size(h, "adr_layer")
    u = ad._as_variable(u)
    velocities = None
    if "A" in terms:
        vel_in = u if velocity_features is None else ad._as_variable(velocity_features)
        velocities = edge_velocities(g, vel_in, params.advection)
        u_adv = advect(g, u, velocities, h)
        if not diagnostics:
            velocities = None  # the record recomputes them: free the edge-sized values
    else:
        u_adv = u
    if "D" in terms:
        u_diff = diffuse(g, u_adv, params.diffusion, h, cg_iterations)
    else:
        u_diff = u_adv
    if "R" in terms:
        out = react(u_diff, u0, params.reaction, h, train=train)
    else:
        out = u_diff
    if diagnostics:
        return out, AdrLayerStages(velocities, u_adv, u_diff, out)
    return out


# ---------------------------------------------------------------------------
# operator-splitting discrepancy study

def splitting_error_study(a: np.ndarray, d: np.ndarray, r: np.ndarray,
                          dt: float, u: np.ndarray) -> float:
    """Norm of the gap between the exact propagator exp(dt(A+D+R)) applied
    to u and the sequential split exp(dt R) exp(dt D) exp(dt A) u.

    Zero for commuting operators; O(dt^2) otherwise.
    """
    # imported on use: scipy.linalg adds about 6.9 MB of resident memory and
    # 51 ms to a process, and only this study needs it
    from scipy.linalg import expm

    a, d, r = (np.asarray(m, dtype=np.float64) for m in (a, d, r))
    u = np.asarray(u, dtype=np.float64)
    if not (a.shape == d.shape == r.shape) or a.shape[0] != a.shape[1]:
        raise ValueError("splitting_error_study: A, D, R must be equal square matrices")
    if a.shape[0] > 50:
        raise ValueError("splitting_error_study: dense study limited to n <= 50")
    exact = expm(dt * (a + d + r)) @ u
    split = expm(dt * r) @ (expm(dt * d) @ (expm(dt * a) @ u))
    return float(np.linalg.norm(exact - split))
