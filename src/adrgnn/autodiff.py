"""Reverse-mode automatic differentiation over dense numpy arrays.

A :class:`Tape` records primitive operations while it is active as a
context manager; :func:`backward` replays them in reverse to accumulate
gradients into every :class:`Variable` with ``requires_grad``. Outside an
active tape the primitives just compute values, which is the cheap
evaluation path.

A record keeps only what backward needs: a value-free node for the output,
one slot per input and the backward rule. An intermediate's value is
therefore freed as soon as neither the caller nor a backward rule holds it,
instead of living until backward ends.

The primitive set covers dense linear algebra, elementwise nonlinearities,
products with constant linear operators (edge gathers and scatters among
them), a segment softmax keyed to a graph's directed-edge order, masked
losses, and a conjugate-gradient linear solve whose backward rule uses
implicit differentiation instead of unrolling the iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .runtime import default_dtype, philox


class Variable:
    """A value in the computation graph plus its gradient accumulator.

    The accumulator is materialized lazily (all-zero on first access), so
    the vast majority of Variables, the tape's intermediates, never pay for
    one: backward accumulates their gradients in a side table and only
    writes into ``grad`` for requires_grad Variables.

    A Variable produced by a taped op carries its record's index
    (``tape_id``) and the record's value-free ``node``; the tape refers to
    it only through that node, so the Variable and its value die with the
    caller's last reference.
    """

    __slots__ = ("value", "_grad", "requires_grad", "needs_grad", "tape_id", "node", "name")

    def __init__(self, value, requires_grad: bool = False, name: Optional[str] = None):
        self.value = np.asarray(value, dtype=default_dtype())
        self._grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.needs_grad = requires_grad
        self.tape_id: Optional[int] = None
        self.node: Optional[_Node] = None
        self.name = name

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self._grad = value

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self) -> None:
        if self._grad is not None:
            self._grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover
        tag = f" {self.name!r}" if self.name else ""
        return f"Variable{tag}(shape={self.value.shape}, requires_grad={self.requires_grad})"


_ACTIVE_TAPE: Optional["Tape"] = None


class _Node:
    """Value-free stand-in for a taped op's output in the tape's records;
    backward keys gradients by it."""

    __slots__ = ()
    value = None
    requires_grad = False


# the input slot of every input that takes no gradient on this tape
_CONSTANT = _Node()


class Tape:
    """Ordered record of primitive ops; inputs always precede outputs.

    ``records[i]`` is ``(node, input_slots, rule)`` for the op whose output
    has ``tape_id == i``. An input slot is the input's node if a taped op
    produced it, the input itself if it is a requires_grad leaf, and the
    shared ``_CONSTANT`` node otherwise. No slot holds an intermediate's
    value: the tape keeps alive only the leaves and what the rules capture.
    :func:`backward` replaces each rule with ``None`` as soon as it has run,
    which frees what the rule captured; the records stay, so a tape is
    backpropagated once. One tape is active at a time.
    """

    def __init__(self):
        self.records: list[tuple[_Node, tuple, Optional[Callable]]] = []

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a Tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None


def _as_variable(x) -> Variable:
    return x if isinstance(x, Variable) else Variable(x)


def _emit(out_value: np.ndarray, inputs: tuple[Variable, ...], backward_fn: Callable) -> Variable:
    """Create the output Variable, recording the op if a tape is active
    and any input participates in differentiation."""
    out = Variable(out_value)
    for v in inputs:
        if v.needs_grad:
            break
    else:
        return out
    out.needs_grad = True
    tape = _ACTIVE_TAPE
    if tape is not None:
        out.tape_id = len(tape.records)
        out.node = node = _Node()
        slots = tuple([v if v.requires_grad else v.node or _CONSTANT for v in inputs])
        tape.records.append((node, slots, backward_fn))
    return out


def backward(tape: Tape, loss: Variable) -> None:
    """Accumulate d(loss)/d(v) into v.grad for every requires_grad Variable.

    Gradients of successive tapes add up until zero_grad, which is what
    parameter sharing across layers relies on. Each record's rule is
    released once it has run (before the next one runs), so the peak is not
    the whole tape plus the largest rule's temporaries; a tape that was
    already backpropagated raises ``RuntimeError``.
    """
    if loss.value.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.value.shape}")
    # keyed by record slot: the tape keeps every key alive, so none is reused
    grads: dict = {loss.node or loss: np.ones_like(loss.value)}
    records = tape.records
    for i in range(len(records) - 1, -1, -1):
        node, slots, backward_fn = records[i]
        if backward_fn is None:
            raise RuntimeError("backward: this tape was already backpropagated; "
                               "tape the loss again")
        records[i] = (node, slots, None)
        g = grads.pop(node, None)
        if g is None:
            continue
        for slot, gi in zip(slots, backward_fn(g)):
            if gi is None or slot is _CONSTANT:
                continue
            if slot in grads:
                grads[slot] = grads[slot] + gi
            else:
                grads[slot] = gi
    for slot, g in grads.items():
        if slot.requires_grad:
            slot.grad += g


# ---------------------------------------------------------------------------
# segment helpers (shared by primitives)

def segment_max_plan(indptr: np.ndarray) -> tuple:
    """Pairwise tree-reduction plan for per-segment maxima over contiguous
    blocks ``indptr[i]:indptr[i+1]``.

    Returns ``(head, steps)``. At step s = 1, 2, 4, ... the pair
    ``(left, right)`` lists every row whose rank within its block is a
    multiple of 2s and whose partner ``right = left + s`` lies in the same
    block; after ``work[left] = max(work[left], work[right])`` over all
    steps, each block's first row holds the block max. ``head`` maps every
    row to its block's first row. Built in O(rows); each step's candidates
    are a subset of the previous step's pairs.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    degree = np.diff(indptr)
    head = np.repeat(indptr[:-1], degree)
    rows = np.arange(len(head))
    rank, size = rows - head, degree.repeat(degree)
    steps = []
    s = 1
    while True:
        keep = (rank % (2 * s) == 0) & (rank + s < size)
        if not keep.any():
            break
        rows, rank, size = rows[keep], rank[keep], size[keep]
        steps.append((rows, rows + s))
        s *= 2
    return head, steps


def _segment_max_rows(values: np.ndarray, plan: tuple) -> np.ndarray:
    """Each row's segment max, by the tree reduction of :func:`segment_max_plan`."""
    head, steps = plan
    work = values.copy()
    for left, right in steps:
        work[left] = np.maximum(np.take(work, left, axis=0), np.take(work, right, axis=0))
    return np.take(work, head, axis=0)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitives

def matmul(a, b, bias=None) -> Variable:
    """``a @ b``, plus the row vector ``bias`` if given, as one op."""
    a, b = _as_variable(a), _as_variable(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.value.shape} @ {b.value.shape}")
    av, bv = a.value, b.value
    if bias is None:
        def bwd(g):
            return g @ bv.T, av.T @ g

        return _emit(av @ bv, (a, b), bwd)
    bias = _as_variable(bias)
    if bias.value.shape != (bv.shape[1],):
        raise ValueError(f"matmul: bias of shape {bias.value.shape} for {bv.shape[1]} columns")

    def bwd_bias(g):
        return g @ bv.T, av.T @ g, g.sum(axis=0)

    return _emit(_affine(av, bv, bias.value), (a, b, bias), bwd_bias)


def _affine(u: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``u @ w + b``, the product of :func:`matmul` with a bias, untaped."""
    out = u @ w
    out += b
    return out


def add(a, b) -> Variable:
    a, b = _as_variable(a), _as_variable(b)
    try:
        out = a.value + b.value
    except ValueError:
        raise ValueError(f"add: shapes {a.value.shape} and {b.value.shape} do not broadcast")
    ash, bsh = a.value.shape, b.value.shape

    def bwd(g):
        return _unbroadcast(g, ash), _unbroadcast(g, bsh)

    return _emit(out, (a, b), bwd)


def subtract(a, b) -> Variable:
    a, b = _as_variable(a), _as_variable(b)
    try:
        out = a.value - b.value
    except ValueError:
        raise ValueError(f"subtract: shapes {a.value.shape} and {b.value.shape} do not broadcast")
    ash, bsh = a.value.shape, b.value.shape

    def bwd(g):
        return _unbroadcast(g, ash), _unbroadcast(-g, bsh)

    return _emit(out, (a, b), bwd)


def hadamard(a, b) -> Variable:
    a, b = _as_variable(a), _as_variable(b)
    try:
        out = a.value * b.value
    except ValueError:
        raise ValueError(f"hadamard: shapes {a.value.shape} and {b.value.shape} do not broadcast")
    av, bv = a.value, b.value

    def bwd(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return _emit(out, (a, b), bwd)


def scale_by_scalar(x, s: float) -> Variable:
    x = _as_variable(x)
    s = float(s)

    def bwd(g):
        return (g * s,)

    return _emit(x.value * s, (x,), bwd)


def relu(x) -> Variable:
    x = _as_variable(x)
    mask = x.value > 0  # derivative at 0 is 0

    def bwd(g):
        return (g * mask,)

    return _emit(np.maximum(x.value, 0.0), (x,), bwd)


def tanh(x) -> Variable:
    x = _as_variable(x)
    out = np.tanh(x.value)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return _emit(out, (x,), bwd)


def hardtanh(x, lo: float, hi: float) -> Variable:
    """Clamp to [lo, hi]; derivative is 1 strictly inside, 0 elsewhere."""
    x = _as_variable(x)
    if not lo < hi:
        raise ValueError(f"hardtanh: lo={lo} must be < hi={hi}")
    interior = (x.value > lo) & (x.value < hi)

    def bwd(g):
        return (g * interior,)

    return _emit(np.clip(x.value, lo, hi), (x,), bwd)


def dropout(x, p: float, train: bool, rng) -> Variable:
    """Inverted dropout: retained entries scaled by 1/(1-p) in training,
    identity at evaluation. ``rng`` is an integer seed or a Generator."""
    x = _as_variable(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: p={p} outside [0, 1)")
    if not train or p == 0.0:
        return x
    if not isinstance(rng, np.random.Generator):
        rng = philox(int(rng))
    scale = 1.0 / (1.0 - p)
    # a boolean mask, scaled at use: an eighth of a float64 mask's bytes,
    # and the products keep the input's dtype
    mask = rng.random(x.value.shape) >= p

    def bwd(g):
        g = g * mask
        g *= scale
        return (g,)

    out = x.value * mask
    out *= scale
    return _emit(out, (x,), bwd)


def slice_columns(x, start: int, stop: int) -> Variable:
    x = _as_variable(x)
    shape = x.value.shape

    def bwd(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[:, start:stop] = g
        return (full,)

    return _emit(x.value[:, start:stop].copy(), (x,), bwd)


def concat_columns(parts: Sequence) -> Variable:
    parts = tuple(_as_variable(p) for p in parts)
    widths = [p.value.shape[1] for p in parts]
    offsets = np.concatenate(([0], np.cumsum(widths)))

    def bwd(g):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _emit(np.concatenate([p.value for p in parts], axis=1), parts, bwd)


def segment_softmax(values, source_index, scatter, max_plan) -> Variable:
    """Channel-wise softmax over each source node's contiguous edge block.

    ``source_index`` holds each row's segment id, sorted non-decreasing (the
    graph's directed-edge order); ``scatter`` is the constant node-by-edge
    sum matrix and ``max_plan`` the tree-reduction plan over the same
    blocks (:attr:`Graph.scatter_src`, :attr:`Graph.max_plan`). The
    overflow shift is each segment's max, taken by a pairwise tree
    reduction, which is exact. Each nonempty segment's outputs sum to 1
    per channel.
    """
    values = _as_variable(values)
    expand_sum = lambda x: np.take(scatter @ x, source_index, axis=0)
    # shift, exponentiate and normalize in the buffer that holds the maxima
    y = _segment_max_rows(values.value, max_plan)
    np.subtract(values.value, y, out=y)
    np.exp(y, out=y)
    y /= expand_sum(y)

    def bwd(g):
        return (y * (g - expand_sum(y * g)),)

    return _emit(y, (values,), bwd)


def _apply_operator(op, x: np.ndarray) -> np.ndarray:
    """``op @ x``; an int ndarray ``op`` stands for the 0/1 selector whose
    row i picks row ``op[i]`` of ``x``, and is applied as that row gather."""
    if isinstance(op, np.ndarray):
        return np.take(x, op, axis=0)
    return op @ x


def fixed_sparse_matmul(matrix, matrix_t, x) -> Variable:
    """Multiply by a constant linear operator (edge gathers and scatters,
    graph operators, sparse features); the backward rule applies the
    supplied transpose. Either operand may be an int row index, the compact
    form of a 0/1 row selector."""
    x = _as_variable(x)

    def bwd(g):
        return (_apply_operator(matrix_t, g),)

    return _emit(_apply_operator(matrix, x.value), (x,), bwd)


def weighted_transport(weights, x, gather, gather_t, scatter, scatter_t) -> Variable:
    """``scatter @ (weights * (gather @ x))`` as one op: gather rows of
    ``x`` onto edges, weight them edgewise and sum them back onto nodes.
    The operators are constant, as in :func:`fixed_sparse_matmul`, with
    their transposes. The backward rule gathers ``gather @ x`` again instead
    of keeping the edge-sized copy (recomputation for memory, Chen et al.
    2016, arXiv 1604.06174)."""
    weights, x = _as_variable(weights), _as_variable(x)
    wv, xv = weights.value, x.value
    edges = _apply_operator(gather, xv)
    if edges.shape != wv.shape:
        raise ValueError(f"weighted_transport: weights {wv.shape} for gathered rows {edges.shape}")
    edges *= wv

    def bwd(g):
        g_edges = _apply_operator(scatter_t, g)
        g_x = _apply_operator(gather_t, g_edges * wv)
        g_edges *= _apply_operator(gather, xv)
        return g_edges, g_x

    return _emit(_apply_operator(scatter, edges), (weights, x), bwd)


def edge_asymmetry(a1u: np.ndarray, a2u: np.ndarray, w3: np.ndarray,
                   src: np.ndarray, dst: np.ndarray, rev: np.ndarray) -> tuple:
    """``(hidden, asym)``: ``hidden = relu(a1u[src] + a2u[dst])`` and
    ``asym = relu(z - z[rev])`` for ``z = hidden @ w3``, on plain arrays.
    Either ReLU's mask is its output's positive entries."""
    hidden = np.take(a1u, src, axis=0)
    hidden += np.take(a2u, dst, axis=0)
    np.maximum(hidden, 0.0, out=hidden)
    asym = hidden @ w3
    asym -= np.take(asym, rev, axis=0)
    np.maximum(asym, 0.0, out=asym)
    return hidden, asym


def edge_scores(u, w1, b1, w2, b2, w3, w4, src, dst, scatter_src, scatter_dst, rev) -> Variable:
    """Pre-softmax edge scores ``edge_asymmetry(a1u, a2u, w3, ...)[1] @ w4``
    as one op, for the node maps ``a1u = u @ w1 + b1`` and
    ``a2u = u @ w2 + b2``.

    The node maps are gathered onto edges by ``src`` and ``dst``, whose
    transposes are ``scatter_src`` and ``scatter_dst``; ``rev`` is the
    reverse-edge involution. The record keeps only ``u`` and the weights:
    backward recomputes the node maps and the edge-sized values (Chen et al.
    2016, arXiv 1604.06174). ``u`` is listed twice among the inputs, for
    the a2 and then the a1 map, so its gradient sums the two parts in the
    order two separate ``matmul`` records would give them."""
    u, w1, b1, w2, b2, w3, w4 = (_as_variable(v) for v in (u, w1, b1, w2, b2, w3, w4))
    uv, w1v, b1v, w2v, b2v, w3v, w4v = (v.value for v in (u, w1, b1, w2, b2, w3, w4))
    _, asym = edge_asymmetry(_affine(uv, w1v, b1v), _affine(uv, w2v, b2v), w3v, src, dst, rev)

    def bwd(g):
        hidden, asym = edge_asymmetry(_affine(uv, w1v, b1v), _affine(uv, w2v, b2v), w3v,
                                      src, dst, rev)
        g_w4 = asym.T @ g
        g_d = g @ w4v.T
        g_d *= asym > 0
        del asym
        g_z = g_d - np.take(g_d, rev, axis=0)
        del g_d
        g_w3 = hidden.T @ g_z
        g_hidden = g_z @ w3v.T
        g_hidden *= hidden > 0
        del hidden, g_z
        g1, g2 = scatter_src @ g_hidden, scatter_dst @ g_hidden
        return (g2 @ w2v.T, g1 @ w1v.T, uv.T @ g1, g1.sum(axis=0), uv.T @ g2, g2.sum(axis=0),
                g_w3, g_w4)

    return _emit(asym @ w4v, (u, u, w1, b1, w2, b2, w3, w4), bwd)


def total_sum(x) -> Variable:
    x = _as_variable(x)
    shape = x.value.shape

    def bwd(g):
        return (np.broadcast_to(g, shape).astype(g.dtype),)

    return _emit(np.asarray(x.value.sum()), (x,), bwd)


@dataclass
class BatchNormState:
    """Running statistics for evaluation-mode normalization."""

    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def zeros(cls, c: int) -> "BatchNormState":
        return cls(np.zeros(c, dtype=default_dtype()), np.ones(c, dtype=default_dtype()))


def batch_norm(x, gamma, beta, state: BatchNormState, train: bool,
               momentum: float = 0.1, eps: float = 1e-5) -> Variable:
    """Per-feature normalization over nodes; running stats frozen at eval."""
    x, gamma, beta = _as_variable(x), _as_variable(gamma), _as_variable(beta)
    xv = x.value
    n = xv.shape[0]
    if train:
        mu = xv.mean(axis=0)
        var = xv.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (xv - mu) * inv_std
        state.running_mean = (1 - momentum) * state.running_mean + momentum * mu
        unbiased = var * (n / max(n - 1, 1))
        state.running_var = (1 - momentum) * state.running_var + momentum * unbiased

        def bwd(g):
            dgamma = (g * xhat).sum(axis=0)
            dbeta = g.sum(axis=0)
            dxhat = g * gamma.value
            dx = inv_std / n * (n * dxhat - dxhat.sum(axis=0)
                                - xhat * (dxhat * xhat).sum(axis=0))
            return dx, dgamma, dbeta
    else:
        inv_std = 1.0 / np.sqrt(state.running_var + eps)
        xhat = (xv - state.running_mean) * inv_std

        def bwd(g):
            dgamma = (g * xhat).sum(axis=0)
            dbeta = g.sum(axis=0)
            return g * gamma.value * inv_std, dgamma, dbeta

    return _emit(gamma.value * xhat + beta.value, (x, gamma, beta), bwd)


# ---------------------------------------------------------------------------
# losses

def _row_mask(mask, n: int) -> np.ndarray:
    if mask is None:
        return np.ones(n, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n,):
        raise ValueError(f"mask shape {mask.shape} does not match n={n}")
    return mask


def cross_entropy(logits, labels, mask=None) -> Variable:
    """Mean softmax cross-entropy over masked rows; labels are class ids."""
    logits = _as_variable(logits)
    labels = np.asarray(labels, dtype=np.int64)
    m = _row_mask(mask, logits.value.shape[0])
    rows = np.flatnonzero(m)
    if len(rows) == 0:
        raise ValueError("cross_entropy: mask selects no rows")
    z = logits.value[rows]
    zmax = z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z - zmax).sum(axis=1)) + zmax[:, 0]
    picked = z[np.arange(len(rows)), labels[rows]]
    loss = float((lse - picked).mean())
    shape = logits.value.shape

    def bwd(g):
        p = np.exp(z - zmax)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(len(rows)), labels[rows]] -= 1.0
        full = np.zeros(shape, dtype=p.dtype)
        full[rows] = p / len(rows)
        return (full * g,)

    return _emit(np.asarray(loss, dtype=z.dtype), (logits,), bwd)


def mse(pred, target, mask=None) -> Variable:
    """Mean squared error over masked rows (all channels)."""
    pred = _as_variable(pred)
    target = np.asarray(target, dtype=pred.value.dtype)
    m = _row_mask(mask, pred.value.shape[0])
    diff = (pred.value - target)[m]
    count = diff.size
    if count == 0:
        raise ValueError("mse: mask selects no rows")
    shape = pred.value.shape

    def bwd(g):
        full = np.zeros(shape, dtype=diff.dtype)
        full[m] = 2.0 * diff / count
        return (full * g,)

    return _emit(np.asarray((diff * diff).mean(), dtype=diff.dtype), (pred,), bwd)


def mae(pred, target, mask=None) -> Variable:
    """Mean absolute error over masked rows; subgradient 0 at exact zeros."""
    pred = _as_variable(pred)
    target = np.asarray(target, dtype=pred.value.dtype)
    m = _row_mask(mask, pred.value.shape[0])
    diff = (pred.value - target)[m]
    count = diff.size
    if count == 0:
        raise ValueError("mae: mask selects no rows")
    shape = pred.value.shape

    def bwd(g):
        full = np.zeros(shape, dtype=diff.dtype)
        full[m] = np.sign(diff) / count
        return (full * g,)

    return _emit(np.asarray(np.abs(diff).mean(), dtype=diff.dtype), (pred,), bwd)


# ---------------------------------------------------------------------------
# conjugate-gradient solve with implicit-differentiation adjoint

def _cg_channels(lap_apply: Callable, b: np.ndarray, kappa: np.ndarray,
                 h: float, iterations: int, tol: float) -> np.ndarray:
    """Solve (I + h*kappa_c*L)u_c = b_c for every channel c jointly.

    Starts from zero; runs the fixed iteration count with an optional
    residual-norm early exit. Converged channels are frozen by zeroing
    their step sizes.
    """
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    a_p = np.empty_like(b)
    buf = np.empty_like(b)

    def column_dot(u, v):
        return np.einsum("ij,ij->j", u, v)

    rr = column_dot(r, r)
    tol2 = tol * tol
    h_kappa = (h * kappa)[None, :]
    for _ in range(iterations):
        if rr.max() <= tol2:
            break
        # lap_apply may return its argument, so its result is never written
        np.multiply(lap_apply(p), h_kappa, out=a_p)
        a_p += p
        p_ap = column_dot(p, a_p)
        # an active channel has rr > 0 and p_ap > 0; the others step by 0
        active = (rr > tol2) & (p_ap > 0)
        alpha = np.divide(rr, p_ap, out=np.zeros_like(rr), where=active)[None, :]
        x += np.multiply(alpha, p, out=buf)
        r -= np.multiply(alpha, a_p, out=buf)
        rr_new = column_dot(r, r)
        beta = np.divide(rr_new, rr, out=np.zeros_like(rr), where=active)
        p *= beta[None, :]
        p += r
        rr = rr_new
    if not np.isfinite(x).all():
        raise FloatingPointError("cg_solve: non-finite values encountered")
    return x


def cg_solve(lap_apply: Callable, rhs, kappa, h: float,
             iterations: int = 5, tol: float = 1e-10) -> Variable:
    """Per-channel solve of (I + h*kappa_c*L)u_c = rhs_c by conjugate
    gradients, where L is the self-adjoint PSD operator ``lap_apply``.

    The backward rule differentiates the solved system implicitly rather
    than the iterations: for upstream gradient G, it solves A Gr = G with
    the same operator and sets d(loss)/d(kappa_c) = -h * <Gr_c, L u_c>.
    """
    rhs, kappa = _as_variable(rhs), _as_variable(kappa)
    if iterations < 1:
        raise ValueError(f"cg_solve: iterations must be >= 1, got {iterations}")
    if h <= 0:
        raise ValueError(f"cg_solve: h must be positive, got {h}")
    if rhs.value.ndim != 2 or kappa.value.shape != (rhs.value.shape[1],):
        raise ValueError(
            f"cg_solve: rhs {rhs.value.shape} needs kappa of shape ({rhs.value.shape[1]},), "
            f"got {kappa.value.shape}")
    if not np.isfinite(rhs.value).all():
        raise FloatingPointError("cg_solve: rhs contains non-finite values")
    kap = kappa.value
    u = _cg_channels(lap_apply, rhs.value, kap, h, iterations, tol)

    def bwd(g):
        g_rhs = _cg_channels(lap_apply, g, kap, h, iterations, tol)
        lap_u = lap_apply(u)
        g_kappa = -h * (g_rhs * lap_u).sum(axis=0)
        return g_rhs, g_kappa

    return _emit(u, (rhs, kappa), bwd)


# ---------------------------------------------------------------------------
# fully connected layer plumbing

@dataclass
class Linear:
    """Dense layer y = x @ w (+ b), with uniform +-sqrt(6/(fan_in+fan_out))
    weight init and zero bias."""

    w: Variable
    b: Optional[Variable] = None

    @classmethod
    def init(cls, fan_in: int, fan_out: int, rng: np.random.Generator,
             bias: bool = True, name: str = "linear") -> "Linear":
        s = np.sqrt(6.0 / (fan_in + fan_out))
        w = Variable(rng.uniform(-s, s, size=(fan_in, fan_out)),
                     requires_grad=True, name=f"{name}.w")
        b = None
        if bias:
            b = Variable(np.zeros(fan_out), requires_grad=True, name=f"{name}.b")
        return cls(w, b)

    def __call__(self, x) -> Variable:
        return matmul(x, self.w, self.b)

    def parameters(self) -> list[Variable]:
        return [self.w] + ([self.b] if self.b is not None else [])
