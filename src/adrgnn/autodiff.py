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

The primitives are dense linear algebra, elementwise nonlinearities,
products with constant linear operators (edge gathers and scatters among
them), a segment softmax over a graph's directed-edge order, masked losses,
the advection step, which recomputes its edge velocities in backward, the
reaction step, which recomputes its tanh, and the diffusion solve as a
fixed Chebyshev series with an exact backward rule.
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
        pair_max = np.take(work, left, axis=0)
        work[left] = np.maximum(pair_max, np.take(work, right, axis=0), out=pair_max)
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


def relu(x) -> Variable:
    x = _as_variable(x)
    mask = x.value > 0  # derivative at 0 is 0

    def bwd(g):
        return (g * mask,)

    return _emit(np.maximum(x.value, 0.0), (x,), bwd)


def hardtanh(x, lo: float, hi: float) -> Variable:
    """Clamp to [lo, hi]; derivative is 1 strictly inside, 0 elsewhere."""
    x = _as_variable(x)
    if not lo < hi:
        raise ValueError(f"hardtanh: lo={lo} must be < hi={hi}")
    interior = (x.value > lo) & (x.value < hi)

    def bwd(g):
        return (g * interior,)

    return _emit(np.clip(x.value, lo, hi), (x,), bwd)


def dropout(x, p: float, rng) -> Variable:
    """Inverted dropout: retained entries scaled by 1/(1-p); the identity at
    p = 0. ``rng`` is an integer seed or a Generator. Evaluation-mode
    forwards do not call it (see ``models._dropout``)."""
    x = _as_variable(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: p={p} outside [0, 1)")
    if p == 0.0:
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


def edge_hidden(a1u: np.ndarray, a2u: np.ndarray, src: np.ndarray, dst: np.ndarray):
    """The edge MLP's hidden values ``relu(a1u[src] + a2u[dst])``, untaped."""
    hidden = np.take(a1u, src, axis=0)
    hidden += np.take(a2u, dst, axis=0)
    return np.maximum(hidden, 0.0, out=hidden)


def edge_asymmetry(hidden: np.ndarray, w3: np.ndarray, rev: np.ndarray) -> np.ndarray:
    """``relu(z - z[rev])`` for ``z = hidden @ w3``, untaped; each ReLU's mask is > 0."""
    asym = hidden @ w3
    asym -= np.take(asym, rev, axis=0)
    return np.maximum(asym, 0.0, out=asym)


def advection(u, velocities: np.ndarray, h: float, graph, source: Sequence = ()) -> Variable:
    """Forward Euler transport step ``u + h (scatter_dst @ (v * u[src]) - keep * u)``
    as one op, for velocities ``v`` in ``graph``'s edge order and ``keep`` its
    non-isolated nodes' 0/1 column. With no ``source``, ``v`` is constant and
    kept by the record. Else ``v`` is the :func:`segment_softmax` of the scores
    ``edge_asymmetry(edge_hidden(f @ w1 + b1, f @ w2 + b2, ...), w3, ...) @ w4``
    for ``source = (f, w1, b1, w2, b2, w3, w4)``; the record keeps ``u`` and the
    source, and the rule recomputes the scores and ``v`` once, then runs the
    transport, softmax and score rules (Chen et al. 2016, arXiv 1604.06174).
    ``u`` is three inputs and ``f`` two, so gradients sum their parts in the
    order of separate records: u's identity, outflow, inflow, then f's a2, a1."""
    u, h = _as_variable(u), float(h)
    uv, src, dst = u.value, graph.edge_src, graph.edge_dst
    if velocities.shape != (len(src), uv.shape[1]):
        raise ValueError(f"advection: velocities {velocities.shape} for {len(src)} edge rows")
    keep = (~graph.isolated).astype(uv.dtype)[:, None]
    inflow = np.take(uv, src, axis=0)
    out = graph.scatter_dst @ np.multiply(inflow, velocities, out=inflow)
    out -= uv * keep
    out *= h
    out += uv
    if not source:
        def bwd_constant(g):
            hg = g * h
            return g, -hg * keep, graph.scatter_src @ (np.take(hg, dst, axis=0) * velocities)

        return _emit(out, (u, u, u), bwd_constant)
    source = [_as_variable(v) for v in source]  # tuple(<genexpr>) would grow a free list
    fv, w1v, b1v, w2v, b2v, w3v, w4v = (v.value for v in source)

    def bwd(g):  # reads the edge arrays off the graph: the record keeps none
        hg, src, dst, scatter_src = g * h, graph.edge_src, graph.edge_dst, graph.scatter_src
        a1u, a2u = _affine(fv, w1v, b1v), _affine(fv, w2v, b2v)
        asym = edge_asymmetry(edge_hidden(a1u, a2u, src, dst), w3v, graph.rev_edge)
        y = segment_softmax(asym @ w4v, src, scatter_src, graph.max_plan).value
        g_y = np.take(hg, dst, axis=0)
        g_u = scatter_src @ (g_y * y)
        g_y *= np.take(uv, src, axis=0)
        g_y -= np.take(scatter_src @ (y * g_y), src, axis=0)
        g_y *= y  # the softmax rule, in place
        del y
        g_w4 = asym.T @ g_y
        g_d = g_y @ w4v.T
        g_d *= asym > 0
        del asym, g_y
        g_d -= np.take(g_d, graph.rev_edge, axis=0)
        hidden = edge_hidden(a1u, a2u, src, dst)  # again: not kept over the softmax
        g_w3 = hidden.T @ g_d
        g_hidden = g_d @ w3v.T
        g_hidden *= hidden > 0
        del hidden, g_d
        g1, g2 = scatter_src @ g_hidden, graph.scatter_dst @ g_hidden
        return (g, -hg * keep, g_u, g2 @ w2v.T, g1 @ w1v.T, fv.T @ g1, g1.sum(axis=0),
                fv.T @ g2, g2.sum(axis=0), g_w3, g_w4)

    return _emit(out, (u, u, u, source[0], *source), bwd)


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

    def normalize(self, x: np.ndarray, train: bool, momentum: float = 0.1,
                  eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray]:
        """``(xhat, inv_std)``: ``x`` normalized per feature over nodes, by
        the batch statistics in training (which move the running ones) and
        by the frozen running statistics in evaluation."""
        if not train:
            inv_std = 1.0 / np.sqrt(self.running_var + eps)
            return (x - self.running_mean) * inv_std, inv_std
        n = x.shape[0]
        mu = x.mean(axis=0)
        var = x.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + eps)
        self.running_mean = (1 - momentum) * self.running_mean + momentum * mu
        unbiased = var * (n / max(n - 1, 1))
        self.running_var = (1 - momentum) * self.running_var + momentum * unbiased
        return (x - mu) * inv_std, inv_std


def reaction(u, u0, weights: Sequence, h: float, state: Optional[BatchNormState] = None,
             train: bool = False) -> Variable:
    """Reaction step ``u + h relu(pre)`` for ``pre = (u w1 + b1) + tanh(u w2 + b2) * u
    + (u0 w3 + b3)`` as one op, with ``weights = (w1, b1, w2, b2, w3, b3)``.
    Given batch-norm ``state``, ``weights`` ends with ``gamma, beta`` and the
    ReLU takes ``gamma * xhat + beta`` for ``xhat`` from
    :meth:`BatchNormState.normalize`. The record keeps ``u``, ``u0``, the
    weights, the ReLU's bool mask and any ``xhat``; the rule recomputes the
    tanh (Chen et al. 2016, arXiv 1604.06174). ``u`` is four inputs, so its
    gradient sums its parts in the order of separate records: the skip, then
    (past u0's r3 part, for ``u0`` may be ``u``) the hadamard, r2 and r1."""
    u, u0, h = _as_variable(u), _as_variable(u0), float(h)
    uv, u0v = u.value, u0.value
    if uv.shape != u0v.shape:
        raise ValueError(f"reaction: u shape {uv.shape} != u0 shape {u0v.shape}")
    weights = [_as_variable(v) for v in weights]
    w1, b1, w2, b2, w3, b3 = (v.value for v in weights[:6])
    pre = _affine(uv, w1, b1)
    pre += np.tanh(_affine(uv, w2, b2)) * uv
    pre += _affine(u0v, w3, b3)
    if state is not None:
        gamma, beta = weights[6:]
        xhat, inv_std = state.normalize(pre, train)
        pre = gamma.value * xhat + beta.value
    mask = pre > 0  # derivative at 0 is 0
    out = np.maximum(pre, 0.0, out=pre)
    out *= h
    out += uv

    def bwd(g):
        g_pre = g * h
        g_pre *= mask
        g_norm = ()
        if state is not None:
            g_norm = (g_pre * xhat).sum(axis=0), g_pre.sum(axis=0)
            g_xhat = g_pre * gamma.value
            if train:
                n = len(g_xhat)
                g_pre = inv_std / n * (n * g_xhat - g_xhat.sum(axis=0)
                                       - xhat * (g_xhat * xhat).sum(axis=0))
            else:
                g_pre = g_xhat * inv_std
        t = np.tanh(_affine(uv, w2, b2))
        g_t = g_pre * uv
        g_t *= 1.0 - t * t
        return (g, g_pre @ w3.T, g_pre * t, g_t @ w2.T, g_pre @ w1.T,
                uv.T @ g_pre, g_pre.sum(axis=0), uv.T @ g_t, g_t.sum(axis=0),
                u0v.T @ g_pre, g_pre.sum(axis=0), *g_norm)

    return _emit(out, (u, u0, u, u, u, *weights), bwd)


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
# implicit diffusion solve as a fixed Chebyshev series

def _resolvent_weights(kappa: np.ndarray, h: float, degree: int) -> tuple:
    """Chebyshev coefficients w_0..w_degree of 1 / (1 + h kappa (1 + x)) on
    [-1, 1], one column per channel, in kappa's dtype, and a function that
    returns their kappa derivatives, for the backward rule only (Hammond et
    al. 2011, arXiv 0912.3848): for s = sqrt(1 + 2 h kappa) and
    rho = (s - 1) / (s + 1), w_0 = 1 / s and w_j = 2 (-rho)^j / s."""
    s = np.sqrt(1.0 + 2.0 * h * kappa.astype(np.float64))
    rho = (s - 1.0) / (s + 1.0)
    j = np.arange(degree + 1)[:, None]
    scale, power = np.where(j == 0, 1.0, 2.0) / s, (-rho) ** j

    def derivatives() -> np.ndarray:
        ds = h / s  # and drho = 2 ds / (s + 1)^2
        # (-rho)^(j-1); its row j = 0 is 1, which the factor j zeroes
        lower = np.concatenate([power[:1], power[:-1]])
        dw = -scale * (j * lower * 2.0 * ds / (s + 1.0) ** 2 + power * ds / s)
        return dw.astype(kappa.dtype)

    return (scale * power).astype(kappa.dtype), derivatives


def _chebyshev_sweep(lap_apply: Callable, v: np.ndarray, tables: tuple) -> list:
    """``sum_j w_j T_j(L - I) v`` for each table ``w`` of weights, by the
    recurrence T_{j+1} = 2 (L - I) T_j - T_{j-1}: one product with L per
    degree. Neither ``v`` nor what ``lap_apply`` returns is written."""
    sums = [v * w[0] for w in tables]
    term = np.empty_like(v)
    prev, cur, spare = None, v, None
    for j in range(1, len(tables[0])):
        nxt = np.subtract(lap_apply(cur), cur, out=spare)
        if prev is not None:
            nxt *= 2.0
            nxt -= prev
        for total, w in zip(sums, tables):
            total += np.multiply(nxt, w[j], out=term)
        spare = None if prev is v else prev
        prev, cur = cur, nxt
    return sums


def cg_solve(lap_apply: Callable, rhs, kappa, h: float, iterations: int = 5) -> Variable:
    """Per-channel implicit Euler diffusion step (I + h kappa_c L)^-1 rhs_c,
    for ``lap_apply`` self-adjoint with spectrum in [0, 2], as its Chebyshev
    series in L - I truncated at degree ``iterations``: no tolerance and no
    data-dependent step. For c = 1 + 2 h kappa <= 4 the A-norm error is
    within CG's bound 2 rho^k ||x*||_A; kappa = 0 returns rhs exactly.

    The backward rule is exact for that series. The series is symmetric in
    L, so one sweep over the upstream gradient G gives d/drhs = sum_j w_j
    T_j G and d/dkappa_c = <rhs_c, sum_j w_j' T_j G_c>; the record keeps
    rhs. The benchmark's tracer (perfbench/tracing.py) wraps this op by the
    name of the CG solve it replaced, and its rule as ``autodiff.cg_adjoint``.
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
    b = rhs.value
    if not np.isfinite(b).all():
        raise FloatingPointError("cg_solve: rhs contains non-finite values")
    w, derivatives = _resolvent_weights(kappa.value, h, iterations)
    (u,) = _chebyshev_sweep(lap_apply, b, (w,))
    if not np.isfinite(u).all():
        raise FloatingPointError("cg_solve: non-finite values encountered")

    def bwd(g):
        g_rhs, q = _chebyshev_sweep(lap_apply, g, (w, derivatives()))
        return g_rhs, np.einsum("ij,ij->j", b, q)

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
