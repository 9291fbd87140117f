"""Per-layer tracing of adrgnn from outside the program.

The tracer replaces functions of the adrgnn modules with timing wrappers,
each patched in the module where its callers look the name up (for
example ``adrgnn.operators.laplacian_apply``, which ``diffuse`` calls).
Nothing in the program is edited; :meth:`Tracer.uninstall` puts every
original back.

Spans nest: a span's self time is its duration minus the time of the
spans it encloses. Totals are kept per span name and per (parent, name)
pair, in memory, and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time

import numpy as np
import scipy.sparse as sp

# (module, attribute, span name). A function imported by name into another
# module is patched there too, since that copy is the one its callers use.
SPANS = (
    ("adrgnn.operators", "laplacian_apply", "graph.laplacian_apply"),
    ("adrgnn.graph", "build_graph", "graph.build_graph"),
    ("adrgnn.data", "build_graph", "graph.build_graph"),
    ("adrgnn.autodiff", "cg_solve", "autodiff.cg_solve"),
    ("adrgnn.autodiff", "segment_softmax", "autodiff.segment_softmax"),
    ("adrgnn.autodiff", "fixed_sparse_matmul", "autodiff.fixed_sparse_matmul"),
    ("adrgnn.autodiff", "matmul", "autodiff.matmul"),
    ("adrgnn.training", "backward", "autodiff.backward"),
    ("adrgnn.autodiff", "cross_entropy", "training.loss"),
    ("adrgnn.autodiff", "mse", "training.loss"),
    ("adrgnn.autodiff", "mae", "training.loss"),
    ("adrgnn.operators", "edge_velocities", "operators.edge_velocities"),
    ("adrgnn.operators", "advect", "operators.advect"),
    ("adrgnn.operators", "diffuse", "operators.diffuse"),
    ("adrgnn.operators", "react", "operators.react"),
    ("adrgnn.models", "adr_layer", "operators.adr_layer"),
    ("adrgnn.training", "adr_layer", "operators.adr_layer"),
    ("adrgnn.training.AdamW", "step", "training.adamw_step"),
    ("adrgnn.training", "make_windows", "data.make_windows"),
    ("adrgnn.data", "make_windows", "data.make_windows"),
    ("adrgnn.data", "generate_splits", "data.generate_splits"),
    ("adrgnn.data", "normalize_series", "data.normalize_series"),
)

FIRST_LAYER = "operators.adr_layer"
LOSS = "training.loss"
TAPE_FREE_FORWARD = "memory.tape_free_forward"


def _resolve(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Tracer:
    """Aggregated spans: ``totals[name] = [calls, inclusive_s, self_s]``."""

    def __init__(self):
        self.totals: dict[str, list] = {}
        self.edges: dict[tuple[str, str], list] = {}
        self.tape_bytes: list[int] = []
        self.sample_next_tape = False
        self._stack: list[list] = []  # [name, start, enclosed_s]
        self._tape_open: list = []  # [opened_at, loss_s_at_open, first_layer_seen]
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _add(self, name: str, calls: int, inclusive: float, self_s: float) -> None:
        entry = self.totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += inclusive
        entry[2] += self_s

    def span(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0]
            if name == FIRST_LAYER and self._tape_open and not self._tape_open[2]:
                self._tape_open[2] = True
                self._add("models.input_embedding", 1, frame[1] - self._tape_open[0], 0.0)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                took = time.perf_counter() - frame[1]
                self._add(name, 1, took, took - frame[2])
                parent = stack[-1][0] if stack else ""
                edge = self.edges.setdefault((parent, name), [0, 0.0])
                edge[0] += 1
                edge[1] += took
                if stack:
                    stack[-1][2] += took

        return wrapper

    def tape_opened(self) -> None:
        loss = self.totals.get(LOSS, [0, 0.0])[1]
        self._tape_open = [time.perf_counter(), loss, False]

    def tape_closed(self, tape) -> None:
        opened_at, loss_at_open, _ = self._tape_open
        self._tape_open = []
        loss_inside = self.totals.get(LOSS, [0, 0.0])[1] - loss_at_open
        self._add("models.forward_train", 1, time.perf_counter() - opened_at - loss_inside, 0.0)
        self._add("autodiff.tape_records", len(tape.records), 0.0, 0.0)
        if self.sample_next_tape:
            self.sample_next_tape = False
            self.tape_bytes.append(tape_bytes(tape))

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for path, attr, name in SPANS:
            owner = _resolve(path)
            self._patch(owner, attr, self.span(name, getattr(owner, attr)))
        self._trace_cg_adjoint()
        self._trace_tapes()
        self._trace_tape_free_forwards()

    def _trace_cg_adjoint(self) -> None:
        """Time the solve inside cg_solve's backward rule by wrapping the
        closure that each taped cg_solve records."""
        autodiff = importlib.import_module("adrgnn.autodiff")
        solve = autodiff.cg_solve
        tracer = self

        def cg_solve(*args, **kwargs):
            out = solve(*args, **kwargs)
            tape = autodiff._ACTIVE_TAPE
            if tape is not None and out.tape_id is not None:
                rec_out, inputs, rule = tape.records[out.tape_id]
                tape.records[out.tape_id] = (rec_out, inputs,
                                             tracer.span("autodiff.cg_adjoint", rule))
            return out

        self._patch(autodiff, "cg_solve", cg_solve)

    def _trace_tapes(self) -> None:
        """The training loops open ``Tape()`` around the forward and the
        loss; a subclass patched into ``adrgnn.training`` times that block."""
        autodiff = importlib.import_module("adrgnn.autodiff")
        training = importlib.import_module("adrgnn.training")
        tracer = self

        class TracedTape(autodiff.Tape):
            def __enter__(self):
                tape = super().__enter__()
                tracer.tape_opened()
                return tape

            def __exit__(self, *exc):
                super().__exit__(*exc)
                tracer.tape_closed(self)

        self._patch(training, "Tape", TracedTape)

    def _trace_tape_free_forwards(self) -> None:
        """Count minor page faults in model forwards run with no tape open
        (evaluation forwards); the entry's time slot holds the faults."""
        autodiff = importlib.import_module("adrgnn.autodiff")
        for path in ("adrgnn.models.AdrGnnStatic", "adrgnn.models.AdrGnnTemporal"):
            owner = _resolve(path)
            forward = owner.__dict__["forward"]

            def wrapper(model, *args, _forward=forward, **kwargs):
                if autodiff._ACTIVE_TAPE is not None:
                    return _forward(model, *args, **kwargs)
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                try:
                    return _forward(model, *args, **kwargs)
                finally:
                    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
                    self._add(TAPE_FREE_FORWARD, 1, faults, 0.0)

            self._patch(owner, "forward", wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> dict[str, tuple]:
        return {name: tuple(entry) for name, entry in self.totals.items()}

    def since(self, snapshot: dict[str, tuple]) -> dict[str, list]:
        """Totals accumulated after ``snapshot`` was taken."""
        out = {}
        for name, entry in self.totals.items():
            before = snapshot.get(name, (0, 0.0, 0.0))
            out[name] = [a - b for a, b in zip(entry, before)]
        return out

    def table(self) -> dict:
        """The aggregated trace, for writing out at the end of a run."""
        return {
            "spans": {name: {"calls": c, "inclusive_s": i, "self_s": s}
                      for name, (c, i, s) in sorted(self.totals.items())},
            "edges": [{"parent": p, "name": n, "calls": c, "inclusive_s": i}
                      for (p, n), (c, i) in sorted(self.edges.items())],
        }


def tape_bytes(tape) -> int:
    """Bytes of the distinct array buffers a tape keeps alive: record
    outputs and inputs, and arrays captured by the backward closures."""
    buffers: dict[int, int] = {}

    def visit(obj, depth: int = 0) -> None:
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            buffers[id(base)] = base.nbytes
        elif sp.issparse(obj):
            for part in ("data", "indices", "indptr"):
                if hasattr(obj, part):
                    visit(getattr(obj, part))
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                visit(item, depth)
        elif callable(obj) and depth < 2:
            for cell in getattr(obj, "__closure__", None) or ():
                try:
                    visit(cell.cell_contents, depth + 1)
                except ValueError:  # empty cell
                    pass
        elif hasattr(obj, "value") and isinstance(getattr(obj, "value"), np.ndarray):
            visit(obj.value)

    for out, inputs, rule in tape.records:
        visit(out.value)
        for var in inputs:
            visit(var.value)
        visit(rule)
    return sum(buffers.values())
