from __future__ import annotations

import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import adrgnn.autodiff as ad
from adrgnn.autodiff import BatchNormState, Linear, Tape, Variable, backward
from adrgnn.graph import build_graph, erdos_renyi
from adrgnn.models import AdrGnnStatic
from adrgnn.runtime import SeedStream, default_dtype, philox, set_default_dtype

from conftest import check_grads, fd_gradient, ad_gradient, max_rel_err


def weighted_sum(out, seed=0):
    w = Variable(philox(seed).standard_normal(out.value.shape))
    return ad.total_sum(ad.hadamard(out, w))


class TestForwardValues:
    def test_relu_backward_subgradient(self):
        x = Variable(np.array([-1.0, 2.0]), requires_grad=True)
        with Tape() as tape:
            loss = ad.total_sum(ad.relu(x))
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    def test_relu_derivative_at_zero_is_zero(self):
        x = Variable(np.array([0.0]), requires_grad=True)
        with Tape() as tape:
            loss = ad.total_sum(ad.relu(x))
        backward(tape, loss)
        assert x.grad[0] == 0.0

    def test_segment_softmax_uniform(self):
        g = build_graph([(0, 1), (0, 2), (0, 3)], 4)
        out = ad.segment_softmax(Variable(np.zeros((g.n_edges, 2))), g.edge_src,
                                 g.scatter_src, g.max_plan)
        want = 1.0 / g.degree[g.edge_src]
        np.testing.assert_allclose(out.value, np.repeat(want[:, None], 2, axis=1))

    def test_hardtanh_clamps(self):
        x = Variable(np.array([-0.5, 0.3, 1.7]))
        np.testing.assert_allclose(ad.hardtanh(x, 0.0, 1.0).value, [0.0, 0.3, 1.0])

    def test_hardtanh_invalid_bounds(self):
        with pytest.raises(ValueError, match="lo"):
            ad.hardtanh(Variable(np.zeros(2)), 1.0, 0.0)

    def test_matmul_shape_error_names_op(self):
        with pytest.raises(ValueError, match="matmul"):
            ad.matmul(Variable(np.zeros((2, 3))), Variable(np.zeros((2, 3))))

    def test_dropout_p_range(self):
        with pytest.raises(ValueError, match="dropout"):
            ad.dropout(Variable(np.zeros(3)), 1.0, 0)

    def test_dropout_eval_identity(self):
        # p = 0 is the identity; evaluation forwards never call ad.dropout
        x = Variable(philox(0).standard_normal(100))
        out = ad.dropout(x, 0.0, 0)
        assert out is x

    def test_dropout_inverted_scaling_preserves_mean(self):
        x = Variable(np.ones(200_00))
        out = ad.dropout(x, 0.25, 42)
        kept = out.value[out.value > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)
        assert abs(out.value.mean() - 1.0) < 0.02

    def test_dropout_deterministic_for_seed(self):
        x = Variable(np.ones(50))
        a = ad.dropout(x, 0.4, 7).value
        b = ad.dropout(x, 0.4, 7).value
        np.testing.assert_array_equal(a, b)

    def test_concat_and_slice_roundtrip(self):
        gen = philox(3)
        a = Variable(gen.standard_normal((4, 2)))
        b = Variable(gen.standard_normal((4, 3)))
        cat = ad.concat_columns([a, b])
        np.testing.assert_array_equal(ad.slice_columns(cat, 2, 5).value, b.value)


class TestBackwardSemantics:
    def test_sum_gradient_is_ones(self):
        x = Variable(philox(0).standard_normal((3, 2)), requires_grad=True)
        with Tape() as tape:
            loss = ad.total_sum(x)
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, np.ones((3, 2)))

    def test_square_gradient(self):
        x = Variable(np.array([3.0]), requires_grad=True)
        with Tape() as tape:
            loss = ad.total_sum(ad.hadamard(x, x))
        backward(tape, loss)
        np.testing.assert_allclose(x.grad, [6.0])

    def test_gradients_accumulate_across_backward_calls(self):
        x = Variable(np.array([2.0]), requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                loss = ad.total_sum(ad.hadamard(x, x))
            backward(tape, loss)
        np.testing.assert_allclose(x.grad, [8.0])
        x.zero_grad()
        np.testing.assert_allclose(x.grad, [0.0])

    def test_backward_releases_every_rule_and_keeps_the_records(self):
        g = erdos_renyi(12, 0.4, seed=3)
        model = AdrGnnStatic.init(c_in=3, c_out=2, hidden=4, layers=2, h=0.5,
                                  dropout_io=0.2, seed=2)
        with Tape() as tape:
            out = model.forward(g, philox(4).standard_normal((12, 3)), train=True,
                                rng=SeedStream(0))
            loss = ad.cross_entropy(out, np.arange(12) % 2)
        count = len(tape.records)
        assert all(rule is not None for _node, _slots, rule in tape.records)
        backward(tape, loss)
        assert len(tape.records) == count
        assert all(rule is None for _node, _slots, rule in tape.records)

    def test_a_rule_is_released_before_the_next_one_runs(self):
        """What a rule captured is freed as soon as it has run: the earlier
        rule no longer sees the later rule's captured mask."""
        x = Variable(philox(1).standard_normal((5, 3)), requires_grad=True)
        with Tape() as tape:
            y = ad.relu(x)
            loss = ad.total_sum(ad.dropout(y, 0.5, 7))
        dropout_rule = tape.records[1][2]
        mask = next(c.cell_contents for c in dropout_rule.__closure__
                    if isinstance(c.cell_contents, np.ndarray))
        alive = weakref.ref(mask)
        del dropout_rule, mask
        node, slots, relu_rule = tape.records[0]
        seen = []

        def watching(g):
            seen.append(alive())
            return relu_rule(g)

        tape.records[0] = (node, slots, watching)
        backward(tape, loss)
        assert seen == [None]

    def test_second_backward_on_one_tape_raises(self):
        x = Variable(np.array([2.0]), requires_grad=True)
        with Tape() as tape:
            loss = ad.total_sum(ad.hadamard(x, x))
        backward(tape, loss)
        with pytest.raises(RuntimeError, match="already backpropagated"):
            backward(tape, loss)
        np.testing.assert_allclose(x.grad, [4.0])

    def test_non_scalar_loss_rejected(self):
        x = Variable(np.zeros((2, 2)), requires_grad=True)
        with Tape() as tape:
            y = ad.relu(x)
        with pytest.raises(ValueError, match="scalar"):
            backward(tape, y)

    def test_shared_input_used_twice(self):
        x = Variable(np.array([1.5]), requires_grad=True)
        with Tape() as tape:
            loss = ad.total_sum(ad.add(ad.hadamard(x, x), x))
        backward(tape, loss)
        np.testing.assert_allclose(x.grad, [2 * 1.5 + 1])

    def test_no_tape_means_no_recording(self):
        x = Variable(np.ones(3), requires_grad=True)
        out = ad.relu(x)
        assert out.tape_id is None

    def test_tapes_do_not_nest(self):
        with Tape():
            with pytest.raises(RuntimeError, match="nest"):
                with Tape():
                    pass

    def test_determinism_bit_identical(self):
        def run():
            gen = philox(11)
            x = Variable(gen.standard_normal((5, 4)), requires_grad=True)
            w = Variable(gen.standard_normal((4, 3)), requires_grad=True)
            with Tape() as tape:
                out = ad.dropout(ad.tanh(ad.matmul(x, w)), 0.3, 5)
                loss = ad.total_sum(ad.hadamard(out, out))
            backward(tape, loss)
            return loss.value.copy(), x.grad.copy(), w.grad.copy()

        first, second = run(), run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestTapeThreads:
    """A forward of a detached model on another thread adds nothing to the
    open tape, and a second thread cannot open a tape of its own."""

    def test_forwards_on_other_threads_add_no_record(self):
        g = erdos_renyi(12, 0.4, seed=3)
        model = AdrGnnStatic.init(c_in=3, c_out=2, hidden=4, layers=2, h=0.5,
                                  use_batchnorm=True, dropout_io=0.2, seed=2)
        params = list(model.named_parameters().values())
        x = philox(4).standard_normal((12, 3))
        view = model.detached()  # the training forward rebinds the live statistics
        alone = view.forward(g, x, train=False).value

        def taped_pass(others=None):
            """Records and gradients of a training pass; the forwards on
            ``others`` all run while its tape is open."""
            for p in params:
                p.zero_grad()
            with Tape() as tape:
                futures = [others.submit(view.forward, g, x, train=False)
                           for _ in range(8)] if others else []
                loss = ad.total_sum(model.forward(g, x, train=True, rng=SeedStream(0)))
                outs = [f.result(timeout=60) for f in futures]
            backward(tape, loss)
            return len(tape.records), [p.grad.tobytes() for p in params], outs

        *want, _ = taped_pass()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as others:
                *got, outs = taped_pass(others)
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        for out in outs:
            assert out.tape_id is None and out.node is None
            assert out.value.tobytes() == alone.tobytes()

    def test_a_tape_opened_on_another_thread_is_refused(self):
        with Tape():
            with ThreadPoolExecutor(1) as other:
                with pytest.raises(RuntimeError, match="nest"):
                    other.submit(Tape().__enter__).result(timeout=60)


class TestTapeMemory:
    """A record holds a value-free node for its output and, for its inputs,
    only requires_grad leaves or value-free slots."""

    def test_intermediate_no_rule_reads_is_freed_inside_the_tape(self):
        x = Variable(philox(0).standard_normal((4, 3)), requires_grad=True)
        w = Variable(philox(1).standard_normal((4, 3)), requires_grad=True)
        with Tape() as tape:
            # add's rule keeps only shapes, scale_by_scalar's only the scalar
            s = ad.add(x, w)
            value = weakref.ref(s.value)
            y = ad.scale_by_scalar(s, 3.0)
            del s
            assert value() is None
            loss = ad.total_sum(y)
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, np.full((4, 3), 3.0))
        np.testing.assert_array_equal(w.grad, np.full((4, 3), 3.0))

    def test_variable_from_an_earlier_tape_is_a_constant_on_a_later_one(self):
        gen = philox(2)
        x, v0 = gen.standard_normal((3, 2)), gen.standard_normal((3, 2))
        w = Variable(gen.standard_normal((2, 2)), requires_grad=True)
        with Tape():
            h = ad.matmul(x, w)

        def grad_of_v(h_input):
            v = Variable(v0, requires_grad=True)
            with Tape() as tape:
                # this record takes tape_id 0, the index h carries from the first tape
                r = ad.scale_by_scalar(v, 2.0)
                loss = ad.total_sum(ad.hadamard(h_input, r))
            assert r.tape_id == h.tape_id == 0
            backward(tape, loss)
            return v.grad

        np.testing.assert_array_equal(grad_of_v(h), grad_of_v(h.value.copy()))
        np.testing.assert_array_equal(w.grad, np.zeros((2, 2)))

    def test_records_of_a_model_tape_hold_no_intermediate(self):
        g = erdos_renyi(12, 0.4, seed=3)
        model = AdrGnnStatic.init(c_in=3, c_out=2, hidden=4, layers=1, h=0.5,
                                  use_batchnorm=True, dropout_io=0.2, seed=2)
        with Tape() as tape:
            out = model.forward(g, philox(4).standard_normal((12, 3)), train=True,
                                rng=SeedStream(0))
            loss = ad.cross_entropy(out, np.arange(12) % 2)
        assert len(tape.records) > 10
        for node, slots, _rule in tape.records:
            assert node.value is None
            for slot in slots:
                assert (isinstance(slot, Variable) and slot.requires_grad) or slot.value is None
        backward(tape, loss)
        assert all(np.any(p.grad != 0) for p in model.named_parameters().values())


class TestGradientsAgainstFiniteDifferences:
    TOL = 1e-5

    def test_matmul(self):
        gen = philox(0)
        a = Variable(gen.standard_normal((4, 3)), requires_grad=True)
        b = Variable(gen.standard_normal((3, 2)), requires_grad=True)
        check_grads(lambda: weighted_sum(ad.matmul(a, b)), [a, b], self.TOL)

    def test_add_broadcast_bias(self):
        gen = philox(1)
        x = Variable(gen.standard_normal((4, 3)), requires_grad=True)
        b = Variable(gen.standard_normal(3), requires_grad=True)
        check_grads(lambda: weighted_sum(ad.add(x, b)), [x, b], self.TOL)

    def test_subtract_hadamard_scale(self):
        gen = philox(2)
        x = Variable(gen.standard_normal((3, 3)), requires_grad=True)
        y = Variable(gen.standard_normal((3, 3)), requires_grad=True)

        def loss():
            return weighted_sum(ad.scale_by_scalar(ad.hadamard(ad.subtract(x, y), x), 0.7))

        check_grads(loss, [x, y], self.TOL)

    def test_elementwise_nonlinearities(self):
        gen = philox(3)
        x = Variable(gen.standard_normal((4, 2)) + 0.2, requires_grad=True)
        check_grads(lambda: weighted_sum(ad.relu(x), 1), [x], self.TOL)
        check_grads(lambda: weighted_sum(ad.tanh(x), 2), [x], self.TOL)
        check_grads(lambda: weighted_sum(ad.hardtanh(x, 0.0, 1.0), 3), [x], self.TOL)

    def test_dropout_fixed_mask(self):
        x = Variable(philox(4).standard_normal((5, 3)), requires_grad=True)
        check_grads(lambda: weighted_sum(ad.dropout(x, 0.4, 99)), [x], self.TOL)

    def test_gather_scatter_softmax(self):
        g = erdos_renyi(6, 0.6, seed=5)
        gen = philox(6)
        x = Variable(gen.standard_normal((6, 2)), requires_grad=True)
        e = Variable(gen.standard_normal((g.n_edges, 2)), requires_grad=True)
        for index, scatter in ((g.edge_src, g.scatter_src), (g.edge_dst, g.scatter_dst)):
            check_grads(lambda: weighted_sum(ad.fixed_sparse_matmul(index, scatter, x), 4),
                        [x], self.TOL)
            check_grads(lambda: weighted_sum(ad.fixed_sparse_matmul(scatter, index, e), 5),
                        [e], self.TOL)
        check_grads(lambda: weighted_sum(ad.fixed_sparse_matmul(g.rev_edge, g.rev_edge, e), 7),
                    [e], self.TOL)
        check_grads(lambda: weighted_sum(
            ad.segment_softmax(e, g.edge_src, g.scatter_src, g.max_plan), 6), [e], self.TOL)

    def test_concat_slice(self):
        gen = philox(7)
        a = Variable(gen.standard_normal((3, 2)), requires_grad=True)
        b = Variable(gen.standard_normal((3, 2)), requires_grad=True)

        def loss():
            return weighted_sum(ad.slice_columns(ad.concat_columns([a, b]), 1, 4), 7)

        check_grads(loss, [a, b], self.TOL)

    def test_batch_norm_train_and_eval(self):
        gen = philox(8)
        x = Variable(gen.standard_normal((6, 3)), requires_grad=True)
        gamma = Variable(gen.uniform(0.5, 1.5, 3), requires_grad=True)
        beta = Variable(gen.standard_normal(3), requires_grad=True)
        state = BatchNormState.zeros(3)
        # weight seed distinct from the input seed: an upstream gradient
        # collinear with x sits in batch norm's scale-invariant null space
        check_grads(lambda: weighted_sum(
            ad.batch_norm(x, gamma, beta, state, train=True), 80), [x, gamma, beta], self.TOL)
        state.running_mean = gen.standard_normal(3)
        state.running_var = gen.uniform(0.5, 2.0, 3)
        check_grads(lambda: weighted_sum(
            ad.batch_norm(x, gamma, beta, state, train=False), 81), [x, gamma, beta], self.TOL)

    def test_losses(self):
        gen = philox(9)
        logits = Variable(gen.standard_normal((6, 3)), requires_grad=True)
        labels = gen.integers(0, 3, 6)
        mask = np.array([True, True, False, True, True, True])
        target = gen.standard_normal((6, 3))
        check_grads(lambda: ad.cross_entropy(logits, labels, mask), [logits], self.TOL)
        check_grads(lambda: ad.mse(logits, target, mask), [logits], self.TOL)
        check_grads(lambda: ad.mae(logits, target, mask), [logits], self.TOL)

    def test_twenty_random_primitive_instances(self):
        for i in range(20):
            gen = philox(100 + i)
            x = Variable(gen.standard_normal((4, 3)), requires_grad=True)
            w = Variable(gen.standard_normal((3, 3)), requires_grad=True)

            def loss():
                return weighted_sum(ad.tanh(ad.matmul(ad.relu(x), w)), 200 + i)

            check_grads(loss, [x, w], self.TOL)


class TestBatchNormState:
    def test_running_stats_updated_in_train_frozen_in_eval(self):
        gen = philox(10)
        x = Variable(gen.standard_normal((50, 2)) * 3 + 1)
        gamma = Variable(np.ones(2))
        beta = Variable(np.zeros(2))
        state = BatchNormState.zeros(2)
        ad.batch_norm(x, gamma, beta, state, train=True, momentum=1.0)
        np.testing.assert_allclose(state.running_mean, x.value.mean(axis=0))
        frozen_mean = state.running_mean.copy()
        ad.batch_norm(x, gamma, beta, state, train=False)
        np.testing.assert_array_equal(state.running_mean, frozen_mean)

    def test_train_output_standardized(self):
        x = Variable(philox(11).standard_normal((200, 3)) * 5 + 2)
        out = ad.batch_norm(x, Variable(np.ones(3)), Variable(np.zeros(3)),
                            BatchNormState.zeros(3), train=True)
        np.testing.assert_allclose(out.value.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.value.std(axis=0), 1.0, atol=1e-3)


class TestLosses:
    def test_cross_entropy_uniform_logits(self):
        logits = Variable(np.zeros((10, 4)))
        loss = ad.cross_entropy(logits, np.zeros(10, dtype=int), None)
        assert float(loss.value) == pytest.approx(np.log(4.0))

    def test_mask_excludes_rows(self):
        logits = Variable(np.array([[10.0, 0.0], [0.0, 10.0]]))
        labels = np.array([0, 0])
        mask = np.array([True, False])
        loss = ad.cross_entropy(logits, labels, mask)
        assert float(loss.value) < 1e-4

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="no rows"):
            ad.cross_entropy(Variable(np.zeros((2, 2))), np.zeros(2, dtype=int),
                             np.zeros(2, dtype=bool))

    def test_mse_mae_values(self):
        pred = Variable(np.array([[1.0], [3.0]]))
        target = np.array([[0.0], [1.0]])
        assert float(ad.mse(pred, target).value) == pytest.approx((1 + 4) / 2)
        assert float(ad.mae(pred, target).value) == pytest.approx((1 + 2) / 2)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_loss_gradients_keep_the_working_dtype(self, dtype):
        previous = default_dtype().name
        set_default_dtype(dtype)
        try:
            gen = philox(12)
            x = Variable(gen.standard_normal((6, 3)), requires_grad=True)
            mask = np.array([True, False, True, True, False, True])
            losses = [lambda: ad.cross_entropy(x, np.arange(6) % 3, mask),
                      lambda: ad.mse(x, np.ones((6, 3)), mask),
                      lambda: ad.mae(x, np.ones((6, 3)), mask)]
            for make_loss in losses:
                with Tape() as tape:
                    loss = make_loss()
                # the rule's own output: Variable.grad would cast it back on +=
                _, _, rule = tape.records[loss.tape_id]
                (grad,) = rule(np.ones_like(loss.value))
                assert loss.value.dtype == grad.dtype == np.dtype(dtype)
        finally:
            set_default_dtype(previous)


def _reference_segment_softmax(values: np.ndarray, indptr: np.ndarray):
    """Per-segment max and softmax, one block at a time, with the sum
    accumulated row by row in edge order."""
    seg_max = np.empty_like(values)
    soft = np.empty_like(values)
    for lo, hi in zip(indptr[:-1], indptr[1:]):
        if lo == hi:
            continue
        block = values[lo:hi]
        top = block[0].copy()
        for row in block[1:]:
            top = np.maximum(top, row)
        e = np.exp(block - top)
        total = np.zeros_like(top)
        for row in e:
            total = total + row
        seg_max[lo:hi] = top
        soft[lo:hi] = e / total
    return seg_max, soft


def _segment_graphs():
    star = [(0, i) for i in range(1, 1201)] + [(i, i + 1) for i in range(1, 1200)]
    return {
        "isolated_nodes": build_graph([(0, 1), (1, 2), (4, 5), (4, 6)], 9),
        "no_edges": build_graph([], 4),
        "star_hub_1200": build_graph(star, 1201),
        "erdos_renyi_6": erdos_renyi(6, 0.6, seed=5),
    }


class TestSegmentSoftmaxExact:
    """The tree-reduced segment max and the softmax built on it equal a
    plain per-segment reference bit for bit."""

    @pytest.mark.parametrize("name", list(_segment_graphs()))
    def test_matches_reference_bit_for_bit(self, name):
        g = _segment_graphs()[name]
        gen = philox(21)
        values = gen.standard_normal((g.n_edges, 3)) * 40.0
        values[::5, 1] = 700.0  # ties, and exp overflow without the shift
        want_max, want_soft = _reference_segment_softmax(values, g.out_indptr)

        assert np.array_equal(ad._segment_max_rows(values, g.max_plan), want_max)
        soft = ad.segment_softmax(Variable(values), g.edge_src, g.scatter_src, g.max_plan)
        assert np.array_equal(soft.value, want_soft)

    def test_plan_covers_every_row_once_per_block(self):
        g = _segment_graphs()["star_hub_1200"]
        head, steps = g.max_plan
        np.testing.assert_array_equal(head, g.out_indptr[:-1][g.edge_src])
        assert len(steps) == int(np.ceil(np.log2(g.degree.max())))
        # every row but its block's head is read as a right operand exactly once
        rights = np.concatenate([right for _, right in steps])
        assert np.array_equal(np.sort(rights), np.setdiff1d(np.arange(g.n_edges), head))
        for left, right in steps:
            assert np.array_equal(head[left], head[right])


class TestLinear:
    def test_init_bounds_and_zero_bias(self):
        lin = Linear.init(20, 30, philox(0), bias=True)
        s = np.sqrt(6.0 / 50.0)
        assert np.abs(lin.w.value).max() <= s
        np.testing.assert_array_equal(lin.b.value, 0.0)

    def test_apply_matches_manual(self):
        lin = Linear.init(3, 2, philox(1))
        x = philox(2).standard_normal((5, 3))
        np.testing.assert_allclose(lin(Variable(x)).value,
                                   x @ lin.w.value + lin.b.value)

    def test_no_bias(self):
        lin = Linear.init(3, 2, philox(3), bias=False)
        assert lin.b is None
        assert len(lin.parameters()) == 1

    def test_one_record_per_call(self):
        for bias in (True, False):
            lin = Linear.init(3, 2, philox(4), bias=bias)
            with Tape() as tape:
                lin(Variable(np.ones((5, 3))))
            assert len(tape.records) == 1

    def test_bias_shape_checked(self):
        with pytest.raises(ValueError, match="bias"):
            ad.matmul(np.ones((2, 3)), np.ones((3, 4)), np.ones((1, 4)))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("c_out", [1, 4])
    def test_fused_bias_matches_separate_add_bit_for_bit(self, dtype, c_out):
        """matmul(x, w, b) gives the value and the gradients, for x, w and
        b, of add(matmul(x, w), b), to the bit."""
        previous = default_dtype().name
        set_default_dtype(dtype)
        try:
            gen = philox(40 + c_out)
            values = [gen.standard_normal(shape) for shape in ((6, 3), (3, c_out), (c_out,))]
            weights = Variable(gen.standard_normal((6, c_out)))
            results = []
            for fused in (True, False):
                x, w, b = (Variable(v, requires_grad=True) for v in values)
                with Tape() as tape:
                    y = ad.matmul(x, w, b) if fused else ad.add(ad.matmul(x, w), b)
                    loss = ad.total_sum(ad.hadamard(y, weights))
                backward(tape, loss)
                results.append([y.value] + [v.grad for v in (x, w, b)])
            for got, want in zip(*results):
                assert got.dtype == want.dtype == np.dtype(dtype)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        finally:
            set_default_dtype(previous)


class TestWeightedTransport:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name", list(_segment_graphs()))
    def test_matches_gather_hadamard_scatter_bit_for_bit(self, name, dtype):
        """The one-record transport gives the value and both gradients of
        the gather, hadamard, scatter composition, to the bit."""
        previous = default_dtype().name
        set_default_dtype(dtype)
        try:
            g = _segment_graphs()[name]
            gen = philox(31)
            w0 = gen.random((g.n_edges, 3))
            x0 = gen.standard_normal((g.n_nodes, 3))
            upstream = Variable(gen.standard_normal((g.n_nodes, 3)))
            results = []
            for fused in (True, False):
                w, x = Variable(w0, requires_grad=True), Variable(x0, requires_grad=True)
                with Tape() as tape:
                    if fused:
                        y = ad.weighted_transport(w, x, g.edge_src, g.scatter_src,
                                                  g.scatter_dst, g.edge_dst)
                    else:
                        x_src = ad.fixed_sparse_matmul(g.edge_src, g.scatter_src, x)
                        y = ad.fixed_sparse_matmul(g.scatter_dst, g.edge_dst,
                                                   ad.hadamard(w, x_src))
                    loss = ad.total_sum(ad.hadamard(y, upstream))
                backward(tape, loss)
                results.append((y.value, w.grad, x.grad, len(tape.records)))
            (*fused_arrays, fused_records), (*composed_arrays, composed_records) = results
            assert fused_records == composed_records - 2
            for got, want in zip(fused_arrays, composed_arrays):
                assert got.dtype == want.dtype == np.dtype(dtype)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        finally:
            set_default_dtype(previous)

    def test_weights_must_match_the_gathered_rows(self):
        g = _segment_graphs()["erdos_renyi_6"]
        with pytest.raises(ValueError, match="weighted_transport"):
            ad.weighted_transport(np.ones((g.n_edges, 2)), np.ones((g.n_nodes, 3)),
                                  g.edge_src, g.scatter_src, g.scatter_dst, g.edge_dst)
