"""Tests for the autodiff tensor library, checked against independent oracles.

The value and gradient tests of the GELU, layer norm and softmax kernels,
which the encoder node calls directly, are in ``test_kernels.py``.
"""

import re

import numpy as np
import pytest

from wordlm import tensor as T
from wordlm.errors import ContractError, ShapeError
from wordlm.model import ModelConfig, WordBertModel
from wordlm.tensor import Tensor

from oracles import (
    central_diff_grad,
    cosine_distance,
    cross_entropy_direct,
    matmul_triple_loop,
    rel_error,
)

RNG = np.random.default_rng


def total(x):
    """The sum of a matrix's elements, as ones(1, m) @ x @ ones(n, 1): the
    gradient that reaches x is exactly one per element."""
    m, n = x.data.shape
    return T.mean(T.matmul(T.matmul(Tensor(np.ones((1, m))), x), Tensor(np.ones((n, 1)))))


class TestMatmul:
    def test_identity(self):
        a = RNG(0).standard_normal((3, 3)).astype(np.float32)
        out = T.matmul(Tensor(a), Tensor(np.eye(3, dtype=np.float32)))
        np.testing.assert_array_equal(out.data, a)

    def test_zeros(self):
        a = RNG(1).standard_normal((2, 4)).astype(np.float32)
        out = T.matmul(Tensor(a), Tensor(np.zeros((4, 2), dtype=np.float32)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 2), dtype=np.float32))

    def test_matches_triple_loop_oracle(self):
        rng = RNG(2)
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((4, 2)).astype(np.float32)
        out = T.matmul(Tensor(a), Tensor(b)).data
        expected = matmul_triple_loop(a, b)
        assert np.abs(out - expected).max() <= 1e-6

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        # both operands must be matrices
        for sa, sb in [((2, 3, 4), (2, 4, 2)), ((2, 3, 4), (4, 2)), ((3, 4), (1, 4, 2)),
                       ((3,), (3,))]:
            with pytest.raises(ShapeError, match=re.escape(f"{sa} @ {sb}")):
                T.matmul(Tensor(np.zeros(sa)), Tensor(np.zeros(sb)))

    def test_associativity(self):
        rng = RNG(4)
        a, b, c = (
            Tensor(rng.standard_normal((4, 5)).astype(np.float32)),
            Tensor(rng.standard_normal((5, 3)).astype(np.float32)),
            Tensor(rng.standard_normal((3, 6)).astype(np.float32)),
        )
        left = T.matmul(T.matmul(a, b), c).data
        right = T.matmul(a, T.matmul(b, c)).data
        np.testing.assert_allclose(left, right, atol=1e-4)

    def test_gradients_vs_finite_differences(self):
        rng = RNG(5)
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((4, 2)).astype(np.float32)
        r = rng.standard_normal((2, 5)).astype(np.float32)
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        T.mean(T.matmul(T.matmul(ta, tb), Tensor(r))).backward()
        fd_a = central_diff_grad(lambda x: float(((x @ b.astype(np.float64)) @ r).mean()), a)
        fd_b = central_diff_grad(lambda x: float(((a.astype(np.float64) @ x) @ r).mean()), b)
        assert rel_error(ta.grad, fd_a) <= 1e-3
        assert rel_error(tb.grad, fd_b) <= 1e-3


class TestSoftmaxCrossEntropy:
    """cross_entropy_rows on single [1, V] rows against scalar oracles."""

    @staticmethod
    def ce(logits, target):
        return T.cross_entropy_rows(Tensor(np.asarray(logits)[None, :]), [target]).data[0]

    def test_uniform_logits(self):
        loss = self.ce(np.zeros(500, dtype=np.float32), 123)
        assert abs(loss - np.log(500.0)) <= 1e-4

    def test_saturated_target(self):
        logits = np.zeros(40, dtype=np.float32)
        logits[7] = 30.0
        assert self.ce(logits, 7) < 1e-9

    def test_matches_direct_sum_oracle(self):
        logits = RNG(13).standard_normal(5).astype(np.float32)
        assert abs(self.ce(logits, 2) - cross_entropy_direct(logits, 2)) <= 1e-6

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            self.ce(np.zeros(4, np.float32), 4)
        with pytest.raises(IndexError):
            self.ce(np.zeros(4, np.float32), -1)

    def test_shift_invariance(self):
        logits = RNG(14).standard_normal(64).astype(np.float32)
        base = self.ce(logits, 5)
        for c in (-37.5, 11.25, 48.0):
            shifted = self.ce(logits + np.float32(c), 5)
            assert abs(shifted - base) <= 1e-5

    def test_large_logits_do_not_overflow(self):
        logits = (RNG(15).standard_normal(100) * 1e4).astype(np.float32)
        assert np.isfinite(self.ce(logits, 3))

    def test_grad_vs_finite_differences(self):
        logits = RNG(16).standard_normal(12).astype(np.float32)
        tl = Tensor(logits[None, :], requires_grad=True)
        T.mean(T.cross_entropy_rows(tl, [4])).backward()
        fd = central_diff_grad(lambda v: cross_entropy_direct(v, 4), logits)
        assert rel_error(tl.grad[0], fd) <= 1e-3

    def test_rows_variant_matches_single(self):
        rng = RNG(17)
        logits = rng.standard_normal((6, 11)).astype(np.float32)
        targets = rng.integers(0, 11, size=6)
        rows = T.cross_entropy_rows(Tensor(logits), targets).data
        for i in range(6):
            assert abs(rows[i] - self.ce(logits[i], int(targets[i]))) <= 1e-6


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(RNG(20).standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        total(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4), dtype=np.float32))

    def test_elementwise_square_gradient(self):
        data = RNG(21).standard_normal((1, 10)).astype(np.float32)
        x = Tensor(data, requires_grad=True)
        T.mean(T.matmul(x, T.transpose(x))).backward()  # the sum of squares
        np.testing.assert_allclose(x.grad, 2 * data, rtol=1e-6)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros((2, 2), np.float32), requires_grad=True)
        with pytest.raises(ContractError):
            T.add(x, x).backward()

    def test_tensor_reused_on_two_paths_sums_gradients(self):
        rng = RNG(22)
        x = rng.standard_normal((2, 3)).astype(np.float32)
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((3, 4)).astype(np.float32)
        tx = Tensor(x, requires_grad=True)
        loss = T.add(total(T.matmul(tx, Tensor(a))), total(T.matmul(tx, Tensor(b))))
        loss.backward()
        fd = central_diff_grad(
            lambda v: float((v @ a.astype(np.float64)).sum() + (v @ b.astype(np.float64)).sum()),
            x,
        )
        assert rel_error(tx.grad, fd) <= 1e-3

    def test_grads_accumulate_until_zeroed(self):
        x = Tensor(np.ones((1, 3), np.float32), requires_grad=True)
        total(x).backward()
        first = x.grad.copy()
        total(x).backward()
        np.testing.assert_array_equal(x.grad, 2 * first)
        x.zero_grad()
        assert x.grad is None

    def test_interior_grads_released_and_leaves_kept(self):
        rng = RNG(27)
        x = Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        const = Tensor(rng.standard_normal(4).astype(np.float32))
        r = Tensor(rng.standard_normal((2, 1)).astype(np.float32))
        h = T.add(T.matmul(x, w), const)
        loss = T.mean(T.matmul(T.transpose(h), r))
        loss.backward()
        nodes, stack = [], [loss]
        while stack:
            node = stack.pop()
            if all(node is not seen for seen in nodes):
                nodes.append(node)
                stack.extend(node._parents)
        interior = [n for n in nodes if n._backward_fn is not None]
        assert len(interior) == 5  # loss, matmul, transpose, add, matmul
        assert all(n.grad is None for n in interior)
        assert x.grad is not None and w.grad is not None
        assert x.grad.shape == (2, 3) and w.grad.shape == (3, 4)
        assert const.grad is None and r.grad is None and len(nodes) == 9

    def test_first_gradient_is_a_new_array(self):
        a = Tensor(np.ones((1, 3), np.float32), requires_grad=True)
        b = Tensor(np.ones((1, 3), np.float32), requires_grad=True)
        total(T.add(a, b)).backward()
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, np.ones((1, 3), np.float32))

    def test_first_gradient_turns_negative_zero_positive(self):
        x = Tensor(np.ones((1, 3), np.float32), requires_grad=True)
        g = np.full((1, 3), -0.0, np.float32)
        x.accumulate_grad(g)
        assert not np.signbit(x.grad).any() and not np.shares_memory(x.grad, g)

    def test_gradient_of_another_shape_rejected(self):
        x = Tensor(np.zeros((3, 4), np.float32), requires_grad=True)
        with pytest.raises(ShapeError):
            x.accumulate_grad(np.ones(4, np.float32))
        assert x.grad is None

    def test_aggregate_cosine_distance_small(self):
        rng = RNG(23)
        x = rng.standard_normal((4, 6)).astype(np.float32)
        w = rng.standard_normal((6, 5)).astype(np.float32)
        targets = [0, 3, 4, 1]
        tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        T.mean(T.cross_entropy_rows(T.matmul(tx, tw), targets)).backward()

        def f(v):
            logits = x.astype(np.float64) @ v
            return float(np.mean([cross_entropy_direct(row, t) for row, t in zip(logits, targets)]))

        fd = central_diff_grad(f, w)
        assert cosine_distance(tw.grad, fd) <= 1e-3


class TestGatherScatter:
    def test_gather_values(self):
        table = np.arange(20, dtype=np.float32).reshape(5, 4)
        out = T.gather_rows(Tensor(table), [3, 0, 3])
        np.testing.assert_array_equal(out.data, table[[3, 0, 3]])

    def test_scatter_accumulates_duplicates(self):
        table = Tensor(np.zeros((5, 2), np.float32), requires_grad=True)
        out = T.gather_rows(table, [1, 1, 4])
        total(out).backward()
        expected = np.zeros((5, 2), np.float32)
        expected[1] = 2.0
        expected[4] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_frozen_table_gets_no_grad(self):
        table = Tensor(np.ones((4, 2), np.float32), requires_grad=False)
        out = T.add(T.gather_rows(table, [0, 1]), Tensor(np.ones(2, np.float32)))
        assert not out.requires_grad
        assert table.grad is None

    def test_vector_gather_grad(self):
        bias = Tensor(np.arange(6, dtype=np.float32), requires_grad=True)
        T.mean(T.gather_rows(bias, [5, 5, 2])).backward()  # each gathered element gets 1/3
        third = np.float32(1) / np.float32(3)
        expected = np.zeros(6, np.float32)
        expected[5] = third + third
        expected[2] = third
        np.testing.assert_array_equal(bias.grad, expected)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            T.gather_rows(Tensor(np.zeros((3, 2))), [3])


class TestShapeOps:
    def test_transpose_roundtrip_grads(self):
        rng = RNG(24)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        tx = Tensor(x, requires_grad=True)
        y = T.transpose(tx)
        assert y.data.flags.c_contiguous
        np.testing.assert_array_equal(y.data, x.T)
        total(T.transpose(y)).backward()
        np.testing.assert_array_equal(tx.grad, np.ones((3, 4), np.float32))
        with pytest.raises(ShapeError, match=r"\(2, 3, 4\)"):
            T.transpose(Tensor(np.zeros((2, 3, 4))))

    # Dropout has no tensor op: it lives in the encoder node. With no layers
    # that node is the word + position sum, so a switched-off dropout must
    # leave it, forward and backward, exactly the plain gather-and-add graph.
    def embedding_sum_vs_tensor_ops(self, dropout, rng):
        cfg = ModelConfig(vocab_size=40, num_layers=0, num_heads=2, hidden=16,
                          embed_dim=16, max_positions=24, dropout=dropout)
        ids = np.array([[7, 3, 7, 12, 5]])
        node_model, op_model = WordBertModel(cfg, seed=1), WordBertModel(cfg, seed=1)
        node = node_model.encode_batch(ids, np.ones_like(ids), rng=rng)
        p = op_model.params
        ops = T.add(T.gather_rows(p["embedding.word"], ids[0]),
                    T.gather_rows(p["embedding.position"], np.arange(ids.shape[1])))
        assert node.data.tobytes() == ops.data.tobytes()
        total(node).backward()
        total(ops).backward()
        for name in ("embedding.word", "embedding.position"):
            np.testing.assert_array_equal(node_model.params[name].grad, p[name].grad)

    def test_dropout_identity_when_p_zero(self):
        rng = RNG(0)
        self.embedding_sum_vs_tensor_ops(0.0, rng)
        # nothing was drawn from the rng
        assert rng.random() == RNG(0).random()

    def test_dropout_identity_without_rng(self):
        self.embedding_sum_vs_tensor_ops(0.5, None)

    def test_broadcast_add_gradient(self):
        rng = RNG(26)
        x = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        bias = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
        total(T.add(x, bias)).backward()
        np.testing.assert_array_equal(bias.grad, np.full(4, 3.0, dtype=np.float32))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4), dtype=np.float32))


class TestNoGrad:
    def test_no_graph_recorded(self):
        x = Tensor(np.ones((1, 3), np.float32), requires_grad=True)
        with T.no_grad():
            y = T.add(x, x)
        assert not y.requires_grad
        assert y._parents == ()
