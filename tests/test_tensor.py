"""Tests for the autodiff tensor library, checked against independent oracles."""

import re

import mpmath
import numpy as np
import pytest

from wordlm import tensor as T
from wordlm.errors import ContractError, ShapeError
from wordlm.tensor import Tensor

from oracles import (
    central_diff_grad,
    cosine_distance,
    cross_entropy_direct,
    gelu64,
    layer_norm_two_pass,
    matmul_triple_loop,
    rel_error,
    softmax64,
)

RNG = np.random.default_rng


def total(x):
    """The sum of x's elements, as its mean times their count: the gradient
    that reaches x is exactly one per element."""
    return T.mul(T.mean(x), float(x.data.size))


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

    def test_batched_matches_per_slice(self):
        rng = RNG(3)
        a = rng.standard_normal((5, 3, 4)).astype(np.float32)
        b = rng.standard_normal((5, 4, 2)).astype(np.float32)
        out = T.matmul(Tensor(a), Tensor(b)).data
        for i in range(5):
            np.testing.assert_allclose(
                out[i], matmul_triple_loop(a[i], b[i]), atol=1e-6
            )

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        # leading axes must be equal (no broadcasting), ranks too, and at least 2
        for sa, sb in [((2, 3, 4), (3, 4, 2)), ((2, 3, 4), (4, 2)), ((1, 3, 4), (2, 4, 2)),
                       ((2, 2, 3, 4), (2, 3, 4, 2)), ((3,), (3,))]:
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
        r = rng.standard_normal((3, 2)).astype(np.float32)
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        loss = total(T.mul(T.matmul(ta, tb), Tensor(r)))
        loss.backward()
        fd_a = central_diff_grad(lambda x: float(((x @ b.astype(np.float64)) * r).sum()), a)
        fd_b = central_diff_grad(lambda x: float(((a.astype(np.float64) @ x) * r).sum()), b)
        assert rel_error(ta.grad, fd_a) <= 1e-3
        assert rel_error(tb.grad, fd_b) <= 1e-3

    def test_batched_gradients_vs_finite_differences(self):
        rng = RNG(6)
        for lead in ((2,), (2, 3)):  # a stack, and the encoder's [B, A] stack of heads
            a = rng.standard_normal(lead + (3, 4)).astype(np.float32)
            b = rng.standard_normal(lead + (4, 2)).astype(np.float32)
            r = rng.standard_normal(lead + (3, 2)).astype(np.float32)
            ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
            loss = total(T.mul(T.matmul(ta, tb), Tensor(r)))
            loss.backward()
            fd_a = central_diff_grad(
                lambda x: float((np.matmul(x, b.astype(np.float64)) * r).sum()), a)
            fd_b = central_diff_grad(
                lambda x: float((np.matmul(a.astype(np.float64), x) * r).sum()), b)
            assert rel_error(ta.grad, fd_a) <= 1e-3, lead
            assert rel_error(tb.grad, fd_b) <= 1e-3, lead


class TestGelu:
    def test_zero(self):
        out = T.gelu(Tensor(np.array([0.0], dtype=np.float32)))
        assert out.data[0] == 0.0

    def test_saturated(self):
        out = T.gelu(Tensor(np.array([10.0], dtype=np.float32)))
        assert abs(out.data[0] - 10.0) <= 1e-5

    def test_value_at_one_vs_high_precision(self):
        mpmath.mp.dps = 40
        expected = float(mpmath.mpf(1) * mpmath.ncdf(1))
        out = T.gelu(Tensor(np.array([1.0], dtype=np.float32)))
        assert abs(float(out.data[0]) - expected) <= 1e-5

    def test_random_matches_erf_oracle(self):
        x = RNG(7).standard_normal((4, 9)).astype(np.float32) * 3
        out = T.gelu(Tensor(x)).data
        np.testing.assert_allclose(out, gelu64(x), atol=1e-5)

    def test_grad_vs_finite_differences(self):
        rng = RNG(8)
        x = rng.standard_normal(20).astype(np.float32)
        r = rng.standard_normal(20).astype(np.float32)
        tx = Tensor(x, requires_grad=True)
        loss = total(T.mul(T.gelu(tx), Tensor(r)))
        loss.backward()
        fd = central_diff_grad(lambda v: float((gelu64(v) * r).sum()), x)
        assert rel_error(tx.grad, fd) <= 1e-3



class TestLayerNorm:
    def test_constant_row_gives_zeros(self):
        x = np.full((2, 8), 3.5, dtype=np.float32)
        out = T.layer_norm(
            Tensor(x), Tensor(np.ones(8, np.float32)), Tensor(np.zeros(8, np.float32))
        )
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_gamma_zero_broadcasts_beta(self):
        rng = RNG(10)
        x = rng.standard_normal((3, 6)).astype(np.float32)
        beta = rng.standard_normal(6).astype(np.float32)
        out = T.layer_norm(Tensor(x), Tensor(np.zeros(6, np.float32)), Tensor(beta))
        np.testing.assert_allclose(out.data, np.tile(beta, (3, 1)), atol=1e-6)

    def test_matches_two_pass_oracle(self):
        rng = RNG(11)
        x = rng.standard_normal((5, 16)).astype(np.float32) * 2
        gamma = rng.standard_normal(16).astype(np.float32)
        beta = rng.standard_normal(16).astype(np.float32)
        out = T.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta), eps=1e-5).data
        expected = layer_norm_two_pass(x, gamma, beta, 1e-5)
        assert np.abs(out - expected).max() <= 1e-5

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            T.layer_norm(
                Tensor(np.zeros((2, 8))),
                Tensor(np.ones(4, np.float32)),
                Tensor(np.zeros(8, np.float32)),
            )

    def test_grads_vs_finite_differences(self):
        rng = RNG(12)
        x = rng.standard_normal((3, 8)).astype(np.float32)
        gamma = rng.standard_normal(8).astype(np.float32)
        beta = rng.standard_normal(8).astype(np.float32)
        r = rng.standard_normal((3, 8)).astype(np.float32)
        tx = Tensor(x, requires_grad=True)
        tg = Tensor(gamma, requires_grad=True)
        tb = Tensor(beta, requires_grad=True)
        loss = total(T.mul(T.layer_norm(tx, tg, tb, eps=1e-5), Tensor(r)))
        loss.backward()
        fd_x = central_diff_grad(
            lambda v: float((layer_norm_two_pass(v, gamma, beta, 1e-5) * r).sum()), x
        )
        fd_g = central_diff_grad(
            lambda v: float((layer_norm_two_pass(x, v, beta, 1e-5) * r).sum()), gamma
        )
        fd_b = central_diff_grad(
            lambda v: float((layer_norm_two_pass(x, gamma, v, 1e-5) * r).sum()), beta
        )
        assert rel_error(tx.grad, fd_x) <= 1e-3
        assert rel_error(tg.grad, fd_g) <= 1e-3
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
        total(T.cross_entropy_rows(tl, [4])).backward()
        fd = central_diff_grad(lambda v: cross_entropy_direct(v, 4), logits)
        assert rel_error(tl.grad[0], fd) <= 1e-3

    def test_rows_variant_matches_single(self):
        rng = RNG(17)
        logits = rng.standard_normal((6, 11)).astype(np.float32)
        targets = rng.integers(0, 11, size=6)
        rows = T.cross_entropy_rows(Tensor(logits), targets).data
        for i in range(6):
            assert abs(rows[i] - self.ce(logits[i], int(targets[i]))) <= 1e-6


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = RNG(18).standard_normal((4, 3, 7)).astype(np.float32) * 4
        probs = T.softmax(Tensor(x)).data
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
        np.testing.assert_allclose(probs, softmax64(x), atol=1e-6)

    def test_grad_vs_finite_differences(self):
        rng = RNG(19)
        x = rng.standard_normal((2, 6)).astype(np.float32)
        r = rng.standard_normal((2, 6)).astype(np.float32)
        tx = Tensor(x, requires_grad=True)
        total(T.mul(T.softmax(tx), Tensor(r))).backward()
        fd = central_diff_grad(lambda v: float((softmax64(v) * r).sum()), x)
        assert rel_error(tx.grad, fd) <= 1e-3


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(RNG(20).standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        total(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4), dtype=np.float32))

    def test_elementwise_square_gradient(self):
        data = RNG(21).standard_normal(10).astype(np.float32)
        x = Tensor(data, requires_grad=True)
        total(T.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, 2 * data, rtol=1e-6)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros((2, 2), np.float32), requires_grad=True)
        with pytest.raises(ContractError):
            T.mul(x, 2.0).backward()

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
        x = Tensor(np.ones(3, np.float32), requires_grad=True)
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
        h = T.gelu(T.add(T.matmul(x, w), const))
        loss = T.mean(T.reshape(T.mul(h, h), (8,)))
        loss.backward()
        nodes, stack = [], [loss]
        while stack:
            node = stack.pop()
            if all(node is not seen for seen in nodes):
                nodes.append(node)
                stack.extend(node._parents)
        interior = [n for n in nodes if n._backward_fn is not None]
        assert len(interior) == 6  # loss, reshape, mul, gelu, add, matmul
        assert all(n.grad is None for n in interior)
        assert x.grad is not None and w.grad is not None
        assert x.grad.shape == (2, 3) and w.grad.shape == (3, 4)
        assert const.grad is None and len(nodes) == 9

    def test_first_gradient_is_a_new_array(self):
        a = Tensor(np.ones(3, np.float32), requires_grad=True)
        b = Tensor(np.ones(3, np.float32), requires_grad=True)
        total(T.add(a, b)).backward()
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, np.ones(3, np.float32))

    def test_first_gradient_turns_negative_zero_positive(self):
        x = Tensor(np.ones(3, np.float32), requires_grad=True)
        total(T.mul(x, -0.0)).backward()
        assert not np.signbit(x.grad).any()

    def test_gradient_of_another_shape_rejected(self):
        x = Tensor(np.zeros((3, 4), np.float32), requires_grad=True)
        with pytest.raises(ShapeError):
            x.accumulate_grad(np.ones(4, np.float32))
        assert x.grad is None

    def test_aggregate_cosine_distance_small(self):
        rng = RNG(23)
        x = rng.standard_normal((4, 6)).astype(np.float32)
        w = rng.standard_normal((6, 5)).astype(np.float32)
        tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        h = T.gelu(T.matmul(tx, tw))
        T.mean(T.mul(h, h)).backward()

        def f(v):
            hh = gelu64(x.astype(np.float64) @ v)
            return float((hh * hh).mean())

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
        out = T.mul(T.gather_rows(table, [0, 1]), 2.0)
        assert not out.requires_grad
        assert table.grad is None

    def test_vector_gather_grad(self):
        bias = Tensor(np.arange(6, dtype=np.float32), requires_grad=True)
        total(T.gather_rows(bias, [5, 5, 2])).backward()
        expected = np.zeros(6, np.float32)
        expected[5] = 2.0
        expected[2] = 1.0
        np.testing.assert_array_equal(bias.grad, expected)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            T.gather_rows(Tensor(np.zeros((3, 2))), [3])


class TestShapeOps:
    def test_reshape_transpose_roundtrip_grads(self):
        rng = RNG(24)
        x = rng.standard_normal((2, 3, 4)).astype(np.float32)
        tx = Tensor(x, requires_grad=True)
        y = T.transpose(T.reshape(tx, (6, 4)), (1, 0))
        total(T.mul(y, y)).backward()
        np.testing.assert_allclose(tx.grad, 2 * x, rtol=1e-6)

    def test_dropout_identity_when_p_zero(self):
        x = Tensor(np.ones(5, np.float32), requires_grad=True)
        assert T.dropout(x, 0.0, RNG(0)) is x

    def test_dropout_identity_without_rng(self):
        x = Tensor(np.ones(5, np.float32), requires_grad=True)
        assert T.dropout(x, 0.5, None) is x

    def test_dropout_scales_kept_values(self):
        x = Tensor(np.ones(10_000, np.float32))
        y = T.dropout(x, 0.25, RNG(25))
        kept = y.data[y.data > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75, rtol=1e-6)
        assert abs(y.data.mean() - 1.0) < 0.05

    def test_broadcast_add_gradient(self):
        rng = RNG(26)
        x = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        bias = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
        total(T.add(x, bias)).backward()
        np.testing.assert_array_equal(bias.grad, np.full(4, 3.0, dtype=np.float32))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4), dtype=np.float32))


class TestNoGrad:
    def test_no_graph_recorded(self):
        x = Tensor(np.ones(3, np.float32), requires_grad=True)
        with T.no_grad():
            y = T.mul(x, 3.0)
        assert not y.requires_grad
        assert y._parents == ()
