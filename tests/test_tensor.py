"""Tests for the tensor module, the loss's cross-entropy kernels, and the
written-out backwards of the embedding gathers and the tied head, checked
against independent oracles.

The value and gradient tests of the GELU, layer norm and softmax kernels,
which the encoder calls directly, are in ``test_kernels.py``.
"""

import re

import numpy as np
import pytest

from wordlm import kernels
from wordlm import tensor as T
from wordlm.errors import ContractError
from wordlm.model import ModelConfig, WordBertModel
from wordlm.tensor import Tensor
from wordlm.training import MaskedBatch, mlm_loss

from oracles import central_diff_grad, cross_entropy_direct, matmul_triple_loop, rel_error
from reference_model import params64, per_sequence, ref_mlm_loss

RNG = np.random.default_rng


def zero_layer_model(dropout=0.0, seed=1, **kw):
    """The embedding and the tied head alone: encode_batch returns the word
    plus position rows, and mlm_logits their dot products with the tied rows."""
    cfg = dict(vocab_size=12, num_layers=0, num_heads=1, hidden=4, embed_dim=4,
               max_positions=6, dropout=dropout)
    cfg.update(kw)
    return WordBertModel(ModelConfig(**cfg), seed=seed)


class TestMatmul:
    def test_identity(self):
        a = RNG(0).standard_normal((3, 3)).astype(np.float32)
        out = T.matmul(a, np.eye(3, dtype=np.float32))
        np.testing.assert_array_equal(out, a)

    def test_zeros(self):
        a = RNG(1).standard_normal((2, 4)).astype(np.float32)
        out = T.matmul(a, np.zeros((4, 2), dtype=np.float32))
        np.testing.assert_array_equal(out, np.zeros((2, 2), dtype=np.float32))

    def test_matches_triple_loop_oracle(self):
        rng = RNG(2)
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((4, 2)).astype(np.float32)
        out = T.matmul(a, b)
        expected = matmul_triple_loop(a, b)
        assert np.abs(out - expected).max() <= 1e-6

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ContractError, match=r"\(2, 3\).*\(4, 2\)"):
            T.matmul(np.zeros((2, 3)), np.zeros((4, 2)))
        # both operands must be matrices
        for sa, sb in [((2, 3, 4), (2, 4, 2)), ((2, 3, 4), (4, 2)), ((3, 4), (1, 4, 2)),
                       ((3,), (3,))]:
            with pytest.raises(ContractError, match=re.escape(f"{sa} @ {sb}")):
                T.matmul(np.zeros(sa), np.zeros(sb))

    def test_associativity(self):
        rng = RNG(4)
        a, b, c = (
            rng.standard_normal((4, 5)).astype(np.float32),
            rng.standard_normal((5, 3)).astype(np.float32),
            rng.standard_normal((3, 6)).astype(np.float32),
        )
        left = T.matmul(T.matmul(a, b), c)
        right = T.matmul(a, T.matmul(b, c))
        np.testing.assert_allclose(left, right, atol=1e-4)

    def test_gradients_vs_finite_differences(self):
        """The head's backward forms the gradients of its ``T.matmul``'s two
        operands: the hidden rows' and, back through the transposed copy, the
        tied table's."""
        model = zero_layer_model(seed=5)
        rng = RNG(5)
        hidden = rng.standard_normal((3, 4)).astype(np.float32)
        r = rng.standard_normal((3, 12)).astype(np.float32)
        _, backward = model.mlm_logits(hidden, np.arange(12))
        g_hidden, rows_backward = backward(r * np.float32(1.0 / r.size))
        rows_backward()
        table = model.params["embedding.word"].data
        fd_hidden = central_diff_grad(lambda v: float(((v @ table.T.astype(np.float64)) * r).mean()),
                                      hidden)
        fd_table = central_diff_grad(lambda v: float(((hidden.astype(np.float64) @ v.T) * r).mean()),
                                     table)
        assert rel_error(g_hidden, fd_hidden) <= 1e-3
        assert rel_error(model.params["embedding.word"].grad, fd_table) <= 1e-3


class TestSoftmaxCrossEntropy:
    """The loss's cross-entropy kernels on single [1, V] rows against scalar oracles."""

    @staticmethod
    def ce(logits, target):
        losses, _ = kernels.cross_entropy_rows_fwd(np.asarray(logits)[None, :], np.array([target]))
        return losses[0]

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
        """mlm_loss refuses a target that is not in the batch vocabulary, and a
        target position outside the batch, instead of scoring another word."""
        model = zero_layer_model()
        ids = [[2, 7, 8, 3]]
        with pytest.raises(ContractError, match="absent from batch vocabulary"):
            mlm_loss(model, MaskedBatch(ids, [1], [9]), np.arange(9))
        for position in (-1, 4):
            with pytest.raises(IndexError, match=r"\[0, 4\)"):
                mlm_loss(model, MaskedBatch(ids, [position], [7]), np.arange(12))

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
        _, probs = kernels.cross_entropy_rows_fwd(logits[None, :], np.array([4]))
        grad = kernels.cross_entropy_rows_bwd(probs, np.array([4]), np.ones(1, np.float32))
        fd = central_diff_grad(lambda v: cross_entropy_direct(v, 4), logits)
        assert rel_error(grad[0], fd) <= 1e-3

    def test_rows_variant_matches_single(self):
        rng = RNG(17)
        logits = rng.standard_normal((6, 11)).astype(np.float32)
        targets = rng.integers(0, 11, size=6)
        rows, _ = kernels.cross_entropy_rows_fwd(logits, targets)
        for i in range(6):
            assert abs(rows[i] - self.ce(logits[i], int(targets[i]))) <= 1e-6


class TestBackward:
    def test_sum_gradient_is_ones(self):
        """backward() hands the loss's backward the loss's own gradient: one."""
        seen = []
        Tensor(np.float32(2.5), backward_fn=seen.append).backward()
        assert len(seen) == 1
        assert seen[0].dtype == np.float32 and seen[0] == 1

    def test_non_scalar_loss_rejected(self):
        seen = []
        with pytest.raises(ContractError, match="scalar"):
            Tensor(np.zeros((2, 2), np.float32), backward_fn=seen.append).backward()
        assert not seen

    def test_tensor_reused_on_two_paths_sums_gradients(self):
        """The direct variant's word table feeds the input side and the tied
        head; its gradient is the sum of both, against central differences of
        the float64 reference loss."""
        model = zero_layer_model(seed=22)
        masked = MaskedBatch([[2, 7, 9, 7, 3], [2, 10, 3, 0, 0]], positions=[1, 3, 6],
                             target_global_ids=[7, 7, 10])
        bv = np.array([0, 1, 2, 3, 4, 7, 9, 10])
        model.zero_grad()
        mlm_loss(model, masked, bv, rng=RNG(0)).backward()  # dropout 0: nothing is drawn
        p64 = params64(model)
        batch64 = per_sequence(masked, bv)
        fd = central_diff_grad(
            lambda v: ref_mlm_loss({**p64, "embedding.word": v}, model.config, batch64, bv),
            p64["embedding.word"],
        )
        assert rel_error(model.params["embedding.word"].grad, fd) <= 1e-3
        # rows 7 and 10 are inputs at target positions and head rows; row 11 is neither
        assert np.all(fd[[7, 10]] != 0) and np.all(model.params["embedding.word"].grad[11] == 0)

    def test_grads_accumulate_until_zeroed(self):
        x = Tensor(np.ones((1, 3), np.float32))
        g = RNG(21).standard_normal((1, 3)).astype(np.float32)
        x.accumulate_grad(g)
        x.accumulate_grad(g)
        np.testing.assert_array_equal(x.grad, 2 * g)
        x.zero_grad()
        assert x.grad is None

    def test_first_gradient_is_a_new_array(self):
        a = Tensor(np.ones((1, 3), np.float32))
        b = Tensor(np.ones((1, 3), np.float32))
        g = np.ones((1, 3), np.float32)
        a.accumulate_grad(g)
        b.accumulate_grad(g)
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(a.grad, g)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, np.ones((1, 3), np.float32))

    def test_first_gradient_turns_negative_zero_positive(self):
        x = Tensor(np.ones((1, 3), np.float32))
        g = np.full((1, 3), -0.0, np.float32)
        x.accumulate_grad(g)
        assert not np.signbit(x.grad).any() and not np.shares_memory(x.grad, g)

    def test_gradient_of_another_shape_rejected(self):
        x = Tensor(np.zeros((3, 4), np.float32))
        with pytest.raises(ContractError):
            x.accumulate_grad(np.ones(4, np.float32))
        with pytest.raises(ContractError):  # two rows for one id
            x.accumulate_grad(np.ones((2, 4), np.float32), np.array([1]))
        assert x.grad is None

    @pytest.mark.parametrize("shape", [(7,), (7, 3)], ids=["vector", "matrix"])
    def test_first_scattered_gradient_is_add_at_on_zeros(self, shape):
        """Given ids, the first gradient has the bits of ``np.add.at`` into
        zeros: repeated ids sum in order, and a -0.0 row becomes +0.0."""
        ids = np.array([4, 1, 4, 6, 1, 4])
        g = RNG(22).standard_normal((len(ids),) + shape[1:]).astype(np.float32)
        g[3] = -0.0  # id 6's only row
        x = Tensor(np.ones(shape, np.float32))
        x.accumulate_grad(g, ids)
        expected = np.zeros(shape, np.float32)
        np.add.at(expected, ids, g)
        assert x.grad.tobytes() == expected.tobytes()
        assert not np.signbit(x.grad[6]).any()


class TestGatherScatter:
    def test_gather_values(self):
        model = zero_layer_model()
        ids = np.array([[3, 0, 3, 11]])
        hidden, _ = model.encode_batch(ids, np.ones_like(ids))
        p = model.params
        expected = p["embedding.word"].data[ids[0]] + p["embedding.position"].data[:4]
        np.testing.assert_array_equal(hidden, expected)

    def test_scatter_accumulates_duplicates(self):
        model = zero_layer_model()
        ids = np.array([[1, 1, 4]])
        hidden, backward = model.encode_batch(ids, np.ones_like(ids), rng=RNG(0))
        backward(np.ones_like(hidden))
        expected = np.zeros((12, 4), np.float32)
        expected[1] = 2.0
        expected[4] = 1.0
        np.testing.assert_array_equal(model.params["embedding.word"].grad, expected)
        expected = np.zeros((6, 4), np.float32)
        expected[:3] = 1.0
        np.testing.assert_array_equal(model.params["embedding.position"].grad, expected)

    def test_frozen_table_gets_no_grad(self):
        vectors = RNG(3).standard_normal((12, 3)).astype(np.float32)
        model = WordBertModel(ModelConfig(vocab_size=12, num_layers=0, num_heads=1, hidden=4,
                                          embed_dim=3, max_positions=6, variant="projected",
                                          freeze_embeddings=True, dropout=0.0),
                              seed=1, word_vectors=vectors)
        mlm_loss(model, MaskedBatch([[2, 7, 8, 3]], [1], [7]), np.arange(12), rng=RNG(0)).backward()
        assert model.params["embedding.word"].grad is None
        assert model.params["embedding.projection"].grad is not None

    def test_vector_gather_grad(self):
        model = zero_layer_model()
        hidden = RNG(6).standard_normal((1, 4)).astype(np.float32)
        _, backward = model.mlm_logits(hidden, np.array([5, 5, 2]))
        third = np.float32(1) / np.float32(3)
        backward(np.full((1, 3), third, np.float32))  # each gathered element gets 1/3
        expected = np.zeros(12, np.float32)
        expected[5] = third + third
        expected[2] = third
        np.testing.assert_array_equal(model.params["mlm.bias"].grad, expected)

    def test_out_of_range(self):
        """encode_batch refuses a word id outside [0, V); numpy would wrap a
        negative one to the end of the table."""
        model = zero_layer_model()
        for bad in (-1, 12):
            ids = np.array([[2, bad, 3]])
            with pytest.raises(IndexError, match=r"\[0, 12\)"):
                model.encode_batch(ids, np.ones_like(ids))


class TestShapeOps:
    def test_transpose_roundtrip_grads(self):
        x = RNG(24).standard_normal((3, 4)).astype(np.float32)
        y = T.transpose(x)
        assert y.flags.c_contiguous and not np.shares_memory(x, y)
        np.testing.assert_array_equal(y, x.T)
        np.testing.assert_array_equal(T.transpose(y), x)
        with pytest.raises(ContractError, match=r"\(2, 3, 4\)"):
            T.transpose(np.zeros((2, 3, 4)))

    @pytest.mark.parametrize("shape", [(1, 7), (255, 16), (256, 16), (257, 16), (513, 16),
                                       (50005, 256)])
    def test_blocked_transpose_is_the_one_shot_copy(self, shape):
        """The copy in blocks of rows gives the bytes of a one-shot transposed
        copy at every block boundary, up to the 50k-row word table."""
        x = RNG(25).standard_normal(shape).astype(np.float32)
        y = T.transpose(x)
        assert y.flags.c_contiguous and y.dtype == x.dtype
        assert np.array_equal(y, np.ascontiguousarray(x.T))

    # Dropout lives in the encoder. With no layers the encoder is the word +
    # position sum, so a switched-off dropout must leave its forward exactly
    # the plain gather and add.
    def embedding_sum(self, dropout, rng):
        """The zero-layer encoder's output, checked against plain numpy, and its backward."""
        model = zero_layer_model(dropout=dropout, vocab_size=40, hidden=16, embed_dim=16,
                                 max_positions=24)
        ids = np.array([[7, 3, 7, 12, 5]])
        hidden, backward = model.encode_batch(ids, np.ones_like(ids), rng=rng)
        word, pos = model.params["embedding.word"].data, model.params["embedding.position"].data
        assert hidden.tobytes() == (word[ids[0]] + pos[:5]).tobytes()
        return model, ids, hidden, backward

    def test_dropout_identity_when_p_zero(self):
        """A training call at rate 0: the backward is the plain scatter, and
        nothing is drawn from the rng."""
        rng = RNG(0)
        model, ids, hidden, backward = self.embedding_sum(0.0, rng)
        g = RNG(8).standard_normal(hidden.shape).astype(np.float32)
        backward(g)
        p = model.params
        word_grad = np.zeros_like(p["embedding.word"].data)
        pos_grad = np.zeros_like(p["embedding.position"].data)
        np.add.at(word_grad, ids[0], g)
        pos_grad[:5] += g
        np.testing.assert_array_equal(p["embedding.word"].grad, word_grad)
        np.testing.assert_array_equal(p["embedding.position"].grad, pos_grad)
        assert rng.random() == RNG(0).random()

    def test_dropout_identity_without_rng(self):
        """An inference call: no dropout at any rate, and no backward."""
        _, _, _, backward = self.embedding_sum(0.5, None)
        assert backward is None

    def test_broadcast_add_gradient(self):
        """The head adds mlm.bias to every hidden row's logits, so the bias
        takes the gradient's column sums, and hidden the gradient times the rows."""
        model = zero_layer_model()
        hidden = RNG(26).standard_normal((3, 4)).astype(np.float32)
        ids = np.array([0, 4, 9])
        _, backward = model.mlm_logits(hidden, ids)
        g_hidden, _ = backward(np.ones((3, 3), np.float32))
        expected = np.zeros(12, np.float32)
        expected[ids] = 3.0
        np.testing.assert_array_equal(model.params["mlm.bias"].grad, expected)
        rows = model.params["embedding.word"].data[ids]
        np.testing.assert_allclose(g_hidden, np.tile(rows.sum(axis=0), (3, 1)), rtol=1e-6)


class TestNoGrad:
    def test_no_graph_recorded(self):
        """A call without a dropout rng keeps no backward: the encoder returns
        None, and the loss refuses ``backward()`` and touches no gradient."""
        model = zero_layer_model()
        masked = MaskedBatch([[2, 7, 8, 3]], [1], [7])
        _, backward = model.encode_batch(masked.input_ids, np.ones((1, 4)))
        loss = mlm_loss(model, masked, np.arange(12))
        assert backward is None
        with pytest.raises(ContractError, match="dropout rng"):
            loss.backward()
        assert all(p.grad is None for p in model.params.values())
