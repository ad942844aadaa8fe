"""Model tests: embedding, encoder vs reference, tied MLM head, parameter accounting."""

import numpy as np
import pytest

from wordlm import tensor as T
from wordlm.errors import ContractError, ShapeError
from wordlm.model import ModelConfig, WordBertModel, parameter_counts
from wordlm.optim import Adam
from wordlm.tensor import Tensor
from wordlm.vocab import EncodedSequence

from reference_model import params64, ref_hidden


def toy_config(**kw):
    base = dict(
        vocab_size=40,
        num_layers=2,
        num_heads=2,
        hidden=16,
        embed_dim=16,
        max_positions=24,
        variant="direct",
        dropout=0.0,
    )
    base.update(kw)
    return ModelConfig(**base)


def seq_of(ids):
    ids = np.asarray(ids, dtype=np.int64)
    mask = (ids != 0).astype(np.int64)
    return EncodedSequence(ids, mask)


def encode(model, seq):
    """encode_batch on a batch of one; [T, H] hidden states."""
    return model.encode_batch(seq.ids[None, :], seq.attention_mask[None, :])


class TestConfig:
    def test_heads_must_divide_hidden(self):
        with pytest.raises(ContractError, match="divisible"):
            toy_config(num_heads=3)

    def test_direct_requires_matching_dims(self):
        with pytest.raises(ContractError, match="embed_dim"):
            toy_config(embed_dim=8)

    def test_projected_requires_frozen_embeddings(self):
        with pytest.raises(ContractError, match="freeze"):
            toy_config(variant="projected", embed_dim=8, freeze_embeddings=False)

    def test_reference_defaults_valid(self):
        ModelConfig(vocab_size=500_005)


class TestEmbed:
    """With zero layers, encode_batch returns the word + position embedding sum."""

    def test_position_decomposition(self):
        model = WordBertModel(toy_config(num_layers=0), seed=1)
        out = encode(model, seq_of([7, 7])).data
        pos = model.params["embedding.position"].data
        np.testing.assert_allclose(out[1] - out[0], pos[1] - pos[0], atol=1e-6)

    def test_projected_zero_map_leaves_positions(self):
        cfg = toy_config(num_layers=0, variant="projected", embed_dim=8, freeze_embeddings=True)
        wv = np.random.default_rng(0).standard_normal((40, 8)).astype(np.float32)
        model = WordBertModel(cfg, seed=2, word_vectors=wv, projection=np.zeros((8, 16), np.float32))
        out = encode(model, seq_of([2, 9, 3])).data
        np.testing.assert_array_equal(out, model.params["embedding.position"].data[:3])

    def test_length_error(self):
        model = WordBertModel(toy_config(num_layers=0), seed=3)
        with pytest.raises(ShapeError, match="max_positions"):
            encode(model, seq_of([1] * 25))

    def test_frozen_embeddings_survive_a_training_step(self):
        cfg = toy_config(variant="projected", embed_dim=8, freeze_embeddings=True)
        wv = np.random.default_rng(1).standard_normal((40, 8)).astype(np.float32)
        model = WordBertModel(cfg, seed=4, word_vectors=wv)
        emb_before = model.params["embedding.word"].data.copy()
        w_before = model.params["embedding.projection"].data.copy()

        seq = seq_of([2, 8, 9, 10, 3])
        hidden = encode(model, seq)
        picked = T.gather_rows(hidden, [2])
        logits = model.mlm_logits(picked, np.arange(40))
        loss = T.mean(T.cross_entropy_rows(logits, [9]))
        loss.backward()
        opt = Adam(model.trainable_parameters())
        opt.step(lr=1e-2)

        assert model.params["embedding.word"].grad is None
        np.testing.assert_array_equal(model.params["embedding.word"].data, emb_before)
        assert np.abs(model.params["embedding.projection"].data - w_before).max() > 0
        assert model.params["embedding.projection"].grad is not None


class TestEncoder:
    def test_single_token_shape(self):
        model = WordBertModel(toy_config(), seed=5)
        out = encode(model, seq_of([2]))
        assert out.data.shape == (1, 16)

    def test_padding_does_not_change_real_positions(self):
        model = WordBertModel(toy_config(), seed=6)
        short = seq_of([2, 7, 8, 3])
        for extra in (1, 4, 9):
            longer = seq_of([2, 7, 8, 3] + [0] * extra)
            a = encode(model, short).data
            b = encode(model, longer).data
            assert np.abs(b[:4] - a).max() <= 1e-5

    def test_matches_straight_line_reference(self):
        model = WordBertModel(toy_config(), seed=7)
        seq = seq_of([2, 6, 7, 8, 9, 3, 0, 0])
        got = encode(model, seq).data
        expected = ref_hidden(params64(model), model.config, seq.ids, seq.attention_mask)
        assert np.abs(got - expected).max() <= 1e-4

    def test_deterministic_init(self):
        a = WordBertModel(toy_config(), seed=11)
        b = WordBertModel(toy_config(), seed=11)
        assert a.checksum() == b.checksum()
        c = WordBertModel(toy_config(), seed=12)
        assert a.checksum() != c.checksum()

    def test_batched_forward_matches_reference(self):
        model = WordBertModel(toy_config(), seed=16)
        seqs = [seq_of([2, 6, 7, 3, 0, 0]), seq_of([2, 9, 10, 11, 12, 3])]
        ids = np.stack([s.ids for s in seqs])
        masks = np.stack([s.attention_mask for s in seqs])
        flat = model.encode_batch(ids, masks).data
        t_len = ids.shape[1]
        p = params64(model)
        for b, seq in enumerate(seqs):
            expected = ref_hidden(p, model.config, seq.ids, seq.attention_mask)
            assert np.abs(flat[b * t_len : (b + 1) * t_len] - expected).max() <= 1e-4


class TestDropout:
    """Dropout is on exactly when encode_batch gets a dropout rng."""

    def batch(self):
        ids = np.random.default_rng(12).integers(5, 40, size=(3, 9))
        return ids, np.ones_like(ids)

    def test_rng_switches_dropout_on(self):
        model = WordBertModel(toy_config(dropout=0.1), seed=4)
        ids, mask = self.batch()
        plain = model.encode_batch(ids, mask).data
        dropped = model.encode_batch(ids, mask, rng=np.random.default_rng(5)).data
        assert not np.array_equal(plain, dropped)
        np.testing.assert_array_equal(model.encode_batch(ids, mask).data, plain)

    def test_same_seed_gives_identical_hidden_states(self):
        model = WordBertModel(toy_config(dropout=0.1), seed=4)
        ids, mask = self.batch()
        a = model.encode_batch(ids, mask, rng=np.random.default_rng(6)).data
        b = model.encode_batch(ids, mask, rng=np.random.default_rng(6)).data
        assert a.tobytes() == b.tobytes()

    def test_zero_rate_ignores_the_rng(self):
        model = WordBertModel(toy_config(dropout=0.0), seed=4)
        ids, mask = self.batch()
        plain = model.encode_batch(ids, mask).data
        rng = np.random.default_rng(7)
        with_rng = model.encode_batch(ids, mask, rng=rng).data
        assert with_rng.tobytes() == plain.tobytes()
        # nothing was drawn from the rng
        assert rng.random() == np.random.default_rng(7).random()


class TestMlmLogits:
    def rand_hidden(self, model, rows=3):
        rng = np.random.default_rng(13)
        return Tensor(rng.standard_normal((rows, model.config.hidden)).astype(np.float32))

    def test_full_vocab_restriction_is_identity(self):
        model = WordBertModel(toy_config(), seed=8)
        model.params["mlm.bias"].data[:] = np.random.default_rng(14).standard_normal(40)
        hidden = self.rand_hidden(model)
        full = model.full_vocab_logits(hidden).data
        restricted = model.mlm_logits(hidden, np.arange(40)).data
        np.testing.assert_array_equal(full, restricted)

    def test_zero_hidden_gives_bias(self):
        model = WordBertModel(toy_config(), seed=9)
        model.params["mlm.bias"].data[:] = np.arange(40, dtype=np.float32)
        bv = np.array([0, 1, 2, 3, 4, 11, 30])
        logits = model.mlm_logits(Tensor(np.zeros((2, 16), np.float32)), bv).data
        np.testing.assert_array_equal(logits, np.tile(bv.astype(np.float32), (2, 1)))

    def test_matches_per_word_dot_product_oracle(self):
        model = WordBertModel(toy_config(), seed=10)
        model.params["mlm.bias"].data[:] = np.random.default_rng(15).standard_normal(40)
        hidden = self.rand_hidden(model, rows=4)
        bv = np.array([0, 1, 2, 3, 4, 7, 20, 33])
        got = model.mlm_logits(hidden, bv).data
        emb = model.params["embedding.word"].data.astype(np.float64)
        bias = model.params["mlm.bias"].data.astype(np.float64)
        for m in range(4):
            for j, g in enumerate(bv):
                expected = float(hidden.data[m].astype(np.float64) @ emb[g] + bias[g])
                assert abs(got[m, j] - expected) <= 1e-5

    def test_projected_variant_shares_projection_both_sides(self):
        cfg = toy_config(variant="projected", embed_dim=8, freeze_embeddings=True)
        wv = np.random.default_rng(2).standard_normal((40, 8)).astype(np.float32)
        model = WordBertModel(cfg, seed=11, word_vectors=wv)
        hidden = self.rand_hidden(model, rows=2)
        got = model.mlm_logits(hidden, np.arange(40)).data
        rows = wv.astype(np.float64) @ model.params["embedding.projection"].data.astype(np.float64)
        expected = hidden.data.astype(np.float64) @ rows.T
        np.testing.assert_allclose(got, expected, atol=1e-5)

    def test_empty_batch_vocab_rejected(self):
        model = WordBertModel(toy_config(), seed=12)
        with pytest.raises(ContractError):
            model.mlm_logits(self.rand_hidden(model), np.array([], dtype=np.int64))

    def test_weight_tying_single_storage(self):
        model = WordBertModel(toy_config(num_layers=0), seed=13)
        hidden = self.rand_hidden(model)
        seq = seq_of([2, 17, 3])
        before_logits = model.full_vocab_logits(hidden).data.copy()
        before_embed = encode(model, seq).data.copy()
        model.params["embedding.word"].data[17] += 1.0
        after_logits = model.full_vocab_logits(hidden).data
        after_embed = encode(model, seq).data
        changed = np.abs(after_logits - before_logits).max(axis=0)
        assert changed[17] > 0
        assert np.all(changed[np.arange(40) != 17] == 0)
        assert np.abs(after_embed[1] - before_embed[1]).max() > 0
        np.testing.assert_array_equal(after_embed[0], before_embed[0])


class TestParameterCounts:
    def test_reference_config_matches_published_split(self):
        counts = parameter_counts(ModelConfig(vocab_size=500_005))
        assert abs(counts["transformer"] - 85_000_000) / 85_000_000 <= 0.02
        assert abs(counts["embedding"] - 384_000_000) / 384_000_000 <= 0.02

    @pytest.mark.parametrize("variant", ["direct", "projected", "projected-given-projection"])
    def test_counts_match_allocated_toy_model(self, variant):
        kwargs = {}
        if variant == "direct":
            cfg = toy_config()
        else:
            cfg = toy_config(variant="projected", embed_dim=6, freeze_embeddings=True)
            rng = np.random.default_rng(16)
            kwargs["word_vectors"] = rng.standard_normal((40, 6)).astype(np.float32)
            if variant == "projected-given-projection":
                kwargs["projection"] = rng.standard_normal((6, 16)).astype(np.float32)
        model = WordBertModel(cfg, seed=15, **kwargs)
        counts = parameter_counts(cfg)
        actual_emb = sum(
            t.data.size for name, t in model.params.items()
            if name in ("embedding.word", "embedding.projection")
        )
        actual_transformer = sum(
            t.data.size
            for name, t in model.params.items()
            if name.startswith("encoder.") or name == "embedding.position"
        )
        assert counts["embedding"] == actual_emb
        assert counts["transformer"] == actual_transformer
        assert counts["mlm_head"] == model.params["mlm.bias"].data.size
        assert counts["total"] == sum(t.data.size for t in model.params.values())

    def test_projected_counts_include_projection(self):
        cfg = ModelConfig(
            vocab_size=1_000, embed_dim=300, variant="projected", freeze_embeddings=True
        )
        counts = parameter_counts(cfg)
        assert counts["embedding"] == 1_000 * 300 + 300 * 768
