"""Model tests: embedding, encoder vs reference, tied MLM head, parameter accounting."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from wordlm import tensor as T
from wordlm.errors import ContractError
from wordlm.model import ModelConfig, WordBertModel, parameter_counts
from wordlm.optim import Adam
from wordlm.training import MaskedBatch, mlm_loss
from wordlm.vocab import EncodedSequence, attention_mask

from oracles import central_diff_grad, cosine_distance
from reference_model import params64, per_sequence, ref_dropout_scales, ref_hidden, ref_mlm_loss


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
    return model.encode_batch(seq.ids[None, :], seq.attention_mask[None, :])[0]


def sharpen_attention(model):
    """``model`` with every layer's query and key weights redrawn at std 0.5. At
    the init's std 0.02 the attention rows are within 2e-3 of uniform, and an
    encoder that ignored the scores would match the reference within 1e-4."""
    rng = np.random.default_rng(0)
    for name, t in model.params.items():
        if name.endswith(("attention.query.weight", "attention.key.weight")):
            t.data[...] = rng.standard_normal(t.data.shape) * 0.5
    return model


def assert_attention_far_from_uniform(p, cfg, seq):
    """In the reference's last layer, each real position puts at least 0.1 more
    than a uniform share on its likeliest real key."""
    attention = []
    ref_hidden(p, cfg, seq.ids, seq.attention_mask, attention=attention)
    real = seq.attention_mask.astype(bool)
    last = np.stack(attention[-cfg.num_heads:])[:, real][:, :, real]
    assert (last.max(axis=-1) >= 1.0 / real.sum() + 0.1).all()


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

    def test_layer_norm_eps_is_a_constant(self):
        """The epsilon is the model's constant: no field, so no argument."""
        assert "layer_norm_eps" not in {f.name for f in fields(ModelConfig)}
        assert toy_config().layer_norm_eps == ModelConfig.layer_norm_eps == 1e-5
        with pytest.raises(TypeError, match="layer_norm_eps"):
            toy_config(layer_norm_eps=1e-6)

    def test_direct_refuses_frozen_embeddings(self):
        """The direct variant trains its table, so a frozen one is no variant."""
        with pytest.raises(ContractError, match="variant 'direct' requires freeze_embeddings=false"):
            ModelConfig(vocab_size=40, variant="direct", freeze_embeddings=True)

    def test_reference_defaults_valid(self):
        ModelConfig(vocab_size=500_005)


class TestEmbed:
    """With zero layers, encode_batch returns the word + position embedding sum."""

    def test_position_decomposition(self):
        model = WordBertModel(toy_config(num_layers=0), seed=1)
        out = encode(model, seq_of([7, 7]))
        pos = model.params["embedding.position"].data
        np.testing.assert_allclose(out[1] - out[0], pos[1] - pos[0], atol=1e-6)

    def test_projected_zero_map_leaves_positions(self):
        cfg = toy_config(num_layers=0, variant="projected", embed_dim=8, freeze_embeddings=True)
        wv = np.random.default_rng(0).standard_normal((40, 8)).astype(np.float32)
        model = WordBertModel(cfg, seed=2, word_vectors=wv, projection=np.zeros((8, 16), np.float32))
        out = encode(model, seq_of([2, 9, 3]))
        np.testing.assert_array_equal(out, model.params["embedding.position"].data[:3])

    def test_dropout_scales_kept_values(self):
        model = WordBertModel(toy_config(num_layers=0, dropout=0.25), seed=3)
        ids = np.random.default_rng(8).integers(5, 40, size=(16, 24))
        plain = model.encode_batch(ids, np.ones_like(ids))[0]
        dropped = model.encode_batch(ids, np.ones_like(ids), rng=np.random.default_rng(9))[0]
        kept = dropped != 0
        np.testing.assert_allclose(dropped[kept], plain[kept] / 0.75, rtol=1e-6)
        assert abs(kept.mean() - 0.75) < 0.02

    def test_length_error(self):
        model = WordBertModel(toy_config(num_layers=0), seed=3)
        with pytest.raises(ContractError, match="max_positions"):
            encode(model, seq_of([1] * 25))

    @pytest.mark.parametrize(
        "ids,mask,message",
        [(np.array([2, 9, 3]), np.ones(3), r"input_ids must be \[batch, length\], got \(3,\)"),
         (np.array([[2, 9, 3]]), np.ones((1, 2)),
          r"attention mask shape \(1, 2\) does not match \(1, 3\)")],
        ids=["ids-1d", "mask-shape"],
    )
    def test_encode_batch_refuses_misshapen_input(self, ids, mask, message):
        model = WordBertModel(toy_config(num_layers=0), seed=3)
        with pytest.raises(ContractError, match=message):
            model.encode_batch(ids, mask)

    @pytest.mark.parametrize(
        "arrays,message",
        [({}, "projected variant requires pretrained word_vectors"),
         ({"word_vectors": np.ones((39, 8))},
          r"word_vectors shape \(39, 8\) does not match \(40, 8\)"),
         ({"word_vectors": np.ones((40, 8)), "projection": np.ones((8, 15))},
          r"projection shape \(8, 15\) does not match \(8, 16\)")],
        ids=["no-vectors", "vectors-shape", "projection-shape"],
    )
    def test_projected_variant_refuses_missing_or_misshapen_arrays(self, arrays, message):
        cfg = toy_config(variant="projected", embed_dim=8, freeze_embeddings=True)
        with pytest.raises(ContractError, match=message):
            WordBertModel(cfg, seed=3, **arrays)

    @pytest.mark.parametrize("arg", ["word_vectors", "projection"])
    def test_direct_variant_refuses_given_arrays(self, arg):
        shape = (40, 16) if arg == "word_vectors" else (16, 16)
        with pytest.raises(ContractError, match=arg):
            WordBertModel(toy_config(), seed=3, **{arg: np.full(shape, 7, np.float32)})

    def test_frozen_embeddings_survive_a_training_step(self):
        cfg = toy_config(variant="projected", embed_dim=8, freeze_embeddings=True)
        wv = np.random.default_rng(1).standard_normal((40, 8)).astype(np.float32)
        model = WordBertModel(cfg, seed=4, word_vectors=wv)
        emb_before = model.params["embedding.word"].data.copy()
        w_before = model.params["embedding.projection"].data.copy()

        masked = MaskedBatch([[2, 8, 9, 10, 3]], positions=[2], target_global_ids=[9])
        mlm_loss(model, masked, np.arange(40), rng=np.random.default_rng(0)).backward()
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
            a = encode(model, short)
            b = encode(model, longer)
            assert np.abs(b[:4] - a).max() <= 1e-5

    def test_matches_straight_line_reference(self):
        model = sharpen_attention(WordBertModel(toy_config(), seed=7))
        seq = seq_of([2, 6, 7, 8, 9, 3, 0, 0])
        got = encode(model, seq)
        p = params64(model)
        assert_attention_far_from_uniform(p, model.config, seq)
        expected = ref_hidden(p, model.config, seq.ids, seq.attention_mask)
        assert np.abs(got - expected).max() <= 1e-4

    def test_deterministic_init(self):
        a = WordBertModel(toy_config(), seed=11)
        b = WordBertModel(toy_config(), seed=11)
        assert a.checksum() == b.checksum()
        c = WordBertModel(toy_config(), seed=12)
        assert a.checksum() != c.checksum()

    def test_batched_forward_matches_reference(self):
        model = sharpen_attention(WordBertModel(toy_config(), seed=16))
        seqs = [seq_of([2, 6, 7, 3, 0, 0]), seq_of([2, 9, 10, 11, 12, 3])]
        ids = np.stack([s.ids for s in seqs])
        masks = np.stack([s.attention_mask for s in seqs])
        flat = model.encode_batch(ids, masks)[0]
        t_len = ids.shape[1]
        p = params64(model)
        for b, seq in enumerate(seqs):
            assert_attention_far_from_uniform(p, model.config, seq)
            expected = ref_hidden(p, model.config, seq.ids, seq.attention_mask)
            assert np.abs(flat[b * t_len : (b + 1) * t_len] - expected).max() <= 1e-4

    def test_no_grad_forward_holds_one_layer_at_a_time(self):
        """In an inference call (no dropout rng), a layer's saved activations go
        as soon as the layer returns, so the forward's peak does not grow with depth."""
        ids = np.random.default_rng(25).integers(5, 40, size=(2, 24))

        def peak(layers):
            model = WordBertModel(toy_config(num_layers=layers, hidden=32, embed_dim=32), seed=26)
            tracemalloc.start()
            model.encode_batch(ids, np.ones_like(ids))
            _, top = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return top

        assert peak(8) < 1.2 * peak(1)


def assert_matches_finite_differences(name, analytic, fd):
    """Criterion 01's per-component and cosine checks of one parameter's gradient."""
    analytic = analytic.astype(np.float64)
    gap = np.abs(analytic - fd)
    floor = 1e-3 * max(np.abs(fd).max(), 1e-8)
    tol = 1e-2 * np.maximum(np.abs(analytic), np.abs(fd)) + floor
    assert np.all(gap <= tol), f"{name}: per-component gradient mismatch"
    if np.linalg.norm(fd) > 0:
        assert cosine_distance(analytic, fd) <= 1e-3, name


class TestEncoderBackward:
    """The written-out backwards against central finite differences of the
    float64 reference: the encoder's with dropout on, given the same dropout
    scales, and the projected variant's whole loss (criterion 01 checks the
    direct model's loss with dropout off)."""

    def test_matches_reference_finite_differences_with_dropout(self):
        model = WordBertModel(toy_config(vocab_size=12, hidden=8, embed_dim=8, max_positions=6,
                                         dropout=0.3), seed=21)
        cfg = model.config
        ids = np.array([[2, 6, 7, 3, 0], [2, 8, 9, 10, 3]])
        mask = attention_mask(ids)
        r = np.random.default_rng(23).standard_normal((8, 3)).astype(np.float32)
        out, backward = model.encode_batch(ids, mask, rng=np.random.default_rng(22))
        # the gradient of mean(out @ r)
        backward(np.tile(r.sum(axis=1), (len(out), 1)) * np.float32(1.0 / (len(out) * r.shape[1])))
        drops = ref_dropout_scales(np.random.default_rng(22), 0.3, cfg, *ids.shape)
        p64 = params64(model)

        def hidden(p):
            return np.concatenate([ref_hidden(p, cfg, ids[b], mask[b], drops[b]) for b in range(2)])

        assert np.abs(out - hidden(p64)).max() <= 1e-4
        for name, tensor_ in model.params.items():
            if name == "mlm.bias":  # not an encoder input
                continue
            fd = central_diff_grad(lambda v: float((hidden({**p64, name: v}) @ r).mean()),
                                   p64[name])
            assert_matches_finite_differences(name, tensor_.grad, fd)

    def test_projected_loss_matches_reference_finite_differences(self):
        """The projection takes gradient from the input side and the tied head;
        the frozen word table takes none."""
        cfg = toy_config(vocab_size=14, num_layers=1, hidden=8, embed_dim=5, max_positions=6,
                         variant="projected", freeze_embeddings=True)
        wv = np.random.default_rng(30).standard_normal((14, 5)).astype(np.float32)
        model = WordBertModel(cfg, seed=31, word_vectors=wv)
        model.params["mlm.bias"].data[:] = np.random.default_rng(32).standard_normal(14) * 0.3
        masked = MaskedBatch([[2, 4, 6, 7, 3, 0], [2, 8, 9, 10, 11, 3]], positions=[2, 3, 8, 10],
                             target_global_ids=[12, 7, 13, 11])
        bv = np.array([0, 1, 2, 3, 4, 6, 7, 9, 11, 12, 13])
        mlm_loss(model, masked, bv, rng=np.random.default_rng(0)).backward()  # dropout 0
        assert model.params["embedding.word"].grad is None
        p64 = params64(model)
        batch64 = per_sequence(masked, bv)
        for name, tensor_ in model.trainable_parameters().items():
            fd = central_diff_grad(
                lambda v: ref_mlm_loss({**p64, name: v}, cfg, batch64, bv), p64[name]
            )
            assert_matches_finite_differences(name, tensor_.grad, fd)


class TestDropout:
    """Dropout is on exactly when encode_batch gets a dropout rng."""

    def batch(self):
        ids = np.random.default_rng(12).integers(5, 40, size=(3, 9))
        return ids, np.ones_like(ids)

    def test_rng_switches_dropout_on(self):
        model = WordBertModel(toy_config(dropout=0.1), seed=4)
        ids, mask = self.batch()
        plain = model.encode_batch(ids, mask)[0]
        dropped = model.encode_batch(ids, mask, rng=np.random.default_rng(5))[0]
        assert not np.array_equal(plain, dropped)
        np.testing.assert_array_equal(model.encode_batch(ids, mask)[0], plain)

    def test_same_seed_gives_identical_hidden_states(self):
        model = WordBertModel(toy_config(dropout=0.1), seed=4)
        ids, mask = self.batch()
        a = model.encode_batch(ids, mask, rng=np.random.default_rng(6))[0]
        b = model.encode_batch(ids, mask, rng=np.random.default_rng(6))[0]
        assert a.tobytes() == b.tobytes()

    def test_zero_rate_ignores_the_rng(self):
        model = WordBertModel(toy_config(dropout=0.0), seed=4)
        ids, mask = self.batch()
        plain = model.encode_batch(ids, mask)[0]
        rng = np.random.default_rng(7)
        with_rng = model.encode_batch(ids, mask, rng=rng)[0]
        assert with_rng.tobytes() == plain.tobytes()
        # nothing was drawn from the rng
        assert rng.random() == np.random.default_rng(7).random()


class TestMlmLogits:
    def rand_hidden(self, model, rows=3):
        rng = np.random.default_rng(13)
        return rng.standard_normal((rows, model.config.hidden)).astype(np.float32)

    def test_full_vocab_restriction_is_identity(self):
        model = WordBertModel(toy_config(), seed=8)
        model.params["mlm.bias"].data[:] = np.random.default_rng(14).standard_normal(40)
        hidden = self.rand_hidden(model)
        full = model.full_vocab_logits(hidden, model.output_table())
        restricted = model.mlm_logits(hidden, np.arange(40))[0]
        np.testing.assert_array_equal(full, restricted)

    @pytest.mark.parametrize("variant", ["direct", "projected"])
    def test_full_vocab_logits_match_the_one_shot_copy(self, variant):
        """Logits against ``output_table()`` are the bytes of a product with a
        one-shot transposed copy of the projected word table, for one masked
        row (a cloze blank) and for several."""
        embed_dim = 12 if variant == "projected" else 32
        cfg = toy_config(vocab_size=600, num_layers=0, hidden=32, embed_dim=embed_dim,
                         variant=variant, freeze_embeddings=variant == "projected")
        vectors = np.random.default_rng(16).standard_normal((600, embed_dim)).astype(np.float32)
        model = WordBertModel(cfg, seed=14,
                              word_vectors=vectors if variant == "projected" else None)
        bias = model.params["mlm.bias"].data
        bias[:] = np.random.default_rng(17).standard_normal(600)
        rows = model._project(model.params["embedding.word"].data)
        table = model.output_table()
        for m in (1, 9):
            hidden = self.rand_hidden(model, rows=m)
            old = T.matmul(hidden, np.ascontiguousarray(rows.T)) + bias
            assert np.array_equal(model.full_vocab_logits(hidden, table), old)

    def test_zero_hidden_gives_bias(self):
        model = WordBertModel(toy_config(), seed=9)
        model.params["mlm.bias"].data[:] = np.arange(40, dtype=np.float32)
        bv = np.array([0, 1, 2, 3, 4, 11, 30])
        logits = model.mlm_logits(np.zeros((2, 16), np.float32), bv)[0]
        np.testing.assert_array_equal(logits, np.tile(bv.astype(np.float32), (2, 1)))

    def test_matches_per_word_dot_product_oracle(self):
        model = WordBertModel(toy_config(), seed=10)
        model.params["mlm.bias"].data[:] = np.random.default_rng(15).standard_normal(40)
        hidden = self.rand_hidden(model, rows=4)
        bv = np.array([0, 1, 2, 3, 4, 7, 20, 33])
        got = model.mlm_logits(hidden, bv)[0]
        emb = model.params["embedding.word"].data.astype(np.float64)
        bias = model.params["mlm.bias"].data.astype(np.float64)
        for m in range(4):
            for j, g in enumerate(bv):
                expected = float(hidden[m].astype(np.float64) @ emb[g] + bias[g])
                assert abs(got[m, j] - expected) <= 1e-5

    def test_projected_variant_shares_projection_both_sides(self):
        cfg = toy_config(variant="projected", embed_dim=8, freeze_embeddings=True)
        wv = np.random.default_rng(2).standard_normal((40, 8)).astype(np.float32)
        model = WordBertModel(cfg, seed=11, word_vectors=wv)
        hidden = self.rand_hidden(model, rows=2)
        got = model.mlm_logits(hidden, np.arange(40))[0]
        rows = wv.astype(np.float64) @ model.params["embedding.projection"].data.astype(np.float64)
        expected = hidden.astype(np.float64) @ rows.T
        np.testing.assert_allclose(got, expected, atol=1e-5)

    def test_empty_batch_vocab_rejected(self):
        model = WordBertModel(toy_config(), seed=12)
        with pytest.raises(ContractError):
            model.mlm_logits(self.rand_hidden(model), np.array([], dtype=np.int64))

    def test_ids_outside_vocabulary_rejected(self):
        """numpy would wrap a negative id to the end of the table."""
        model = WordBertModel(toy_config(), seed=12)
        for bad in (-1, 40):
            with pytest.raises(IndexError, match=r"\[0, 40\)"):
                model.mlm_logits(self.rand_hidden(model), np.array([0, 5, bad]))

    def test_weight_tying_single_storage(self):
        model = WordBertModel(toy_config(num_layers=0), seed=13)
        hidden = self.rand_hidden(model)
        seq = seq_of([2, 17, 3])
        before_logits = model.full_vocab_logits(hidden, model.output_table()).copy()
        before_embed = encode(model, seq).copy()
        model.params["embedding.word"].data[17] += 1.0
        after_logits = model.full_vocab_logits(hidden, model.output_table())
        after_embed = encode(model, seq)
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
