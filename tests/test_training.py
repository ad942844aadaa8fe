"""Masking, restricted loss, projection pretraining, schedule, train loop."""

import warnings

import numpy as np
import pytest

from wordlm.errors import ContractError
from wordlm.model import ModelConfig, WordBertModel
from wordlm.tensor import Tensor
from wordlm import tensor as T
from wordlm.training import (
    MaskingPolicy,
    TrainConfig,
    apply_masking,
    lr_at,
    mlm_loss,
    prepare_corpus,
    pretrain_projection,
    train,
    write_metrics,
)
from wordlm.vocab import CLS_ID, MASK_ID, SEP_ID, UNK_ID, build_vocabulary, encode, segment_words

from conftest import restricted_loss64
from oracles import projection_mse
from reference_model import params64, per_sequence, ref_mlm_loss

VOCAB_SIZE = 40


def synth_seq(n_words, length=None, rng=None, with_unk=False):
    """One id row: [CLS] + n real word ids + optional [UNK] + [SEP] + padding."""
    rng = rng or np.random.default_rng(0)
    body = list(rng.integers(5, VOCAB_SIZE, size=n_words))
    if with_unk:
        body.insert(min(1, len(body)), UNK_ID)
    ids = [CLS_ID] + body + [SEP_ID]
    length = length or len(ids)
    return np.array(ids + [0] * (length - len(ids)))


def target_positions(masked):
    """(sequence, position) of every target, in target_global_ids order."""
    t_len = masked.input_ids.shape[1]
    return [divmod(int(p), t_len) for p in masked.positions]


def positions_of(masked, b):
    """Positions of sequence b's targets."""
    return np.array([t for s, t in target_positions(masked) if s == b], dtype=np.int64)


def toy_model(seed=0, **kw):
    cfg = dict(
        vocab_size=VOCAB_SIZE, num_layers=2, num_heads=2, hidden=16,
        embed_dim=16, max_positions=24, dropout=0.0,
    )
    cfg.update(kw)
    return WordBertModel(ModelConfig(**cfg), seed=seed)


class TestMaskingPolicy:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ContractError):
            MaskingPolicy(replace_mask=0.5, replace_random=0.1, keep_original=0.1)

    def test_ratio_bounds(self):
        with pytest.raises(ContractError):
            MaskingPolicy(mask_ratio=0.0)
        MaskingPolicy(mask_ratio=1.0)


class TestApplyMasking:
    def test_mask_everything_policy(self):
        policy = MaskingPolicy(1.0, 1.0, 0.0, 0.0)
        rng = np.random.default_rng(1)
        originals = np.stack([synth_seq(6, rng=rng), synth_seq(4, length=8, rng=rng)])
        masked = apply_masking(originals, policy, np.random.default_rng(2), VOCAB_SIZE)
        for b in range(len(originals)):
            real = np.where(originals[b] >= 5)[0]
            np.testing.assert_array_equal(np.sort(positions_of(masked, b)), real)
            assert np.all(masked.input_ids[b][real] == MASK_ID)
        assert masked.num_targets == int((originals >= 5).sum())

    def test_keep_original_leaves_inputs_unchanged(self):
        policy = MaskingPolicy(0.4, 0.0, 0.0, 1.0)
        original = synth_seq(8, rng=np.random.default_rng(3))
        masked = apply_masking(original[None], policy, np.random.default_rng(4), VOCAB_SIZE)
        np.testing.assert_array_equal(masked.input_ids[0], original)
        assert masked.num_targets >= 1
        for (b, p), tgt in zip(target_positions(masked), masked.target_global_ids):
            assert original[p] == tgt

    def test_positions_are_flat_rows(self):
        policy = MaskingPolicy(0.5, 0.0, 0.0, 1.0)
        rng = np.random.default_rng(14)
        batch = np.stack([synth_seq(6, length=10, rng=rng) for _ in range(3)])
        masked = apply_masking(batch, policy, np.random.default_rng(15), VOCAB_SIZE)
        assert np.all(np.diff(masked.positions) > 0)
        np.testing.assert_array_equal(
            masked.input_ids.reshape(-1)[masked.positions], masked.target_global_ids
        )

    def test_specials_never_selected(self):
        rng = np.random.default_rng(5)
        originals = np.stack([synth_seq(6, length=12, rng=rng, with_unk=True) for _ in range(20)])
        masked = apply_masking(
            originals, MaskingPolicy(1.0, 1.0, 0.0, 0.0), np.random.default_rng(6), VOCAB_SIZE
        )
        for b in range(len(originals)):
            assert np.all(originals[b][positions_of(masked, b)] >= 5)
        # structural tokens and [UNK] survive corruption untouched
        special_pos = originals < 5
        np.testing.assert_array_equal(masked.input_ids[special_pos], originals[special_pos])

    def test_minimum_one_target_per_maskable_sequence(self):
        rng = np.random.default_rng(7)
        batch = np.stack([synth_seq(rng.integers(1, 4), length=8, rng=rng) for _ in range(50)])
        masked = apply_masking(
            batch, MaskingPolicy(mask_ratio=0.01), np.random.default_rng(8), VOCAB_SIZE
        )
        for b in range(len(batch)):
            assert positions_of(masked, b).size >= 1

    def test_zero_real_word_sequence_contributes_nothing(self):
        empty = np.array([[CLS_ID, SEP_ID, 0, 0]])
        masked = apply_masking(empty, MaskingPolicy(), np.random.default_rng(9), VOCAB_SIZE)
        assert masked.num_targets == 0
        assert masked.positions.size == 0

    def test_argument_left_unchanged(self):
        rng = np.random.default_rng(16)
        batch = np.stack([synth_seq(6, length=10, rng=rng) for _ in range(4)])
        before = batch.copy()
        masked = apply_masking(
            batch, MaskingPolicy(1.0, 1.0, 0.0, 0.0), np.random.default_rng(17), VOCAB_SIZE
        )
        assert (masked.input_ids == MASK_ID).any()
        assert batch.tobytes() == before.tobytes()

    @pytest.mark.parametrize(
        "batch,message",
        [
            (np.array([CLS_ID, 7, SEP_ID]), r"\[batch, length\] id matrix, got shape \(3,\)"),
            (np.zeros((0, 5), np.int64), "nonempty batch"),
        ],
        ids=["one-dimensional", "empty"],
    )
    def test_refuses_non_matrix_or_empty_input(self, batch, message):
        with pytest.raises(ContractError, match=message):
            apply_masking(batch, MaskingPolicy(), np.random.default_rng(0), VOCAB_SIZE)

    def test_selection_rate_concentrates_at_ratio(self):
        rng = np.random.default_rng(10)
        batch = np.stack([synth_seq(100, rng=rng) for _ in range(10_000)])
        masked = apply_masking(batch, MaskingPolicy(), np.random.default_rng(11), VOCAB_SIZE)
        rate = masked.num_targets / (100 * 10_000)
        assert 0.145 <= rate <= 0.155

    def test_corruption_split_statistics(self):
        rng = np.random.default_rng(12)
        originals = np.stack([synth_seq(100, rng=rng) for _ in range(500)])
        masked = apply_masking(
            originals, MaskingPolicy(1.0, 0.8, 0.1, 0.1), np.random.default_rng(13), VOCAB_SIZE
        )
        n_mask = n_same = 0
        total = masked.num_targets
        for (b, p), tgt in zip(target_positions(masked), masked.target_global_ids):
            got = masked.input_ids[b, p]
            if got == MASK_ID:
                n_mask += 1
            elif got == tgt:
                n_same += 1
        assert abs(n_mask / total - 0.8) < 0.02
        # kept-original includes the rare random draw that lands on the original
        assert abs(n_same / total - 0.1) < 0.02
        assert abs((total - n_mask - n_same) / total - 0.1) < 0.02


class TestMlmLoss:
    def make_batch(self, seed=20):
        rng = np.random.default_rng(seed)
        batch = np.stack([synth_seq(6, length=10, rng=rng) for _ in range(3)])
        return apply_masking(batch, MaskingPolicy(), np.random.default_rng(seed + 1), VOCAB_SIZE)

    def test_full_vocab_restriction_identity(self):
        model = toy_model(seed=21)
        model.params["mlm.bias"].data[:] = np.random.default_rng(19).standard_normal(VOCAB_SIZE)
        masked = self.make_batch()
        extra = np.random.default_rng(18).choice(np.arange(5, VOCAB_SIZE), size=10, replace=False)
        subset = np.unique(np.concatenate([np.arange(5), masked.target_global_ids, extra]))
        for ids in (np.arange(VOCAB_SIZE), subset):
            restricted = mlm_loss(model, masked, ids).item()
            assert abs(restricted - restricted_loss64(model, masked, ids)) <= 1e-6

    def test_uniform_logits_give_log_bv_size(self):
        model = toy_model(seed=22)
        bv = np.arange(VOCAB_SIZE)
        zero_hidden = Tensor(np.zeros((4, 16), np.float32))
        logits = model.mlm_logits(zero_hidden, bv)
        losses = T.cross_entropy_rows(logits, [5, 9, 30, 2])
        np.testing.assert_allclose(losses.data, np.log(float(len(bv))), atol=1e-5)

    def test_matches_explicit_enumeration_oracle(self):
        model = toy_model(seed=23)
        model.params["mlm.bias"].data[:] = (
            np.random.default_rng(24).standard_normal(VOCAB_SIZE) * 0.3
        )
        masked = self.make_batch(seed=25)
        rng = np.random.default_rng(26)
        extra = rng.choice(np.arange(5, VOCAB_SIZE), size=30, replace=False)
        bv = np.unique(np.concatenate([np.arange(5), extra, masked.target_global_ids]))
        got = mlm_loss(model, masked, bv).item()
        expected = ref_mlm_loss(params64(model), model.config, per_sequence(masked, bv), bv)
        assert abs(got - expected) <= 1e-5

    def test_no_targets_is_contract_error(self):
        model = toy_model(seed=27)
        empty = np.array([[CLS_ID, SEP_ID]])
        masked = apply_masking(empty, MaskingPolicy(), np.random.default_rng(28), VOCAB_SIZE)
        with pytest.raises(ContractError):
            mlm_loss(model, masked, np.arange(VOCAB_SIZE))

    def test_loss_non_increasing_as_vocabulary_shrinks(self):
        model = toy_model(seed=29)
        masked = self.make_batch(seed=30)
        big = np.arange(VOCAB_SIZE)
        small = np.unique(np.concatenate([np.arange(5), masked.target_global_ids]))
        assert mlm_loss(model, masked, small).item() <= mlm_loss(model, masked, big).item() + 1e-6


class TestPretrainProjection:
    def test_planted_linear_map_recovered(self):
        rng = np.random.default_rng(31)
        m = (rng.standard_normal((30, 50)) / np.sqrt(30)).astype(np.float32)
        xs = rng.standard_normal((160, 30)).astype(np.float32)
        held_out = rng.standard_normal((50, 30)).astype(np.float32)
        w, losses = pretrain_projection(xs, xs @ m, lr=8.0, epochs=300, rng=rng)
        assert projection_mse(w, held_out, held_out @ m) < 1e-3
        assert losses[-1] < losses[0]

    def test_single_basis_pair_exact_fit(self):
        v_in = np.zeros(30, np.float32)
        v_in[0] = 1.0
        v_out = np.random.default_rng(32).standard_normal(50).astype(np.float32)
        w, losses = pretrain_projection(
            v_in[None], v_out[None], lr=20.0, epochs=200, rng=np.random.default_rng(33)
        )
        assert losses[-1] < 1e-9
        np.testing.assert_allclose(w[0], v_out, atol=1e-4)

    def test_dimension_mismatch_rejected(self):
        for v_in, v_out in [
            (np.zeros((2, 3), np.float32), np.zeros((3, 4), np.float32)),  # pair counts differ
            (np.zeros(3, np.float32), np.zeros(4, np.float32)),  # one pair, not [N, E]
        ]:
            with pytest.raises(ContractError):
                pretrain_projection(v_in, v_out, lr=1.0, epochs=1, rng=np.random.default_rng(0))

    def test_empty_pairs_rejected(self):
        with pytest.raises(ContractError):
            pretrain_projection(
                np.zeros((0, 3), np.float32), np.zeros((0, 4), np.float32),
                lr=1.0, epochs=1, rng=np.random.default_rng(0),
            )

    def test_loss_monotone_under_small_step(self):
        rng = np.random.default_rng(34)
        m = (rng.standard_normal((20, 10)) / np.sqrt(20)).astype(np.float32)
        xs = rng.standard_normal((60, 20)).astype(np.float32)
        _, losses = pretrain_projection(xs, xs @ m, lr=1.0, epochs=120, rng=rng)
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-9)

    @pytest.mark.parametrize(
        "lr,epochs,message",
        [
            (50.0, 100, r"at epoch \d+ with lr 50\.0 \(loss inf, map finite: True\)"),
            # the one update overflows the map; no later loss would show it
            (1e45, 1, r"at epoch 1 with lr 1e\+45 \(loss [0-9.]+, map finite: False\)"),
        ],
        ids=["diverging-loss", "overflowing-last-update"],
    )
    def test_divergence_raises_without_warnings(self, lr, epochs, message):
        rng = np.random.default_rng(12)
        xs = rng.standard_normal((120, 30)).astype(np.float32)
        ys = rng.standard_normal((120, 40)).astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="projection fit diverged " + message):
                pretrain_projection(xs, ys, lr=lr, epochs=epochs, rng=rng)

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")],
                             ids=["zero", "negative", "nan", "inf"])
    def test_rate_that_cannot_fit_rejected(self, lr):
        xs = np.ones((4, 3), np.float32)
        with pytest.raises(ContractError, match=r"lr must be a finite number > 0, got "):
            pretrain_projection(xs, xs, lr=lr, epochs=1, rng=np.random.default_rng(0))

    def test_paper_scale_pair_count(self):
        rng = np.random.default_rng(35)
        xs = rng.standard_normal((22_860, 300)).astype(np.float32)
        ys = rng.standard_normal((22_860, 768)).astype(np.float32)
        assert len(xs) == 22_860
        w, losses = pretrain_projection(xs, ys, lr=1.0, epochs=2, rng=rng)
        assert w.shape == (300, 768)
        assert len(losses) == 2 and np.isfinite(losses).all()


class TestSchedule:
    def test_published_anchor_points(self):
        cfg = TrainConfig()
        assert lr_at(0, cfg) == 0.0
        assert lr_at(5_000, cfg) == pytest.approx(5e-5, abs=0)
        assert lr_at(102_500, cfg) == pytest.approx(2.5e-5, rel=1e-12)

    def test_warmup_midpoint(self):
        cfg = TrainConfig()
        assert lr_at(2_500, cfg) == pytest.approx(2.5e-5, rel=1e-12)

    def test_beyond_total_is_zero(self):
        cfg = TrainConfig()
        assert lr_at(200_000, cfg) == 0.0
        assert lr_at(200_001, cfg) == 0.0

    def test_negative_step_rejected(self):
        with pytest.raises(ContractError):
            lr_at(-1, TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ContractError):
            TrainConfig(warmup_steps=10, total_steps=10)
        with pytest.raises(ContractError):
            TrainConfig(batch_size=0)


def tiny_corpus():
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    rng = np.random.default_rng(40)
    lines = [" ".join(rng.choice(words, size=rng.integers(3, 7))) for _ in range(30)]
    return lines, build_vocabulary({w: 10 for w in words}, k=8)


class TestPrepareCorpus:
    def test_pool_is_the_id_matrix_of_maskable_lines(self):
        lines, vocab = tiny_corpus()
        lines = ["??? !!", *lines[:5], "", "unknownword", *lines[5:9]]
        pool = prepare_corpus(lines, vocab, max_length=6)
        kept = [line for line in lines if set(segment_words(line)) & set(vocab.id_of)]
        assert len(kept) == 9
        assert pool.dtype == np.int64 and pool.shape == (9, 6)
        for row, line in zip(pool, kept):
            np.testing.assert_array_equal(row, encode(segment_words(line), vocab, 6).ids)

    def test_no_maskable_line_rejected(self):
        _, vocab = tiny_corpus()
        with pytest.raises(ContractError, match="corpus contains no maskable sequences"):
            prepare_corpus(["???", "", "unknownword"], vocab, max_length=6)


def tiny_train_config(**kw):
    base = dict(
        peak_lr=1e-3, warmup_steps=2, total_steps=10, batch_size=4,
        seed=5, sample_size=1000, max_length=10,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_same_seed_gives_bit_identical_losses(self):
        lines, vocab = tiny_corpus()
        runs = []
        for _ in range(2):
            model = WordBertModel(
                ModelConfig(vocab_size=vocab.size, num_layers=1, num_heads=2, hidden=8,
                            embed_dim=8, max_positions=10, dropout=0.0),
                seed=7,
            )
            records, _ = train(lines, vocab, model, tiny_train_config())
            runs.append([r.loss for r in records])
        assert runs[0] == runs[1]

    def test_frozen_embedding_checksum_constant_over_run(self):
        lines, vocab = tiny_corpus()
        wv = np.random.default_rng(41).standard_normal((vocab.size, 6)).astype(np.float32)
        model = WordBertModel(
            ModelConfig(vocab_size=vocab.size, num_layers=1, num_heads=2, hidden=8,
                        embed_dim=6, max_positions=10, variant="projected",
                        freeze_embeddings=True, dropout=0.0),
            seed=8,
            word_vectors=wv,
        )
        before = model.params["embedding.word"].data.copy()
        proj_before = model.params["embedding.projection"].data.copy()
        train(lines, vocab, model, tiny_train_config(total_steps=100), num_steps=100)
        np.testing.assert_array_equal(model.params["embedding.word"].data, before)
        assert np.abs(model.params["embedding.projection"].data - proj_before).max() > 0

    def test_non_finite_loss_aborts_with_step(self):
        lines, vocab = tiny_corpus()
        model = WordBertModel(
            ModelConfig(vocab_size=vocab.size, num_layers=1, num_heads=2, hidden=8,
                        embed_dim=8, max_positions=10, dropout=0.0),
            seed=9,
        )
        model.params["mlm.bias"].data[5] = np.nan
        with pytest.raises(RuntimeError, match="step 0"):
            train(lines, vocab, model, tiny_train_config())

    def test_metrics_file_format(self, tmp_path):
        lines, vocab = tiny_corpus()
        model = WordBertModel(
            ModelConfig(vocab_size=vocab.size, num_layers=1, num_heads=2, hidden=8,
                        embed_dim=8, max_positions=10, dropout=0.0),
            seed=10,
        )
        records, _ = train(lines, vocab, model, tiny_train_config(total_steps=5), num_steps=5)
        path = tmp_path / "metrics.tsv"
        write_metrics(records, path)
        rows = path.read_text().splitlines()
        assert len(rows) == 5
        step, lr, loss = rows[0].split("\t")
        assert int(step) == 0 and float(lr) == 0.0 and np.isfinite(float(loss))

    def test_empty_corpus_rejected(self):
        _, vocab = tiny_corpus()
        model = WordBertModel(
            ModelConfig(vocab_size=vocab.size, num_layers=1, num_heads=2, hidden=8,
                        embed_dim=8, max_positions=10, dropout=0.0),
            seed=11,
        )
        with pytest.raises(ContractError):
            train(["???", "!!"], vocab, model, tiny_train_config())
