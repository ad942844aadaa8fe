"""Shared fixtures: deterministic toy corpora and session-scoped trained models."""

import time

import numpy as np
import pytest

from wordlm import tensor as T
from wordlm.model import ModelConfig, WordBertModel
from wordlm.training import TrainConfig, train
from wordlm.vocab import MASK_ID, NUM_SPECIALS, build_vocabulary, encode, segment_words


def masked_top1_accuracy(model, vocab, lines, max_length):
    """Mask each real position one at a time; full-vocabulary argmax accuracy."""
    hits = total = 0
    with T.no_grad():
        for line in lines:
            words = segment_words(line, vocab.lowercase)
            seq = encode(words, vocab, max_length)
            real = np.where(seq.ids >= NUM_SPECIALS)[0]
            if real.size == 0:
                continue
            copies = np.tile(seq.ids, (real.size, 1))
            for r, pos in enumerate(real):
                copies[r, pos] = MASK_ID
            masks = np.tile(seq.attention_mask, (real.size, 1))
            flat = model.encode_batch(copies, masks)
            rows = T.gather_rows(flat, [r * len(seq.ids) + p for r, p in enumerate(real)])
            logits = model.full_vocab_logits(rows).data
            hits += int((logits.argmax(axis=1) == seq.ids[real]).sum())
            total += real.size
    return hits / total


def restricted_loss64(model, masked, ids):
    """Mean masked-word loss, softmax renormalised over the columns ids of the
    full-vocabulary logits at the masked rows, in float64 numpy (not mlm_loss's head)."""
    with T.no_grad():
        flat = model.encode_batch(masked.input_ids, masked.attention_masks())
        logits = model.full_vocab_logits(T.gather_rows(flat, masked.positions)).data
    logits = logits.astype(np.float64)
    kept = logits[:, np.asarray(ids)]
    top = kept.max(axis=1)
    lse = top + np.log(np.exp(kept - top[:, None]).sum(axis=1))
    gold = logits[np.arange(len(logits)), masked.target_global_ids]
    return float(np.mean(lse - gold))


@pytest.fixture(scope="session")
def overfit_bundle():
    """2-layer H=64 model memorizing a 100-sentence synthetic corpus."""
    words = [f"w{i:02d}" for i in range(80)]
    rng = np.random.default_rng(1)
    lines = [" ".join(rng.choice(words, size=10)) for _ in range(100)]
    vocab = build_vocabulary({w: 5 for w in words}, k=80)
    model = WordBertModel(
        ModelConfig(vocab_size=vocab.size, num_layers=2, num_heads=4, hidden=64,
                    embed_dim=64, max_positions=16, dropout=0.0),
        seed=2,
    )
    cfg = TrainConfig(peak_lr=3e-3, warmup_steps=100, total_steps=2000, batch_size=16,
                      seed=3, sample_size=1000, max_length=12)
    start = time.monotonic()
    records, _ = train(lines, vocab, model, cfg)
    elapsed = time.monotonic() - start
    return {
        "model": model,
        "vocab": vocab,
        "lines": lines,
        "records": records,
        "train_seconds": elapsed,
        "max_length": cfg.max_length,
    }


@pytest.fixture(scope="session")
def copy_task_bundle():
    """Model trained on sentences whose last word copies the first word."""
    words = [f"c{i:02d}" for i in range(50)]
    rng = np.random.default_rng(11)

    def copy_sentence():
        c = words[rng.integers(0, len(words))]
        mids = [words[i] for i in rng.integers(0, len(words), size=3)]
        return " ".join([c] + mids + [c])

    train_lines = [copy_sentence() for _ in range(300)]
    held_out = [copy_sentence() for _ in range(100)]
    vocab = build_vocabulary({w: 5 for w in words}, k=50)
    model = WordBertModel(
        ModelConfig(vocab_size=vocab.size, num_layers=2, num_heads=4, hidden=48,
                    embed_dim=48, max_positions=8, dropout=0.0),
        seed=12,
    )
    cfg = TrainConfig(peak_lr=3e-3, warmup_steps=50, total_steps=1200, batch_size=16,
                      seed=13, sample_size=1000, max_length=7)
    train(train_lines, vocab, model, cfg)
    return {
        "model": model,
        "vocab": vocab,
        "train_lines": train_lines,
        "held_out": held_out,
        "words": words,
        "max_length": cfg.max_length,
    }
