"""Straight-line float64 reference for the encoder and the restricted MLM loss.

Implements the same architecture as the package model but independently:
per-head slicing instead of batched transposes, float64 throughout, with the
erf GELU and the softmax of ``oracles``. Used both as a value oracle and as
the function finite differences are taken through, with dropout off or with
the dropout scales the package's encoder draws from a given rng.
"""

import numpy as np

from oracles import gelu64, softmax64
from wordlm.vocab import attention_mask


def params64(model):
    return {k: t.data.astype(np.float64) for k, t in model.parameters().items()}


def _ln(x, gamma, beta, eps):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def ref_dropout_scales(rng, rate, cfg, b_sz, t_len):
    """Per sequence, the inverted-dropout scales (0 or 1/(1-rate)) that
    ``encode_batch`` draws from ``rng`` for a [b_sz, t_len] batch, in its
    documented order: the embedding sum, then per layer the attention
    probabilities, the attention output and the feed-forward output."""

    def draw(shape):
        return (rng.random(shape) >= rate) / (1.0 - rate)

    hidden = (b_sz, t_len, cfg.hidden)
    embed = draw((b_sz * t_len, cfg.hidden)).reshape(hidden)
    layers = [
        (draw((b_sz, cfg.num_heads, t_len, t_len)),
         draw((b_sz * t_len, cfg.hidden)).reshape(hidden),
         draw((b_sz * t_len, cfg.hidden)).reshape(hidden))
        for _ in range(cfg.num_layers)
    ]
    return [(embed[b], [tuple(s[b] for s in layer) for layer in layers]) for b in range(b_sz)]


def ref_hidden(p, cfg, ids, mask, drop=None, attention=None):
    """Encoder forward for one sequence; p maps names to float64 arrays, and
    ``drop`` is one sequence's entry of ``ref_dropout_scales`` (None: no dropout).
    A list given as ``attention`` gets each head's [T, T] attention
    probabilities (before dropout), layer by layer."""
    ids = np.asarray(ids)
    t_len = ids.shape[0]
    x = p["embedding.word"][ids]
    if cfg.variant == "projected":
        x = x @ p["embedding.projection"]
    x = x + p["embedding.position"][:t_len]
    if drop is not None:
        x = x * drop[0]
    bias = (np.asarray(mask, dtype=np.float64) - 1.0) * 1e9
    n_heads = cfg.num_heads
    d = cfg.hidden // n_heads
    for i in range(cfg.num_layers):
        pre = f"encoder.{i}."
        q = x @ p[pre + "attention.query.weight"] + p[pre + "attention.query.bias"]
        k = x @ p[pre + "attention.key.weight"] + p[pre + "attention.key.bias"]
        v = x @ p[pre + "attention.value.weight"] + p[pre + "attention.value.bias"]
        ctx = np.zeros_like(x)
        for h in range(n_heads):
            sl = slice(h * d, (h + 1) * d)
            scores = q[:, sl] @ k[:, sl].T / np.sqrt(d) + bias[None, :]
            probs = softmax64(scores)
            if attention is not None:
                attention.append(probs)
            if drop is not None:
                probs = probs * drop[1][i][0][h]
            ctx[:, sl] = probs @ v[:, sl]
        attn_out = ctx @ p[pre + "attention.output.weight"] + p[pre + "attention.output.bias"]
        if drop is not None:
            attn_out = attn_out * drop[1][i][1]
        x = _ln(
            x + attn_out,
            p[pre + "attention.norm.gamma"],
            p[pre + "attention.norm.beta"],
            cfg.layer_norm_eps,
        )
        inner = gelu64(x @ p[pre + "ffn.inner.weight"] + p[pre + "ffn.inner.bias"])
        ffn_out = inner @ p[pre + "ffn.output.weight"] + p[pre + "ffn.output.bias"]
        if drop is not None:
            ffn_out = ffn_out * drop[1][i][2]
        x = _ln(
            x + ffn_out,
            p[pre + "ffn.norm.gamma"],
            p[pre + "ffn.norm.beta"],
            cfg.layer_norm_eps,
        )
    return x


def ref_mlm_loss(p, cfg, batch, bv_ids):
    """Mean cross-entropy over all masked positions of a batch.

    batch: list of (ids, mask, positions, local_targets); bv_ids: sorted
    global ids of the restricted output vocabulary.
    """
    bv_ids = np.asarray(bv_ids)
    rows = p["embedding.word"][bv_ids]
    if cfg.variant == "projected":
        rows = rows @ p["embedding.projection"]
    bias = p["mlm.bias"][bv_ids]
    losses = []
    for ids, mask, positions, local_targets in batch:
        hidden = ref_hidden(p, cfg, ids, mask)
        for pos, tgt in zip(positions, local_targets):
            logits = hidden[pos] @ rows.T + bias
            m = logits.max()
            lse = m + np.log(np.exp(logits - m).sum())
            losses.append(lse - logits[tgt])
    return float(np.mean(losses))


def per_sequence(masked, bv_ids):
    """ref_mlm_loss's batch list for a masked batch: flat row b*T + t is (b, t)."""
    seq, pos = np.divmod(masked.positions, masked.input_ids.shape[1])
    local = np.searchsorted(bv_ids, masked.target_global_ids)
    masks = attention_mask(masked.input_ids)
    return [
        (masked.input_ids[b], masks[b], pos[seq == b], local[seq == b])
        for b in range(masked.input_ids.shape[0])
    ]
