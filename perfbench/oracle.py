"""Float64 reference scoring for the probe and cloze checks.

The encoder forward is written here again, per head and in float64, from the
model's parameter arrays; it shares no code with ``wordlm.model``. Float32
and float64 logits differ by far less than ``TOL``, so an outcome is decisive
unless a competing logit lies within ``TOL`` of the one that decides it; such
outcomes are accepted either way and counted as ambiguous.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from wordlm.vocab import MASK_ID, encode

TOL = 2e-3
BUCKETS = ("High", "Medium", "Low", "Rare")


def _layer_norm(x, gamma, beta, eps):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


class Reference:
    def __init__(self, model):
        self.cfg = model.config
        self.p = {k: t.data.astype(np.float64) for k, t in model.parameters().items()}
        emb = self.p["embedding.word"]
        self.out_rows = emb @ self.p["embedding.projection"] if self.cfg.variant == "projected" else emb

    def hidden(self, ids, mask):
        """[T, H] final hidden states of one sequence, no dropout."""
        cfg, p = self.cfg, self.p
        x = self.p["embedding.word"][ids]
        if cfg.variant == "projected":
            x = x @ p["embedding.projection"]
        x = x + p["embedding.position"][: len(ids)]
        key_bias = (np.asarray(mask, dtype=np.float64) - 1.0) * 1e9
        d = cfg.hidden // cfg.num_heads
        for i in range(cfg.num_layers):
            pre = f"encoder.{i}."
            q, k, v = (x @ p[pre + f"attention.{n}.weight"] + p[pre + f"attention.{n}.bias"]
                       for n in ("query", "key", "value"))
            ctx = np.empty_like(x)
            for h in range(cfg.num_heads):
                cols = slice(h * d, (h + 1) * d)
                s = q[:, cols] @ k[:, cols].T / np.sqrt(d) + key_bias
                e = np.exp(s - s.max(axis=1, keepdims=True))
                ctx[:, cols] = (e / e.sum(axis=1, keepdims=True)) @ v[:, cols]
            att = ctx @ p[pre + "attention.output.weight"] + p[pre + "attention.output.bias"]
            x = _layer_norm(x + att, p[pre + "attention.norm.gamma"], p[pre + "attention.norm.beta"],
                            cfg.layer_norm_eps)
            a = x @ p[pre + "ffn.inner.weight"] + p[pre + "ffn.inner.bias"]
            a = a * 0.5 * (1.0 + erf(a / np.sqrt(2.0)))
            f = a @ p[pre + "ffn.output.weight"] + p[pre + "ffn.output.bias"]
            x = _layer_norm(x + f, p[pre + "ffn.norm.gamma"], p[pre + "ffn.norm.beta"],
                            cfg.layer_norm_eps)
        return x

    def logits(self, ids, mask, positions):
        return self.hidden(ids, mask)[positions] @ self.out_rows.T + self.p["mlm.bias"]


def probe_oracle(ref, vocab, probes, ks, max_length):
    """Per bucket: scored total, OOV count and, per k, the [lo, hi] range of hits."""
    out = {b: {"total": 0, "oov": 0, "hits": {k: [0, 0] for k in ks}} for b in BUCKETS}
    ambiguous = 0
    for ex in probes:
        seq = encode(ex.words, vocab, max_length)
        ids = seq.ids.copy()
        scored = [(p + 1, g) for p, g in zip(ex.masked_positions, ex.gold_words) if p + 1 < max_length - 1]
        if not scored:
            continue
        for pos, _ in scored:
            ids[pos] = MASK_ID
        rows = ref.logits(ids, seq.attention_mask, [pos for pos, _ in scored])
        for row, (_, gold) in zip(rows, scored):
            b = out[ex.bucket]
            b["total"] += 1
            gid = vocab.id_of.get(gold)
            if gid is None:
                b["oov"] += 1
                continue
            g = row[gid]
            rank_lo = int(np.count_nonzero(row > g + TOL))
            rank_hi = int(np.count_nonzero(row >= g - TOL)) - 1
            for k in ks:
                b["hits"][k][0] += rank_hi < k
                b["hits"][k][1] += rank_lo < k
                ambiguous += rank_lo < k <= rank_hi
    return out, ambiguous


def probe_disagreements(report, oracle, ks):
    """Scored positions on which the program's report must disagree with the oracle."""
    bad = 0
    for b in BUCKETS:
        o = oracle[b]
        total = report["total"][b]
        bad += abs(total - o["total"]) + abs(report["oov"][b] - o["oov"])
        worst = 0
        for k in ks:
            hits = round(report["accuracy"][b][k] * total)
            lo, hi = o["hits"][k]
            worst = max(worst, lo - hits, hits - hi)
        bad += worst
    return bad


def cloze_oracle(ref, vocab, items, max_length):
    """[lo, hi] range of correctly answered items, and the ambiguous count."""
    lo = hi = ambiguous = 0
    for words, options, answer in items:
        blank = words.index("[BLANK]")
        seq = encode(words, vocab, max_length)
        ids = seq.ids.copy()
        ids[blank + 1] = MASK_ID
        row = ref.logits(ids, seq.attention_mask, [blank + 1])[0]
        scores = np.array([row[vocab.id_of[o]] if o in vocab.id_of else -np.inf for o in options])
        best = int(np.argmax(scores))
        close = [i for i in range(4) if scores[i] >= scores[best] - TOL]
        lo += close == [answer]
        hi += answer in close
        ambiguous += len(close) > 1
    return lo, hi, ambiguous
