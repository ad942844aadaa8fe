"""Word-level transformer encoder with a tied MLM head.

The MLM output weights are the input embedding rows themselves (direct
variant) or their projection through the shared 300->H linear map (projected
variant); there is no separate output matrix, only a per-word bias.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .seeding import substream
from .tensor import Tensor

VARIANTS = ("direct", "projected")


@dataclass
class ModelConfig:
    vocab_size: int
    num_layers: int = 12
    num_heads: int = 12
    hidden: int = 768
    embed_dim: int = 768
    max_positions: int = 512
    variant: str = "direct"
    freeze_embeddings: bool = False
    dropout: float = 0.1
    layer_norm_eps: float = 1e-5

    @property
    def ffn_dim(self) -> int:
        return 4 * self.hidden

    @property
    def head_dim(self) -> int:
        return self.hidden // self.num_heads

    def __post_init__(self):
        problems = []
        if self.vocab_size < 5:
            problems.append(f"vocab_size {self.vocab_size} must cover the specials")
        if self.num_heads < 1:
            problems.append(f"num_heads {self.num_heads} must be positive")
        elif self.hidden % self.num_heads != 0:
            problems.append(f"hidden {self.hidden} not divisible by num_heads {self.num_heads}")
        if self.variant not in VARIANTS:
            problems.append(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.variant == "direct" and self.embed_dim != self.hidden:
            problems.append(
                f"variant 'direct' requires embed_dim == hidden ({self.embed_dim} != {self.hidden})"
            )
        if self.variant == "projected" and not self.freeze_embeddings:
            problems.append("variant 'projected' requires freeze_embeddings=true")
        if not 0.0 <= self.dropout < 1.0:
            problems.append(f"dropout {self.dropout} outside [0, 1)")
        if problems:
            raise ContractError("; ".join(problems))


def truncated_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Normal(0, std) resampled until every draw lies within 2 std."""
    x = rng.standard_normal(shape)
    bad = np.abs(x) > 2.0
    while bad.any():
        x[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(x) > 2.0
    return (x * std).astype(np.float32)


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in initialization order."""
    h, f = config.hidden, config.ffn_dim
    shapes = {"embedding.word": (config.vocab_size, config.embed_dim)}
    if config.variant == "projected":
        shapes["embedding.projection"] = (config.embed_dim, h)
    shapes["embedding.position"] = (config.max_positions, h)
    for i in range(config.num_layers):
        pre = f"encoder.{i}."
        for name in ("attention.query", "attention.key", "attention.value", "attention.output"):
            shapes[pre + name + ".weight"] = (h, h)
            shapes[pre + name + ".bias"] = (h,)
        shapes[pre + "attention.norm.gamma"] = (h,)
        shapes[pre + "attention.norm.beta"] = (h,)
        shapes[pre + "ffn.inner.weight"] = (h, f)
        shapes[pre + "ffn.inner.bias"] = (f,)
        shapes[pre + "ffn.output.weight"] = (f, h)
        shapes[pre + "ffn.output.bias"] = (h,)
        shapes[pre + "ffn.norm.gamma"] = (h,)
        shapes[pre + "ffn.norm.beta"] = (h,)
    shapes["mlm.bias"] = (config.vocab_size,)
    return shapes


def parameter_counts(config: ModelConfig) -> dict[str, int]:
    """Parameter totals by group, from the shapes alone (nothing is allocated)."""
    group_of = {"embedding.word": "embedding", "embedding.projection": "embedding", "mlm.bias": "mlm_head"}
    counts = {"transformer": 0, "embedding": 0, "mlm_head": 0}
    for name, shape in parameter_shapes(config).items():
        counts[group_of.get(name, "transformer")] += math.prod(shape)
    counts["total"] = sum(counts.values())
    return counts


class WordBertModel:
    """Embedding (direct or projected), position embeddings, L encoder layers."""

    def __init__(
        self,
        config: ModelConfig,
        seed: int = 0,
        word_vectors: np.ndarray | None = None,
        projection: np.ndarray | None = None,
    ):
        given = {}  # parameter name -> (argument name, array copied in)
        if config.variant == "projected":
            if word_vectors is None:
                raise ContractError("projected variant requires pretrained word_vectors")
            given["embedding.word"] = ("word_vectors", word_vectors)
            if projection is not None:
                given["embedding.projection"] = ("projection", projection)
        rng = substream(seed, "init")
        arrays = {}
        for name, shape in parameter_shapes(config).items():
            if name in given:
                arg, value = given[name]
                data = np.asarray(value, dtype=np.float32)
                if data.shape != shape:
                    raise ShapeError(f"{arg} shape {data.shape} does not match {shape}")
                data = data.copy()
            elif name == "embedding.word":
                data = (rng.standard_normal(shape) * 0.02).astype(np.float32)
            elif name.endswith(".gamma"):
                data = np.ones(shape, np.float32)
            elif name.endswith((".bias", ".beta")):
                data = np.zeros(shape, np.float32)
            else:
                data = truncated_normal(rng, shape, 0.02)
            arrays[name] = data
        self._adopt(config, seed, arrays)

    @classmethod
    def _unfilled(cls, config: ModelConfig, seed: int) -> "WordBertModel":
        """A model with every parameter allocated but not initialized (no RNG
        draw), for a checkpoint load to fill in."""
        model = cls.__new__(cls)
        shapes = parameter_shapes(config)
        model._adopt(config, seed, {name: np.empty(shape, np.float32) for name, shape in shapes.items()})
        return model

    def _adopt(self, config: ModelConfig, seed: int, arrays: dict[str, np.ndarray]):
        self.config = config
        self.seed = seed
        self.params: dict[str, Tensor] = {}
        for name, data in arrays.items():
            frozen = name == "embedding.word" and config.freeze_embeddings
            self.params[name] = Tensor(data, requires_grad=not frozen)

    # ------------------------------------------------------------------
    # parameter bookkeeping
    # ------------------------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def trainable_parameters(self) -> dict[str, Tensor]:
        return {k: p for k, p in self.params.items() if p.requires_grad}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def checksum(self) -> str:
        digest = hashlib.sha256()
        for name in sorted(self.params):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(self.params[name].data).tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # forward passes
    # ------------------------------------------------------------------

    def _project(self, rows: Tensor) -> Tensor:
        """Word-table rows in the hidden space: mapped through
        ``embedding.projection`` in the projected variant, unchanged in the direct one."""
        if self.config.variant == "projected":
            return T.matmul(rows, self.params["embedding.projection"])
        return rows

    def encode_batch(self, input_ids, attention_masks, rng=None) -> Tensor:
        """Embeddings plus L encoder layers over a batch of equal-length sequences.

        Word (and projection) lookup plus learned position embeddings, then
        masked multi-head self-attention + feed-forward per layer, with batch
        and head axes folded so attention stays on rank-3 tensors. Returns
        hidden states flattened to [B*T, H]; position (b, t) lives at row b*T + t.

        Dropout applies exactly when a dropout ``rng`` is given (and
        ``config.dropout > 0``): after the embeddings, on the attention
        probabilities and on each sublayer output, drawn in that order.
        """
        cfg = self.config
        p = self.params
        ids = np.asarray(input_ids, dtype=np.int64)
        if ids.ndim != 2:
            raise ShapeError(f"input_ids must be [batch, length], got {ids.shape}")
        b_sz, t_len = ids.shape
        if t_len > cfg.max_positions:
            raise ShapeError(f"sequence length {t_len} exceeds max_positions {cfg.max_positions}")
        mask = np.asarray(attention_masks, dtype=np.float32)
        if mask.shape != (b_sz, t_len):
            raise ShapeError(f"attention mask shape {mask.shape} does not match {ids.shape}")

        rows = self._project(T.gather_rows(p["embedding.word"], ids.reshape(-1)))
        pos = T.gather_rows(p["embedding.position"], np.arange(t_len))
        x = T.reshape(T.add(T.reshape(rows, (b_sz, t_len, cfg.hidden)), pos), (b_sz * t_len, cfg.hidden))
        if rng is not None:
            x = T.dropout(x, cfg.dropout, rng)

        a = cfg.num_heads
        # one additive bias row per (sequence, head): 0 real, -1e9 padding keys
        bias = np.repeat((mask - 1.0) * np.float32(1e9), a, axis=0).reshape(b_sz * a, 1, t_len)
        mask_bias = Tensor(bias)
        for i in range(cfg.num_layers):
            x = self._layer(i, x, mask_bias, b_sz, t_len, rng)
        return x

    def _layer(self, i: int, x: Tensor, mask_bias: Tensor, b_sz: int, t_len: int, rng) -> Tensor:
        """Encoder layer i on x [B*T, H]: post-norm self-attention, then feed-forward."""
        cfg = self.config
        p = self.params
        pre = f"encoder.{i}."
        a, d = cfg.num_heads, cfg.head_dim

        def split_heads(t2d, transpose_to):
            return T.reshape(
                T.transpose(T.reshape(t2d, (b_sz, t_len, a, d)), transpose_to),
                (b_sz * a, t_len, d) if transpose_to == (0, 2, 1, 3) else (b_sz * a, d, t_len),
            )

        q = T.add(T.matmul(x, p[pre + "attention.query.weight"]), p[pre + "attention.query.bias"])
        k = T.add(T.matmul(x, p[pre + "attention.key.weight"]), p[pre + "attention.key.bias"])
        v = T.add(T.matmul(x, p[pre + "attention.value.weight"]), p[pre + "attention.value.bias"])
        qh = split_heads(q, (0, 2, 1, 3))
        kh = split_heads(k, (0, 2, 3, 1))
        vh = split_heads(v, (0, 2, 1, 3))
        scores = T.add(T.mul(T.matmul(qh, kh), 1.0 / np.sqrt(d)), mask_bias)
        attn = T.softmax(scores)
        if rng is not None:
            attn = T.dropout(attn, cfg.dropout, rng)
        ctx = T.reshape(
            T.transpose(T.reshape(T.matmul(attn, vh), (b_sz, a, t_len, d)), (0, 2, 1, 3)),
            (b_sz * t_len, cfg.hidden),
        )
        attn_out = T.add(
            T.matmul(ctx, p[pre + "attention.output.weight"]), p[pre + "attention.output.bias"]
        )
        if rng is not None:
            attn_out = T.dropout(attn_out, cfg.dropout, rng)
        x = T.layer_norm(
            T.add(x, attn_out),
            p[pre + "attention.norm.gamma"],
            p[pre + "attention.norm.beta"],
            cfg.layer_norm_eps,
        )
        inner = T.gelu(T.add(T.matmul(x, p[pre + "ffn.inner.weight"]), p[pre + "ffn.inner.bias"]))
        ffn_out = T.add(T.matmul(inner, p[pre + "ffn.output.weight"]), p[pre + "ffn.output.bias"])
        if rng is not None:
            ffn_out = T.dropout(ffn_out, cfg.dropout, rng)
        return T.layer_norm(
            T.add(x, ffn_out),
            p[pre + "ffn.norm.gamma"],
            p[pre + "ffn.norm.beta"],
            cfg.layer_norm_eps,
        )

    def mlm_logits(self, hidden: Tensor, ids: np.ndarray) -> Tensor:
        """hidden [M,H] -> logits [M, len(ids)] against the tied rows + bias of ids."""
        if len(ids) == 0:
            raise ContractError("batch vocabulary is empty")
        rows = self._project(T.gather_rows(self.params["embedding.word"], ids))
        bias = T.gather_rows(self.params["mlm.bias"], ids)
        return T.add(T.matmul(hidden, T.transpose(rows, (1, 0))), bias)

    def full_vocab_logits(self, hidden: Tensor) -> Tensor:
        """hidden [M,H] -> logits [M, V] over the entire vocabulary."""
        rows = self._project(self.params["embedding.word"])
        return T.add(T.matmul(hidden, T.transpose(rows, (1, 0))), self.params["mlm.bias"])

