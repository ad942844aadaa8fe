"""Word-level transformer encoder with a tied MLM head.

The MLM output weights are the input embedding rows themselves (direct
variant) or their projection through the shared 300->H linear map (projected
variant); there is no separate output matrix, only a per-word bias. The
forward passes run on plain float32 arrays and return their written-out
backward with their output.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import kernels
from . import tensor as T
from .errors import ContractError
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
    layer_norm_eps: ClassVar[float] = 1e-5  # fixed: a checkpoint's epsilon line must equal it

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
        if self.max_positions < 3:  # [CLS], one word, [SEP]
            problems.append(f"max_positions {self.max_positions} must be >= 3")
        if self.num_layers < 0:  # zero layers leave the embedding alone
            problems.append(f"num_layers {self.num_layers} must be >= 0")
        if self.hidden < 1:
            problems.append(f"hidden {self.hidden} must be positive")
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
        frozen = self.variant == "projected"  # the variant alone decides whether the table trains
        if self.variant in VARIANTS and self.freeze_embeddings != frozen:
            problems.append(f"variant {self.variant!r} requires "
                            f"freeze_embeddings={str(frozen).lower()}")
        if self.variant == "projected" and self.embed_dim < 1:  # direct: embed_dim == hidden
            problems.append(f"embed_dim {self.embed_dim} must be positive")
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


def trainable_names(config: ModelConfig) -> list[str]:
    """Every parameter name but the projected variant's frozen word table, in
    initialization order."""
    frozen = "embedding.word" if config.variant == "projected" else None
    return [name for name in parameter_shapes(config) if name != frozen]


def parameter_counts(config: ModelConfig) -> dict[str, int]:
    """Parameter totals by group, from the shapes alone (nothing is allocated)."""
    group_of = {"embedding.word": "embedding", "embedding.projection": "embedding", "mlm.bias": "mlm_head"}
    counts = {"transformer": 0, "embedding": 0, "mlm_head": 0}
    for name, shape in parameter_shapes(config).items():
        counts[group_of.get(name, "transformer")] += math.prod(shape)
    counts["total"] = sum(counts.values())
    return counts


def _encoder_layer(w: dict[str, Tensor], x: np.ndarray, mask_bias: np.ndarray,
                   cfg: ModelConfig, keep):
    """Encoder layer on x [B*T, H]: post-norm self-attention, then a GELU
    feed-forward block, with ``keep(shape)`` giving each dropout's scales.
    ``w`` maps the layer's parameter names, less ``encoder.<i>.``, to tensors.

    Returns the output and the layer's backward: the output's gradient to
    x's, passing each parameter's gradient to ``accumulate_grad``. Operand
    layouts, and the order in which a gradient with several sources is
    summed, stay fixed so that a run's ``metrics.tsv`` stays byte-identical
    across commits: x takes the residual's before the query's, key's and
    value's; the attention norm's output the residual's before ``ffn.inner``'s.
    """
    b_sz, t_len = mask_bias.shape[0], mask_bias.shape[-1]
    heads, d = cfg.num_heads, cfg.head_dim
    scale = np.float32(1.0 / np.sqrt(d))

    def linear(name, inp):
        return np.matmul(inp, w[name + ".weight"].data) + w[name + ".bias"].data

    def norm(name, inp):  # (output, mean, inv_std)
        return kernels.layer_norm_fwd(inp, w[name + ".gamma"].data, w[name + ".beta"].data,
                                      np.float32(cfg.layer_norm_eps))

    def split_heads(t2d, axes):  # [B*T, H] -> [B, A, T, D], or [B, A, D, T] for keys
        return np.ascontiguousarray(t2d.reshape(b_sz, t_len, heads, d).transpose(axes))

    def merge_heads(t4d, axes):  # the inverse of split_heads
        return np.ascontiguousarray(t4d.transpose(axes)).reshape(x.shape)

    qh = split_heads(linear("attention.query", x), (0, 2, 1, 3))
    kh = split_heads(linear("attention.key", x), (0, 2, 3, 1))
    vh = split_heads(linear("attention.value", x), (0, 2, 1, 3))
    scores = np.matmul(qh, kh) * scale + mask_bias
    probs = kernels.softmax_rows(scores.reshape(-1, t_len))
    keep_probs = keep(scores.shape)
    attn = probs.reshape(scores.shape) * keep_probs
    ctx = merge_heads(np.matmul(attn, vh), (0, 2, 1, 3))
    keep_attn = keep(x.shape)
    res1 = x + linear("attention.output", ctx) * keep_attn
    x1, *stats1 = norm("attention.norm", res1)
    pre_gelu = linear("ffn.inner", x1)
    inner, erf1 = kernels.gelu_erf_fwd(pre_gelu)
    keep_ffn = keep(x.shape)
    res2 = x1 + linear("ffn.output", inner) * keep_ffn
    out, *stats2 = norm("ffn.norm", res2)

    def linear_backward(name, inp, g):  # returns inp's gradient
        w[name + ".weight"].accumulate_grad(np.matmul(inp.T, g))
        w[name + ".bias"].accumulate_grad(g.sum(axis=0))
        return np.matmul(g, w[name + ".weight"].data.T)

    def norm_backward(name, inp, stats, g):  # returns inp's gradient
        g_inp, d_gamma, d_beta = kernels.layer_norm_bwd(inp, w[name + ".gamma"].data, *stats, g)
        w[name + ".gamma"].accumulate_grad(d_gamma)
        w[name + ".beta"].accumulate_grad(d_beta)
        return g_inp

    def backward(g):
        g_res2 = norm_backward("ffn.norm", res2, stats2, g)
        g_inner = linear_backward("ffn.output", inner, g_res2 * keep_ffn)
        g_pre_gelu = kernels.gelu_erf_bwd(pre_gelu, erf1, g_inner)
        g_x1 = g_res2 + linear_backward("ffn.inner", x1, g_pre_gelu)
        g_res1 = norm_backward("attention.norm", res1, stats1, g_x1)
        g_ctx = linear_backward("attention.output", ctx, g_res1 * keep_attn)
        g_ctx = split_heads(g_ctx, (0, 2, 1, 3))
        g_vh = np.matmul(np.swapaxes(attn, -1, -2), g_ctx)
        g_attn = np.matmul(g_ctx, np.swapaxes(vh, -1, -2)) * keep_probs
        g_scores = kernels.softmax_rows_bwd(probs, g_attn.reshape(-1, t_len))
        g_scores = g_scores.reshape(attn.shape) * scale
        g_qh = np.matmul(g_scores, np.swapaxes(kh, -1, -2))
        g_kh = np.matmul(np.swapaxes(qh, -1, -2), g_scores)
        g_x = g_res1 + linear_backward("attention.query", x, merge_heads(g_qh, (0, 2, 1, 3)))
        g_x += linear_backward("attention.key", x, merge_heads(g_kh, (0, 3, 1, 2)))
        g_x += linear_backward("attention.value", x, merge_heads(g_vh, (0, 2, 1, 3)))
        return g_x

    return out, backward


class WordBertModel:
    """Embedding (direct or projected), position embeddings, L encoder layers."""

    def __init__(
        self,
        config: ModelConfig,
        seed: int = 0,
        word_vectors: np.ndarray | None = None,
        projection: np.ndarray | None = None,
    ):
        if config.variant == "projected" and word_vectors is None:
            raise ContractError("projected variant requires pretrained word_vectors")
        given = {}  # parameter name -> (argument name, array copied in)
        for arg, name, value in (("word_vectors", "embedding.word", word_vectors),
                                 ("projection", "embedding.projection", projection)):
            if value is not None:
                if config.variant != "projected":
                    raise ContractError(f"{arg} needs variant 'projected', got {config.variant!r}")
                given[name] = (arg, value)
        rng = substream(seed, "init")
        arrays = {}
        for name, shape in parameter_shapes(config).items():
            if name in given:
                arg, value = given[name]
                data = np.asarray(value, dtype=np.float32)
                if data.shape != shape:
                    raise ContractError(f"{arg} shape {data.shape} does not match {shape}")
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
        self.params = {name: Tensor(data) for name, data in arrays.items()}

    # ------------------------------------------------------------------
    # parameter bookkeeping
    # ------------------------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def trainable_parameters(self) -> dict[str, Tensor]:
        return {name: self.params[name] for name in trainable_names(self.config)}

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

    def _project(self, rows: np.ndarray) -> np.ndarray:
        """Word-table rows in the hidden space: mapped through
        ``embedding.projection`` in the projected variant, unchanged in the direct one."""
        if self.config.variant == "projected":
            return T.matmul(rows, self.params["embedding.projection"].data)
        return rows

    def _word_rows(self, ids: np.ndarray):
        """Rows ``ids`` of the word table in the hidden space, and their backward:
        the rows' gradient to the projection's in the projected variant, whose
        table is frozen, and scattered into the table's in the direct one."""
        table = self.params["embedding.word"]
        vectors = table.data[ids]

        def backward(g):
            if self.config.variant == "projected":
                self.params["embedding.projection"].accumulate_grad(np.matmul(vectors.T, g))
            else:
                table.accumulate_grad(g, ids)

        return self._project(vectors), backward

    def encode_batch(self, input_ids, attention_masks, rng=None):
        """Embeddings plus L encoder layers over a batch of equal-length sequences.

        Word (and projection) lookup plus learned position embeddings, then
        masked multi-head self-attention + feed-forward per layer, attention
        running on [B, A, T, D] stacks of heads. Returns the hidden states
        flattened to [B*T, H], position (b, t) at row b*T + t, and their
        backward or None.

        A dropout ``rng`` marks a training call: dropout runs at
        ``config.dropout`` and the backward is returned. It takes the hidden
        states' gradient and runs the layers' backwards in reverse, passing
        each parameter's gradient on; the activations it reads stay in its
        closure until it is dropped. Without an rng (an inference call) there
        is no dropout and no backward, and each layer's activations go as soon
        as the layer returns.

        Each dropout draw is one ``rng.random`` at the shape of the tensor it
        masks, in this order: the embedding sum [B*T, H], then per layer the
        attention probabilities [B, A, T, T], the attention output [B*T, H]
        and the feed-forward output [B*T, H]. At rate 0 nothing is drawn.
        """
        cfg = self.config
        p = self.params
        ids = np.asarray(input_ids, dtype=np.int64)
        if ids.ndim != 2:
            raise ContractError(f"input_ids must be [batch, length], got {ids.shape}")
        b_sz, t_len = ids.shape
        if t_len > cfg.max_positions:
            raise ContractError(
                f"sequence length {t_len} exceeds max_positions {cfg.max_positions}")
        mask = np.asarray(attention_masks, dtype=np.float32)
        if mask.shape != (b_sz, t_len):
            raise ContractError(f"attention mask shape {mask.shape} does not match {ids.shape}")
        _check_ids(ids, cfg.vocab_size)

        rows, rows_backward = self._word_rows(ids.reshape(-1))
        positions = np.arange(t_len)
        names = [name for name in parameter_shapes(cfg) if name.startswith("encoder.")]
        layers = [
            {name[len(pre):]: p[name] for name in names if name.startswith(pre)}
            for pre in (f"encoder.{i}." for i in range(cfg.num_layers))
        ]
        rate = cfg.dropout if rng is not None else 0.0

        def keep(shape):
            """Inverted-dropout scales for one tensor, 0 or 1/(1-p); 1 when dropout is off."""
            if rate <= 0.0:
                return np.float32(1)
            return (rng.random(shape) >= rate).astype(np.float32) / np.float32(1.0 - rate)

        x = rows.reshape(b_sz, t_len, cfg.hidden) + p["embedding.position"].data[positions]
        x = x.reshape(b_sz * t_len, cfg.hidden)
        keep_embed = keep(x.shape)
        x = x * keep_embed
        # one additive bias row per sequence, shared by its heads and queries:
        # 0 real, -1e9 padding keys
        mask_bias = ((mask - 1.0) * np.float32(1e9)).reshape(b_sz, 1, 1, t_len)
        backwards = []
        for w in layers:
            x, layer_backward = _encoder_layer(w, x, mask_bias, cfg, keep)
            if rng is not None:
                backwards.append(layer_backward)
            del layer_backward  # in an inference call, the layer's saved activations go here
        if rng is None:
            return x, None

        def backward(g):
            for layer_backward in reversed(backwards):
                g = layer_backward(g)
            g = g * keep_embed
            rows_backward(g)
            p["embedding.position"].accumulate_grad(
                g.reshape(b_sz, t_len, cfg.hidden).sum(axis=0), positions)

        return x, backward

    def mlm_logits(self, hidden: np.ndarray, ids):
        """hidden [M,H] -> logits [M, len(ids)] against the tied rows + bias of ids.

        Returns the logits and their backward, which runs in two phases. Given
        the logits' gradient, it passes ``mlm.bias``'s on and returns hidden's
        gradient with a function that passes the tied rows' gradient on to the
        word table or projection; ``training.mlm_loss`` calls that function
        after the encoder's backward, so a word-table row sums its input-side
        gradient before its head-side one.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) == 0:
            raise ContractError("batch vocabulary is empty")
        _check_ids(ids, self.config.vocab_size)
        bias = self.params["mlm.bias"]
        rows, rows_backward = self._word_rows(ids)
        rows_t = T.transpose(rows)
        logits = T.matmul(hidden, rows_t) + bias.data[ids]

        def backward(g):
            bias.accumulate_grad(g.sum(axis=0), ids)
            g_rows = np.ascontiguousarray(np.matmul(hidden.T, g).T)
            return np.matmul(g, rows_t.T), lambda: rows_backward(g_rows)

        return logits, backward

    def output_table(self) -> np.ndarray:
        """The tied head's weights for every word, as the C-contiguous [H, V]
        table ``full_vocab_logits`` multiplies by: the word table in the hidden
        space, transposed. A table is stale once the word table or projection
        changes."""
        return T.transpose(self._project(self.params["embedding.word"].data))

    def full_vocab_logits(self, hidden: np.ndarray, table: np.ndarray) -> np.ndarray:
        """hidden [M,H] -> logits [M, V] over the entire vocabulary, against
        ``table`` from ``output_table()``."""
        return T.matmul(hidden, table) + self.params["mlm.bias"].data


def _check_ids(ids: np.ndarray, size: int):
    """Refuse an id outside [0, size): numpy would wrap a negative one silently."""
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        raise IndexError(f"id outside [0, {size})")
