"""MLM masking, restricted-softmax loss, projection pretraining, train loop.

The training pool is one [N, max_length] int64 id matrix, built once, of the
corpus lines that hold a maskable word; a step's batch is a draw of its rows.
A step passes plain arrays between its stages: masking yields the corrupted
ids, the flat row index of every target in the [B*T, H] hidden states and the
targets' gold ids; the batch vocabulary is a sorted id array; the loss gathers
the target rows and scores them against that vocabulary only.

Every random decision flows from (seed, stream name, step), so a run is fully
determined by its seed and config, and training can resume from a checkpoint
without replaying earlier steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ContractError, WordlmError
from .model import WordBertModel
from .optim import Adam
from .sampling import NeighborIndex, remap_targets, sample_batch_vocab
from .seeding import substream
from .tensor import Tensor
from .vocab import MASK_ID, NUM_SPECIALS, WordVocab, attention_mask, encode, segment_words


# BERT's recipe (Devlin et al. 2019): select 15% of the real words, then turn
# 80% of those into [MASK] and 10% into a random word, and keep the last 10%
MASK_RATIO = 0.15
REPLACE_MASK = 0.8
REPLACE_RANDOM = 0.1


class MaskedBatch:
    """Corrupted inputs [B, T] plus the flat row (b*T + t) and gold id of every target."""

    def __init__(self, input_ids, positions, target_global_ids):
        self.input_ids = np.asarray(input_ids, dtype=np.int64)
        self.positions = np.asarray(positions, dtype=np.int64)
        self.target_global_ids = np.asarray(target_global_ids, dtype=np.int64)

    @property
    def num_targets(self) -> int:
        return int(self.target_global_ids.shape[0])


def apply_masking(
    batch_ids: np.ndarray,
    rng: np.random.Generator,
    vocab_size: int,
) -> MaskedBatch:
    """Select real-word positions of the [B, T] id matrix at ``MASK_RATIO`` (min
    one per maskable sequence) and corrupt a copy of it per BERT's 80/10/10
    split, recording the original ids as targets."""
    input_ids = np.array(batch_ids, dtype=np.int64)
    if input_ids.ndim != 2:
        raise ContractError(
            f"apply_masking needs a [batch, length] id matrix, got shape {input_ids.shape}"
        )
    if input_ids.size == 0:
        raise ContractError("apply_masking requires a nonempty batch")
    t_len = input_ids.shape[1]
    positions = []
    targets = []
    for b in range(input_ids.shape[0]):
        ids = input_ids[b]
        maskable = np.where(ids >= NUM_SPECIALS)[0]
        if maskable.size == 0:
            continue
        draws = rng.random(maskable.size)
        selected = maskable[draws < MASK_RATIO]
        if selected.size == 0:
            selected = maskable[[rng.integers(0, maskable.size)]]
        positions.extend(selected + b * t_len)
        for pos in selected:
            targets.append(int(ids[pos]))
            u = rng.random()
            if u < REPLACE_MASK:
                ids[pos] = MASK_ID
            elif u < REPLACE_MASK + REPLACE_RANDOM:
                ids[pos] = rng.integers(NUM_SPECIALS, vocab_size)
            # else: keep the original id
    return MaskedBatch(input_ids, positions, targets)


def mlm_loss(
    model: WordBertModel,
    masked: MaskedBatch,
    batch_ids: np.ndarray,
    rng=None,
) -> Tensor:
    """Mean cross-entropy over all masked positions, restricted to the sorted batch_ids.

    A dropout ``rng`` marks a training call (see ``encode_batch``): the
    returned scalar carries the step's backward, the loss's gradient through
    the head and then the encoder, after which the head passes its tied rows'
    gradient on (see ``mlm_logits``). Without one the forward pass is
    deterministic and the loss's ``backward()`` raises ``ContractError``.
    """
    if masked.num_targets == 0:
        raise ContractError("masked batch contains no targets")
    local_targets = remap_targets(masked.target_global_ids, batch_ids)
    hidden, encoder_backward = model.encode_batch(
        masked.input_ids, attention_mask(masked.input_ids), rng=rng
    )
    positions, hidden_shape = masked.positions, hidden.shape
    if positions.min() < 0 or positions.max() >= len(hidden):
        raise IndexError(f"target position outside [0, {len(hidden)})")
    logits, head_backward = model.mlm_logits(hidden[positions], batch_ids)
    losses, probs = kernels.cross_entropy_rows_fwd(logits, local_targets)
    n = losses.size
    loss = np.float32(losses.sum(dtype=np.float64) / n)
    if encoder_backward is None:  # an inference call
        return Tensor(loss)

    def backward(g):
        g_losses = np.full_like(losses, np.float32(g / n))
        g_picked, head_rows_backward = head_backward(
            kernels.cross_entropy_rows_bwd(probs, local_targets, g_losses)
        )
        g_hidden = np.zeros(hidden_shape, np.float32)
        kernels.scatter_add_rows(g_hidden, positions, g_picked)
        encoder_backward(g_hidden)
        head_rows_backward()

    return Tensor(loss, backward_fn=backward)


# ---------------------------------------------------------------------------
# projection pretraining
# ---------------------------------------------------------------------------


def pretrain_projection(v_in: np.ndarray, v_out: np.ndarray) -> tuple[np.ndarray, float]:
    """Fit W [E,H] minimizing mean squared error of v_in [N,E] @ W against v_out [N,H].

    Ordinary least squares, solved once in float64: the minimum-norm W when
    v_in has rank below E. Returns the float32 map and its float32 mean
    squared error; a NaN or infinity in either array raises ``ContractError``.
    Shapes are the caller's: ``pretrain --pairs`` checks them from the
    ``.npy`` headers, and names the file, array and row of a non-finite pair.
    """
    if not (np.isfinite(v_in).all() and np.isfinite(v_out).all()):
        raise ContractError("pretrain_projection: v_in or v_out holds a NaN or infinity")
    w = np.linalg.lstsq(v_in.astype(np.float64), v_out.astype(np.float64), rcond=None)[0]
    w = w.astype(np.float32)
    diff = v_in.astype(np.float32) @ w - v_out.astype(np.float32)
    return w, float(np.float32((diff * diff).sum(dtype=np.float64) / diff.size))


# ---------------------------------------------------------------------------
# schedule and train loop
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    peak_lr: float = 5e-5
    warmup_steps: int = 5_000
    total_steps: int = 200_000
    batch_size: int = 32
    seed: int = 0
    sample_size: int = 30_000
    max_length: int = 512

    def __post_init__(self):
        problems = []
        if self.warmup_steps >= self.total_steps:
            problems.append(
                f"warmup_steps {self.warmup_steps} must be < total_steps {self.total_steps}"
            )
        if not 0 < self.peak_lr < math.inf:  # a NaN fails every comparison
            problems.append("peak_lr must be positive and finite")
        for name in ("warmup_steps", "total_steps", "batch_size", "sample_size"):
            if getattr(self, name) <= 0:
                problems.append(f"{name} must be positive")
        if problems:
            raise ContractError("; ".join(problems))


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear 0->peak over warmup_steps, then linear peak->0 at total_steps."""
    if step < 0:
        raise ContractError(f"step must be non-negative, got {step}")
    if step > cfg.total_steps:
        return 0.0
    if step <= cfg.warmup_steps:
        return cfg.peak_lr * step / cfg.warmup_steps
    return cfg.peak_lr * (cfg.total_steps - step) / (cfg.total_steps - cfg.warmup_steps)


@dataclass
class StepRecord:
    step: int
    lr: float
    loss: float


def write_metrics(records: list[StepRecord], path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in records:
            fh.write(f"{r.step}\t{r.lr!r}\t{r.loss!r}\n")


def prepare_corpus(corpus_lines, vocab: WordVocab, max_length: int) -> np.ndarray:
    """The sampling pool: the [N, max_length] int64 encoded ids of the lines
    with at least one maskable word, in corpus order."""
    rows = []
    for line in corpus_lines:
        ids = encode(segment_words(line), vocab, max_length).ids
        if (ids >= NUM_SPECIALS).any():
            rows.append(ids)
    if not rows:
        raise ContractError("corpus contains no maskable sequences: no line holds a "
                            f"vocabulary word among its first {max_length - 2} words")
    return np.stack(rows)


def train(
    corpus_lines,
    vocab: WordVocab,
    model: WordBertModel,
    cfg: TrainConfig,
    neighbor_index: NeighborIndex | None = None,
    optimizer: Adam | None = None,
    num_steps: int | None = None,
) -> tuple[list[StepRecord], Adam]:
    """Run MLM training steps [s, s + num_steps), s the optimizer's step count:
    0 for a new ``Adam``, the saved count for one from ``load_checkpoint``, so
    a run continued with its optimizer takes the steps one run would have.
    ``num_steps=None`` runs to ``cfg.total_steps``. A range that is empty or
    reaches past ``cfg.total_steps``, where the learning rate is 0, raises
    ``ContractError`` before the corpus is read.

    Each step draws a batch, masks it, samples a batch vocabulary, takes one
    Adam step at the scheduled learning rate, and records (step, lr, loss).
    A step whose loss is not finite, or whose forward, backward or Adam step
    overflows or computes an invalid value, raises ``WordlmError`` naming the
    step and its batch lines.
    """
    start = 0 if optimizer is None else optimizer.step_count
    if num_steps is None:
        num_steps = cfg.total_steps - start
    if num_steps < 1 or start + num_steps > cfg.total_steps:
        raise ContractError(f"cannot run {num_steps} steps from step {start}: a run takes at "
                            f"least one step and ends by total_steps {cfg.total_steps}")
    pool = prepare_corpus(corpus_lines, vocab, cfg.max_length)
    optimizer = optimizer or Adam(model.trainable_parameters())
    records = []
    vocab_size = model.config.vocab_size
    for step in range(start, start + num_steps):
        batch_rng = substream(cfg.seed, "batch", step)
        line_ids = batch_rng.integers(0, len(pool), size=cfg.batch_size)
        masked = apply_masking(pool[line_ids], substream(cfg.seed, "masking", step), vocab_size)
        batch_ids = sample_batch_vocab(
            masked.input_ids[masked.input_ids >= NUM_SPECIALS],
            masked.target_global_ids,
            vocab_size=vocab_size,
            sample_size=cfg.sample_size,
            rng=substream(cfg.seed, "sampling", step),
            neighbor_index=neighbor_index,
        )
        lr = lr_at(step, cfg)
        try:  # an overflow or invalid value in the step is divergence, as a non-finite loss is
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                loss = mlm_loss(model, masked, batch_ids, rng=substream(cfg.seed, "dropout", step))
                loss_value = loss.item()
                if not np.isfinite(loss_value):  # NaN parameters raise no flag
                    raise WordlmError(f"non-finite loss {loss_value} at step {step}, "
                                      f"batch lines {line_ids.tolist()}")
                model.zero_grad()
                loss.backward()
                optimizer.step(lr)
        except FloatingPointError as err:
            raise WordlmError(f"floating-point {err} at step {step}, "
                              f"batch lines {line_ids.tolist()}") from err
        model.zero_grad()
        records.append(StepRecord(step, lr, loss_value))
    return records, optimizer
