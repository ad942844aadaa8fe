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

from . import tensor as T
from .errors import ContractError
from .model import WordBertModel
from .optim import Adam
from .sampling import NeighborIndex, remap_targets, sample_batch_vocab
from .seeding import substream
from .tensor import Tensor
from .vocab import MASK_ID, NUM_SPECIALS, PAD_ID, WordVocab, encode, segment_words


@dataclass
class MaskingPolicy:
    """Selection ratio and the [MASK]/random/keep corruption split."""

    mask_ratio: float = 0.15
    replace_mask: float = 0.8
    replace_random: float = 0.1
    keep_original: float = 0.1

    def __post_init__(self):
        problems = []
        # ratio 1.0 admitted: the mask-everything policy is a supported degenerate case
        if not 0.0 < self.mask_ratio <= 1.0:
            problems.append(f"mask_ratio {self.mask_ratio} outside (0, 1]")
        total = self.replace_mask + self.replace_random + self.keep_original
        if abs(total - 1.0) > 1e-6:
            problems.append(f"replace_mask + replace_random + keep_original sum to {total}, expected 1")
        if problems:
            raise ContractError("; ".join(problems))


class MaskedBatch:
    """Corrupted inputs [B, T] plus the flat row (b*T + t) and gold id of every target."""

    def __init__(self, input_ids, positions, target_global_ids):
        self.input_ids = np.asarray(input_ids, dtype=np.int64)
        self.positions = np.asarray(positions, dtype=np.int64)
        self.target_global_ids = np.asarray(target_global_ids, dtype=np.int64)

    @property
    def num_targets(self) -> int:
        return int(self.target_global_ids.shape[0])

    def attention_masks(self) -> np.ndarray:
        return (self.input_ids != PAD_ID).astype(np.int64)


def apply_masking(
    batch_ids: np.ndarray,
    policy: MaskingPolicy,
    rng: np.random.Generator,
    vocab_size: int,
) -> MaskedBatch:
    """Select real-word positions of the [B, T] id matrix at mask_ratio (min one
    per maskable sequence) and corrupt a copy of it per the policy, recording
    the original ids as targets."""
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
        selected = maskable[draws < policy.mask_ratio]
        if selected.size == 0:
            selected = maskable[[rng.integers(0, maskable.size)]]
        positions.extend(selected + b * t_len)
        for pos in selected:
            targets.append(int(ids[pos]))
            u = rng.random()
            if u < policy.replace_mask:
                ids[pos] = MASK_ID
            elif u < policy.replace_mask + policy.replace_random:
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

    A dropout ``rng`` switches the encoder's dropout on; without one the
    forward pass is deterministic.
    """
    if masked.num_targets == 0:
        raise ContractError("masked batch contains no targets")
    local_targets = remap_targets(masked.target_global_ids, batch_ids)
    hidden_flat = model.encode_batch(masked.input_ids, masked.attention_masks(), rng=rng)
    picked = T.gather_rows(hidden_flat, masked.positions)
    logits = model.mlm_logits(picked, batch_ids)
    return T.mean(T.cross_entropy_rows(logits, local_targets))


# ---------------------------------------------------------------------------
# projection pretraining
# ---------------------------------------------------------------------------


def pretrain_projection(
    v_in: np.ndarray, v_out: np.ndarray, lr: float, epochs: int, rng: np.random.Generator
) -> tuple[np.ndarray, list[float]]:
    """Fit W [E,H] minimizing mean squared error of v_in [N,E] @ W against v_out [N,H].

    Full-batch gradient descent in float32 on the elementwise-mean MSE, whose
    gradient is v_in^T @ (diff * 2/n) for diff = v_in @ W - v_out and n = N*H
    elements. Returns the fitted float32 map and the per-epoch loss history
    (last entry is final). An ``lr`` that is not a finite number > 0 cannot
    fit and raises ``ContractError``; so does a non-finite loss or map, the
    mark of a step size that diverges, naming the epoch and the rate.
    """
    if not (math.isfinite(lr) and lr > 0):
        raise ContractError(f"lr must be a finite number > 0, got {lr!r}")
    if v_in.ndim != 2 or v_out.ndim != 2 or not 0 < v_in.shape[0] == v_out.shape[0]:
        raise ContractError(
            f"pretrain_projection needs v_in [N,E] and v_out [N,H] with N >= 1, "
            f"got {v_in.shape} and {v_out.shape}"
        )
    x = v_in.astype(np.float32)
    y = v_out.astype(np.float32)
    w = (rng.standard_normal((x.shape[1], y.shape[1])) * 0.02).astype(np.float32)
    grad_scale = np.float32(2.0 / y.size)
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, epochs + 1):
            diff = x @ w - y
            losses.append(float(np.float32((diff * diff).sum(dtype=np.float64) / diff.size)))
            w -= np.float32(lr) * (x.T @ (diff * grad_scale))
            if not (np.isfinite(losses[-1]) and np.isfinite(w).all()):
                raise ContractError(f"projection fit diverged at epoch {epoch} with lr {lr!r} "
                                    f"(loss {losses[-1]}, map finite: {np.isfinite(w).all()})")
    return w, losses


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
    neighbor_k: int = 10

    def __post_init__(self):
        problems = []
        if self.warmup_steps >= self.total_steps:
            problems.append(
                f"warmup_steps {self.warmup_steps} must be < total_steps {self.total_steps}"
            )
        for name in ("peak_lr", "warmup_steps", "total_steps", "batch_size", "sample_size",
                     "max_length", "neighbor_k"):
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
        ids = encode(segment_words(line, vocab.lowercase), vocab, max_length).ids
        if (ids >= NUM_SPECIALS).any():
            rows.append(ids)
    if not rows:
        raise ContractError("corpus contains no maskable sequences")
    return np.stack(rows)


def train(
    corpus_lines,
    vocab: WordVocab,
    model: WordBertModel,
    cfg: TrainConfig,
    policy: MaskingPolicy | None = None,
    neighbor_index: NeighborIndex | None = None,
    optimizer: Adam | None = None,
    start_step: int = 0,
    num_steps: int | None = None,
) -> tuple[list[StepRecord], Adam]:
    """Run MLM training steps [start_step, start_step + num_steps).

    Each step draws a batch, masks it, samples a batch vocabulary, takes one
    Adam step at the scheduled learning rate, and records (step, lr, loss).
    """
    policy = policy or MaskingPolicy()
    pool = prepare_corpus(corpus_lines, vocab, cfg.max_length)
    optimizer = optimizer or Adam(model.trainable_parameters())
    if num_steps is None:
        num_steps = cfg.total_steps - start_step
    records = []
    vocab_size = model.config.vocab_size
    for step in range(start_step, start_step + num_steps):
        batch_rng = substream(cfg.seed, "batch", step)
        line_ids = batch_rng.integers(0, len(pool), size=cfg.batch_size)
        masked = apply_masking(
            pool[line_ids], policy, substream(cfg.seed, "masking", step), vocab_size
        )
        batch_ids = sample_batch_vocab(
            masked.input_ids[masked.input_ids >= NUM_SPECIALS],
            masked.target_global_ids,
            vocab_size=vocab_size,
            sample_size=cfg.sample_size,
            rng=substream(cfg.seed, "sampling", step),
            neighbor_index=neighbor_index,
            k=cfg.neighbor_k,
        )
        loss = mlm_loss(model, masked, batch_ids, rng=substream(cfg.seed, "dropout", step))
        loss_value = loss.item()
        if not np.isfinite(loss_value):
            raise RuntimeError(
                f"non-finite loss {loss_value} at step {step}, batch lines {line_ids.tolist()}"
            )
        model.zero_grad()
        loss.backward()
        optimizer.step(lr_at(step, cfg))
        model.zero_grad()
        records.append(StepRecord(step, lr_at(step, cfg), loss_value))
    return records, optimizer
