"""Per-batch output-vocabulary sampling and exact cosine nearest neighbors.

Each training batch scores its masked positions against a restricted
vocabulary: the five specials, a uniform without-replacement sample of
non-special ids, every word present in the batch, and (when a neighbor index
is supplied) the top-k cosine neighbors of each masked target word. A batch
vocabulary is a plain sorted, de-duplicated int64 array of global word ids;
``remap_targets`` gives each target's column in it.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .vocab import NUM_SPECIALS


def sample_batch_vocab(
    batch_word_ids,
    target_ids,
    vocab_size: int,
    sample_size: int,
    rng: np.random.Generator,
    neighbor_index: "NeighborIndex | None" = None,
    k: int = 10,
) -> np.ndarray:
    """Sorted unique ids: specials + uniform sample + batch words + targets (+ neighbors)."""
    if sample_size < 1:
        raise ContractError(f"sample_size must be >= 1, got {sample_size}")
    n_non_special = vocab_size - NUM_SPECIALS
    if sample_size >= n_non_special:
        return np.arange(vocab_size, dtype=np.int64)

    target_ids = np.asarray(target_ids, dtype=np.int64)
    sampled = rng.choice(n_non_special, size=sample_size, replace=False) + NUM_SPECIALS
    parts = [
        np.arange(NUM_SPECIALS, dtype=np.int64),
        sampled.astype(np.int64),
        np.asarray(batch_word_ids, dtype=np.int64),
        target_ids,
    ]
    if neighbor_index is not None and target_ids.size:
        parts.append(neighbor_index.neighbors_of_many(target_ids, k=k))
    return np.unique(np.concatenate(parts))


def remap_targets(targets, batch_ids: np.ndarray) -> np.ndarray:
    """Local indices such that batch_ids[local] == targets."""
    targets = np.asarray(targets, dtype=np.int64)
    local = np.searchsorted(batch_ids, targets)
    bad = (local >= len(batch_ids)) | (batch_ids[np.minimum(local, len(batch_ids) - 1)] != targets)
    if bad.any():
        missing = targets[bad][:5].tolist()
        raise ContractError(f"targets absent from batch vocabulary (sampler bug): {missing}")
    return local


class NeighborIndex:
    """Exact cosine-similarity search over an embedding table.

    Zero-norm rows never appear as neighbors; querying one is an error. Ties
    in similarity break toward the lower word id.
    """

    def __init__(self, embeddings):
        emb = np.asarray(embeddings, dtype=np.float32)
        if emb.ndim != 2:
            raise ContractError(f"embedding table must be 2-D, got shape {emb.shape}")
        norms = np.linalg.norm(emb.astype(np.float64), axis=1)
        self._zero = norms == 0.0
        safe = np.where(self._zero, 1.0, norms)
        self._unit = (emb.astype(np.float64) / safe[:, None]).astype(np.float32)
        self.size = emb.shape[0]

    def nearest_words(self, word_id: int, k: int = 10) -> np.ndarray:
        """The k ids most cosine-similar to word_id, excluding word_id."""
        if not 0 <= word_id < self.size:
            raise IndexError(f"word id {word_id} outside [0, {self.size})")
        if k >= self.size:
            raise ContractError(f"k={k} must be smaller than the vocabulary ({self.size})")
        if self._zero[word_id]:
            raise ContractError(f"word id {word_id} has a zero-norm embedding")
        sims = self._unit @ self._unit[word_id]
        sims = sims.astype(np.float64)
        sims[self._zero] = -np.inf
        sims[word_id] = -np.inf
        order = np.argsort(-sims, kind="stable")
        finite = order[np.isfinite(sims[order])]
        return finite[:k].astype(np.int64)

    def neighbors_of_many(self, word_ids, k: int = 10) -> np.ndarray:
        chunks = [self.nearest_words(int(w), k=k) for w in np.unique(word_ids)]
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)
