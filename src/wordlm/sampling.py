"""Per-batch output-vocabulary sampling and exact cosine nearest neighbors.

Each training batch scores its masked positions against a restricted
vocabulary: the five specials, a uniform without-replacement sample of
non-special ids, every word present in the batch, and (when a neighbor index
is supplied) the ``NEIGHBORS`` nearest cosine neighbors of each masked target
word. A batch vocabulary is a plain sorted, de-duplicated int64 array of
global word ids; ``remap_targets`` gives each target's column in it.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .vocab import NUM_SPECIALS

# Cosine neighbors each masked target adds to its batch vocabulary.
NEIGHBORS = 10


def sample_batch_vocab(
    batch_word_ids,
    target_ids,
    vocab_size: int,
    sample_size: int,
    rng: np.random.Generator,
    neighbor_index: "NeighborIndex | None" = None,
) -> np.ndarray:
    """Sorted unique ids: specials + uniform sample + batch words + targets (+ neighbors)."""
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
        parts.append(neighbor_index.neighbors_of_many(target_ids))
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


# Byte budget of the [block, V] float32 similarity buffer of one
# neighbors_of_many call; queries are scored in blocks that fit it.
_SCRATCH_BYTES = 16 << 20


class NeighborIndex:
    """Exact cosine-similarity search over an embedding table.

    The table needs more than ``NEIGHBORS`` rows, and every row past the five
    specials must be nonzero: a zero vector has no cosine neighbors. A zero
    special row never appears as a neighbor; querying one is an error. A
    block of queries is scored against every row in one float32 GEMM; the
    candidates within rounding reach of the ``NEIGHBORS``-th best score are
    then ordered by the float64 dot product of the stored float32 unit rows,
    ties toward the lower word id. So a query's list depends only on the rows
    involved, not on the other queries of its block or on the BLAS kernel.
    """

    def __init__(self, embeddings):
        emb = np.asarray(embeddings, dtype=np.float32)
        if emb.ndim != 2:
            raise ContractError(f"embedding table must be 2-D, got shape {emb.shape}")
        if emb.shape[0] <= NEIGHBORS:
            raise ContractError(f"embedding table has {emb.shape[0]} rows, but the neighbor "
                                f"search needs more than {NEIGHBORS}")
        unit = emb.astype(np.float64)
        norms = np.linalg.norm(unit, axis=1)
        self._zero = norms == 0.0
        zero = np.flatnonzero(self._zero[NUM_SPECIALS:])
        if zero.size:
            raise ContractError(f"row {zero[0] + NUM_SPECIALS} of the embedding table is all "
                                "zeros, and a zero vector has no cosine neighbors")
        unit /= np.where(self._zero, 1.0, norms)[:, None]
        self._unit = unit.astype(np.float32)
        self.size = emb.shape[0]
        # A float32 dot product of two length-E unit rows is within about
        # E * eps / 2 of its exact value, so two compared scores may be off by
        # E * eps together. The margin is twice that, which also covers the
        # float32 unit rows' norms differing from 1.
        self._margin = np.float32(2 * emb.shape[1] * np.finfo(np.float32).eps)

    def neighbors_of_many(self, word_ids) -> np.ndarray:
        """The ``NEIGHBORS`` ids most cosine-similar to each unique id of word_ids,
        excluding the id itself: one list per id, concatenated in ascending id
        order. A list is shorter only when fewer other rows are nonzero."""
        queries = np.unique(np.asarray(word_ids, dtype=np.int64))
        outside = queries[(queries < 0) | (queries >= self.size)]
        if outside.size:
            raise IndexError(f"word id {outside[0]} outside [0, {self.size})")
        zero = queries[self._zero[queries]]
        if zero.size:
            raise ContractError(f"word id {zero[0]} has a zero-norm embedding")
        block = max(1, _SCRATCH_BYTES // (4 * self.size))
        scratch = np.empty((min(block, queries.size), self.size), dtype=np.float32)
        lists = [np.empty(0, dtype=np.int64)]
        for lo in range(0, queries.size, block):
            ids = queries[lo:lo + block]
            sims = scratch[: ids.size]
            np.matmul(self._unit[ids], self._unit.T, out=sims)
            sims[:, self._zero] = -np.inf
            sims[np.arange(ids.size), ids] = -np.inf
            lists.extend(self._top_k(q, row) for q, row in zip(ids, sims))
        return np.concatenate(lists)

    def _top_k(self, query, sims):
        """The exact top ``NEIGHBORS`` of one query, given its float32 scores
        against every row."""
        kth = np.partition(sims, sims.size - NEIGHBORS)[sims.size - NEIGHBORS]
        near = np.flatnonzero(sims >= kth - self._margin)
        near = near[np.isfinite(sims[near])]
        exact = (self._unit[near].astype(np.float64) * self._unit[query].astype(np.float64)).sum(axis=1)
        return near[np.lexsort((near, -exact))][:NEIGHBORS]
