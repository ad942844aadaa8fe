"""Batch-vocabulary sampling and nearest-neighbor tests."""

import numpy as np
import pytest
from scipy import stats

from wordlm.errors import ContractError
from wordlm.sampling import NeighborIndex, remap_targets, sample_batch_vocab
from wordlm.vocab import NUM_SPECIALS


def brute_force_topk(embeddings, k):
    """Full similarity matrix + explicit per-row sort, ties by id ascending."""
    emb = np.asarray(embeddings, dtype=np.float64)
    norms = np.linalg.norm(emb, axis=1)
    unit = emb / np.where(norms == 0.0, 1.0, norms)[:, None]
    sims = unit @ unit.T
    sims[norms == 0.0, :] = -np.inf
    sims[:, norms == 0.0] = -np.inf
    np.fill_diagonal(sims, -np.inf)
    out = []
    for i in range(emb.shape[0]):
        row = sims[i]
        order = sorted(range(emb.shape[0]), key=lambda j: (-row[j], j))
        out.append(order[:k])
    return out


class TestSampleBatchVocab:
    def test_sample_exceeding_vocab_degenerates_to_full(self):
        bv = sample_batch_vocab(
            [7, 9], [7], vocab_size=100, sample_size=30_000, rng=np.random.default_rng(0)
        )
        np.testing.assert_array_equal(bv, np.arange(100))

    def test_empty_batch_is_sample_plus_specials(self):
        bv = sample_batch_vocab(
            [], [], vocab_size=10_000, sample_size=200, rng=np.random.default_rng(1)
        )
        assert bv.dtype == np.int64
        assert len(bv) == 200 + NUM_SPECIALS
        assert all(s in bv for s in range(NUM_SPECIALS))
        assert np.all(np.diff(bv) > 0)

    def test_membership_and_size_bound_over_random_trials(self):
        rng = np.random.default_rng(2)
        emb = np.random.default_rng(3).standard_normal((2_000, 8)).astype(np.float32)
        index = NeighborIndex(emb)
        k = 10
        for _ in range(1000):
            batch = set(rng.integers(NUM_SPECIALS, 2_000, size=rng.integers(1, 40)).tolist())
            masked = set(
                rng.choice(sorted(batch), size=min(len(batch), int(rng.integers(1, 6)))).tolist()
            )
            bv = sample_batch_vocab(
                sorted(batch), sorted(masked), vocab_size=2_000, sample_size=50,
                rng=rng, neighbor_index=index, k=k,
            )
            for t in masked:
                assert t in bv
            assert len(bv) <= 50 + len(batch) + k * len(masked) + NUM_SPECIALS

    def test_sample_size_zero_rejected(self):
        with pytest.raises(ContractError):
            sample_batch_vocab([], [], vocab_size=10, sample_size=0, rng=np.random.default_rng(0))

    def test_resampling_freshness(self):
        batch = [10, 11, 12]
        seen = set()
        for seed in range(100):
            bv = sample_batch_vocab(
                batch, [10], vocab_size=10_000, sample_size=50,
                rng=np.random.default_rng(seed),
            )
            seen.add(tuple(bv.tolist()))
        assert len(seen) == 100

    def test_inclusion_uniformity_chi_square(self):
        rng = np.random.default_rng(4)
        vocab_size = 1_000
        counts = np.zeros(vocab_size, dtype=np.int64)
        draws = 50_000
        for _ in range(draws):
            bv = sample_batch_vocab([], [], vocab_size=vocab_size, sample_size=10, rng=rng)
            counts[bv] += 1
        body = counts[NUM_SPECIALS:]
        _, pvalue = stats.chisquare(body)
        assert pvalue > 0.001
        np.testing.assert_array_equal(counts[:NUM_SPECIALS], draws)


class TestNearestWords:
    def test_scaled_vector_is_top_neighbor(self):
        emb = np.random.default_rng(5).standard_normal((6, 4)).astype(np.float32)
        emb[3] = 2.5 * emb[0]
        index = NeighborIndex(emb)
        assert index.nearest_words(0, k=1)[0] == 3

    def test_orthogonal_ties_break_by_id(self):
        emb = np.eye(5, dtype=np.float32)
        index = NeighborIndex(emb)
        np.testing.assert_array_equal(index.nearest_words(3, k=4), [0, 1, 2, 4])

    def test_matches_brute_force_oracle(self):
        emb = np.random.default_rng(6).standard_normal((200, 300)).astype(np.float32)
        index = NeighborIndex(emb)
        expected = brute_force_topk(emb, k=10)
        for q in range(200):
            np.testing.assert_array_equal(index.nearest_words(q, k=10), expected[q])

    def test_zero_norm_row_never_selected(self):
        emb = np.random.default_rng(7).standard_normal((8, 3)).astype(np.float32)
        emb[2] = 0.0
        index = NeighborIndex(emb)
        for q in range(8):
            if q == 2:
                continue
            got = index.nearest_words(q, k=7)
            assert 2 not in got
            assert len(got) == 6  # query and the zero-norm row excluded

    def test_zero_norm_query_rejected(self):
        emb = np.ones((4, 3), dtype=np.float32)
        emb[1] = 0.0
        with pytest.raises(ContractError):
            NeighborIndex(emb).nearest_words(1, k=2)

    def test_query_id_bounds(self):
        index = NeighborIndex(np.ones((4, 3), dtype=np.float32))
        with pytest.raises(IndexError):
            index.nearest_words(4, k=2)
        with pytest.raises(ContractError):
            index.nearest_words(0, k=4)


class TestRemapTargets:
    def test_sorted_order_example(self):
        bv = np.array([0, 1, 2, 3, 4, 9, 17])
        np.testing.assert_array_equal(remap_targets([9, 17], bv), [5, 6])

    def test_identity_permutation(self):
        bv = np.array([0, 1, 2, 3, 4, 7, 8])
        np.testing.assert_array_equal(remap_targets(bv, bv), np.arange(len(bv)))

    def test_randomized_inverse_property(self):
        rng = np.random.default_rng(8)
        ids = np.unique(rng.integers(0, 100_000, size=4_000))
        targets = rng.choice(ids, size=10_000, replace=True)
        local = remap_targets(targets, ids)
        np.testing.assert_array_equal(ids[local], targets)

    def test_absent_target_is_contract_violation(self):
        bv = np.array([0, 1, 2, 3, 4, 10])
        with pytest.raises(ContractError, match="sampler bug"):
            remap_targets([11], bv)
