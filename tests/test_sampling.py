"""Batch-vocabulary sampling and nearest-neighbor tests."""

import itertools
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from wordlm import sampling
from wordlm.errors import ContractError
from wordlm.sampling import NeighborIndex, remap_targets, sample_batch_vocab
from wordlm.vocab import NUM_SPECIALS

from oracles import brute_force_topk


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
        k = sampling.NEIGHBORS
        for _ in range(1000):
            batch = set(rng.integers(NUM_SPECIALS, 2_000, size=rng.integers(1, 40)).tolist())
            masked = set(
                rng.choice(sorted(batch), size=min(len(batch), int(rng.integers(1, 6)))).tolist()
            )
            bv = sample_batch_vocab(
                sorted(batch), sorted(masked), vocab_size=2_000, sample_size=50,
                rng=rng, neighbor_index=index,
            )
            for t in masked:
                assert t in bv
            assert len(bv) <= 50 + len(batch) + k * len(masked) + NUM_SPECIALS

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
        emb = np.random.default_rng(5).standard_normal((16, 4)).astype(np.float32)
        emb[3] = 2.5 * emb[0]
        index = NeighborIndex(emb)
        assert index.neighbors_of_many([0])[0] == 3

    def test_orthogonal_ties_break_by_id(self):
        emb = np.eye(13, dtype=np.float32)
        index = NeighborIndex(emb)
        np.testing.assert_array_equal(index.neighbors_of_many([3]), [0, 1, 2, 4, 5, 6, 7, 8, 9, 10])

    def test_matches_brute_force_oracle(self):
        emb = np.random.default_rng(6).standard_normal((200, 300)).astype(np.float32)
        index = NeighborIndex(emb)
        expected = brute_force_topk(emb, k=10)
        for q in range(200):
            np.testing.assert_array_equal(index.neighbors_of_many([q]), expected[q])

    def test_zero_norm_row_never_selected(self):
        # 12 rows: for each live query, the ten others are exactly the live rows
        emb = np.random.default_rng(7).standard_normal((12, 3)).astype(np.float32)
        emb[2] = 0.0
        index = NeighborIndex(emb)
        for q in range(12):
            if q == 2:
                continue
            got = index.neighbors_of_many([q])
            assert sorted(got) == sorted(set(range(12)) - {q, 2})

    def test_unit_rows_match_the_two_copy_formula(self):
        # the stored unit rows decide every neighbor list, so building them
        # from one float64 copy must not move a single bit
        emb = np.random.default_rng(8).standard_normal((300, 30)).astype(np.float32)
        emb[3] = 0.0  # a special's row may be zero
        norms = np.linalg.norm(emb.astype(np.float64), axis=1)
        zero = norms == 0.0
        expected = (emb.astype(np.float64) / np.where(zero, 1.0, norms)[:, None]).astype(np.float32)
        index = NeighborIndex(emb)
        assert index._unit.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(index._zero, zero)
        assert index._zero.sum() == 1

    def test_zero_norm_query_rejected(self):
        emb = np.ones((12, 3), dtype=np.float32)
        emb[1] = 0.0
        with pytest.raises(ContractError, match="word id 1 has a zero-norm embedding"):
            NeighborIndex(emb).neighbors_of_many([1])

    def test_query_id_bounds(self):
        index = NeighborIndex(np.ones((12, 3), dtype=np.float32))
        for bad in (12, -1):
            with pytest.raises(IndexError, match=r"outside \[0, 12\)"):
                index.neighbors_of_many([bad])
        assert len(index.neighbors_of_many([11])) == 10

    def test_zero_word_row_refused_at_build(self):
        emb = np.ones((40, 3), dtype=np.float32)
        emb[[4, 29, 33]] = 0.0  # row 4 is a special's, so the first word row named is 29
        with pytest.raises(ContractError, match="row 29 of the embedding table is all zeros"):
            NeighborIndex(emb)
        emb[[29, 33]] = 1e-30  # tiny is not zero
        assert len(NeighborIndex(emb).neighbors_of_many([29])) == 10

    def test_table_that_is_not_2d_refused(self):
        with pytest.raises(ContractError, match=r"embedding table must be 2-D, got shape \(40,\)"):
            NeighborIndex(np.ones(40, dtype=np.float32))

    @pytest.mark.parametrize("rows", [1, 10])
    def test_table_of_at_most_ten_rows_refused(self, rows):
        with pytest.raises(ContractError, match=f"embedding table has {rows} rows, but the "
                                                "neighbor search needs more than 10"):
            NeighborIndex(np.ones((rows, 3), dtype=np.float32))


# Integer rows of squared norm exactly 2**28 have unit rows n / 2**14 that
# float32 holds exactly, and the dot product of two such rows is exact in
# float64 but rounded in float32. BASE repeats 4827, so a row and its copy with
# positions 0 and 1 swapped tie exactly as neighbors of BASE, while float32
# sums their equal products in a different order.
BASE = np.array([4827, 4827, 3812, -10028, 7311, -7100, 693, 1550])


def tie_heavy_table():
    """Shuffled rows: permutations of BASE moving at most three positions (with
    duplicates, since BASE repeats an entry), exact 2x and 3x copies of some,
    and the one-hot rows, which are orthogonal to each other."""
    rows = []
    for i, j, m in itertools.combinations(range(len(BASE)), 3):
        for cycle in ((i, j), (i, m), (j, m), (i, j, m), (i, m, j)):
            row = BASE.copy()
            row[list(cycle)] = row[list(cycle[1:] + cycle[:1])]
            rows.append(row)
    rows += [2 * r for r in rows[::7]] + [3 * r for r in rows[3::11]]
    rows += list(np.eye(len(BASE), dtype=np.int64))
    table = np.array(rows, dtype=np.float32)
    assert np.all(np.abs(table) < 2**24)  # every entry exact in float32
    return table[np.random.default_rng(9).permutation(len(table))]


class TestBatchedSearch:
    def test_tie_heavy_table_matches_oracle(self):
        emb = tie_heavy_table()
        index = NeighborIndex(emb)
        everyone = np.arange(len(emb))
        expected = brute_force_topk(emb, k=10)
        got = index.neighbors_of_many(everyone).reshape(len(emb), 10)
        for q in everyone:
            np.testing.assert_array_equal(got[q], expected[q], err_msg=f"query {q}")

    def test_list_does_not_depend_on_block_composition(self, monkeypatch):
        emb = tie_heavy_table()
        block = 7
        monkeypatch.setattr(sampling, "_SCRATCH_BYTES", 4 * len(emb) * block)
        index = NeighborIndex(emb)
        alone = {q: index.neighbors_of_many([q]) for q in range(len(emb))}
        for size in (2, block - 1, block, block + 1):
            for lo in range(0, len(emb), size):
                ids = np.arange(lo, min(lo + size, len(emb)))
                got = index.neighbors_of_many(ids).reshape(len(ids), 10)
                for q, row in zip(ids, got):
                    np.testing.assert_array_equal(row, alone[q], err_msg=f"query {q}, batch {size}")

    def test_fewer_live_rows_than_k(self):
        # fewer than ten live rows besides each query: the lists are shorter
        emb = np.random.default_rng(10).standard_normal((12, 4)).astype(np.float32)
        emb[[1, 2, 3, 4]] = 0.0  # zero rows are specials' rows
        index = NeighborIndex(emb)
        got = index.neighbors_of_many([0, 5, 9])
        expected = brute_force_topk(emb, k=7)  # seven live rows besides each query
        np.testing.assert_array_equal(got, np.concatenate([expected[q] for q in (0, 5, 9)]))

    @pytest.mark.parametrize(
        "ids,error",
        [([2, 12], IndexError), ([-1, 2], IndexError), ([2, 1], ContractError)],
        ids=["id-too-large", "id-negative", "zero-norm-query"],
    )
    def test_invalid_query_raises_within_a_batch(self, ids, error):
        emb = np.random.default_rng(11).standard_normal((12, 3)).astype(np.float32)
        emb[1] = 0.0
        with pytest.raises(error):
            NeighborIndex(emb).neighbors_of_many(ids)

    def test_scratch_stays_within_block_budget(self):
        vocab_size = 20_000
        emb = np.random.default_rng(12).standard_normal((vocab_size, 32)).astype(np.float32)
        index = NeighborIndex(emb)
        queries = np.random.default_rng(13).choice(vocab_size, size=2_000, replace=False)
        tracemalloc.start()
        try:
            got = index.neighbors_of_many(queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(got) == 2_000 * 10
        # the [block, V] float32 buffer, plus per-query temporaries of O(V)
        assert peak < sampling._SCRATCH_BYTES + 64 * vocab_size, peak


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
