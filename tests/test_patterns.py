import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from sparselv import (
    AdjacencyPattern,
    PatternModel,
    block_permutation_pattern,
    general_regular_pattern,
    proportional_pattern,
)
from sparselv import patterns
from sparselv.cli import _pattern_text
from _helpers import split_cases


def is_circulant(row_cols):
    """True iff every row i is row 0 shifted by i (mod n)."""
    n = len(row_cols)
    shifted = np.sort((row_cols[0] + np.arange(n)[:, None]) % n, axis=1)
    return np.array_equal(shifted, row_cols)


def kron_oracle(m, d, sigma):
    """Brute-force double loop over blocks: P_sigma (x) J_d."""
    n = m * d
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            if sigma[i] == j:
                out[i * d : (i + 1) * d, j * d : (j + 1) * d] = 1
    return out


class TestBlockPermutation:
    def test_worked_example(self):
        # m=4, d=2, sigma = 1->1, 2->4, 3->2, 4->3 (one-based): dense 2x2
        # blocks at block positions (1,1), (2,4), (3,2), (4,3).
        sigma = [0, 3, 1, 2]
        p = block_permutation_pattern(4, 2, sigma)
        assert p.n == 8 and p.d == 2
        expected = kron_oracle(4, 2, sigma)
        np.testing.assert_array_equal(p.dense(), expected)
        assert p.meta["sigma"].tolist() == sigma

    def test_single_block_is_full(self):
        p = block_permutation_pattern(1, 5, [0])
        np.testing.assert_array_equal(p.dense(), np.ones((5, 5), dtype=np.int64))

    def test_d_one_identity(self):
        p = block_permutation_pattern(3, 1, np.arange(3))
        np.testing.assert_array_equal(p.dense(), np.eye(3, dtype=np.int64))

    def test_wrong_permutation_size(self):
        with pytest.raises(ValueError, match="permutation"):
            block_permutation_pattern(4, 2, np.arange(3))

    def test_repeated_index_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            block_permutation_pattern(3, 2, (0, 0, 1))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            block_permutation_pattern(3, 2, (1, 2, 3))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 10_000))
    def test_kron_oracle_equivalence(self, m, d, seed):
        if m * d > 64:
            return
        sigma = np.random.default_rng(seed).permutation(m)
        p = block_permutation_pattern(m, d, sigma)
        dense = p.dense()
        np.testing.assert_array_equal(dense, kron_oracle(m, d, sigma))
        assert (dense.sum(axis=0) == d).all() and (dense.sum(axis=1) == d).all()


class TestGeneralRegular:
    def test_single_permutation(self):
        p = general_regular_pattern(5, 1, rng_seed=7)
        dense = p.dense()
        assert (dense.sum(axis=0) == 1).all() and (dense.sum(axis=1) == 1).all()

    def test_d_equals_n_is_full(self):
        p = general_regular_pattern(4, 4, rng_seed=1)
        np.testing.assert_array_equal(p.dense(), np.ones((4, 4), dtype=np.int64))

    def test_counting_oracle_n100_d7(self):
        p = general_regular_pattern(100, 7, rng_seed=42)
        dense = p.dense()
        assert dense.sum() == 700
        assert (dense.sum(axis=0) == 7).all()
        assert (dense.sum(axis=1) == 7).all()

    def test_reproducible(self):
        a = general_regular_pattern(60, 5, rng_seed=9)
        b = general_regular_pattern(60, 5, rng_seed=9)
        assert a == b
        c = general_regular_pattern(60, 5, rng_seed=10)
        assert a != c

    @pytest.mark.parametrize("d", [8, 16])
    def test_not_circulant_at_sweep_size(self, d):
        for seed in range(5):
            p = general_regular_pattern(2000, d, rng_seed=seed)
            assert p.meta["method"] == "permutation_switching"
            assert not is_circulant(p.row_cols)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            general_regular_pattern(5, 6, rng_seed=0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 60), st.data())
    def test_always_regular(self, n, data):
        d = data.draw(st.integers(1, n))
        seed = data.draw(st.integers(0, 10_000))
        p = general_regular_pattern(n, d, seed)
        count = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for c in p.row_cols[i]:
                count[i, c] += 1
        assert count.max() == 1
        assert (count.sum(axis=0) == d).all() and (count.sum(axis=1) == d).all()
        assert (np.diff(p.row_cols, axis=1) > 0).all()
        assert general_regular_pattern(n, d, seed) == p
        if n >= 16 and d < n:
            assert not is_circulant(p.row_cols)


def test_proportional_model():
    p = proportional_pattern(40, 0.25, rng_seed=3)
    assert p.d == 10 and p.model is PatternModel.PROPORTIONAL
    dense = p.dense()
    assert (dense.sum(axis=0) == 10).all() and (dense.sum(axis=1) == 10).all()


def test_text_round_trip(tmp_path):
    p = general_regular_pattern(30, 4, rng_seed=11)
    path = tmp_path / "pattern.txt"
    path.write_text(_pattern_text(p))
    assert path.read_text().split("\n", 1)[0] == "30 4 general_regular 11"
    row_cols = np.loadtxt(path, dtype=np.int64, skiprows=1, ndmin=2)
    np.testing.assert_array_equal(row_cols, p.row_cols)


# SHA-256 of row_cols as int64 values for general_regular_pattern(n, d,
# seed), whatever index type the pattern stores them in, recorded while
# every n <= 4096 build used the n x n count table.  They cover the
# table path (2000, 1000), the scan (2000, 16) and (5000, 40), and the
# complement of an (n - d)-regular pattern (600, 500).
FROZEN_DIGESTS = {
    (2000, 16, 0): "8a2b47f2389c96c9d3dc524e0b9bdefaf60a64692ab498e5378f7324c2f2a048",
    (2000, 16, 1): "0f95ae0369f81d1040fa5107cc054b1755c33281b8279069b57f7c7871270975",
    (2000, 16, 2): "45e2a2ca8794bfc47a238e2ae633fb60562852bf2e5d45c4f87288d512d1cce5",
    (2000, 1000, 0): "5775473049f421bda17b40fa1ba9a25338ddfead004e04bba35309e15c68f17f",
    (600, 500, 7): "a222d779b37321646a48a089e28cba5592fff6ed9020e4bedb754ef708c0f829",
    (5000, 40, 3): "1ae0fff1debc81f3e4eab6a0cd3588ca5b276a815451fb2ef720c23d2cad1749",
    # Recorded while the repair keys were value * d + layer in int64.  They
    # are now value << s | layer, s = (d - 1).bit_length(); these d step s
    # through 0, 1, 5 and 6, on the scan and the table paths.
    (300, 1, 0): "f8ca23d3f564963b2eaaa6bd00f5950c2cfe3ab0a59f9902c34d895f5261b450",
    (300, 2, 4): "ba668840f93f0e22940430ee1d0e74b76cc7beeba5d5dbb8cf429d3c85a15eba",
    (300, 17, 5): "fb7aa1546953dc9d43f07fa9953c515a38a12184b8b310927b8261660de423f6",
    (3000, 33, 6): "3b6b1a89198b664d8f3885f7c7d349b8c38a24e7f58d5b2b5b7e95b8f5370c13",
    # Recorded before the repair reached its rows through the inverse of
    # each round's matching.  Odd n leaves one slot unpaired every round,
    # on the scan (2001, 16) and the table (65, 32); d = n / 2 (64, 32)
    # has the most repeats and rounds.
    (2001, 16, 5): "4a792086c06825f4a647a9377ff80f8a06f5cf039ab5cf6a1c8af8252d234c40",
    (65, 32, 3): "4df3631b03def5c785c188566e80370ff58ee549c7935b2a9baa8466dac0c34e",
    (64, 32, 9): "c906445be0c01625ac167319feff29727177c3edffdaa0d85e4f248b86da444c",
}


@pytest.mark.parametrize("n, d, seed", sorted(FROZEN_DIGESTS))
def test_frozen_digest(n, d, seed):
    row_cols = general_regular_pattern(n, d, rng_seed=seed).row_cols.astype(np.int64)
    assert hashlib.sha256(row_cols.tobytes()).hexdigest() == FROZEN_DIGESTS[n, d, seed]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 300), st.data(), st.integers(0, 2**32 - 1))
def test_table_and_scan_agree(n, data, seed):
    d = data.draw(st.integers(1, n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(patterns, "_TABLE_RATIO", n)  # n <= n * d: always the table
        table = general_regular_pattern(n, d, rng_seed=seed).row_cols
        mp.setattr(patterns, "_TABLE_RATIO", 0)  # never the table
        scan = general_regular_pattern(n, d, rng_seed=seed).row_cols
    np.testing.assert_array_equal(table, scan)


def test_caller_row_cols_stay_writable():
    # The pattern freezes a view; an array passed in its index type, int32
    # below n * d = 2^31, is not copied.
    rc = np.array([[1], [0]], dtype=np.int32)
    p = AdjacencyPattern(2, 1, PatternModel.BLOCK_PERMUTATION, rc)
    rc[0, 0] = 0
    assert not p.row_cols.flags.writeable and np.shares_memory(p.row_cols, rc)


@pytest.mark.parametrize("column", [-1, 3, 1_000_000, 2**32 + 1])
def test_column_outside_the_matrix_is_refused(column):
    # Neither the compiled product nor the dense fill checks its indices: a
    # column of 10^6 read past the vector, and a negative one would wrap.
    # Cast to int32 first, 2^32 + 1 would pass as column 1.
    rc = np.array([sorted([1, column]), [1, 2], [0, 2]], dtype=np.int64)
    with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
        AdjacencyPattern(3, 2, PatternModel.GENERAL_REGULAR, rc)
    rc[0] = [0, 1]
    assert AdjacencyPattern(3, 2, PatternModel.GENERAL_REGULAR, rc).row_cols.max() == 2


@pytest.mark.parametrize("rows, dtype", [
    ([[1, 1], [0, 2], [0, 2]], np.int64),  # row 0 holds column 1 twice
    ([[0, 1], [2, 0], [0, 2]], np.int64),  # row 1 is not sorted
    ([[0, 1], [2, 0], [0, 2]], np.uint64),  # 0 - 2 wraps to a large uint64
    ([[1, 1], [2, 0], [0, 2]], np.int32),
], ids=["repeated", "unsorted", "unsorted-uint64", "both-int32"])
def test_repeated_or_unsorted_columns_are_refused(rows, dtype):
    # Accepted, row 0 of the first held one position with two weights added,
    # and the second compared unequal to the same set written in order.
    with pytest.raises(ValueError, match="repeats a column or is unsorted"):
        AdjacencyPattern(3, 2, PatternModel.GENERAL_REGULAR, np.array(rows, dtype=dtype))


def test_more_columns_than_rows_is_refused():
    # d > n columns in [0, n) cannot all differ.
    with pytest.raises(ValueError, match="repeats a column|outside"):
        AdjacencyPattern(2, 3, PatternModel.GENERAL_REGULAR, np.array([[0, 1, 2], [0, 1, 2]]))
    with pytest.raises(ValueError, match="repeats a column"):
        AdjacencyPattern(2, 3, PatternModel.GENERAL_REGULAR, np.array([[0, 1, 1], [0, 0, 1]]))


def test_non_integer_columns_are_refused():
    # The cast to the index type would truncate 0.5 and 0.7 to one column.
    with pytest.raises(ValueError, match="must hold integers"):
        AdjacencyPattern(2, 2, PatternModel.GENERAL_REGULAR, np.array([[0.5, 0.7], [0.0, 1.0]]))


@pytest.mark.parametrize("n, d", [(5, 0), (0, 3), (0, 0), (-1, 2)])
def test_no_rows_or_no_columns_is_refused(n, d):
    # Accepted, d = 0 failed at the first product with a ZeroDivisionError
    # in the index build, and n = 0 at a solve's empty reduction.
    with pytest.raises(ValueError, match=rf"got n={n}, d={d}"):
        AdjacencyPattern(n, d, PatternModel.GENERAL_REGULAR, np.zeros((max(n, 0), d), int))


def test_block_index_is_d_only_for_aligned_blocks():
    # The BSR kernel checks no shapes: d x d blocks on anything but aligned
    # blocks would make it read past its arrays, so those take 1 x 1 blocks,
    # the CSR: row pointers 0, d, 2d, ... and the columns of row_cols.
    block = block_permutation_pattern(3, 4, [1, 2, 0])
    b, indptr, indices = block.block_index
    assert b == 4 and indptr.tolist() == [0, 1, 2, 3] and indices.tolist() == [1, 2, 0]
    assert indptr.dtype == indices.dtype == block.row_cols.dtype == np.int32
    assert not indptr.flags.writeable and not indices.flags.writeable
    assert block.block_index is block.block_index
    b, _, indices = patterns.full_pattern(5).block_index
    assert b == 5 and indices.tolist() == [0]
    shifted = block.row_cols.copy()
    shifted[1] += 1  # row 1 holds columns 5..8; row 0, which opens the block row, 4..7
    unaligned = np.tile(np.arange(2, 6), (12, 1))  # one run of 4, starting at column 2
    for p in [block_permutation_pattern(4, 1, [1, 0, 3, 2]),
              AdjacencyPattern(12, 4, PatternModel.BLOCK_PERMUTATION, shifted),
              AdjacencyPattern(12, 4, PatternModel.BLOCK_PERMUTATION, unaligned),
              general_regular_pattern(60, 6, rng_seed=1),
              proportional_pattern(40, 0.25, rng_seed=3)]:
        b, indptr, indices = p.block_index
        assert b == 1 and indptr.dtype == indices.dtype == p.row_cols.dtype == np.int32
        assert indptr.tolist() == list(range(0, p.n * p.d + 1, p.d))
        # A CSR's column indices are row_cols itself, not a copy.
        assert np.shares_memory(indices, p.row_cols)
        assert indices.tolist() == p.row_cols.reshape(-1).tolist()
        assert not indptr.flags.writeable and not indices.flags.writeable


@settings(max_examples=200, deadline=None)
@given(split_cases())
def test_strong_components_agree_with_csgraph(case):
    # csgraph runs on the dense 0/1 mask.
    pattern, balanced = case
    count, labels = pattern.strong_components
    ref_count, ref_labels = connected_components(pattern.dense(), directed=True,
                                                 connection="strong")
    assert count == ref_count
    assert len(set(zip(labels.tolist(), ref_labels.tolist()))) == count
    # Labelled 0, 1, ... in order of their smallest member.
    smallest = np.unique(labels, return_index=True)[1]
    assert len(smallest) == labels.max() + 1 == count
    assert (np.diff(smallest) > 0).all()
    if balanced:
        np.testing.assert_array_equal(labels, ref_labels)
    assert pattern.strong_components is pattern.strong_components
