import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from sparselv import (
    assemble,
    block_permutation_pattern,
    full_pattern,
    general_regular_pattern,
    singular_gap,
    spectral_norm,
)
from sparselv.interaction import DENSE_SPECTRUM_LIMIT
from _helpers import forced, ones_full, zero_matrix


class TestAssemble:
    def test_scalar_case(self):
        M = assemble(full_pattern(1), alpha=2.0, seed=5)
        a = M.weights[0, 0]
        assert M.dense()[0, 0] == pytest.approx(a / 2.0)

    def test_block_support(self):
        p = block_permutation_pattern(4, 2, [0, 3, 1, 2])
        M = assemble(p, alpha=1.0, seed=3)
        dense = M.dense()
        mask = p.dense().astype(bool)
        assert (dense[~mask] == 0.0).all()
        assert (dense[mask] != 0.0).all()

    def test_bitwise_determinism(self):
        p = general_regular_pattern(50, 4, rng_seed=1)
        a = assemble(p, alpha=3.0, seed=99)
        b = assemble(p, alpha=3.0, seed=99)
        assert a.weights.tobytes() == b.weights.tobytes()
        c = assemble(p, alpha=3.0, seed=100)
        assert a.weights.tobytes() != c.weights.tobytes()

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            assemble(full_pattern(2), alpha=0.0, seed=0)


class TestMatvec:
    def test_zero_weights(self):
        M = zero_matrix(5)
        np.testing.assert_array_equal(M.matvec(np.arange(5.0)), np.zeros(5))

    def test_unit_weights_row_sum(self):
        # d ones per row, scaled by 1/(alpha sqrt(d)): each entry d/(alpha sqrt(d)).
        alpha, n = 2.0, 4
        M = ones_full(n, alpha)
        out = M.matvec(np.ones(n))
        np.testing.assert_allclose(out, np.full(n, math.sqrt(n) / alpha))

    def test_basis_vectors_match_dense_columns(self):
        p = general_regular_pattern(20, 5, rng_seed=2)
        M = assemble(p, alpha=1.5, seed=8)
        dense = M.dense()
        for j in range(20):
            e = np.zeros(20)
            e[j] = 1.0
            np.testing.assert_allclose(M.matvec(e), dense[:, j], rtol=1e-12, atol=1e-15)

    def test_dense_equivalence_random_vectors(self):
        rng = np.random.default_rng(0)
        for n, d in [(8, 3), (32, 6), (64, 64)]:
            p = general_regular_pattern(n, d, rng_seed=n)
            M = assemble(p, alpha=2.0, seed=n + 1)
            dense = M.dense()
            v = rng.standard_normal(n)
            ref = dense @ v
            np.testing.assert_allclose(M.matvec(v), ref, rtol=1e-12)

    def test_dimension_mismatch(self):
        M = zero_matrix(3)
        with pytest.raises(ValueError):
            M.matvec(np.ones(4))


def test_weights_read_only_and_shared_by_the_csr():
    M = assemble(general_regular_pattern(40, 5, rng_seed=2), alpha=2.0, seed=6)
    with pytest.raises(ValueError):
        M.weights[0, 0] = 1.0
    csr = M._unscaled_csr()
    assert np.shares_memory(csr.data, M.weights)
    assert csr.indices.dtype == csr.indptr.dtype == np.int32
    # The index arrays are the pattern's, read-only as the weights are.
    indptr, indices = M.pattern.csr_index
    assert csr.indptr is indptr and np.shares_memory(csr.indices, indices)
    assert not indptr.flags.writeable and not indices.flags.writeable
    M2 = M.with_alpha(4.0)
    assert M2.weights is M.weights
    np.testing.assert_allclose(M2.dense(), M.dense() / 2.0, rtol=1e-15)


@st.composite
def product_cases(draw):
    """A matrix on a block or general pattern with n <= 300, and a vector
    with zeros and mixed signs, sometimes a strided view."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        d = draw(st.integers(1, 30))
        m = draw(st.integers(1, 300 // d))
        pattern = block_permutation_pattern(m, d, np.random.default_rng(seed).permutation(m))
    else:
        n = draw(st.integers(1, 300))
        pattern = general_regular_pattern(n, draw(st.integers(1, n)), rng_seed=seed)
    M = assemble(pattern, alpha=draw(st.floats(0.5, 8.0)), seed=seed)
    rng = np.random.default_rng(seed + 1)
    stride = draw(st.sampled_from([1, 2, 3]))
    v = rng.standard_normal(stride * M.n) * rng.choice([0.0, 1.0, -1e-3, 1e3], stride * M.n)
    return M, v[::stride]


@settings(max_examples=150, deadline=None)
@given(product_cases(), st.booleans())
def test_product_matches_csr_bytes(case, wide_index):
    # The shared product calls scipy's private compiled CSR kernel directly;
    # it must give the bytes of csr @ v, from a CSR built here from row_cols.
    M, v = case
    n, d = M.n, M.d
    reference = sp.csr_matrix(
        (M.weights.reshape(-1), M.pattern.row_cols.reshape(-1), np.arange(0, n * d + 1, d)),
        shape=(n, n),
    ) @ v
    if wide_index:  # the int64 index path of n * d >= 2^31, forced on a small pattern
        vars(M.pattern)["csr_index"] = tuple(a.astype(np.int64) for a in M.pattern.csr_index)
    out = np.full(n, np.nan)
    assert M.unscaled_product(v, out) is out
    assert out.tobytes() == reference.tobytes()
    assert M.matvec(v).tobytes() == (M.scale * (M._unscaled_csr() @ v)).tobytes()


def test_scaling_covariance():
    p = general_regular_pattern(24, 4, rng_seed=7)
    M1 = assemble(p, alpha=1.0, seed=4)
    c = 3.0
    M2 = M1.with_alpha(c)
    np.testing.assert_allclose(M2.dense(), M1.dense() / c, rtol=1e-15)
    v = np.random.default_rng(1).standard_normal(24)
    np.testing.assert_allclose(M2.matvec(v), M1.matvec(v) / c, rtol=1e-12)
    s1 = spectral_norm(M1, unscaled=False).spectral_norm
    s2 = spectral_norm(M2, unscaled=False).spectral_norm
    assert s2 == pytest.approx(s1 / c, rel=1e-8)


class TestSpectralNorm:
    def test_zero_matrix(self):
        rep = spectral_norm(zero_matrix(6))
        assert rep.spectral_norm == 0.0

    def test_rank_one_all_ones(self):
        # J_4 / sqrt(4) has spectral norm 4/2 = 2.
        rep = spectral_norm(ones_full(4), unscaled=True)
        assert rep.spectral_norm == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 40, 600])
    def test_matches_dense_svd(self, n):
        # n = 1 is the single-weight branch; the rest go through svds.
        p = full_pattern(n) if n <= 2 else general_regular_pattern(n, 7, rng_seed=n)
        M = assemble(p, alpha=1.5, seed=11)
        for unscaled in (True, False):
            rep = spectral_norm(M, unscaled=unscaled)
            exact = np.linalg.svd(M.dense(unscaled=unscaled), compute_uv=False)[0]
            assert rep.spectral_norm == pytest.approx(exact, rel=1e-8)
            assert spectral_norm(M, unscaled=unscaled).spectral_norm == rep.spectral_norm
        assert spectral_norm(zero_matrix(n)).spectral_norm == 0.0

    def test_envelope_holds_at_moderate_size(self):
        p = general_regular_pattern(500, 7, rng_seed=1)
        for seed in range(3):
            rep = spectral_norm(assemble(p, alpha=1.0, seed=seed), tol=1e-8)
            assert rep.norm_bound_holds and rep.spectral_norm < 22.0

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            spectral_norm(zero_matrix(2), tol=0.0)


def test_hermitization_spectrum_symmetric():
    p = general_regular_pattern(12, 3, rng_seed=9)
    M = assemble(p, alpha=1.0, seed=10)
    C = M.dense(unscaled=True)
    H = np.block([[np.zeros((12, 12)), C], [C.T, np.zeros((12, 12))]])
    eig = np.sort(np.linalg.eigvalsh(H))
    np.testing.assert_allclose(eig, -eig[::-1], atol=1e-10)
    # nonnegative eigenvalues of H are the singular values of C
    svals = np.sort(np.linalg.svd(C, compute_uv=False))
    np.testing.assert_allclose(eig[12:], svals, atol=1e-10)


class TestSingularGap:
    def test_single_value_sentinel(self):
        assert singular_gap(assemble(full_pattern(1), 1.0, seed=0)) == math.inf

    def test_known_diagonal_spectrum(self):
        p = block_permutation_pattern(3, 1, np.arange(3))
        M = forced(p, [[1.0], [2.0], [3.0]])
        assert singular_gap(M) == pytest.approx(1.0)

    def test_refused_above_limit(self):
        p = general_regular_pattern(DENSE_SPECTRUM_LIMIT + 1, 3, rng_seed=0)
        with pytest.raises(ValueError, match="limit"):
            singular_gap(assemble(p, 1.0, seed=0))

    def test_distinct_in_random_trials(self):
        p = general_regular_pattern(10, 3, rng_seed=4)
        gaps = [singular_gap(assemble(p, 1.0, seed=s)) for s in range(50)]
        assert min(gaps) > 1e-10
