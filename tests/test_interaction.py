import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import sparselv
from sparselv import (
    InteractionMatrix,
    SweepConfig,
    assemble,
    block_permutation_pattern,
    full_pattern,
    general_regular_pattern,
    run_abundance_histogram,
    run_feasibility_sweep,
    run_spectrum_check,
    singular_gap,
    spectral_norm,
    stability_certificate,
)
from sparselv import experiments, interaction
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

    @pytest.mark.parametrize("alpha", [math.inf, math.nan], ids=["inf", "nan"])
    def test_alpha_must_be_finite(self, alpha):
        # Unchecked, alpha=inf made M = 0 and a "feasible" x = 1, and
        # alpha=nan a divergence blamed on the spectral radius.
        M = assemble(general_regular_pattern(20, 3, rng_seed=1), alpha=4.0, seed=2)
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            assemble(M.pattern, alpha=alpha, seed=0)
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            M.with_alpha(alpha)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_a_philox_key_is_refused(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*128\)"):
            assemble(full_pattern(2), alpha=1.0, seed=seed)


# Bit-for-bit guard of the rekeyed generator: a numpy release that changes
# Philox's state layout, or what Philox(key=...) starts from, fails here.
@settings(max_examples=150, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64, 2**128 - 1)),
       before=st.integers(1, 40), words32=st.integers(0, 3), n=st.integers(1, 40))
def test_rekeyed_draw_matches_a_fresh_philox(seed, before, words32, n):
    # A draw of another length first leaves the thread's generator part way
    # through its buffer, and 32-bit draws leave a half-used word.
    assemble(full_pattern(before), alpha=1.0, seed=seed ^ 1)
    interaction._THREAD.rng.integers(0, 2**32, words32, dtype=np.uint32)
    M = assemble(block_permutation_pattern(n, 1, np.arange(n)), alpha=1.0, seed=seed)
    fresh = np.random.Generator(np.random.Philox(key=seed)).standard_normal(n)
    assert M.weights.reshape(-1).tobytes() == fresh.tobytes()


def _draws_in_threads(work, threads):
    """Run ``work(i)`` on ``threads`` threads, with the interpreter switching
    threads every microsecond, so that their draws interleave."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)


def test_threads_assembling_interleaved_draw_the_serial_bits():
    # numpy draws without the interpreter lock, so a draw of 32 000 normals
    # gives the other threads time to rekey a generator that they shared.
    p = block_permutation_pattern(125, 16, np.arange(125))
    seeds = range(40)
    serial = {seed: assemble(p, alpha=2.0, seed=seed).weights.tobytes() for seed in seeds}
    threaded = {}

    def work(i):
        for seed in seeds[i::4]:
            threaded[seed] = assemble(p, alpha=2.0, seed=seed).weights.tobytes()

    _draws_in_threads(work, 4)
    assert threaded == serial


def test_assemble_builds_one_philox_per_thread(monkeypatch):
    made, philox = [], np.random.Philox

    def counting(*args, **kwargs):
        made.append(args)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    p = block_permutation_pattern(10, 4, np.arange(10))
    _draws_in_threads(lambda i: [assemble(p, alpha=2.0, seed=seed) for seed in range(50)], 2)
    assert len(made) == 2


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


def _csr(M):
    """The CSR of mask*A with the raw weights, built here from row_cols."""
    n, d = M.n, M.d
    return sp.csr_matrix((M.weights.reshape(-1), M.pattern.row_cols.reshape(-1),
                          np.arange(0, n * d + 1, d)), shape=(n, n))


def test_weights_read_only_and_shared_by_the_csr():
    M = assemble(general_regular_pattern(40, 5, rng_seed=2), alpha=2.0, seed=6)
    with pytest.raises(ValueError):
        M.weights[0, 0] = 1.0
    bsr = M._unscaled_bsr()
    assert bsr.blocksize == (1, 1)  # a general pattern's BSR is its CSR
    assert np.shares_memory(bsr.data, M.weights)
    assert bsr.indices.dtype == bsr.indptr.dtype == np.int32
    # The index arrays are the pattern's, read-only as the weights are.
    _, indptr, indices = M.pattern.block_index
    assert bsr.indptr is indptr and np.shares_memory(bsr.indices, indices)
    assert not indptr.flags.writeable and not indices.flags.writeable
    M2 = M.with_alpha(4.0)
    assert M2.weights is M.weights
    np.testing.assert_allclose(M2.dense(), M.dense() / 2.0, rtol=1e-15)


def test_caller_weights_stay_writable():
    # The matrix freezes a view; the float64 array passed in is not copied.
    w = np.array([[0.5], [0.5]])
    M = InteractionMatrix(block_permutation_pattern(2, 1, [1, 0]), w, 1.0)
    w[0, 0] = 2.0
    assert not M.weights.flags.writeable and np.shares_memory(M.weights, w)


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
    # The shared product calls scipy's private compiled kernel bsr_matvec
    # directly, on d x d blocks for block patterns and 1 x 1 blocks for the
    # others; it must give the bytes of csr @ v, from a CSR built here.
    M, v = case
    reference = _csr(M) @ v
    assert M.pattern.row_cols.dtype == np.int32
    if wide_index:  # the int64 row_cols of n * d >= 2^31, forced on a small pattern
        object.__setattr__(M.pattern, "row_cols", M.pattern.row_cols.astype(np.int64))
    b, indptr, indices = M.pattern.block_index
    assert indptr.dtype == indices.dtype == M.pattern.row_cols.dtype
    assert b > 1 or np.shares_memory(indices, M.pattern.row_cols)
    out = np.full(M.n, np.nan)
    assert M.unscaled_product(v, out) is out
    assert out.tobytes() == reference.tobytes()
    assert M.matvec(v).tobytes() == (M.scale * reference).tobytes()


@settings(max_examples=60, deadline=None)
@given(product_cases())
def test_dense_matches_csr_toarray_bytes(case):
    # The dense expansion is filled from row_cols in numpy, not by a CSR; it
    # must give the bytes of the CSR's toarray(), scaled as before.
    M, _ = case
    raw = _csr(M).toarray()
    assert M._unscaled_dense().tobytes() == raw.tobytes()
    assert M.dense().tobytes() == (M.scale * raw).tobytes()
    assert M.dense(unscaled=True).tobytes() == (1.0 / math.sqrt(M.d) * raw).tobytes()


def test_block_patterns_take_the_bsr_kernel(monkeypatch):
    # Every product calls bsr_matvec, on d x d blocks for aligned block
    # patterns and 1 x 1 blocks for all others.  The solve binds its kernel
    # from this module, so the counter sees every product, keyed by block
    # size: one per iteration of each of the run's solves.
    calls = {}

    def counted(*args, kernel=interaction.bsr_matvec):
        calls[args[2]] = calls.get(args[2], 0) + 1
        return kernel(*args)

    monkeypatch.setattr(interaction, "bsr_matvec", counted)
    iterations = []
    solve = experiments.solve_feasibility

    def recorded(M, **kwargs):
        report = solve(M, **kwargs)
        iterations.append(report.solver_iterations)
        return report

    monkeypatch.setattr(experiments, "solve_feasibility", recorded)

    def kernels(run, solves):
        calls.clear()
        iterations.clear()
        run()
        assert len(iterations) == solves
        return dict(calls)

    block = SweepConfig(n=120, d=8, kappa_grid=[4.0, 8.0], trials_per_point=2, master_seed=3)
    used = kernels(lambda: run_feasibility_sweep(block), 4)
    assert used == {8: sum(iterations)}
    used = kernels(lambda: run_spectrum_check(block, 8.0), 2)
    assert used == {8: sum(iterations)}
    general = replace(block, model="general_regular", fix_pattern=False)
    used = kernels(lambda: run_abundance_histogram(general, kappa=4.0), 2)
    assert used == {1: sum(iterations)}


@pytest.mark.parametrize("build, b", [
    (lambda: block_permutation_pattern(15, 8, np.random.default_rng(1).permutation(15)), 8),
    (lambda: block_permutation_pattern(40, 4, np.arange(40)), 4),  # M + M^T merges blocks
    (lambda: full_pattern(30), 30),
    (lambda: general_regular_pattern(300, 6, rng_seed=2), 1),
    (lambda: general_regular_pattern(120, 8, rng_seed=3), 1),  # d divides n, unaligned
], ids=["block", "block_identity", "full", "general", "general_divisible"])
@pytest.mark.parametrize("seed", [0, 1])
def test_arpack_helpers_match_a_csr_bit_for_bit(build, b, seed):
    # spectral_norm and stability_certificate run ARPACK on the pattern's
    # BSR; at either block size they must give the floats of svds and eigsh
    # on a CSR built here, whose transpose is a CSC with kernels of its own.
    from scipy.sparse.linalg import eigsh, svds
    M = assemble(build(), alpha=2.0, seed=seed)
    assert M.pattern.block_index[0] == b
    csr, v0 = _csr(M), np.random.default_rng(0).standard_normal(M.n)
    top = svds(csr, k=1, tol=1e-10, v0=v0, return_singular_vectors=False)[0]
    assert spectral_norm(M).spectral_norm == 1.0 / math.sqrt(M.d) * float(top)
    S = M.scale * (csr + csr.T)
    lam = eigsh(S, k=1, which="LA", tol=1e-10, maxiter=10_000, v0=v0, return_eigenvectors=False)
    assert stability_certificate(M).sym_max_eig == float(lam[0])


# Run in a fresh interpreter with "sparselv" or "scipy.sparse" as argv[1],
# the package imported first; prints how the compiled kernel resolved.
IMPORT_ORDER_SCRIPT = """
import json, sys
import numpy as np
if sys.argv[1] == "scipy.sparse":
    import scipy.sparse
from sparselv import assemble, general_regular_pattern, interaction
report = {"sparse_after_sparselv": "scipy.sparse" in sys.modules}
import scipy.sparse as sp
n, d = 50, 4
M = assemble(general_regular_pattern(n, d, rng_seed=1), alpha=2.0, seed=3)
csr = sp.csr_matrix((M.weights.reshape(-1), M.pattern.row_cols.reshape(-1),
                     np.arange(0, n * d + 1, d)), shape=(n, n))
v = np.random.default_rng(0).standard_normal(n)
report["attribute"] = sp._sparsetools is sys.modules["scipy.sparse._sparsetools"]
report["same_module"] = interaction._SPARSETOOLS is sp._sparsetools
report["product"] = (csr @ v).tobytes() == M.unscaled_product(v, np.empty(n)).tobytes()
print(json.dumps(report))
"""


@pytest.mark.parametrize("first", ["sparselv", "scipy.sparse"])
def test_kernel_loads_in_either_import_order(first):
    # The package loads the kernel's extension by file, without scipy.sparse,
    # unless scipy.sparse is already imported; then it uses scipy's module.
    src = str(Path(sparselv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", IMPORT_ORDER_SCRIPT, first], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["sparse_after_sparselv"] == (first == "scipy.sparse")
    assert report["attribute"] and report["product"]
    if first == "scipy.sparse":
        assert report["same_module"]


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
        # Checked only for tol <= 0, nan on the zero matrix and inf at n = 1
        # gave a report: neither branch reaches svds.
        for M, tol in [(zero_matrix(2), 0.0), (zero_matrix(6), np.nan), (ones_full(1), np.inf)]:
            with pytest.raises(ValueError, match="positive and finite"):
                spectral_norm(M, tol=tol)


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
