import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdm import lowrank
from kdm.kernels import KernelSpec, cross_kernel_matrix
from kdm.lowrank import (
    DIAG_FLOOR_REL,
    PSD_TOL_REL,
    KernelOracle,
    NumericsError,
    greedy_pivot,
    omp_pivot,
    pivoted_cholesky,
)
from reference import MatrixOracle, verify_factors


def random_psd(rng, size, kind, jitter=0.0):
    """Test matrices: kernel matrices on random data, or factor Gram matrices."""
    if kind == "gaussian":
        pts = rng.normal(0, 1, (size, rng.integers(1, 4)))
        k = np.exp(-_sqd(pts) / (2.0 * rng.uniform(0.5, 2.0)))
    elif kind == "laplace":
        pts = rng.normal(0, 1, (size, 2))
        k = np.exp(-rng.uniform(0.3, 1.5) * np.sqrt(_sqd(pts)))
    elif kind == "wishart":
        a = rng.normal(0, 1, (size, size + 5))
        k = a @ a.T / size
    else:  # lowrank factor Gram
        r = rng.integers(1, max(size // 2, 2))
        a = rng.normal(0, 1, (size, r))
        k = a @ a.T
    return k + jitter * np.eye(size)


def _sqd(pts):
    s = np.sum(pts**2, axis=1)
    return np.maximum(s[:, None] + s[None, :] - 2 * pts @ pts.T, 0.0)


def test_worked_rank_one_example():
    # K = [[1,2],[2,4]] has rank 1; the larger diagonal entry 4 is pivoted
    # first, giving l = (2,4)/2 = (1,2) and R = [1/2]
    k = np.array([[1.0, 2.0], [2.0, 4.0]])
    f = pivoted_cholesky(MatrixOracle(k), epsilon=0.0)
    assert f.rank == 1
    np.testing.assert_array_equal(f.pivots, [1])
    l = f.Lt.T
    np.testing.assert_allclose(l, [[1.0], [2.0]], atol=1e-15)
    np.testing.assert_allclose(f.R, [[0.5]], atol=1e-15)
    np.testing.assert_allclose(l @ l.T, k, atol=1e-14)
    # R R^T = 1/4 = inverse of the pivot block K[1,1]
    assert f.R[0, 0] ** 2 == pytest.approx(0.25)
    assert f.residual_trace == 0.0


def test_identity_matrix_complete():
    f = pivoted_cholesky(MatrixOracle(np.eye(5)), epsilon=0.0)
    assert f.rank == 5
    np.testing.assert_array_equal(f.pivots, np.arange(5))  # ties -> smallest index
    np.testing.assert_allclose(f.Lt.T, np.eye(5), atol=1e-15)
    np.testing.assert_allclose(f.R, np.eye(5), atol=1e-15)


def test_greedy_pivot_rules():
    assert greedy_pivot(np.array([1.0, 3.0, 3.0])) == 1  # ties -> smallest index
    assert greedy_pivot(np.array([0.0, 0.0, 5.0])) == 2
    assert greedy_pivot(np.array([-2.0, 0.5, -7.0])) == 1  # negatives never win
    with pytest.raises(ValueError):
        greedy_pivot(np.zeros(3))
    with pytest.raises(ValueError):
        greedy_pivot(np.array([-1.0, -0.5, 0.0]))
    with pytest.raises(ValueError):
        greedy_pivot(np.array([1.0, np.nan, 2.0]))
    with pytest.raises(ValueError):
        greedy_pivot(np.full(3, np.nan))


def test_omp_pivot_scores():
    # equal diagonal entries both reach the quantile; scores 4 vs 1 -> index 0
    assert omp_pivot(np.array([1.0, 1.0]), np.array([2.0, 1.0]), np.zeros(2)) == 0
    # quantile 0.9 of nonzero d = 3.601 excludes the first entry
    assert omp_pivot(np.array([0.01, 4.0]), np.array([10.0, 0.1]), np.zeros(2)) == 1
    # all scores zero -> greedy fallback on d
    assert omp_pivot(np.array([1.0, 2.0]), np.zeros(2), np.zeros(2)) == 1
    with pytest.raises(ValueError):
        omp_pivot(np.zeros(2), np.ones(2), np.zeros(2))


def test_structural_identities_random_matrices():
    rng = np.random.default_rng(7)
    kinds = ["gaussian", "laplace", "wishart", "lowrank"]
    for trial in range(24):
        size = int(rng.integers(8, 60))
        k = random_psd(rng, size, kinds[trial % 4], jitter=0.5 if trial % 4 != 3 else 0.0)
        oracle = MatrixOracle(k)
        f = pivoted_cholesky(oracle, epsilon=0.0)
        assert oracle.queries == f.rank  # exactly one column read per pivot
        chk = verify_factors(k, f)
        scale = 1.0 + np.linalg.norm(k)
        assert chk.col_identity <= 1e-8 * scale
        assert chk.biorthogonality <= 1e-8 * np.sqrt(f.rank)
        assert chk.nystrom <= 1e-8 * scale
        assert chk.residual_min_eig >= -1e-8 * np.trace(k)
        # rows of L at pivots form a lower triangle in pivot order
        lp = f.Lt.T[f.pivots, :]
        np.testing.assert_allclose(lp, np.tril(lp), atol=1e-12)
        np.testing.assert_allclose(f.R, np.triu(f.R), atol=1e-12)


def test_partial_decomposition_trace_budget():
    rng = np.random.default_rng(21)
    for _ in range(10):
        k = random_psd(rng, int(rng.integers(20, 80)), "gaussian")
        eps = 0.05 * np.trace(k)
        f = pivoted_cholesky(MatrixOracle(k), epsilon=eps)
        l = f.Lt.T
        resid = k - l @ l.T
        assert np.trace(resid) <= eps + 1e-10 * np.trace(k)
        assert f.residual_trace == pytest.approx(np.trace(resid), abs=1e-10 * np.trace(k))
        assert np.linalg.eigvalsh(0.5 * (resid + resid.T)).min() >= -1e-8 * np.trace(k)


def test_larger_epsilon_never_increases_rank():
    rng = np.random.default_rng(2)
    k = random_psd(rng, 50, "gaussian")
    ranks = [
        pivoted_cholesky(MatrixOracle(k), epsilon=eps).rank
        for eps in (0.0, 1e-6 * np.trace(k), 0.01 * np.trace(k), 0.2 * np.trace(k))
    ]
    assert ranks == sorted(ranks, reverse=True)


def test_exact_rank_detection():
    # epsilon=0 runs to the numerical rank; a cap at or above it is not hit
    rng = np.random.default_rng(9)
    a = rng.normal(0, 1, (30, 6))
    for cap in (None, 6, 20):
        f = pivoted_cholesky(MatrixOracle(a @ a.T), epsilon=0.0, max_rank=cap)
        assert f.rank == 6
        assert not f.hit_rank_cap
        assert f.residual_trace == 0.0


def test_rank_cap_reported_not_raised():
    rng = np.random.default_rng(4)
    k = random_psd(rng, 40, "wishart", jitter=1.0)
    f = pivoted_cholesky(MatrixOracle(k), epsilon=0.0, max_rank=10)
    assert f.rank == 10
    assert f.hit_rank_cap
    assert f.residual_trace > 0


def test_non_psd_rejected():
    with pytest.raises(NumericsError):
        pivoted_cholesky(MatrixOracle(np.diag([1.0, -1.0])), epsilon=0.0)
    # positive diagonal but indefinite: caught when the residual goes negative
    with pytest.raises(NumericsError):
        pivoted_cholesky(MatrixOracle(np.array([[1.0, 2.0], [2.0, 1.0]])), epsilon=0.0)


def test_invalid_arguments():
    oracle = MatrixOracle(np.eye(3))
    with pytest.raises(ValueError):
        pivoted_cholesky(oracle, epsilon=-1.0)
    with pytest.raises(ValueError):
        pivoted_cholesky(oracle, epsilon=0.0, strategy="random")
    with pytest.raises(ValueError):
        pivoted_cholesky(oracle, epsilon=0.0, strategy="omp")  # missing target
    with pytest.raises(ValueError, match="omp_target is read only by the omp strategy"):
        pivoted_cholesky(oracle, epsilon=0.0, omp_target=np.ones(3))  # a target the greedy rule ignores
    for cap in (0, -3):
        with pytest.raises(ValueError, match=f"max_rank must be >= 1, got {cap}"):
            pivoted_cholesky(oracle, epsilon=0.0, max_rank=cap)
    assert oracle.queries == 0
    with pytest.raises(ValueError):
        MatrixOracle(np.zeros((2, 3)))


def test_omp_strategy_produces_valid_factors():
    rng = np.random.default_rng(14)
    pts = rng.normal(0, 1, (40, 2))
    spec = KernelSpec("gaussian", rho=1.0)
    oracle = KernelOracle(spec, pts)
    target = np.sin(pts[:, 0])
    f = pivoted_cholesky(oracle, epsilon=0.0, strategy="omp", omp_target=target)
    k = np.exp(-_sqd(pts) / 2.0)
    chk = verify_factors(k, f)
    assert chk.col_identity <= 1e-8 * (1 + np.linalg.norm(k))
    assert chk.biorthogonality <= 1e-8 * np.sqrt(f.rank)


def test_kernel_oracle_matches_matrix_oracle():
    rng = np.random.default_rng(16)
    pts = rng.normal(0, 1, (25, 3))
    spec = KernelSpec("laplace", rho=0.7)
    k = np.exp(-0.7 * np.sqrt(_sqd(pts)))
    fa = pivoted_cholesky(KernelOracle(spec, pts), epsilon=0.0)
    fb = pivoted_cholesky(MatrixOracle(k), epsilon=0.0)
    np.testing.assert_array_equal(fa.pivots, fb.pivots)
    # lazy columns round differently from a materialized matrix at the last
    # few (numerically negligible) pivots, so compare reconstructions
    np.testing.assert_allclose(fa.Lt.T @ fa.Lt, k, atol=1e-8 * (1 + np.linalg.norm(k)))
    np.testing.assert_allclose(fb.Lt.T @ fb.Lt, k, atol=1e-8 * (1 + np.linalg.norm(k)))


def test_duplicated_points_collapse_rank():
    pts = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]]), 5, axis=0)
    f = pivoted_cholesky(KernelOracle(KernelSpec("gaussian", rho=1.0), pts), epsilon=0.0)
    assert f.rank == 3 and not f.hit_rank_cap


FAMILY_SPECS = [KernelSpec("gaussian", rho=0.8), KernelSpec("laplace", rho=1.7), KernelSpec("polynomial", c=1.0, q=3)]


def _points_with_duplicates(d):
    rng = np.random.default_rng(10 + d)
    pts = rng.normal(0.0, 2.0, (50, d))
    return np.vstack([pts, pts[:5], pts[:1]])  # exact duplicates


@pytest.mark.parametrize("d", [1, 3, 7, 9, 12])
@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=["gaussian", "laplace", "polynomial"])
def test_kernel_oracle_column_bitwise_equals_cross_kernel(spec, d):
    # a plain step reads one row; it must keep the bits of the kernel column
    pts = _points_with_duplicates(d)
    oracle = KernelOracle(spec, pts)
    for j in range(pts.shape[0]):
        assert oracle.rows([j])[0].tobytes() == cross_kernel_matrix(spec, pts, pts[j : j + 1])[:, 0].tobytes()
    assert oracle.queries == pts.shape[0]
    k = cross_kernel_matrix(spec, pts, pts)
    k = 0.5 * (k + k.T)  # exactly symmetric
    ref = MatrixOracle(k)
    for j in range(pts.shape[0]):
        assert ref.rows([j])[0].tobytes() == k[:, j].tobytes()
    assert ref.queries == pts.shape[0]


@pytest.mark.parametrize("d", [1, 3, 7, 9, 12])
@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=["gaussian", "laplace", "polynomial"])
def test_kernel_oracle_rows_bitwise_equal_cross_kernel(spec, d):
    # a block's rows, duplicates among them, written into rows of a buffer
    pts = _points_with_duplicates(d)
    n = pts.shape[0]
    idx = np.array([3, 51, 0, 55, 17, 3, n - 1])
    oracle = KernelOracle(spec, pts)
    buf = np.full((10, n), np.nan)
    got = oracle.rows(idx, out=buf[2 : 2 + idx.size])
    assert np.shares_memory(got, buf)
    assert buf[2 : 2 + idx.size].tobytes() == cross_kernel_matrix(spec, pts[idx], pts).tobytes()
    assert np.isnan(buf[: 2]).all() and np.isnan(buf[2 + idx.size :]).all()
    assert oracle.rows(idx).tobytes() == got.tobytes()
    assert oracle.queries == 2 * idx.size
    k = cross_kernel_matrix(spec, pts, pts)
    ref = MatrixOracle(k)
    view = buf[2 : 2 + idx.size]
    assert ref.rows(idx, out=view) is view and view.tobytes() == k[idx].tobytes()
    assert ref.queries == idx.size


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=["gaussian", "laplace", "polynomial"])
def test_kernel_oracle_column_into_a_buffer_row(spec):
    # the loop has each row written straight into a row of the factor
    # buffer; an odd row length puts the rows at every 8-byte offset
    rng = np.random.default_rng(12)
    pts = rng.normal(0.0, 2.0, (57, 3))
    pts[7] = pts[3]
    oracle = KernelOracle(spec, pts)
    buf = np.full((pts.shape[0], pts.shape[0]), np.nan)
    for j in range(pts.shape[0]):
        got = oracle.rows([j], out=buf[j : j + 1])
        assert np.shares_memory(got, buf[j])
        assert buf[j].tobytes() == oracle.rows([j])[0].tobytes()
    assert oracle.queries == 2 * pts.shape[0]
    ref = MatrixOracle(buf)
    row = np.empty((1, pts.shape[0]))
    assert ref.rows([5], out=row) is row and row[0].tobytes() == buf[5].tobytes()


def _row_major_cholesky(oracle, epsilon, strategy="greedy", omp_target=None, max_rank=None):
    """The decomposition loop as first written: L kept row-major in an (N, cap) buffer.

    R is updated at every step by the recurrence the package used before it
    formed R after the loop.

    Kept as the reference the rank-major loop of ``pivoted_cholesky`` is
    checked against; returns (pivots, L, R, hit_rank_cap).
    """
    n = oracle.size
    cap = min(n, 2000 if max_rank is None else max_rank)
    d = oracle.diagonal().astype(np.float64, copy=True)
    dmax = float(np.max(d, initial=0.0))
    floor = DIAG_FLOOR_REL * dmax
    d[d <= floor] = 0.0
    lbuf = np.zeros((n, cap))
    rbuf = np.zeros((cap, cap))
    pivots = []
    w = np.zeros(n) if strategy == "omp" else None
    i = 0
    while i < cap and float(d.sum()) > epsilon and np.any(d > 0):
        piv = greedy_pivot(d) if strategy == "greedy" else omp_pivot(d, omp_target, w)
        scale = 1.0 / np.sqrt(d[piv])
        lrow = lbuf[piv, :i].copy()
        ell = oracle.rows([piv])[0] - lbuf[:, :i] @ lrow
        ell *= scale
        if pivots:
            ell[pivots] = 0.0
        ell[piv] = np.sqrt(d[piv])
        rbuf[:i, i] = -scale * (rbuf[:i, :i] @ lrow)
        rbuf[i, i] = scale
        if w is not None:
            w += ell * (scale * (omp_target[piv] - w[piv]))
        d -= ell * ell
        d[piv] = 0.0
        assert not np.any(d < -PSD_TOL_REL * max(dmax, 1.0))
        d[d <= floor] = 0.0
        lbuf[:, i] = ell
        pivots.append(piv)
        i += 1
    hit = bool(i == cap and float(d.sum()) > epsilon and np.any(d > 0))
    return np.asarray(pivots, dtype=np.intp), lbuf[:, :i].copy(), rbuf[:i, :i].copy(), hit


# relative to the largest entry of each factor.  The two loops differ only in
# the summation order of the Schur products, but deep decompositions have
# ill-conditioned pivot blocks that amplify it: over 3,000 random cases of
# the test below the worst gap was 5e-10 in L and 1e-8 in R (|R| up to 4e3)
FACTOR_RTOL = 1e-7


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 80),
    d=st.integers(1, 5),
    family=st.sampled_from(["gaussian", "laplace", "polynomial"]),
    strategy=st.sampled_from(["greedy", "omp"]),
    cap=st.one_of(st.none(), st.integers(1, 12)),
    duplicates=st.integers(0, 5),
)
def test_rank_major_loop_matches_row_major_reference(seed, n, d, family, strategy, cap, duplicates):
    _assert_matches_row_major_reference(seed, n, d, family, strategy, cap, duplicates)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 80),
    d=st.integers(1, 5),
    family=st.sampled_from(["gaussian", "laplace", "polynomial"]),
    strategy=st.sampled_from(["greedy", "omp"]),
    cap=st.one_of(st.none(), st.integers(1, 12)),
    duplicates=st.integers(0, 5),
    candidates=st.integers(1, 4),
    pool=st.integers(2, 8),
)
def test_block_schur_products_match_row_major_reference(
    seed, n, d, family, strategy, cap, duplicates, candidates, pool
):
    # with no size threshold every greedy step takes the block path; with so
    # small a pool the listed pivots stop at its bound, a pool can hold all
    # points but one, and with so few candidates later pivots both hit and
    # miss the block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lowrank, "BLOCK_MIN_ENTRIES", 0)
        mp.setattr(lowrank, "CANDIDATES", candidates)
        mp.setattr(lowrank, "POOL", pool)
        _assert_matches_row_major_reference(seed, n, d, family, strategy, cap, duplicates)


def _assert_matches_row_major_reference(seed, n, d, family, strategy, cap, duplicates):
    rng = np.random.default_rng(seed)
    pts = rng.normal(0.0, 1.0, (n, d))
    pts = np.vstack([pts, pts[:duplicates]])
    spec = KernelSpec(family, rho=float(rng.uniform(0.3, 2.0)), c=1.0, q=2)
    target = np.sin(pts.sum(axis=1)) if strategy == "omp" else None
    # stop well above roundoff so near-ties among tiny residuals cannot
    # decide a pivot
    eps = 1e-6 * float(KernelOracle(spec, pts).diagonal().sum())

    f = pivoted_cholesky(KernelOracle(spec, pts), eps, strategy, omp_target=target, max_rank=cap)
    ref_piv, ref_l, ref_r, ref_hit = _row_major_cholesky(
        KernelOracle(spec, pts), eps, strategy, omp_target=target, max_rank=cap
    )

    # copies of one point tie exactly in the reference but are rounded apart
    # by the rank-major Schur product, so either loop may pivot any copy:
    # compare pivots as points, and L on the rows of points without copies
    _, first, inverse, counts = np.unique(
        pts, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    inverse = inverse.reshape(-1)
    canon = first[inverse]
    np.testing.assert_array_equal(canon[f.pivots], canon[ref_piv])
    if duplicates == 0:
        np.testing.assert_array_equal(f.pivots, ref_piv)
    assert f.hit_rank_cap == ref_hit
    assert f.Lt.shape == (f.rank, pts.shape[0]) and f.Lt.flags.c_contiguous
    single = counts[inverse] == 1
    l_err = np.abs(f.Lt.T[single] - ref_l[single]).max(initial=0.0)
    assert l_err <= FACTOR_RTOL * np.abs(ref_l).max(initial=0.0)
    assert np.abs(f.R - ref_r).max(initial=0.0) <= FACTOR_RTOL * np.abs(ref_r).max(initial=0.0)


class _BlockSpy:
    """Records, per ``_block_rows`` call, its first step, its listed rows, the rows it kept and a copy of them."""

    def __init__(self, monkeypatch):
        self.blocks = []
        self.written = []
        real = lowrank._block_rows

        def spy(oracle, lt, base, block, prod, scale):
            kept = real(oracle, lt, base, block, prod, scale)
            self.blocks.append((base, block.size, kept))
            self.written.append(lt[base : base + kept].copy())
            return kept

        monkeypatch.setattr(lowrank, "_block_rows", spy)

    def discarded(self, rank):
        """Rows formed but not used, dropped or cut off by the next block or the loop's end."""
        ends = [base for base, _, _ in self.blocks[1:]] + [rank]
        return sum(size - (end - base) for (base, size, _), end in zip(self.blocks, ends))


def test_block_path_full_size_keeps_reference_pivots(monkeypatch):
    # the size of one cross-validation fold of a 3,000 + 3,000 fit: steps
    # before 55 are blocks of one pivot, later blocks list more than one,
    # every later step takes its row from one of them, and no block computes
    # a row for an index the loop does not pivot
    rng = np.random.default_rng(5)
    pts = rng.normal(0.0, 1.0, (4800, 4))
    spec = KernelSpec("gaussian", rho=2.0)
    with monkeypatch.context() as mp:
        blocks = _BlockSpy(mp)
        f = pivoted_cholesky(KernelOracle(spec, pts), 0.0, max_rank=400)
    first_block_step = -(-lowrank.BLOCK_MIN_ENTRIES // pts.shape[0])
    assert f.rank == 400 and first_block_step == 55
    assert blocks.blocks[:first_block_step] == [(j, 1, 1) for j in range(first_block_step)]
    later = blocks.blocks[first_block_step:]
    assert later[0][0] == first_block_step and all(size > 1 for _, size, _ in later)
    assert sum(size for _, size, _ in later) == f.rank - first_block_step
    ref_piv, ref_l, ref_r, ref_hit = _row_major_cholesky(KernelOracle(spec, pts), 0.0, max_rank=400)
    np.testing.assert_array_equal(f.pivots, ref_piv)
    assert f.hit_rank_cap and ref_hit
    assert np.abs(f.Lt.T - ref_l).max() <= FACTOR_RTOL * np.abs(ref_l).max()
    assert np.abs(f.R - ref_r).max() <= FACTOR_RTOL * np.abs(ref_r).max()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(2, 40),
    kind=st.sampled_from(["gaussian", "laplace", "wishart", "lowrank"]),
    cap=st.one_of(st.none(), st.integers(1, 30)),
    candidates=st.integers(1, 6),
    pool=st.integers(2, 12),
)
def test_listed_blocks_are_prefixes_of_the_next_pivots(seed, size, kind, cap, candidates, pool):
    # each block begun at step i lists distinct points, and they are the
    # pivots the reference loop takes from step i on, in its order, as far
    # as it goes: the list does not know the trace tolerance, which stops
    # the loop well above roundoff so that near-ties cannot decide a pivot
    k = random_psd(np.random.default_rng(seed), size, kind)
    eps = 1e-6 * float(np.trace(k))
    ref_piv, _, _, _ = _row_major_cholesky(MatrixOracle(k), eps, max_rank=cap)
    next_pivots = lowrank._next_pivots
    blocks = []

    def spy(oracle, lt, d, piv, kmax, floor):
        block = next_pivots(oracle, lt, d, piv, kmax, floor)
        assert block[0] == piv and 1 <= block.size <= kmax
        blocks.append((lt.shape[0], block))
        return block

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lowrank, "BLOCK_MIN_ENTRIES", 0)
        mp.setattr(lowrank, "CANDIDATES", candidates)
        mp.setattr(lowrank, "POOL", pool)
        mp.setattr(lowrank, "_next_pivots", spy)
        f = pivoted_cholesky(MatrixOracle(k), eps, max_rank=cap)
    np.testing.assert_array_equal(f.pivots, ref_piv)
    assert blocks and blocks[0][0] == 0
    for i, block in blocks:
        assert np.unique(block).size == block.size
        np.testing.assert_array_equal(block[: f.rank - i], ref_piv[i : i + block.size])


@pytest.mark.parametrize("pool", [2, 64])
def test_exact_ties_go_to_the_smallest_index_with_blocks(monkeypatch, pool):
    # with the larger pool the first block lists [2, 0, 1, 4], each step
    # taking the smallest index of its exact maximum
    monkeypatch.setattr(lowrank, "BLOCK_MIN_ENTRIES", 0)
    monkeypatch.setattr(lowrank, "POOL", pool)
    k = np.diag([2.0, 2.0, 3.0, 1.0, 2.0])
    f = pivoted_cholesky(MatrixOracle(k), 0.0)
    np.testing.assert_array_equal(f.pivots, [2, 0, 1, 4, 3])
    np.testing.assert_allclose(f.Lt.T @ f.Lt, k, rtol=1e-15, atol=0)


def test_omp_steps_ignore_the_block_constants(monkeypatch):
    rng = np.random.default_rng(6)
    pts = rng.normal(0.0, 1.0, (600, 3))
    spec = KernelSpec("gaussian", rho=1.0)
    target = np.sin(pts.sum(axis=1))
    plain = pivoted_cholesky(KernelOracle(spec, pts), 0.0, "omp", omp_target=target, max_rank=120)
    monkeypatch.setattr(lowrank, "BLOCK_MIN_ENTRIES", 0)
    monkeypatch.setattr(lowrank, "CANDIDATES", 4)
    forced = pivoted_cholesky(KernelOracle(spec, pts), 0.0, "omp", omp_target=target, max_rank=120)
    np.testing.assert_array_equal(forced.pivots, plain.pivots)
    assert forced.Lt.tobytes() == plain.Lt.tobytes()
    assert forced.R.tobytes() == plain.R.tobytes()
    ref_piv, _, _, _ = _row_major_cholesky(KernelOracle(spec, pts), 0.0, "omp", omp_target=target, max_rank=120)
    np.testing.assert_array_equal(forced.pivots, ref_piv)


class _PeakAfterRows:
    """An oracle that restarts tracemalloc's peak once it has written its rows.

    ``since_rows()`` is the most memory allocated at once after the latest
    ``rows`` call, above what was allocated when it returned.
    """

    def __init__(self, oracle):
        self._oracle = oracle
        self._base = 0

    def __getattr__(self, name):
        return getattr(self._oracle, name)

    def rows(self, idx, out=None, **columns):
        rows = self._oracle.rows(idx, out=out, **columns)
        tracemalloc.reset_peak()
        self._base = tracemalloc.get_traced_memory()[0]
        return rows

    def since_rows(self):
        return tracemalloc.get_traced_memory()[1] - self._base


def _check_block_solve_in_place(monkeypatch, n):
    """Run an n-point decomposition and check every listed block's solve."""
    pts = np.random.default_rng(8).normal(0.0, 1.0, (n, 3))
    spec = KernelSpec("gaussian", rho=1.0)
    kernel_rows = KernelOracle(spec, pts).rows
    real, calls = lowrank._block_rows, []

    def spy(oracle, lt, base, block, prod, scale):
        s = kernel_rows(block) - lt[:base, block].T @ lt[:base]
        kept = real(oracle, lt, base, block, prod, scale)
        peak = oracle.since_rows()
        if kept > 1:
            want = np.linalg.solve(np.linalg.cholesky(s[:, block]), s)
            err = np.abs(lt[base : base + kept] - want).max() / np.abs(want).max()
            calls.append((kept, err, peak, prod.shape))
        return kept

    monkeypatch.setattr(lowrank, "_block_rows", spy)
    tracemalloc.start()
    try:
        f = pivoted_cholesky(_PeakAfterRows(KernelOracle(spec, pts)), 0.0, max_rank=150)
    finally:
        tracemalloc.stop()
    assert f.rank == 150 and calls
    for kept, err, peak, shape in calls:
        assert err <= 1e-12
        assert shape == (lowrank.CANDIDATES, n)
        assert peak < kept * n * 8


def test_block_solve_runs_in_place_on_the_factor_rows(monkeypatch):
    # a listed block's rows end up in the factor buffer as T^{-1} S, and
    # once the oracle has written them the block allocates no array of
    # their size: the product with T^{-1} goes into prod, the one (k, N)
    # scratch buffer, and is copied back
    _check_block_solve_in_place(monkeypatch, 3000)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_block_solve_runs_in_place_on_a_split_panel(monkeypatch, threads):
    # the same at 20,000 points, where the blocks of 7 or more pivots are
    # formed in PARTS column ranges, at one worker and at two: each part
    # writes into its columns of the factor rows and of prod, and no part
    # allocates an array of the rows' size.  (Parts narrower than numpy's
    # 8,192-element buffer get a buffer of about 180 kB per elementwise
    # call, so the bound is checked where the parts are wider)
    monkeypatch.setenv("KDM_THREADS", threads)
    split = _RangeSpy(monkeypatch)
    _check_block_solve_in_place(monkeypatch, 20000)
    assert any(parts > 1 for _, _, parts in split.panels)



def test_split_panel_parts_allocate_nothing_of_their_size(monkeypatch):
    # 2 x 8,000 points, rank cap 160, two workers: the blocks of 9 or more
    # pivots are formed in two column ranges, and neither part allocates an
    # array of k x N/2 entries; the kernel rows' cross products go into the
    # block's Schur-product buffer, which is free until the Schur product
    monkeypatch.setenv("KDM_THREADS", "2")
    rng = np.random.default_rng(21)
    pts = np.vstack([rng.normal(0.0, 1.0, (8000, 4)), rng.normal(0.3, 1.2, (8000, 4))])
    real, peaks = lowrank._block_rows, []

    def spy(oracle, lt, base, block, prod, scale):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        kept = real(oracle, lt, base, block, prod, scale)
        peaks.append((block.size, tracemalloc.get_traced_memory()[1] - before))
        return kept

    monkeypatch.setattr(lowrank, "_block_rows", spy)
    tracemalloc.start()
    try:
        f = pivoted_cholesky(KernelOracle(KernelSpec("gaussian", rho=1.0), pts), 0.0, max_rank=160)
    finally:
        tracemalloc.stop()
    n = pts.shape[0]
    split = [(k, peak) for k, peak in peaks if len(lowrank._column_ranges(n, k)) > 1]
    assert f.rank == 160 and split
    assert all(peak < k * (n // 2) * 8 // 2 for k, peak in split), split


class _RangeSpy:
    """Records (k, N, number of column ranges) for every panel ``_block_rows`` forms."""

    def __init__(self, monkeypatch):
        self.panels = []
        real = lowrank._column_ranges

        def spy(n, k):
            ranges = real(n, k)
            self.panels.append((k, n, len(ranges)))
            return ranges

        monkeypatch.setattr(lowrank, "_column_ranges", spy)

    def split_share(self):
        return sum(parts > 1 for _, _, parts in self.panels) / len(self.panels)


def _factor_bits(f, oracle):
    return (f.pivots.tobytes(), f.Lt.tobytes(), f.R.tobytes(), f.residual_trace, f.hit_rank_cap, oracle.queries)


@pytest.mark.parametrize("n, cap, splits", [(8000, 160, True), (1500, 240, False)])
def test_split_panels_keep_the_bits_at_one_and_two_workers(monkeypatch, n, cap, splits):
    # 2 x 8,000 points: blocks of 9 or more pivots split, and the factor,
    # the residual, the cap flag and the oracle's row count are bitwise those
    # of one worker and of panels kept whole; 2 x 1,500 points: no panel
    # splits, and the worker count changes nothing either
    rng = np.random.default_rng(21)
    pts = np.vstack([rng.normal(0.0, 1.0, (n, 4)), rng.normal(0.3, 1.2, (n, 4))])
    spec = KernelSpec("gaussian", rho=1.0)
    runs = {}
    for threads, split_min in (("1", lowrank.SPLIT_MIN_ENTRIES), ("2", lowrank.SPLIT_MIN_ENTRIES), ("2", 2**62)):
        with monkeypatch.context() as mp:
            mp.setenv("KDM_THREADS", threads)
            mp.setattr(lowrank, "SPLIT_MIN_ENTRIES", split_min)
            spy = _RangeSpy(mp)
            oracle = KernelOracle(spec, pts)
            f = pivoted_cholesky(oracle, 0.0, max_rank=cap)
        runs[threads, split_min] = (_factor_bits(f, oracle), spy.split_share())
    (one, share_one), (two, share_two), (whole, share_whole) = runs.values()
    assert f.rank == cap and f.hit_rank_cap
    assert one == two == whole
    assert share_whole == 0.0 and share_one == share_two and (share_one > 0.0) == splits


@pytest.mark.parametrize("n, split", [(10000, True), (1000, False)])
def test_panels_split_at_20000_points_and_stay_whole_at_2000(monkeypatch, n, split):
    # the size rule at the CLI fit's sizes: a 10,000 + 10,000 fit splits its
    # blocks of 7 or more pivots, a 1,000 + 1,000 fit none of its blocks
    rng = np.random.default_rng(22)
    pts = rng.normal(0.0, 1.0, (2 * n, 4))
    spy = _RangeSpy(monkeypatch)
    f = pivoted_cholesky(KernelOracle(KernelSpec("gaussian", rho=1.0), pts), 0.0, max_rank=300)
    assert f.rank == 300
    listed = [(k, parts) for k, _, parts in spy.panels if k > 1]
    assert listed
    assert all(parts == (lowrank.PARTS if split and k >= 7 else 1) for k, parts in listed)
    assert any(parts > 1 for _, parts in listed) == split


def test_column_ranges_are_fixed_by_n_and_begin_at_multiples_of_64():
    assert lowrank._column_ranges(20000, 7) == [(0, 9984), (9984, 20000)]
    assert lowrank._column_ranges(20002, 32) == [(0, 9984), (9984, 20002)]
    assert lowrank._column_ranges(20000, 6) == lowrank._column_ranges(20000, 1) == [(0, 20000)]
    assert lowrank._column_ranges(4096, 32) == [(0, 2048), (2048, 4096)]
    assert lowrank._column_ranges(4095, 32) == [(0, 4095)]


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=["gaussian", "laplace", "polynomial"])
def test_kernel_oracle_rows_over_a_column_range(spec):
    # a part writes the rows' columns c0:c1 into those columns of the factor
    # rows, bitwise the kernel block against those points; only the part
    # that begins at column 0 counts its rows
    pts = _points_with_duplicates(3)
    n = pts.shape[0]
    idx = np.array([3, 51, 0, 55, 17, 3, n - 1])
    oracle = KernelOracle(spec, pts)
    buf = np.full((10, n), np.nan)
    for c0, c1 in ((0, 20), (20, n)):
        got = oracle.rows(idx, out=buf[2 : 2 + idx.size, c0:c1], start=c0, stop=c1)
        assert np.shares_memory(got, buf)
        assert got.tobytes() == cross_kernel_matrix(spec, pts[idx], pts[c0:c1]).tobytes()
    assert buf[2 : 2 + idx.size].tobytes() == oracle.rows(idx).tobytes()
    assert np.isnan(buf[:2]).all() and np.isnan(buf[2 + idx.size :]).all()
    assert oracle.queries == 2 * idx.size
    ref = MatrixOracle(cross_kernel_matrix(spec, pts, pts))
    assert ref.rows(idx, start=20, stop=n).tobytes() == ref.rows(idx)[:, 20:].tobytes()
    assert ref.queries == idx.size


@pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5", "", " 2"])
def test_kdm_threads_that_is_not_a_count_is_refused(monkeypatch, value):
    # the library refuses it on its first decomposition, small ones too
    monkeypatch.setenv("KDM_THREADS", value)
    with pytest.raises(ValueError, match="KDM_THREADS"):
        lowrank.worker_count()
    with pytest.raises(ValueError, match="KDM_THREADS"):
        pivoted_cholesky(MatrixOracle(np.eye(3)), 0.0)


def test_worker_count_defaults_to_the_usable_cpus(monkeypatch):
    monkeypatch.setenv("KDM_THREADS", "1")
    monkeypatch.delenv("KDM_THREADS")
    assert lowrank.worker_count() == min(lowrank.PARTS, len(os.sched_getaffinity(0)))
    monkeypatch.setenv("KDM_THREADS", "3")
    assert lowrank.worker_count() == 3


def test_split_parts_under_thread_stress(monkeypatch):
    # four parts on four workers, more than a 2-core host has, a switch
    # interval of a microsecond, and two decompositions at once sharing the
    # pool: each factor and row count is the one-worker result
    monkeypatch.setattr(lowrank, "PARTS", 4)
    pts = np.random.default_rng(25).normal(0.0, 1.0, (12000, 4))
    spec = KernelSpec("gaussian", rho=1.0)

    def run():
        oracle = KernelOracle(spec, pts)
        return _factor_bits(pivoted_cholesky(oracle, 0.0, max_rank=120), oracle)

    monkeypatch.setenv("KDM_THREADS", "1")
    split = _RangeSpy(monkeypatch)
    want = run()
    assert any(parts == 4 for _, _, parts in split.panels)
    monkeypatch.setenv("KDM_THREADS", "4")
    got = [None, None]
    threads = [threading.Thread(target=lambda i=i: got.__setitem__(i, run())) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want, want]


def test_side_by_side_waits_for_every_call_before_raising(monkeypatch):
    # a failing part on the calling thread does not leave the other part
    # writing into the buffers
    monkeypatch.setenv("KDM_THREADS", "2")
    done = []

    def slow():
        time.sleep(0.05)
        done.append(True)

    def fail():
        raise NumericsError("boom")

    with pytest.raises(NumericsError):
        lowrank._side_by_side(lambda call: call(), [(fail,), (slow,)])
    assert done == [True]
    assert lowrank._side_by_side(pow, [(2, 1), (2, 2), (2, 3)]) == [2, 4, 8]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_indefinite_block_keeps_its_leading_rows(monkeypatch, order):
    # near-duplicate points, every block's pivot block made indefinite at
    # the given order, as roundoff can: the Cholesky factorization raises
    # without saying where, so the block keeps its first row only, and the
    # pivots are those of the plain loop
    rng = np.random.default_rng(30)
    pts = rng.normal(0.0, 1.0, (60, 2))
    pts = np.vstack([pts, pts[:20] + 1e-5 * rng.normal(0.0, 1.0, (20, 2))])
    k = cross_kernel_matrix(KernelSpec("gaussian", rho=0.7), pts, pts)
    k = 0.5 * (k + k.T)
    eps = 1e-9 * float(np.trace(k))
    plain = pivoted_cholesky(MatrixOracle(k), eps)
    real, failed = np.linalg.cholesky, []

    def spy(a, *args, **kwargs):
        if a.shape[0] >= order:
            a = a.copy()
            a[order - 1, order - 1] = -1.0
        try:
            return real(a, *args, **kwargs)
        except np.linalg.LinAlgError:
            failed.append(a.shape[0])
            raise

    monkeypatch.setattr(lowrank, "BLOCK_MIN_ENTRIES", 0)
    monkeypatch.setattr(lowrank, "CANDIDATES", 6)
    monkeypatch.setattr(np.linalg, "cholesky", spy)
    blocks = _BlockSpy(monkeypatch)
    oracle = MatrixOracle(k)
    f = pivoted_cholesky(oracle, eps)
    multi = [kept for _, size, kept in blocks.blocks if size > 1]
    assert multi and len(failed) == len(multi) and all(kept == 1 for kept in multi)
    np.testing.assert_array_equal(f.pivots, plain.pivots)
    assert np.abs(f.Lt - plain.Lt).max() <= FACTOR_RTOL * np.abs(plain.Lt).max()
    assert np.abs(f.R - plain.R).max() <= FACTOR_RTOL * np.abs(plain.R).max()
    assert oracle.queries == f.rank + blocks.discarded(f.rank) > f.rank


class _MisrankingOracle(MatrixOracle):
    """A matrix oracle whose blocks raise one diagonal entry by a few ulps, as roundoff can."""

    def __init__(self, matrix, raised):
        super().__init__(matrix)
        self._raised = raised

    def submatrix(self, idx):
        block = super().submatrix(idx)
        at = np.flatnonzero(idx == self._raised)
        block[at, at] = np.nextafter(np.nextafter(block[at, at], np.inf), np.inf)
        return block


def test_blocks_cut_short_read_only_their_discarded_rows(monkeypatch):
    monkeypatch.setattr(lowrank, "BLOCK_MIN_ENTRIES", 0)
    # exact ties follow the loop: the first block lists [2, 0, 1, 4], the
    # loop takes all four, and no row is read twice
    k = np.diag([2.0, 2.0, 3.0, 1.0, 2.0])
    blocks = _BlockSpy(monkeypatch)
    oracle = MatrixOracle(k)
    f = pivoted_cholesky(oracle, 0.0)
    np.testing.assert_array_equal(f.pivots, [2, 0, 1, 4, 3])
    assert blocks.blocks[:2] == [(0, 4, 4), (4, 1, 1)]
    assert oracle.queries == f.rank
    # cut by a pivot outside the block: a pool block that ranks index 1
    # above its exact tie lists [2, 1, 0, 4], and the loop takes 0 after 2
    blocks = _BlockSpy(monkeypatch)
    oracle = _MisrankingOracle(k, raised=1)
    f = pivoted_cholesky(oracle, 0.0)
    np.testing.assert_array_equal(f.pivots, [2, 0, 1, 4, 3])
    assert blocks.blocks[0] == (0, 4, 4) and blocks.blocks[1][0] == 1
    assert oracle.queries == f.rank + blocks.discarded(f.rank) and blocks.discarded(f.rank) >= 3
    # cut by the stopping rule: the listed pivots do not know epsilon
    k = random_psd(np.random.default_rng(4), 40, "gaussian")
    blocks = _BlockSpy(monkeypatch)
    oracle = MatrixOracle(k)
    f = pivoted_cholesky(oracle, 1e-3 * float(np.trace(k)))
    base, size, kept = blocks.blocks[-1]
    assert f.rank < base + kept and f.residual_trace <= f.epsilon
    assert oracle.queries == f.rank + blocks.discarded(f.rank) > f.rank


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 40),
    kind=st.sampled_from(["gaussian", "laplace", "wishart", "lowrank", "ties"]),
    kmax=st.integers(1, 40),
)
def test_greedy_order_lists_the_reference_pivots(seed, size, kind, kmax):
    # the pool's list is the reference loop's pivots on the same block, as
    # far as their residuals exceed tau, set well above roundoff.  "ties" is
    # block diagonal with repeated blocks, whose diagonals stay exactly tied
    # until a pivot falls in one of them
    rng = np.random.default_rng(seed)
    if kind == "ties":
        reps = rng.integers(1, 4, size=-(-size // 2))
        k = np.kron(np.diag(reps.astype(float)), np.array([[2.0, 1.0], [1.0, 2.0]]))[:size, :size]
    else:
        k = random_psd(rng, size, kind)
    tau = 1e-6 * float(np.max(np.diag(k)))
    order = lowrank._greedy_order(k.copy(), tau, kmax)
    ref_piv, ref_l, _, _ = _row_major_cholesky(MatrixOracle(k), 0.0, max_rank=kmax)
    above = ref_l[ref_piv, np.arange(ref_piv.size)] ** 2 > tau
    listed = int(np.argmin(above)) if not above.all() else ref_piv.size
    np.testing.assert_array_equal(order, ref_piv[:listed])


@pytest.mark.parametrize("m", [1, 63, 64, 65, 129, 400])
def test_upper_solve_solves_and_inverts(m):
    # sizes on both sides of one leaf and of a split; one right-hand side as
    # a vector (a fit's beta) and 25 as columns (a lambda path's betas)
    rng = np.random.default_rng(m)
    a = rng.normal(0.0, 1.0, (m, m + 3))
    u = np.linalg.cholesky(a @ a.T / m + np.eye(m)).T.copy()
    for b in (rng.normal(0.0, 1.0, m), rng.normal(0.0, 1.0, (m, 25))):
        x = lowrank._upper_solve(u, b)
        assert x.shape == b.shape
        assert np.abs(u @ x - b).max() <= 1e-12 * np.abs(b).max()
    r = lowrank._upper_solve(u, np.eye(m))
    assert not np.tril(r, -1).any()
    assert np.abs(r @ u - np.eye(m)).max() <= 1e-12
    u[m // 2, m // 2] = 0.0
    with pytest.raises(NumericsError):
        lowrank._upper_solve(u, np.ones(m))


class _NanFilledNumpy:
    """numpy as ``kdm.lowrank`` sees it, except that ``empty`` fills with NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(*args, **kwargs):
        out = np.empty(*args, **kwargs)
        out.fill(np.nan)
        return out


@pytest.mark.parametrize(
    "n, cap, strategy",
    [(300, 40, "greedy"), (3000, 150, "greedy"), (600, 120, "omp")],
    ids=["greedy-plain", "greedy-blocks", "omp"],
)
def test_factor_buffers_are_written_before_read(monkeypatch, n, cap, strategy):
    # a NaN read from an unwritten entry of the (cap, N) factor buffer or of
    # the block buffer would show in every output
    rng = np.random.default_rng(8)
    pts = rng.normal(0.0, 1.0, (n, 3))
    spec = KernelSpec("gaussian", rho=1.0)
    target = np.sin(pts.sum(axis=1)) if strategy == "omp" else None
    assert (cap * n >= lowrank.BLOCK_MIN_ENTRIES) == (n == 3000)

    def run():
        return pivoted_cholesky(KernelOracle(spec, pts), 0.0, strategy, omp_target=target, max_rank=cap)

    plain = run()
    monkeypatch.setattr(lowrank, "np", _NanFilledNumpy())
    blocks = _BlockSpy(monkeypatch)
    filled = run()
    assert any(size > 1 for _, size, _ in blocks.blocks) == (n == 3000)
    np.testing.assert_array_equal(filled.pivots, plain.pivots)
    assert filled.Lt.tobytes() == plain.Lt.tobytes()
    assert filled.R.tobytes() == plain.R.tobytes()
    assert filled.residual_trace == plain.residual_trace
    assert filled.hit_rank_cap == plain.hit_rank_cap


@pytest.mark.parametrize(
    "n, cap, strategy",
    [(300, 40, "greedy"), (3000, 150, "greedy"), (600, 120, "omp")],
    ids=["greedy-plain", "greedy-blocks", "omp"],
)
def test_every_factor_row_comes_from_one_block_rows_call(monkeypatch, n, cap, strategy):
    # each call's rows are used from its first step up to the next call's
    # first step (or the loop's end): those ranges tile the rank, and each
    # row of Lt is the row that call wrote, changed only at its pivot and at
    # the earlier pivots.  Plain greedy and OMP steps are blocks of one pivot
    rng = np.random.default_rng(8)
    pts = rng.normal(0.0, 1.0, (n, 3))
    target = np.sin(pts.sum(axis=1)) if strategy == "omp" else None
    blocks = _BlockSpy(monkeypatch)
    oracle = KernelOracle(KernelSpec("gaussian", rho=1.0), pts)
    f = pivoted_cholesky(oracle, 0.0, strategy, omp_target=target, max_rank=cap)
    assert f.rank == cap
    bases = [base for base, _, _ in blocks.blocks]
    ends = bases[1:] + [f.rank]
    assert bases[0] == 0
    assert sum(end - base for base, end in zip(bases, ends)) == f.rank
    for (base, _, kept), end, rows in zip(blocks.blocks, ends, blocks.written):
        assert base < end <= base + kept
        for r in range(base, end):
            free = np.ones(n, dtype=bool)
            free[f.pivots[: r + 1]] = False
            assert f.Lt[r, free].tobytes() == rows[r - base, free].tobytes()
    assert oracle.queries == f.rank + blocks.discarded(f.rank)
    multi = [size for _, size, _ in blocks.blocks if size > 1]
    assert bool(multi) == (n == 3000)


@pytest.mark.parametrize("strategy", ["greedy", "omp"])
def test_one_pivot_blocks_keep_the_bits_of_one_gemv_per_step(strategy):
    # a block of one pivot forms its row as a plain step did: the kernel row
    # less one matrix-vector product with the gathered pivot entries of the
    # earlier rows, times 1 / root; a strided view of those entries, for
    # one, rounds differently
    rng = np.random.default_rng(11)
    pts = rng.normal(0.0, 1.0, (300, 3))
    target = np.sin(pts.sum(axis=1)) if strategy == "omp" else None
    oracle = KernelOracle(KernelSpec("gaussian", rho=1.0), pts)
    f = pivoted_cholesky(oracle, 0.0, strategy, omp_target=target, max_rank=40)
    assert f.rank == 40
    for i, piv in enumerate(f.pivots):
        ell = oracle.rows([piv])[0] - np.dot(f.Lt[:i].T, f.Lt[:i, piv].copy())
        ell *= 1.0 / f.Lt[i, piv]
        free = np.ones(pts.shape[0], dtype=bool)
        free[f.pivots[: i + 1]] = False
        assert f.Lt[i, free].tobytes() == ell[free].tobytes(), i
