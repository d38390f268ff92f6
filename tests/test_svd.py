import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semspace.cli import main
from semspace.corpus import load_corpus, segment_corpus
from semspace.errors import ConvergenceError
from semspace.lsa import build_matrices
from semspace import svd
from semspace.svd import _jacobi_rows, apply_q, householder_qr, jacobi_svd, jacobi_svds

from oracles import jacobi_rows, merge_duplicate_columns, singular_values_via_augmented, singular_values_via_gram

# CPython 3.11+ moves a call's arguments into the callee's frame, so a QR's input that
# nothing else holds goes when the QR copies it; 3.10 keeps it until the call returns
MOVES_CALL_ARGUMENTS = sys.version_info >= (3, 11)


def projection_error(X, U):
    """Norm of the part of X outside the span of U's columns."""
    return np.linalg.norm(X - U @ (U.T @ X))


def row_gram_error(X, U, s):
    """Largest entry of P @ P.T - diag(s**2) for P = U.T @ X, s cut to U's columns.

    Zero exactly when the rows of P are mutually orthogonal with norms s.
    With V = P.T / s this is diag(s) @ (V.T @ V - I) @ diag(s), so an
    orthonormality error e of V shows here as at most e * s[0]**2.
    """
    P = U.T @ X
    s = s[: U.shape[1]]
    return np.abs(P @ P.T - np.diag(s * s)).max(initial=0.0)


def orthonormality_error(M):
    return np.abs(M.T @ M - np.eye(M.shape[1])).max(initial=0.0)


def test_identity_matrix():
    U, s, _ = jacobi_svd(np.eye(2))
    assert np.allclose(s, [1.0, 1.0])
    assert np.allclose(U @ (U.T @ np.eye(2)), np.eye(2), atol=1e-12)
    assert row_gram_error(np.eye(2), U, s) <= 1e-12


def test_rank_one_rectangle():
    # eigenvalues of X^T X are 25 and 0, so sigma = (5, 0)
    X = np.array([[3.0, 0.0], [4.0, 0.0]])
    U, s, _ = jacobi_svd(X)
    assert np.allclose(s, [5.0, 0.0], atol=1e-12)
    assert projection_error(X, U) <= 1e-12
    assert row_gram_error(X, U, s) <= 1e-12 * s[0] ** 2
    assert orthonormality_error(U) <= 1e-12


def test_sigma_sorted_non_negative():
    rng = np.random.default_rng(3)
    for _ in range(20):
        X = rng.integers(-4, 5, size=(rng.integers(1, 9), rng.integers(1, 9))).astype(float)
        _, s, _ = jacobi_svd(X)
        assert (s >= 0).all()
        assert (np.diff(s) <= 1e-12).all()


def test_matches_gram_oracle_on_random_integers():
    rng = np.random.default_rng(11)
    for _ in range(30):
        m, c = rng.integers(1, 13, size=2)
        X = rng.integers(0, 10, size=(m, c)).astype(float)
        U, s, _ = jacobi_svd(X)
        oracle = singular_values_via_gram(X)
        scale = max(float(s[0]), 1.0)
        assert np.abs(s - oracle).max() <= 1e-8 * scale
        assert projection_error(X, U) <= 1e-8 * max(np.linalg.norm(X), 1e-30)
        assert orthonormality_error(U) <= 1e-8
        assert row_gram_error(X, U, s) <= 1e-8 * scale ** 2


@pytest.mark.parametrize("seed", range(4))
def test_sigma_matches_numpy_to_a_few_ulps_of_sigma1_on_count_matrices(seed):
    # Sparse Poisson counts, 200 x 100 at full rank. A rotation cosine of
    # 1 / sqrt(1 + t * t) let sigma drift 7e-15 to 1e-14 from LAPACK here.
    X = np.random.default_rng(seed).poisson(0.3, size=(200, 100)).astype(float)
    _, s, _ = jacobi_svd(X)
    assert np.abs(s - np.linalg.svd(X, compute_uv=False)).max() <= 5e-15 * s[0]


def test_rank_deficient_duplicate_columns():
    rng = np.random.default_rng(5)
    X = rng.integers(0, 6, size=(8, 5)).astype(float)
    X[:, 4] = X[:, 0]
    X[:, 3] = X[:, 1]
    U, s, _ = jacobi_svd(X)
    assert s[3] <= 1e-10 * s[0] and s[4] <= 1e-10 * s[0]
    assert projection_error(X, U) <= 1e-10 * np.linalg.norm(X)
    assert orthonormality_error(U) <= 1e-10
    assert row_gram_error(X, U, s) <= 1e-10 * s[0] ** 2


def test_zero_matrix():
    U, s, _ = jacobi_svd(np.zeros((3, 2)))
    assert np.all(s == 0) and s.shape == (2,)
    assert U.shape == (3, 0)
    assert orthonormality_error(U) <= 1e-12
    assert row_gram_error(np.zeros((3, 2)), U, s) <= 1e-12


def test_single_row_and_column():
    _, s, _ = jacobi_svd(np.array([[3.0, 4.0]]))
    assert np.allclose(s, [5.0])
    _, s, _ = jacobi_svd(np.array([[3.0], [4.0]]))
    assert np.allclose(s, [5.0])
    _, s, _ = jacobi_svd(np.array([[-7.0]]))
    assert np.allclose(s, [7.0])


def test_sign_convention_largest_entry_non_negative():
    rng = np.random.default_rng(17)
    for _ in range(10):
        X = rng.normal(size=(7, 5))
        U, _, _ = jacobi_svd(X)
        for j in range(U.shape[1]):
            i = np.argmax(np.abs(U[:, j]))
            assert U[i, j] >= 0


def test_sign_rule_is_not_decided_by_roundoff_between_tied_entries():
    # U's second column for [[2, 1], [1, 2]] is (1, -1) / sqrt(2): noise at
    # 1e-15 decides which entry is the largest, but not which one is made
    # non-negative, and each column's first entry wins the tie
    for seed in range(40):
        noise = 1e-15 * np.random.default_rng(seed).standard_normal((2, 2))
        U, _, _ = jacobi_svd(np.array([[2.0, 1.0], [1.0, 2.0]]) + noise)
        assert np.array_equal(np.sign(U), [[1.0, 1.0], [1.0, -1.0]]), seed


def test_deterministic():
    rng = np.random.default_rng(23)
    X = rng.integers(0, 8, size=(9, 6)).astype(float)
    U1, s1, sweeps1 = jacobi_svd(X.copy())
    U2, s2, sweeps2 = jacobi_svd(X.copy())
    assert np.array_equal(U1, U2) and np.array_equal(s1, s2) and sweeps1 == sweeps2


def test_wide_matrix_transposed_internally():
    rng = np.random.default_rng(29)
    X = rng.integers(0, 9, size=(4, 11)).astype(float)
    U, s, _ = jacobi_svd(X)
    assert U.shape == (4, np.count_nonzero(s)) and s.shape == (4,)
    assert projection_error(X, U) <= 1e-10 * np.linalg.norm(X)
    assert row_gram_error(X, U, s) <= 1e-10 * s[0] ** 2


def test_convergence_error_carries_residual(monkeypatch):
    monkeypatch.setattr(svd, "_MAX_SWEEPS", 1)
    rng = np.random.default_rng(31)
    X = rng.normal(size=(12, 12))
    with pytest.raises(ConvergenceError) as exc_info:
        jacobi_svd(X)
    assert exc_info.value.residual > 0


def test_invalid_input_rejected():
    with pytest.raises(ValueError):
        jacobi_svd(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        jacobi_svd(np.zeros(4))
    # refused up front, with no warning (an error under this suite's settings), not after every sweep
    for entry in (np.nan, np.inf, -np.inf, 1e200):  # 1e200 is finite, but its square is not
        X = np.arange(24.0).reshape(6, 4)
        X[2, 1] = entry
        with pytest.raises(ValueError, match="not finite or too large to square"):
            jacobi_svd(X)


def pivoted_qr_error(R):
    """How far |r_kk| falls below ||R[k:j+1, j]|| for some j > k, relative to |r_00|.

    A column-pivoted QR picks at step k the column of largest remaining norm,
    so |r_kk| >= ||R[k:j+1, j]|| for every later column j; a pivot taken
    from a stale norm breaks this.
    """
    tails = np.sqrt(np.cumsum(R[::-1] ** 2, axis=0)[::-1])  # tails[k, j] = ||R[k:, j]||
    return np.triu(tails - np.abs(np.diag(R))[:, None], 1).max() / abs(R[0, 0])


def test_householder_qr():
    # the shapes straddle the 32-column panel: one short panel, one full
    # panel, a full panel plus one column, three panels, and a wide matrix
    rng = np.random.default_rng(37)
    for m, n in ((6, 6), (9, 4), (5, 1), (4, 7), (40, 31), (40, 32), (70, 33), (120, 65), (50, 70)):
        A = rng.normal(size=(m, n))
        R, perm, reflectors = householder_qr(A)
        Q = apply_q(reflectors, np.eye(m, min(m, n)))
        assert R.shape == (min(m, n), n)
        assert np.abs(np.tril(R, -1)).max() == 0
        assert orthonormality_error(Q) <= 1e-12
        assert sorted(perm) == list(range(n))
        assert np.allclose(Q @ R, A[:, perm], atol=1e-12)
        diag = np.abs(np.diag(R))
        assert (np.diff(diag) <= 1e-12 * diag[0]).all()
        assert pivoted_qr_error(R) <= 1e-12


def test_householder_qr_recomputes_norms_that_lost_their_digits():
    # 30 columns that are combinations of 40 others plus noise of 1e-10 to
    # 1e-9: once the 40 are factored, downdating leaves those norms with no
    # correct digits, and only recomputing them keeps the tail of |diag R|
    # non-increasing.
    rng = np.random.default_rng(61)
    base = rng.normal(size=(90, 40))
    noise = 1e-10 * np.logspace(0, 1, 30) * rng.normal(size=(90, 30))
    A = np.column_stack([base, base @ rng.normal(size=(40, 30)) + noise])
    R, perm, reflectors = householder_qr(A)
    Q = apply_q(reflectors, np.eye(90, 70))
    assert np.allclose(Q @ R, A[:, perm], atol=1e-12 * np.abs(A).max())
    diag = np.abs(np.diag(R))
    assert (np.diff(diag) <= 1e-12 * diag[0]).all()
    assert pivoted_qr_error(R) <= 1e-12


@pytest.mark.parametrize("rank", [5, 32, 33, 40])
def test_householder_qr_stops_at_the_rank(rank):
    # the stop falls inside the first panel, at its end, just past it, and
    # inside the second
    rng = np.random.default_rng(73)
    A = rng.normal(size=(80, rank)) @ rng.normal(size=(rank, 70))
    R, perm, reflectors = householder_qr(A)
    assert R.shape == (rank, 70) and sum(V.shape[1] for _, V, _ in reflectors) == rank
    Q = apply_q(reflectors, np.eye(80, rank))
    assert orthonormality_error(Q) <= 1e-12
    assert np.abs(Q @ R - A[:, perm]).max() <= 1e-12 * np.abs(A).max()
    R, perm, reflectors = householder_qr(np.zeros((4, 3)))
    assert R.shape == (0, 3) and reflectors == []


def test_jacobi_svd_runs_both_qrs_through_the_module_name(monkeypatch):
    # perfbench/traced.py times svd.householder_qr by wrapping this name;
    # a QR reached any other way would drop out of that per-layer metric.
    calls = []
    inner = svd.householder_qr

    def counted(A):
        calls.append(A)
        return inner(A)

    monkeypatch.setattr(svd, "householder_qr", counted)
    X = np.random.default_rng(67).poisson(0.5, size=(30, 20)).astype(float)
    jacobi_svd(X)
    assert len(calls) == 2
    jacobi_svds([X, X[:, :12], X.T])
    assert len(calls) == 8


def test_duplicate_columns_merge_like_scaled_columns():
    # three copies of a column contribute to X X^T exactly as sqrt(3) times one copy
    rng = np.random.default_rng(43)
    X = rng.integers(0, 6, size=(9, 5)).astype(float)
    repeated = np.column_stack([X[:, 0], X[:, 1], X[:, 0], X[:, 2], X[:, 3], X[:, 0], X[:, 4]])
    scaled = X.copy()
    scaled[:, 0] *= np.sqrt(3.0)
    _, s_repeated, _ = jacobi_svd(repeated)
    _, s_scaled, _ = jacobi_svd(scaled)
    assert np.abs(s_repeated[:5] - s_scaled).max() <= 1e-12 * s_scaled[0]
    assert np.all(s_repeated[5:] == 0)


def _with_repeats(seed, m=30, distinct=12, c=40):
    """A seeded m x c integer matrix of `distinct` columns, each at least once, in shuffled order."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 4, size=(m, distinct)).astype(float)
    return base[:, rng.permutation(np.r_[np.arange(distinct), rng.integers(0, distinct, size=c - distinct)])]


@pytest.mark.parametrize("X", [
    *(_with_repeats(seed) for seed in range(6)),
    np.arange(5.0)[:, None],  # one column
    np.repeat(np.arange(1.0, 8.0)[:, None], 9, axis=1),  # all columns equal
], ids=[*(f"repeats-{seed}" for seed in range(6)), "one-column", "all-equal"])
def test_merge_matches_the_unique_oracle_bit_for_bit(X):
    merged = svd._merge_duplicate_columns(X)
    expected = merge_duplicate_columns(X)
    assert merged.shape == expected.shape and merged.tobytes() == expected.tobytes()


def test_merge_returns_an_input_with_no_repeated_column_itself():
    X = np.random.default_rng(4).integers(0, 4, size=(20, 15)).astype(float)
    assert len(np.unique(X.T, axis=0)) == 15
    assert svd._merge_duplicate_columns(X) is X


def test_merge_holds_one_merged_size_block_beside_its_input():
    """The column keys go before the merged copy, which is scaled in place:
    the traced peak is about 1.1x the merged copy, 3.2x when the keys, the
    unscaled copy and the scaled one were alive at once."""
    X = _with_repeats(8, m=500, distinct=120, c=205)  # the bundled light matrix's shape and merge
    assert len(np.unique(X.T, axis=0)) == 120
    tracemalloc.start()
    try:
        merged = svd._merge_duplicate_columns(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert merged.shape == (500, 120)
    assert peak <= 1.5 * merged.nbytes


@pytest.mark.parametrize("shape", [(12, 7), (6, 15)], ids=["tall", "wide"])
def test_rank_below_min_dimension_keeps_only_live_columns(shape):
    rng = np.random.default_rng(47)
    m, c = shape
    X = rng.integers(-3, 4, size=(m, 3)).astype(float) @ rng.integers(-3, 4, size=(3, c))
    U, s, _ = jacobi_svd(X)
    assert U.shape == (m, 3) and s.shape == (min(m, c),)
    assert np.count_nonzero(s) == 3
    assert orthonormality_error(U) <= 1e-12
    assert row_gram_error(X, U, s) <= 1e-12 * s[0] ** 2
    assert projection_error(X, U) <= 1e-12 * np.linalg.norm(X)


def test_small_singular_values_survive_the_rank_cut():
    rng = np.random.default_rng(53)
    left, _ = np.linalg.qr(rng.normal(size=(7, 4)))
    right, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    expected = np.array([1.0, 1e-4, 1e-8, 1e-12])
    X = (left * expected) @ right.T
    U, s, _ = jacobi_svd(X)
    assert np.abs(s - expected).max() <= 1e-14
    assert orthonormality_error(U) <= 1e-12
    assert row_gram_error(X, U, s) <= 1e-12 * s[0] ** 2


@pytest.mark.parametrize("n", [*range(1, 13), 94])
def test_pair_slots_pair_each_row_pair_once_and_return_home(n):
    # _jacobi_rows' odd-even schedule: n rows in m slots (a spare pads an odd
    # n); rounds alternate between pairing the slots from 0 and from 1, up to
    # m - lo, and each pair swaps its two rows. A sweep of m rounds meets
    # every pair once and reverses the rows, so two sweeps bring them home.
    m = n + n % 2
    occupant = np.arange(m)
    for sweep in (1, 2):
        met = []
        for lo in (0, 1) * (m // 2):
            pairs = occupant[lo : m - lo].reshape(-1, 2)
            met += [(min(p, q), max(p, q)) for p, q in pairs if max(p, q) < n]
            pairs[:] = pairs[:, ::-1]
        assert sorted(met) == [(p, q) for p in range(n) for q in range(p + 1, n)]
        assert np.array_equal(occupant, np.arange(m)[::-1] if sweep == 1 else np.arange(m))


@pytest.mark.parametrize("shape", [(7, 7), (8, 8), (6, 9), (3, 3)], ids=["odd", "even", "wide", "three"])
@pytest.mark.parametrize("noise, sweeps", [(0.0, 1), (1e-8, 2), (1e-4, 3)])
def test_jacobi_rows_end_where_they_started(shape, noise, sweeps):
    # Rows near orthogonality turn by small angles, so whatever the order of
    # rotations, row i ends near input row i: against a serial Jacobi that
    # never moves a row, a wrong un-permute after an odd or an even number
    # of sweeps shows at the size of the rows.
    n, w = shape
    rng = np.random.default_rng(n * 100 + w)
    Q, _ = np.linalg.qr(rng.normal(size=(w, n)))
    G = np.linspace(1.0, 2.0, n)[:, None] * Q.T + noise * rng.normal(size=(n, w))
    B = G.copy()
    assert _jacobi_rows(B[None]) == [sweeps]
    if noise == 0.0:
        assert np.array_equal(B, G)
    reference, _ = jacobi_rows(G)
    assert np.abs(B - reference).max() <= 1e-12


def test_jacobi_rows_last_sweep_rotates_nothing_on_the_bundled_r2_factors(mini_paragraphs, root_config, light_config):
    # README "The factorization": the sweep that ends the iteration rotates nothing. So its result, run
    # again, converges in one sweep that only swaps, and an odd sweep count un-reverses the rows' bits.
    Xs = (counts for _, counts in build_matrices(mini_paragraphs, [root_config, light_config]))
    stack = np.stack([householder_qr(householder_qr(svd._merge_duplicate_columns(X))[0].T)[0] for X in Xs])
    assert _jacobi_rows(stack) == [8, 8]
    again = stack.copy()
    assert _jacobi_rows(again) == [1, 1]
    assert np.array_equal(again, stack)


@st.composite
def jacobi_stacks(draw):
    """p = 1..4 problems of one shape (n rows, n <= w): orthogonal rows with
    noise from none to full, some rows zero, so sweep counts differ, and
    scales far enough apart that one problem's roundoff level would kill
    another's rows."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(2, 9))
    w = draw(st.integers(n, 11))
    problems = []
    for _ in range(p):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        noise = draw(st.sampled_from([0.0, 1e-10, 1e-4, 1.0]))
        Q, _ = np.linalg.qr(rng.normal(size=(w, n)))
        G = np.linspace(1.0, 3.0, n)[:, None] * Q.T + noise * rng.normal(size=(n, w))
        G *= draw(st.sampled_from([1.0, 1e-9, 1e9]))
        G[draw(st.lists(st.integers(0, n - 1), max_size=n // 2))] = 0.0
        problems.append(G)
    return np.stack(problems)


def solve_alone(stack):
    """Each problem of the stack through _jacobi_rows on its own."""
    solved = stack.copy()
    return solved, [_jacobi_rows(G[None])[0] for G in solved]


@settings(max_examples=150, deadline=None)
@given(jacobi_stacks())
def test_jacobi_rows_stack_gives_each_problem_its_solo_bits(stack):
    solved, sweeps = solve_alone(stack)
    assert _jacobi_rows(stack) == sweeps
    assert np.array_equal(stack, solved)


def test_jacobi_rows_stack_with_unequal_sweeps_odd_rows_and_zero_rows():
    # n = 7 pads each block with a spare slot; the pair that straddles two
    # blocks in odd rounds must neither rotate nor swap its norms
    rng = np.random.default_rng(71)
    Q, _ = np.linalg.qr(rng.normal(size=(9, 7)))
    stack = np.stack([Q.T, rng.normal(size=(7, 9)), Q.T + 1e-6 * rng.normal(size=(7, 9)),
                      rng.normal(size=(7, 9))])
    stack[1, [2, 5]] = 0.0
    solved, sweeps = solve_alone(stack)
    assert sweeps[0] == 1 and len(set(sweeps)) >= 3
    assert _jacobi_rows(stack) == sweeps
    assert np.array_equal(stack, solved)


def test_jacobi_svds_match_jacobi_svd_across_r2_shapes():
    # two R2 shapes: 20 x 20 (full-rank tall and a rank-20 wide matrix) and 9 x 9
    rng = np.random.default_rng(73)
    Xs = [
        rng.poisson(0.6, size=(40, 20)).astype(float),
        rng.poisson(0.6, size=(30, 9)).astype(float),
        rng.normal(size=(20, 6)) @ rng.normal(size=(6, 25)) + rng.normal(size=(20, 25)),
        rng.poisson(0.6, size=(50, 9)).astype(float),
    ]
    copies = [X.copy() for X in Xs]
    batch = jacobi_svds(Xs)
    streamed = jacobi_svds(X.copy() for X in copies)  # each input freed after its first QR
    assert len(batch) == len(streamed) == len(Xs)
    assert all(np.array_equal(X, C) for X, C in zip(Xs, copies))  # a list input is left intact
    for X, (U, s, sweeps), (U2, s2, sweeps2) in zip(Xs, batch, streamed):
        U1, s1, sweeps1 = jacobi_svd(X)
        assert np.array_equal(U, U1) and np.array_equal(s, s1) and sweeps == sweeps1
        assert np.array_equal(U, U2) and np.array_equal(s, s2) and sweeps == sweeps2


def test_jacobi_svds_frees_an_input_it_alone_holds():
    """Fed from a generator, the counts go as the first QR copies them, R as
    the second QR copies it, the Jacobi stack with its last row, and each
    reflector once applied: the traced peak of a full-rank 200 x 100 count
    matrix is about 3.0x its size, 4.1x when the counts, R, the stack and
    the reflectors lived on, and 6.0x when the second QR's reflectors and a
    second R2 did too."""
    def counts():
        return np.random.default_rng(3).poisson(0.08, size=(200, 100)).astype(float)

    X = counts()
    assert np.linalg.matrix_rank(X) == 100 and len(np.unique(X.T, axis=0)) == 100  # no rank or merge shortcut
    nbytes = X.nbytes
    del X
    tracemalloc.start()
    try:
        jacobi_svds(counts() for _ in range(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (3.3 if MOVES_CALL_ARGUMENTS else 5.0) * nbytes


def test_jacobi_svds_raises_when_one_member_does_not_converge(monkeypatch):
    # the identity converges in its first sweep; the random matrix does not
    monkeypatch.setattr(svd, "_MAX_SWEEPS", 1)
    X = np.random.default_rng(31).normal(size=(12, 12))
    for Xs in ([np.eye(12), X], [X, np.eye(12)]):
        with pytest.raises(ConvergenceError) as exc_info:
            jacobi_svds(Xs)
        assert exc_info.value.residual > 0


def test_odd_rank_count_matrix_with_duplicate_columns():
    # rank 33 is odd, so the Jacobi rows are padded with a spare slot
    rng = np.random.default_rng(59)
    X = rng.poisson(0.4, size=(48, 33)).astype(float)
    X = np.column_stack([X, X[:, [0, 5, 5, 12, 20, 32]]])[:, rng.permutation(39)]
    U, s, sweeps = jacobi_svd(X)
    assert np.count_nonzero(s) == 33
    assert np.abs(s - singular_values_via_augmented(X)).max() <= 1e-8 * s[0]
    assert projection_error(X, U) <= 1e-12 * s[0]
    assert orthonormality_error(U) <= 1e-12
    assert row_gram_error(X, U, s) <= 1e-12 * s[0] ** 2
    U2, s2, sweeps2 = jacobi_svd(X.copy())
    assert np.array_equal(U, U2) and np.array_equal(s, s2) and sweeps == sweeps2


@st.composite
def count_matrices(draw):
    """Small non-negative integer matrices with repeated columns and zero rows."""
    m = draw(st.integers(1, 8))
    c = draw(st.integers(1, 6))
    X = np.array(draw(st.lists(st.integers(0, 5), min_size=m * c, max_size=m * c)), float).reshape(m, c)
    copies = draw(st.lists(st.integers(0, c - 1), max_size=6))
    X = np.column_stack([X] + [X[:, j] for j in copies])
    zero_rows = draw(st.lists(st.integers(0, m - 1), max_size=m // 2))
    X[zero_rows] = 0.0
    order = draw(st.permutations(range(X.shape[1])))
    return X[:, order]


@settings(max_examples=150, deadline=None)
@given(count_matrices())
def test_svd_properties_with_duplicate_columns_and_zero_rows(X):
    U, s, sweeps = jacobi_svd(X)
    assert U.shape == (X.shape[0], np.count_nonzero(s)) and s.shape == (min(X.shape),)
    scale = max(float(s[0]), 1.0)
    assert np.abs(s - singular_values_via_augmented(X)).max() <= 1e-8 * scale
    assert projection_error(X, U) <= 1e-8 * scale
    assert orthonormality_error(U) <= 1e-8
    assert row_gram_error(X, U, s) <= 1e-8 * scale ** 2
    assert (s >= 0).all() and (np.diff(s) <= 0).all()
    mags = np.abs(U)  # the sign rule: the first entry within 1e-9 of a column's largest is non-negative
    assert (U[np.argmax(mags >= (1 - 1e-9) * mags.max(axis=0), axis=0), np.arange(U.shape[1])] >= 0).all()
    U2, s2, sweeps2 = jacobi_svd(np.asfortranarray(X))
    assert np.array_equal(U, U2) and np.array_equal(s, s2) and sweeps == sweeps2


def test_rank_above_live_count_keeps_only_live_columns():
    # A Kahan matrix keeps its column order under pivoting, so the QR sees
    # full rank 60, yet its smallest singular value falls below the
    # eps-relative cut: 59 singular values survive, and U keeps only their
    # 59 left singular vectors.
    n, c = 60, 0.5
    s = np.sqrt(1.0 - c * c)
    K = (s ** np.arange(n))[:, None] * (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
    K *= 1.0 - 100.0 * np.finfo(float).eps * np.arange(n)
    X = np.vstack([K, np.zeros((10, n))])
    R, perm, _ = householder_qr(X)
    diag = np.abs(np.diag(R))
    assert np.array_equal(perm, np.arange(n)) and diag[-1] > diag[0] * 70 * np.finfo(float).eps
    U, s, _ = jacobi_svd(X)
    assert U.shape == (70, 59) and s.shape == (60,) and np.count_nonzero(s) == 59
    assert orthonormality_error(U) <= 1e-12
    assert projection_error(X, U) <= 1e-12 * s[0]
    assert np.abs(s - singular_values_via_augmented(X)).max() <= 1e-12 * s[0]


@pytest.mark.parametrize("mode", ["root", "light"])
def test_fixture_matrices_converge_within_ten_sweeps(mode, mini_paragraphs, root_config, light_config):
    config = root_config if mode == "root" else light_config
    _, counts = next(build_matrices(mini_paragraphs, [config]))
    _, _, sweeps = jacobi_svd(counts)
    assert 1 <= sweeps <= 8  # both take 8; ten is the 240-paragraph case's bound below


@pytest.fixture(scope="module")
def seeded_240_paragraphs(tmp_path_factory):
    """A corpus of the benchmark's scale-build workload (seed 5), written by perfbench/gen.py."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("perfbench_gen", root / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    data = root / "src" / "semspace" / "data"
    corpus_dir = tmp_path_factory.mktemp("seeded-240")
    gen.write_corpus(corpus_dir, data / "mini_corpus", data / "rules", 5, paragraphs=240, tokens=25,
                     lexicon_size=6 * 240, paragraphs_per_doc=20)
    return corpus_dir


def test_seeded_240_paragraph_light_matrix_converges_within_ten_sweeps(seeded_240_paragraphs, light_config):
    # the full-rank 472 x 240 matrix of the benchmark's scale-build workload
    _, X = next(build_matrices(segment_corpus(load_corpus(seeded_240_paragraphs)), [light_config]))
    U, s, sweeps = jacobi_svd(X)
    assert X.shape == (472, 240) and U.shape == (472, 240)
    assert 1 <= sweeps <= 10
    assert np.abs(s - np.linalg.svd(X, compute_uv=False)).max() <= 1e-12 * s[0]


@pytest.mark.skipif(not MOVES_CALL_ARGUMENTS, reason="CPython 3.10 keeps the corpus and the counts until their calls return")
def test_build_peaks_near_three_times_its_count_matrix(capsys, seeded_240_paragraphs, light_config, tmp_path):
    """A whole `build` lets each block go at its last reader: the corpus once
    counted, the counts and R as their QRs copy them, the Jacobi stack with
    its last row, each reflector once applied. On the seeded 240-paragraph
    light corpus its traced peak is about 2.6x the count matrix's bytes,
    2.9x when the corpus's token and column ids lived on through both QRs,
    4.6x when each of those blocks lived on to the end of its function."""
    _, X = next(build_matrices(segment_corpus(load_corpus(seeded_240_paragraphs)), [light_config]))
    assert X.shape == (472, 240)
    nbytes = X.nbytes
    del X
    argv = ["build", "--mode", "light", str(seeded_240_paragraphs), "-o", str(tmp_path / "light.bin")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * nbytes


@pytest.mark.skipif(not MOVES_CALL_ARGUMENTS, reason="CPython 3.10 keeps the corpus and the counts until their calls return")
def test_two_mode_report_peaks_near_2_3_times_its_light_count_matrix(capsys, mini_paragraphs, light_config,
                                                                     mini_corpus_dir, pair_files):
    """The bundled `report -k 40` with root and light (the paper's run) peaks
    at about 2.3x the light count matrix's bytes, in light's merge and
    apply_q alike; 3.6x when the merge held its column keys, the unscaled
    copy and the scaled one at once, which was the run's peak."""
    nbytes = next(build_matrices(mini_paragraphs, [light_config]))[1].nbytes
    argv = ["report", "--corpus", str(mini_corpus_dir), *(arg for path in pair_files for arg in ("--pairs", str(path))),
            "-k", "40", "--modes", "root,light"]
    assert main(argv) == 0  # warm, as the benchmark's operations are: rule files read, patterns compiled
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * nbytes
