import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semspace.errors import ConvergenceError
from semspace.svd import householder_qr, jacobi_svd

from oracles import singular_values_via_augmented, singular_values_via_gram


def reconstruction_error(X, U, s, V):
    return np.linalg.norm(X - (U * s) @ V.T)


def orthonormality_error(M):
    return np.abs(M.T @ M - np.eye(M.shape[1])).max()


def test_identity_matrix():
    U, s, V = jacobi_svd(np.eye(2))
    assert np.allclose(s, [1.0, 1.0])
    assert np.allclose((U * s) @ V.T, np.eye(2), atol=1e-12)


def test_rank_one_rectangle():
    # eigenvalues of X^T X are 25 and 0, so sigma = (5, 0)
    X = np.array([[3.0, 0.0], [4.0, 0.0]])
    U, s, V = jacobi_svd(X)
    assert np.allclose(s, [5.0, 0.0], atol=1e-12)
    assert reconstruction_error(X, U, s, V) <= 1e-12
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
        U, s, V = jacobi_svd(X)
        oracle = singular_values_via_gram(X)
        scale = max(float(s[0]), 1.0)
        assert np.abs(s - oracle).max() <= 1e-8 * scale
        assert reconstruction_error(X, U, s, V) <= 1e-8 * max(np.linalg.norm(X), 1e-30)
        assert orthonormality_error(U) <= 1e-8
        assert orthonormality_error(V) <= 1e-8


def test_rank_deficient_duplicate_columns():
    rng = np.random.default_rng(5)
    X = rng.integers(0, 6, size=(8, 5)).astype(float)
    X[:, 4] = X[:, 0]
    X[:, 3] = X[:, 1]
    U, s, V = jacobi_svd(X)
    assert s[3] <= 1e-10 * s[0] and s[4] <= 1e-10 * s[0]
    assert reconstruction_error(X, U, s, V) <= 1e-10 * np.linalg.norm(X)
    assert orthonormality_error(U) <= 1e-10
    assert orthonormality_error(V) <= 1e-10


def test_zero_matrix():
    U, s, V = jacobi_svd(np.zeros((3, 2)))
    assert np.all(s == 0)
    assert orthonormality_error(U) <= 1e-12
    assert orthonormality_error(V) <= 1e-12


def test_single_row_and_column():
    U, s, V = jacobi_svd(np.array([[3.0, 4.0]]))
    assert np.allclose(s, [5.0])
    U, s, V = jacobi_svd(np.array([[3.0], [4.0]]))
    assert np.allclose(s, [5.0])
    U, s, V = jacobi_svd(np.array([[-7.0]]))
    assert np.allclose(s, [7.0])


def test_sign_convention_largest_entry_non_negative():
    rng = np.random.default_rng(17)
    for _ in range(10):
        X = rng.normal(size=(7, 5))
        U, s, V = jacobi_svd(X)
        for j in range(U.shape[1]):
            i = np.argmax(np.abs(U[:, j]))
            assert U[i, j] >= 0


def test_deterministic():
    rng = np.random.default_rng(23)
    X = rng.integers(0, 8, size=(9, 6)).astype(float)
    U1, s1, V1 = jacobi_svd(X.copy())
    U2, s2, V2 = jacobi_svd(X.copy())
    assert np.array_equal(U1, U2) and np.array_equal(s1, s2) and np.array_equal(V1, V2)


def test_wide_matrix_transposed_internally():
    rng = np.random.default_rng(29)
    X = rng.integers(0, 9, size=(4, 11)).astype(float)
    U, s, V = jacobi_svd(X)
    assert U.shape == (4, 4) and V.shape == (11, 4) and s.shape == (4,)
    assert reconstruction_error(X, U, s, V) <= 1e-10 * np.linalg.norm(X)


def test_convergence_error_carries_residual():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(12, 12))
    with pytest.raises(ConvergenceError) as exc_info:
        jacobi_svd(X, max_sweeps=1)
    assert exc_info.value.residual > 0


def test_invalid_input_rejected():
    with pytest.raises(ValueError):
        jacobi_svd(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        jacobi_svd(np.zeros(4))


def test_householder_qr():
    rng = np.random.default_rng(37)
    for m, n in ((6, 6), (9, 4), (5, 1), (4, 7)):
        A = rng.normal(size=(m, n))
        Q, R, perm = householder_qr(A)
        assert np.abs(np.tril(R, -1)).max() == 0
        assert orthonormality_error(Q) <= 1e-12
        assert sorted(perm) == list(range(n))
        assert np.allclose(Q @ R, A[:, perm], atol=1e-12)
        diag = np.abs(np.diag(R))
        assert (np.diff(diag) <= 1e-12 * diag[0]).all()


def test_householder_qr_extra_q_columns_stay_orthonormal():
    rng = np.random.default_rng(41)
    A = rng.normal(size=(9, 3))
    Q, R, perm = householder_qr(A, q_cols=7)
    assert Q.shape == (9, 7) and R.shape == (7, 3)
    assert orthonormality_error(Q) <= 1e-12
    assert np.allclose(Q @ R, A[:, perm], atol=1e-12)


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


@pytest.mark.parametrize("shape", [(12, 7), (6, 15)], ids=["tall", "wide"])
def test_rank_below_min_dimension_is_completed(shape):
    rng = np.random.default_rng(47)
    m, c = shape
    X = rng.integers(-3, 4, size=(m, 3)).astype(float) @ rng.integers(-3, 4, size=(3, c))
    U, s, V = jacobi_svd(X)
    n = min(m, c)
    assert U.shape == (m, n) and V.shape == (c, n)
    assert np.count_nonzero(s) == 3
    assert orthonormality_error(U) <= 1e-12
    assert orthonormality_error(V) <= 1e-12
    assert reconstruction_error(X, U, s, V) <= 1e-12 * np.linalg.norm(X)


def test_small_singular_values_survive_the_rank_cut():
    rng = np.random.default_rng(53)
    left, _ = np.linalg.qr(rng.normal(size=(7, 4)))
    right, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    expected = np.array([1.0, 1e-4, 1e-8, 1e-12])
    U, s, V = jacobi_svd((left * expected) @ right.T)
    assert np.abs(s - expected).max() <= 1e-14
    assert orthonormality_error(U) <= 1e-12
    assert orthonormality_error(V) <= 1e-12


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
    U, s, V = jacobi_svd(X)
    n = min(X.shape)
    assert U.shape == (X.shape[0], n) and s.shape == (n,) and V.shape == (X.shape[1], n)
    scale = max(float(s[0]), 1.0)
    assert np.abs(s - singular_values_via_augmented(X)).max() <= 1e-8 * scale
    assert reconstruction_error(X, U, s, V) <= 1e-8 * scale
    assert orthonormality_error(U) <= 1e-8
    assert orthonormality_error(V) <= 1e-8
    assert (s >= 0).all() and (np.diff(s) <= 0).all()
    largest = U[np.argmax(np.abs(U), axis=0), np.arange(n)]
    assert (largest >= 0).all()
    U2, s2, V2 = jacobi_svd(np.asfortranarray(X))
    assert np.array_equal(U, U2) and np.array_equal(s, s2) and np.array_equal(V, V2)
