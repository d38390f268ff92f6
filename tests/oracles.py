"""Independent brute-force oracles, kept deliberately separate from the
library's own algorithms so the two sides of each check cannot share a bug."""

import numpy as np


def jacobi_eigenvalues(S, max_sweeps=100, floor=0.0):
    """Eigenvalues of a symmetric matrix by classical two-sided Jacobi rotations.

    This is a different algorithm from the library's one-sided column
    orthogonalization: it rotates the symmetric matrix itself until the
    off-diagonal mass is gone and reads eigenvalues off the diagonal.
    An off-diagonal entry is left alone once it is below 1e-18 times its two
    diagonal entries or below ``floor``, whichever is larger.
    """
    A = np.array(S, dtype=np.float64)
    n = A.shape[0]
    if n == 1:
        return A.diagonal().copy()
    for _ in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                scale = abs(A[p, p]) + abs(A[q, q])
                if abs(apq) <= max(1e-18 * scale, floor):
                    continue
                rotated = True
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                if tau == 0.0:
                    t = 1.0
                else:
                    t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp, rq = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp, cq = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
        if not rotated:
            break
    return np.sort(np.diag(A))[::-1]


def singular_values_via_gram(X):
    """Singular values as square roots of the Gram matrix's eigenvalues,
    computed on the smaller of X^T X and X X^T."""
    X = np.asarray(X, dtype=np.float64)
    m, c = X.shape
    gram = X.T @ X if m >= c else X @ X.T
    eigenvalues = jacobi_eigenvalues(gram)
    return np.sqrt(np.clip(eigenvalues, 0.0, None))


def singular_values_via_augmented(X):
    """Singular values as the top eigenvalues of [[0, X], [X^T, 0]], whose
    spectrum is +-sigma plus |m - c| zeros.

    The Gram route squares X, so it resolves a zero singular value only to
    about sqrt(eps) * sigma_1; this route keeps every sigma to about
    eps * sigma_1, which matters for rank-deficient inputs.
    """
    X = np.asarray(X, dtype=np.float64)
    m, c = X.shape
    A = np.zeros((m + c, m + c))
    A[:m, m:] = X
    A[m:, :m] = X.T
    eigenvalues = jacobi_eigenvalues(A, floor=1e-17 * np.linalg.norm(A))
    return np.clip(eigenvalues[: min(m, c)], 0.0, None)


def euclidean_by_summation(a, b):
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) * (x - y)
    return total ** 0.5


def count_occurrences(paragraph_tokens, stem):
    """Dict-of-dicts word counts per paragraph, independent of the matrix code."""
    table = []
    for tokens in paragraph_tokens:
        counts = {}
        for token in tokens:
            key = stem(token)
            if key:
                counts[key] = counts.get(key, 0) + 1
        table.append(counts)
    return table
