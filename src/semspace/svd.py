"""Dense singular value decomposition, implemented here rather than delegated.

The factorization runs in four steps:

1. Identical columns are merged: c copies of a column become one column
   scaled by sqrt(c). This leaves X @ X.T, and so U and sigma, unchanged.
2. The merged matrix is factored by a Householder QR with column pivoting
   (Businger & Golub, 1965), and R is cut at its numerical rank r, read off
   its non-increasing diagonal.
3. A one-sided Jacobi iteration runs on the r columns of R.T, the
   preconditioned form of Drmac & Veselic (SIAM J. Matrix Anal. Appl. 29(4),
   2008): plane rotations orthogonalize the columns, their norms are the
   singular values, the accumulated rotations carried through Q give U, and
   the normalized columns, un-permuted and un-merged, give V. The working
   matrix is kept transposed, so a rotation touches whole rows, and its rows
   sit in pair slots of a fixed round-robin schedule (a zero spare row pads
   an odd r): each round's disjoint pairs are adjacent, rotated together by
   one batched 2 x 2 matmul, and moved to the next round's slots by one
   fixed row permutation. The schedule never varies, so results are
   bit-reproducible. Pairs whose norms sit at roundoff level relative to the
   matrix are excluded from the convergence measure.
4. Directions with no singular value get sigma 0. U is completed from the
   columns of the Householder Q beyond r, and V from the Householder Q of
   its own live columns.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

_MACHINE_EPS = float(np.finfo(np.float64).eps)

DEFAULT_TOL = 1e-14
DEFAULT_MAX_SWEEPS = 60


def _pair_slots(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Slot layout of the round-robin schedule on n rows, padded to even m.

    Slots 2i and 2i + 1 hold the i-th pair of a round. Row j starts every
    sweep in slot home[j]; when n is odd, row n is a spare that never
    rotates. Taking the slots in the order `step` moves every row to its slot
    in the next round, and m - 1 rounds cover each pair of rows once and
    bring every row home.
    """
    m = n + n % 2
    i = np.arange(m // 2)
    home = np.empty(m, dtype=np.intp)
    home[i], home[m - 1 - i] = 2 * i, 2 * i + 1
    # tournament step [a0, a1, ..., a_last] -> [a0, a_last, a1, ...]
    step = np.empty(m, dtype=np.intp)
    step[home] = home[np.r_[0, m - 1, 1 : m - 1]]
    return home, step


def householder_qr(
    A: np.ndarray, q_cols: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-pivoted QR of an m x c matrix: A[:, perm] == Q @ R.

    Each step moves the remaining column of largest norm to the front, so
    |diag R| is non-increasing. Q is m x q_cols with orthonormal columns
    (q_cols defaults to min(m, c) and may be up to m), and R is q_cols x c
    upper triangular.
    """
    A = np.array(A, dtype=np.float64, order="C")
    m, c = A.shape
    q_cols = min(m, c) if q_cols is None else q_cols
    perm = np.arange(c)
    reflectors: list[np.ndarray | None] = []
    for k in range(min(m, c)):
        tail = A[k:, k:]
        j = k + int(np.argmax(np.einsum("ij,ij->j", tail, tail)))
        if j != k:
            A[:, [k, j]] = A[:, [j, k]]
            perm[[k, j]] = perm[[j, k]]
        if k == m - 1:
            break
        x = A[k:, k]
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            reflectors.append(None)
            continue
        v = x.copy()
        v[0] += np.copysign(norm_x, x[0]) if x[0] != 0 else norm_x
        norm_v = np.linalg.norm(v)
        if norm_v == 0.0:
            reflectors.append(None)
            continue
        v /= norm_v
        A[k:, k:] -= np.outer(v, 2.0 * (v @ A[k:, k:]))
        reflectors.append(v)
    R = np.triu(A[:q_cols, :])
    Q = np.eye(m, q_cols)
    for k in reversed(range(len(reflectors))):
        v = reflectors[k]
        if v is not None:
            Q[k:, :] -= np.outer(v, 2.0 * (v @ Q[k:, :]))
    return Q, R, perm


def _merge_duplicate_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct columns of X in first-seen order, each scaled by sqrt(copies).

    Returns the merged matrix, the merged index of every original column and
    the number of copies of every merged column.
    """
    seen: dict[bytes, int] = {}
    group = np.array([seen.setdefault(X[:, j].tobytes(), len(seen)) for j in range(X.shape[1])])
    copies = np.bincount(group)
    if len(seen) == X.shape[1]:
        return X, group, copies
    first = np.unique(group, return_index=True)[1]
    return X[:, first] * np.sqrt(copies), group, copies


def _jacobi_rows(G: np.ndarray, width: int, max_sweeps: int, tol: float) -> None:
    """Rotate the rows of G in place until their first `width` entries are orthogonal.

    G holds the working matrix in its first `width` columns and the rotations
    to accumulate (started as an identity) in the rest. The rows sit in pair
    slots, so a round rotates all of its pairs with one batched 2 x 2 matmul
    and moves them to the next round's slots with one take.
    """
    n, w = G.shape
    if n < 2:
        return
    home, step = _pair_slots(n)
    m = len(home)
    dead_level = (_MACHINE_EPS * np.linalg.norm(G[:, :width])) ** 2

    slots, spare = np.zeros((m, w)), np.empty((m, w))
    slots[home[:n]] = G
    rot = np.empty((m // 2, 2, 2))
    off = float("inf")
    for _ in range(max_sweeps):
        off = 0.0
        for _ in range(m - 1):
            pairs = slots.reshape(m // 2, 2, w)
            Bp, Bq = pairs[:, 0, :width], pairs[:, 1, :width]
            app = np.einsum("ij,ij->i", Bp, Bp)
            aqq = np.einsum("ij,ij->i", Bq, Bq)
            apq = np.einsum("ij,ij->i", Bp, Bq)
            live = (app > dead_level) & (aqq > dead_level)
            rel = np.where(live, np.abs(apq) / np.sqrt(np.where(live, app * aqq, 1.0)), 0.0)
            off = max(off, float(rel.max()))
            active = rel > tol
            if not active.any():
                # mode="clip" lets take write straight into the buffer; the
                # step's indices are always in range.
                np.take(slots, step, axis=0, out=spare, mode="clip")
                slots, spare = spare, slots
                continue
            tau = (aqq - app) / (2.0 * np.where(active, apq, 1.0))
            t = np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau))
            t = np.where(active, np.where(tau == 0.0, 1.0, t), 0.0)
            cos_t = 1.0 / np.sqrt(1.0 + t * t)
            sin_t = t * cos_t
            rot[:, 0, 0] = rot[:, 1, 1] = cos_t
            rot[:, 0, 1] = -sin_t
            rot[:, 1, 0] = sin_t
            np.matmul(rot, pairs, out=spare.reshape(m // 2, 2, w))
            np.take(spare, step, axis=0, out=slots, mode="clip")
        if off <= tol:
            G[:] = slots[home[:n]]
            return
    raise ConvergenceError(
        f"one-sided Jacobi did not converge in {max_sweeps} sweeps "
        f"(off-diagonal residual {off:.3e})",
        residual=off,
    )


def jacobi_svd(
    X: np.ndarray,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor X (m x c) into U, sigma, V with X = U @ diag(sigma) @ V.T.

    U is m x n and V is c x n with orthonormal columns, n = min(m, c), and
    sigma is non-increasing. Ties keep their pre-sort order, and each column
    of U has its largest-magnitude entry non-negative, so equal inputs give
    bit-identical factors.

    Raises ConvergenceError (carrying the achieved off-diagonal residual)
    if the sweep budget is exhausted.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.size == 0:
        raise ValueError("expected a non-empty 2-d matrix")
    m, c = X.shape
    n = min(m, c)

    merged, group, copies = _merge_duplicate_columns(X)
    Q, R, perm = householder_qr(merged, q_cols=n)
    diag = np.abs(np.diag(R))
    rank = int(np.count_nonzero(diag > diag[0] * max(merged.shape) * _MACHINE_EPS))

    # Jacobi on the rows of R[:rank] (the columns of R.T) ends with
    # W @ R[:rank] = B = diag(sigma) @ Z.T, W orthogonal, so up to the cut
    # merged[:, perm] = (Q[:, :rank] @ W.T) @ diag(sigma) @ Z.T.
    width = merged.shape[1]
    G = np.hstack([R[:rank], np.eye(rank)])
    del R
    _jacobi_rows(G, width, max_sweeps, tol)
    B, W = G[:, :width], G[:, width:]

    sigma = np.sqrt(np.einsum("ij,ij->i", B, B))
    order = np.argsort(-sigma, kind="stable")
    sigma = np.r_[sigma[order], np.zeros(n - rank)]
    alive = sigma > sigma[0] * _MACHINE_EPS * 10
    live = int(np.count_nonzero(alive))
    sigma[~alive] = 0.0

    U = Q  # its columns beyond the rank complete U
    U[:, :rank] = Q[:, :rank] @ W[order].T
    Z = np.empty((width, live))
    Z[perm] = (B[order[:live]] / sigma[:live, None]).T
    V = np.empty((c, n))
    V[:, :live] = Z[group] / np.sqrt(copies[group])[:, None]
    if live < n:
        V[:, live:] = householder_qr(V[:, :live], q_cols=n)[0][:, live:]

    rows = np.argmax(np.abs(U), axis=0)
    flip = U[rows, np.arange(n)] < 0
    U[:, flip] = -U[:, flip]
    V[:, flip] = -V[:, flip]
    return U, sigma, V
