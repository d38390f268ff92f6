"""Dense singular value decomposition, implemented here rather than delegated.

Only the left singular vectors and the singular values are computed: the
word space is rows of U, and nothing reads the paragraph side. U keeps only
the columns with a nonzero singular value; no basis of the null space is
made up. The factorization runs in three steps:

1. Identical columns are merged: c copies of a column become one column
   scaled by sqrt(c). This leaves X @ X.T, and so U and sigma, unchanged.
2. The merged matrix is factored by a Householder QR with column pivoting
   (Businger & Golub, 1965), and R is cut at its numerical rank r, read off
   its non-increasing diagonal. The QR is blocked as LAPACK's dgeqp3 is
   (Quintana-Orti, Sun & Bischof, SIAM J. Sci. Comput. 19(5), 1998): pivots
   come from downdated column norms, and the rest of the matrix is updated
   by one matmul per 32-column panel. Q is kept as one block reflector per
   panel (Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 10(1), 1989).
3. The transposed r rows of R are factored by a second pivoted QR,
   R[:r].T[:, p2] = Q2 @ R2, the preconditioning of Drmac & Veselic (SIAM
   J. Matrix Anal. Appl. 29(4), 2008); only R2 and p2 are kept. A one-sided
   Jacobi iteration then rotates the r x r rows of R2 until they are
   orthogonal: row i ends as sigma_i * y_i.T, so the normalized rows,
   transposed and put back in the order p2, are the left singular vectors
   of R[:r], and applying the first QR's block reflectors to them, padded
   with zero rows, gives U. No rotation is accumulated. The rows sit in
   pair slots of a fixed round-robin schedule (a zero spare row pads an odd
   r): each round's disjoint pairs are adjacent, rotated together by one
   batched 2 x 2 matmul, and moved to the next round's slots by one fixed
   row permutation. The squared row norms are computed once per sweep and
   updated by each rotation (as in LAPACK's dgesvj), so a round computes
   only the pairs' inner products. The schedule never varies, so results
   are bit-reproducible on the same numpy and BLAS build and thread count.
   Pairs whose norms sit at roundoff level relative to the matrix are
   excluded from the convergence measure.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

_MACHINE_EPS = float(np.finfo(np.float64).eps)

DEFAULT_TOL = 1e-14
DEFAULT_MAX_SWEEPS = 60

_PANEL = 32  # columns per block reflector of householder_qr
# A downdated squared column norm below this share of its last computed value
# is recomputed: the downdate's relative error grows as the inverse share
# (Drmac & Bujanovic, ACM TOMS 35(2), 2008). LAPACK's sqrt(eps) keeps half the
# digits, too few to order columns whose norms differ by 100 ulps.
_NORM_RECOMPUTE = 0.02


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


def householder_qr(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Column-pivoted QR of an m x c matrix: A[:, perm] == Q @ R; Q is not formed.

    Returns (R, perm, reflectors). Each step moves the remaining column of
    largest norm to the front, so |diag R| is non-increasing; R is
    min(m, c) x c upper triangular. Q is the product of one block reflector
    I - V @ T @ V.T on rows k0 and below per panel of _PANEL columns, listed
    as (k0, V, T) for `apply_q`. As in LAPACK's dlaqps, the trailing columns
    are updated once per panel, and a panel ends early when a downdated norm
    must be recomputed from its updated column.
    """
    A = np.array(A, dtype=np.float64, order="F")
    m, c = A.shape
    n = min(m, c)
    perm = np.arange(c)
    norms = np.linalg.norm(A, axis=0)
    exact = norms.copy()  # each column's norm when it was last computed, not downdated
    reflectors = []
    k0 = 0
    while k0 < n:
        nb = min(_PANEL, n - k0)
        V, T, F = np.zeros((m - k0, nb)), np.zeros((nb, nb)), np.zeros((c - k0, nb))
        # The panel's pending update of columns k0 and up is A -= V @ F.T.
        for i in range(nb):
            k = k0 + i
            j = k + int(np.argmax(norms[k:]))
            if j != k:
                A[:, k], A[:, j] = A[:, j].copy(), A[:, k].copy()
                F[i], F[j - k0] = F[j - k0].copy(), F[i].copy()
                for a in (perm, norms, exact):
                    a[k], a[j] = a[j], a[k]
            x = A[k:, k]
            if i:
                x -= V[i:, :i] @ F[i, :i]
            v = V[i:, i]
            v[0] = 1.0
            # numpy's bits: Python floats, its own 1-d norm formula, np.hypot (not math.hypot)
            tail = math.sqrt(x[1:] @ x[1:])
            tau = 0.0
            if tail != 0.0:
                x0 = float(x[0])
                beta = -math.copysign(float(np.hypot(x0, tail)), x0)
                tau = (beta - x0) / beta
                v[1:] = x[1:] / (x0 - beta)
                x[0] = beta
            aux = -tau * (V[i:, :i].T @ v)
            F[i + 1 :, i] = tau * (A[k:, k + 1 :].T @ v) + F[i + 1 :, :i] @ aux
            T[:i, i], T[i, i] = T[:i, :i] @ aux, tau
            A[k, k + 1 :] -= V[i, : i + 1] @ F[i + 1 :, : i + 1].T
            # downdate the norms by row k
            rest = norms[k + 1 :]
            ratio = np.divide(np.abs(A[k, k + 1 :]), rest, out=np.zeros_like(rest), where=rest > 0)
            left = np.maximum(0.0, (1.0 + ratio) * (1.0 - ratio))
            lost = left * rest**2 <= _NORM_RECOMPUTE * exact[k + 1 :] ** 2
            stale = k + 1 + np.flatnonzero(lost & (rest > 0))
            rest *= np.sqrt(left)
            if stale.size:
                break
        k = k0 + i + 1
        A[k:, k:] -= V[k - k0 :, : i + 1] @ F[k - k0 :, : i + 1].T
        norms[stale] = exact[stale] = np.linalg.norm(A[k:, stale], axis=0)
        reflectors.append((k0, V[:, : i + 1].copy(), T[: i + 1, : i + 1].copy()))
        k0 = k
    return np.triu(A[:n]), perm, reflectors


def apply_q(reflectors: list, C: np.ndarray) -> np.ndarray:
    """Overwrite C (float64, m rows) with Q @ C, Q given by `householder_qr`'s reflectors."""
    for k0, V, T in reversed(reflectors):
        C[k0:] -= V @ (T @ (V.T @ C[k0:]))
    return C


def _merge_duplicate_columns(X: np.ndarray) -> np.ndarray:
    """Distinct columns of X in first-seen order, each scaled by sqrt(copies)."""
    seen: dict[bytes, int] = {}
    group = [seen.setdefault(X[:, j].tobytes(), len(seen)) for j in range(X.shape[1])]
    if len(seen) == X.shape[1]:
        return X
    first = np.unique(group, return_index=True)[1]
    return X[:, first] * np.sqrt(np.bincount(group))


def _jacobi_rows(G: np.ndarray, max_sweeps: int, tol: float) -> int:
    """Rotate the rows of G in place until they are orthogonal; return the sweeps.

    The rows sit in pair slots, so a round rotates all of its pairs with one
    batched 2 x 2 matmul and moves them to the next round's slots with one
    take.
    """
    n, w = G.shape
    if n < 2:
        return 0
    home, step = _pair_slots(n)
    m = len(home)
    dead_level = (_MACHINE_EPS * np.linalg.norm(G)) ** 2

    slots, spare = np.zeros((m, w)), np.empty((m, w))
    slots[home[:n]] = G
    rot = np.empty((m // 2, 2, 2))
    off = float("inf")
    for sweep in range(1, max_sweeps + 1):
        off = 0.0
        # Squared row norms, exact at the start of the sweep and updated by
        # each rotation; they move slots with the rows. The sweep that ends
        # the iteration rotates nothing, so its norms stay exact.
        norms = np.einsum("ij,ij->i", slots, slots)
        for _ in range(m - 1):
            pairs = slots.reshape(m // 2, 2, w)
            app, aqq = norms[0::2], norms[1::2]
            apq = np.einsum("ij,ij->i", pairs[:, 0], pairs[:, 1])
            live = (app > dead_level) & (aqq > dead_level)
            rel = np.where(live, np.abs(apq) / np.sqrt(np.where(live, app * aqq, 1.0)), 0.0)
            off = max(off, float(rel.max()))
            active = rel > tol
            if not active.any():
                # mode="clip" lets take write straight into the buffer; the
                # step's indices are always in range.
                np.take(slots, step, axis=0, out=spare, mode="clip")
                slots, spare = spare, slots
                norms = norms[step]
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
            app -= t * apq  # app and aqq are views into norms
            aqq += t * apq
            norms = norms[step]
        if off <= tol:
            G[:] = slots[home[:n]]
            return sweep
    raise ConvergenceError(
        f"one-sided Jacobi did not converge in {max_sweeps} sweeps "
        f"(off-diagonal residual {off:.3e})",
        residual=off,
    )


def jacobi_svd(
    X: np.ndarray,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Left singular vectors and singular values of X (m x c), and the sweeps run.

    sigma has length min(m, c), is non-increasing, and is zero beyond the
    numerical rank r = count_nonzero(sigma). U is m x r with orthonormal
    columns, and U.T @ X has mutually orthogonal rows with norms sigma[:r],
    so X = U @ U.T @ X. Ties keep their pre-sort order, and each
    column of U has its largest-magnitude entry non-negative, so equal
    inputs give bit-identical factors. The third item is the number of
    Jacobi sweeps to convergence.

    Raises ConvergenceError (carrying the achieved off-diagonal residual)
    if the sweep budget is exhausted.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.size == 0:
        raise ValueError("expected a non-empty 2-d matrix")

    merged = _merge_duplicate_columns(X)
    R, _, reflectors = householder_qr(merged)
    diag = np.abs(np.diag(R))
    rank = int(np.count_nonzero(diag > diag[0] * max(merged.shape) * _MACHINE_EPS))

    # R[:rank].T[:, p2] = Q2 @ R2, and Jacobi turns the rows of R2 into
    # B = W @ R2 = diag(sigma) @ Z.T, W orthogonal, so up to the cut
    # merged[:, perm] = Q[:, :rank] @ Y @ diag(sigma) @ (Q2 @ W.T).T with
    # Y[p2] = Z. U needs only Y, so neither Q2 nor W is formed, and Q is
    # applied to Y padded with zero rows.
    B, p2, _ = householder_qr(R[:rank].T)
    del R
    sweeps = _jacobi_rows(B, max_sweeps, tol)

    sigma = np.sqrt(np.einsum("ij,ij->i", B, B))
    order = np.argsort(-sigma, kind="stable")
    sigma = np.r_[sigma[order], np.zeros(min(X.shape) - rank)]
    alive = sigma > sigma[0] * _MACHINE_EPS * 10
    live = int(np.count_nonzero(alive))
    sigma[~alive] = 0.0

    Y = np.zeros((X.shape[0], live))
    Y[p2] = (B[order[:live]] / sigma[:live, None]).T
    U = apply_q(reflectors, Y)

    rows = np.argmax(np.abs(U), axis=0)
    flip = U[rows, np.arange(live)] < 0
    U[:, flip] = -U[:, flip]
    return U, sigma, sweeps
