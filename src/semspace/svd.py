"""Dense singular value decomposition, implemented here rather than delegated.

Only the left singular vectors and the singular values are computed: the
word space is rows of U, and nothing reads the paragraph side. U keeps only
the columns with a nonzero singular value; no basis of the null space is
made up. The factorization runs in three steps:

1. Identical columns are merged: c copies of a column become one column
   scaled by sqrt(c). This leaves X @ X.T, and so U and sigma, unchanged.
2. The merged matrix is factored by a Householder QR with column pivoting
   (Businger & Golub, 1965), which stops at the numerical rank r: once no
   remaining column norm exceeds |r_00| * max(m, c) * eps. The QR is blocked
   as LAPACK's dgeqp3 is (Quintana-Orti, Sun & Bischof, SIAM J. Sci. Comput.
   19(5), 1998): pivots come from downdated column norms, and the rest of
   the matrix is updated by one matmul per 32-column panel. Q is kept as one
   block reflector per panel (Schreiber & Van Loan, SIAM J. Sci. Stat.
   Comput. 10(1), 1989).
3. The r rows of R, transposed, are factored by the same pivoted QR,
   R.T[:, p2] = Q2 @ R2, the preconditioning of Drmac & Veselic (SIAM J.
   Matrix Anal. Appl. 29(4), 2008); only R2 and p2 are kept. A one-sided
   Jacobi iteration then rotates the rows of R2 until they are orthogonal:
   row i ends as sigma_i * y_i.T, so the normalized rows, transposed and put
   back in the order p2, are the left singular vectors of R, and applying
   the first QR's block reflectors to them, padded with zero rows, gives U.
   No rotation is accumulated. The odd-even ordering, equivalent to the
   cyclic one (Luk & Park, SIAM J. Sci. Stat. Comput. 10(1), 1989), pairs
   slots (0, 1), (2, 3), ... and (1, 2), (3, 4), ... in alternate rounds;
   one batched matmul by [[s, c], [c, -s]] rotates a round's pairs and
   swaps each pair's rows (a zero spare row pads an odd count), so a sweep
   of as many rounds as slots meets every pair once and reverses the rows.
   The squared row norms are computed once per sweep and updated by each
   rotation (as in LAPACK's dgesvj), so a round computes only the pairs'
   inner products. Pairs whose norms sit at roundoff level relative to the
   matrix are excluded from the convergence measure. The schedule never
   varies, so results are bit-reproducible on the same numpy and BLAS build
   and thread count. `jacobi_svds` factors several matrices: R2 factors of
   one shape (ranks that agree) rotate in one loop, each with its own bits.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .errors import ConvergenceError

_MACHINE_EPS = float(np.finfo(np.float64).eps)

_TOL = 1e-14  # a pair is orthogonal once |<a, b>| <= _TOL * |a| * |b|
_MAX_SWEEPS = 60

_PANEL = 32  # columns per block reflector of householder_qr
# A downdated squared column norm below this share of its last computed value
# is recomputed: the downdate's relative error grows as the inverse share
# (Drmac & Bujanovic, ACM TOMS 35(2), 2008). LAPACK's sqrt(eps) keeps half the
# digits, too few to order columns whose norms differ by 100 ulps.
_NORM_RECOMPUTE = 0.02


def householder_qr(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Column-pivoted QR of an m x c matrix: A[:, perm] == Q @ R; Q is not formed.

    Returns (R, perm, reflectors). Each step moves the remaining column of
    largest norm to the front, so |diag R| is non-increasing. R is r x c
    upper triangular: the QR stops at the numerical rank r, once no remaining
    column norm exceeds |r_00| * max(m, c) * eps (r = min(m, c) at full
    rank). Q is the product of one block reflector I - V @ T @ V.T on rows
    k0 and below per panel of _PANEL columns, listed as (k0, V, T) for
    `apply_q`. As in LAPACK's dlaqps, the trailing columns are updated once
    per panel, and a panel ends early when a downdated norm must be
    recomputed from its updated column.
    """
    A = np.array(A, dtype=np.float64, order="F")
    m, c = A.shape
    n = min(m, c)
    perm = np.arange(c)
    with np.errstate(over="ignore"):  # an entry too large to square makes its column's norm inf
        norms = np.linalg.norm(A, axis=0)
    if not np.isfinite(norms).all():
        raise ValueError("matrix holds an entry that is not finite or too large to square")
    exact = norms.copy()  # each column's norm when it was last computed, not downdated
    reflectors = []
    cut = max(m, c) * _MACHINE_EPS  # the rank cut, relative to |r_00|
    k = 0
    while k < n:
        k0, nb = k, min(_PANEL, n - k)
        V, T, F = np.zeros((m - k0, nb)), np.zeros((nb, nb)), np.zeros((c - k0, nb))
        # The panel's pending update of columns k0 and up is A -= V @ F.T.
        for i in range(nb):
            j = k + int(np.argmax(norms[k:]))
            if norms[j] <= (cut * abs(A[0, 0]) if k else 0.0):
                n = k  # every remaining column is at or below the rank cut
                break
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
            k += 1
            if stale.size:
                break
        if k == k0:
            break
        A[k:, k:] -= V[k - k0 :, : k - k0] @ F[k - k0 :, : k - k0].T
        norms[stale] = exact[stale] = np.linalg.norm(A[k:, stale], axis=0)
        reflectors.append((k0, V[:, : k - k0].copy(), T[: k - k0, : k - k0].copy()))
    return np.triu(A[:n]), perm, reflectors


def apply_q(reflectors: list, C: np.ndarray) -> np.ndarray:
    """Overwrite C (float64, m rows) with Q @ C, Q given by `householder_qr`'s reflectors, each popped once applied."""
    while reflectors:
        k0, V, T = reflectors.pop()
        C[k0:] -= V @ (T @ (V.T @ C[k0:]))
    return C


def _merge_duplicate_columns(X: np.ndarray) -> np.ndarray:
    """Distinct columns of X in first-seen order, each scaled by sqrt(copies), or X itself when none
    repeats. The keys, a byte copy of the distinct columns, go before the merged copy is made, and
    that copy is scaled in place: beside X, one block of the merged size is alive at a time."""
    seen: dict[bytes, int] = {}
    group = [seen.setdefault(X[:, j].tobytes(), len(seen)) for j in range(X.shape[1])]
    if len(seen) == X.shape[1]:
        return X
    seen.clear()
    merged = X[:, np.unique(group, return_index=True)[1]]
    merged *= np.sqrt(np.bincount(group))
    return merged


def _jacobi_rows(stack: np.ndarray) -> list[int]:
    """Rotate the rows of each stack[i] in place until they are orthogonal; return the sweeps of each.

    The p problems of the (p, n, w) stack sit in blocks of m slots of one
    buffer, so a round's numpy calls serve them all: its pairs are one reshaped
    view of the slots, and its matmul writes them, rotated and swapped, to the
    other of two buffers. In odd rounds the pair that straddles two blocks is
    never live and its slots are copied back. A converged problem only swaps.
    """
    p, n, w = stack.shape
    if n < 2:
        return [0] * p
    m = n + n % 2  # an odd n gets a zero spare row, which never rotates
    half = m // 2
    bufs, norms = np.zeros((2, p * m, w)), np.empty((2, p * m))
    bufs[0].reshape(p, m, w)[:, :n] = stack
    # each problem's roundoff level, per pair position; inf where odd rounds straddle blocks
    dead = np.repeat([(_MACHINE_EPS * np.linalg.norm(G)) ** 2 for G in stack], half)
    dead_odd = np.where(np.arange(1, p * half) % half, dead[:-1], np.inf)
    off, rot = np.zeros(p * half), np.empty((p * half, 2, 2))  # off: the sweep's largest rel per position
    rounds = []  # even, odd: pairs, their rotated slots, the norms in and out, level, rotations, off
    for lo, level in enumerate((dead, dead_odd)):
        pairs, swapped = (b[lo : p * m - lo].reshape(-1, 2, w) for b in (bufs[lo], bufs[1 - lo]))
        app, aqq, new_app, new_aqq = (a[lo + i : p * m - lo : 2] for a in (norms[lo], norms[1 - lo]) for i in (0, 1))
        rounds.append((pairs, swapped, app, aqq, new_app, new_aqq, level, rot[: len(pairs)], off[: len(pairs)]))
    ends = [a.reshape(p, m, -1)[:, :: m - 1] for a in (*bufs, *norms[:, :, None])]  # each block's first, last slot
    sweeps, residual = [0] * p, np.full(p, np.inf)
    for sweep in range(1, _MAX_SWEEPS + 1):
        off[:] = 0.0
        # Squared row norms, exact at the start of the sweep and updated by
        # each rotation; they move with their rows.
        norms[0] = np.einsum("ij,ij->i", bufs[0], bufs[0])
        for lo in (0, 1) * half:
            pairs, swapped, app, aqq, new_app, new_aqq, level, r, seen = rounds[lo]
            apq = np.einsum("ij,ij->i", pairs[:, 0], pairs[:, 1])
            live = np.minimum(app, aqq) > level
            rel = np.abs(apq) / np.sqrt(np.where(live, app * aqq, np.inf))
            np.maximum(seen, rel, out=seen)
            active = rel > _TOL
            if active.any():
                tau = (aqq - app) / (2.0 * np.where(active, apq, 1.0))
                t = np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau))
                t = np.where(active, np.where(tau == 0.0, 1.0, t), 0.0)
                cos_t = 1.0 / np.hypot(1.0, t)
                sin_t = t * cos_t
                r[:, 0, 0], r[:, 1, 1] = sin_t, -sin_t
                r[:, 0, 1] = r[:, 1, 0] = cos_t
                np.matmul(r, pairs, out=swapped)
                d = t * apq
            else:
                swapped[:] = pairs[:, ::-1]
                d = 0.0
            np.add(aqq, d, out=new_app)
            np.subtract(app, d, out=new_aqq)
            if lo:  # the blocks' first and last slots sat out
                ends[0][:], ends[2][:] = ends[1], ends[3]
        residual = off.reshape(p, half).max(axis=1)
        for i in np.flatnonzero(residual <= _TOL):
            sweeps[i] = sweeps[i] or sweep
        if all(sweeps):  # an odd sweep count leaves each block reversed
            stack[:] = bufs[0].reshape(p, m, w)[:, :: -1 if sweep % 2 else 1][:, :n]
            return sweeps
    raise ConvergenceError(
        f"one-sided Jacobi did not converge in {_MAX_SWEEPS} sweeps "
        f"(off-diagonal residual {residual.max():.3e})",
        residual=float(residual.max()),
    )


def jacobi_svd(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Left singular vectors and singular values of X (m x c), and the sweeps run.

    sigma has length min(m, c), is non-increasing, and is zero beyond the
    numerical rank r = count_nonzero(sigma). U is m x r with orthonormal
    columns, and U.T @ X has mutually orthogonal rows with norms sigma[:r],
    so X = U @ U.T @ X. Ties keep their pre-sort order, and in each column
    of U the first entry within 1e-9 (relative) of the largest magnitude is
    non-negative, so equal inputs give bit-identical factors. The third
    item is the number of Jacobi sweeps to convergence.

    Raises ValueError at once unless X is a non-empty 2-d matrix of finite entries small enough to square,
    and ConvergenceError (carrying the achieved off-diagonal residual) if _MAX_SWEEPS sweeps leave a pair above _TOL.
    """
    return jacobi_svds([X])[0]


def jacobi_svds(Xs: Iterable[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """`jacobi_svd` of each matrix, bit for bit; R2 factors of one shape
    share one Jacobi loop, and a ConvergenceError from any of them is raised.
    An input that only the iterator held goes as its first QR copies it, and
    R as the second QR does (on CPython 3.10, each as its QR returns)."""
    fronts, groups = [], {}  # groups: R2's shape -> the R2 factors of that shape, in input order
    for X in Xs:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.size == 0:
            raise ValueError("expected a non-empty 2-d matrix")
        shape, slot = X.shape, [_merge_duplicate_columns(X)]
        del X  # each QR's input lives only in `slot`: popped into the call, it goes as the QR copies it (CPython 3.11+)
        *slot, _, reflectors = householder_qr(slot.pop())  # slot = [R]
        # R.T[:, p2] = Q2 @ R2, and Jacobi turns the rows of R2 into
        # B = W @ R2 = diag(sigma) @ Z.T, W orthogonal, so up to the cut
        # merged[:, perm] = Q[:, :r] @ Y @ diag(sigma) @ (Q2 @ W.T).T with
        # Y[p2] = Z. U needs only Y, so neither Q2 nor W is formed; Q is applied
        # to Y padded with zero rows.
        R2, p2 = householder_qr(slot.pop().T)[:2]
        groups.setdefault(R2.shape, []).append(R2)
        fronts.append((shape, R2.shape, p2, reflectors))
        del R2

    solved = {}  # R2's shape: its rotated rows and sweeps, in input order
    for key in list(groups):  # each R2 lives on only in its stack; no padding: it would move the sums' bits
        stack = np.stack(groups.pop(key))
        solved[key] = list(zip(stack, _jacobi_rows(stack)))
        del stack  # it lives on in its rows, and goes with the last of them

    results = []
    for shape, key, p2, reflectors in fronts:  # apply_q lets go of each reflector once it is applied
        B, count = solved[key].pop(0)
        sigma = np.sqrt(np.einsum("ij,ij->i", B, B))
        order = np.argsort(-sigma, kind="stable")
        sigma = np.r_[sigma[order], np.zeros(min(shape) - len(B))]
        live = int(np.count_nonzero(sigma > sigma[0] * _MACHINE_EPS * 10))  # a prefix: sigma is sorted
        sigma[live:] = 0.0

        B = B[order[:live]]  # a copy, so a stack goes with its last row before Y is made
        B /= sigma[:live, None]  # Z.T
        Y = np.zeros((shape[0], live))
        Y[p2] = B.T
        del B
        U = apply_q(reflectors, Y)

        mags = np.abs(U)  # near-ties go to the first row, so roundoff cannot pick the sign
        rows = np.argmax(mags >= (1.0 - 1e-9) * mags.max(axis=0), axis=0)
        U *= np.where(U[rows, np.arange(live)] < 0, -1.0, 1.0)
        results.append((U, sigma, count))
    return results
