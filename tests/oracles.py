"""Independent brute-force oracles, kept deliberately separate from the
library's own algorithms so the two sides of each check cannot share a bug."""

import functools
import math
import re

import numpy as np

_CLEAN_TABLE = {
    **{cp: None for cp in range(0x064B, 0x0653)},  # diacritics
    0x0640: None,  # tatweel
    **{ord("أ"): "ا", ord("إ"): "ا", ord("آ"): "ا", ord("ى"): "ي"},
}


def normalize(raw):
    """The corpus normalization one character at a time: fold, then keep only
    the Arabic letter block U+0621..U+064A."""
    cleaned = raw.translate(_CLEAN_TABLE)
    return "".join(ch for ch in cleaned if 0x0621 <= ord(ch) <= 0x064A)


def tokenize(text):
    """Split on str.isspace whitespace, normalize each piece, drop the empties."""
    return [token for token in map(normalize, text.split()) if token]


_NON_ARABIC = re.compile(r"[^\u0621-\u064A]+")
_NON_ARABIC_OR_SPACE = re.compile(r"[^\u0621-\u064A\s]+")


def normalize_translated(raw):
    """The normalization as one str.translate through the fold table, then
    one regex pass that drops what lies outside U+0621..U+064A."""
    return _NON_ARABIC.sub("", raw.translate(_CLEAN_TABLE))


def tokenize_translated(text):
    """tokenize through the same table, keeping whitespace for split()."""
    return _NON_ARABIC_OR_SPACE.sub("", text.translate(_CLEAN_TABLE)).split()


def paragraph_tokens(text):
    """Token tuples of a document's paragraphs, its line runs collected one
    line at a time; blank lines end a run and runs without tokens go."""
    paragraphs, block = [], []
    for line in text.splitlines() + [""]:
        if line.strip():
            block.append(line)
        elif block:
            tokens = tokenize_translated(" ".join(block))
            if tokens:
                paragraphs.append(tuple(tokens))
            block = []
    return paragraphs


@functools.lru_cache
def _region_pattern(affixes, front, min_stem_len=2):
    alternatives = "|".join(re.escape(a if front else a[::-1]) for a in affixes)
    return re.compile(f"(?:(?:{alternatives})(?=.{{{min_stem_len}}}))*", re.DOTALL)


def _strip_region_by_regex(word, affixes, front):
    if front:
        n = _region_pattern(affixes, True).match(word).end()
        return word[:n] or None, word[n:]
    n = len(word) - _region_pattern(affixes, False).match(word[::-1]).end()
    return word[n:] or None, word[:n]


def strip_affixes_by_region(token, table):
    """strip_affixes with one compiled match per region, run four times."""
    antefix, rest = _strip_region_by_regex(token, table.antefixes, front=True)
    prefix, rest = _strip_region_by_regex(rest, table.prefixes + table.antefixes, front=True)
    postfix, rest = _strip_region_by_regex(rest, table.postfixes, front=False)
    suffix, rest = _strip_region_by_regex(rest, table.suffixes + table.postfixes, front=False)
    return antefix, prefix, suffix, postfix, rest


def strip_region(word, affixes, front, min_stem_len=2):
    """Strip from one end of `word` by trying `affixes` one at a time, the
    first that fits and leaves min_stem_len letters winning, until none fits."""
    rest = word
    while True:
        for affix in affixes:
            if len(rest) - len(affix) >= min_stem_len and (rest.startswith(affix) if front else rest.endswith(affix)):
                rest = rest[len(affix):] if front else rest[: -len(affix)]
                break
        else:
            break
    stripped = word[: len(word) - len(rest)] if front else word[len(rest):]
    return stripped or None, rest


def strip_affixes(token, table):
    """(antefix, prefix, suffix, postfix, residual): each region exhausted in
    word order, a region trying its own table before its neighbour's."""
    antefix, rest = strip_region(token, table.antefixes, front=True)
    prefix, rest = strip_region(rest, table.prefixes + table.antefixes, front=True)
    postfix, rest = strip_region(rest, table.postfixes, front=False)
    suffix, rest = strip_region(rest, table.suffixes + table.postfixes, front=False)
    return antefix, prefix, suffix, postfix, rest


def match_root(residual, patterns):
    """(root, template) of the first same-length template whose literal
    positions all agree with `residual`, one character at a time, or None."""
    for template, positions in patterns:
        if len(residual) == len(template) and all(
            i in positions or residual[i] == ch for i, ch in enumerate(template)
        ):
            return "".join(residual[i] for i in positions), template
    return None


def jacobi_rows(G, tol=1e-14, max_sweeps=60):
    """One-sided Jacobi on the rows of G in the serial cyclic order (p, q),
    p < q, each rotation applied where the two rows stand, so row i ends as
    the image of input row i. Returns (rows, sweeps); the last sweep rotates
    nothing."""
    G = np.array(G, dtype=np.float64)
    n = len(G)
    for sweep in range(1, max_sweeps + 1):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                app, aqq, apq = G[p] @ G[p], G[q] @ G[q], G[p] @ G[q]
                if abs(apq) <= tol * np.sqrt(app * aqq):
                    continue
                rotated = True
                tau = (aqq - app) / (2.0 * apq)
                t = 1.0 if tau == 0.0 else np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                G[p], G[q] = c * G[p] - s * G[q], s * G[p] + c * G[q]
        if not rotated:
            return G, sweep
    raise AssertionError("reference Jacobi did not converge")


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


def merge_duplicate_columns(X):
    """The distinct columns of X in first-seen order, each times sqrt(copies),
    found by np.unique's sort of the columns rather than by their bytes."""
    _, first, inverse = np.unique(X.T, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)  # np.unique lists the distinct columns sorted; put them in first-seen order
    copies = np.bincount(inverse.ravel(), minlength=len(first))
    return X[:, first[order]] * np.sqrt(copies[order])


def euclidean_by_summation(a, b):
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) * (x - y)
    return total ** 0.5


def _shift(*vectors):
    """Exponent of the power of two that brings the largest entry of all `vectors` into [0.5, 1)."""
    return -math.frexp(max(float(np.abs(v).max()) for v in vectors))[1]


def _apart_euclidean(a, b):
    d = a - b
    shift = _shift(d)
    return float(np.ldexp(math.sqrt(float(np.sum(np.ldexp(d, shift) ** 2))), -shift))


def _apart_cosine(a, b):
    a, b = np.ldexp(a, _shift(a)), np.ldexp(b, _shift(b))
    norm_a, norm_b = float(np.dot(a, a)), float(np.dot(b, b))
    if norm_a == 0.0 or norm_b == 0.0:
        return None
    return max(-1.0, min(1.0, float(np.dot(a, b)) / math.sqrt(norm_a * norm_b)))


def _apart_jaccard(a, b):
    shift = _shift(a, b)
    a, b = np.ldexp(a, shift), np.ldexp(b, shift)
    dot, norm_a, norm_b = float(np.dot(a, b)), float(np.dot(a, a)), float(np.dot(b, b))
    if norm_a == 0.0 and norm_b == 0.0:
        return None
    return dot / (norm_a + norm_b - dot)


def _apart_pearson(a, b):
    a, b = np.ldexp(a, _shift(a)), np.ldexp(b, _shift(b))
    m = a.shape[0]
    if m < 2:
        return None
    sum_a, sum_b = float(np.sum(a)), float(np.sum(b))
    spread_a = m * float(np.dot(a, a)) - sum_a * sum_a
    spread_b = m * float(np.dot(b, b)) - sum_b * sum_b
    if spread_a <= m * float(np.dot(a, a)) * 1e-13 or spread_b <= m * float(np.dot(b, b)) * 1e-13:
        return None
    value = (m * float(np.dot(a, b)) - sum_a * sum_b) / math.sqrt(spread_a * spread_b)
    return max(-1.0, min(1.0, value))


def measures_apart(a, b):
    """The four similarity measures of two finite float64 vectors, each
    scaled and multiplied on its own; None where a measure is undefined."""
    return {
        "cosine": _apart_cosine(a, b),
        "euclidean": _apart_euclidean(a, b),
        "pearson": _apart_pearson(a, b),
        "jaccard": _apart_jaccard(a, b),
    }


def count_matrix(paragraph_tokens, stem):
    """(row tokens, counts): one matrix, one occurrence at a time, each
    distinct token stemmed at its first occurrence."""
    rows, row_of, cells = {}, {}, []
    n = len(paragraph_tokens)
    for j, tokens in enumerate(paragraph_tokens):
        for token in tokens:
            if token not in row_of:
                row_of[token] = rows.setdefault(stem(token), len(rows))
            cells.append(row_of[token] * n + j)
    counts = np.zeros((len(rows), n))
    np.add.at(counts.reshape(-1), cells, 1.0)
    return list(rows), counts


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


def auc(similar, different, lower_is_better=False):
    """The exact Mann–Whitney AUC of Similar scores over Different ones: the
    share of (similar, different) pairs the score puts in order, ties ½. With
    `lower_is_better` (Euclidean) a smaller score is the more similar one."""
    sign = -1.0 if lower_is_better else 1.0
    wins = 0.0
    for s in similar:
        for d in different:
            wins += 1.0 if sign * s > sign * d else 0.5 if s == d else 0.0
    return wins / (len(similar) * len(different))
