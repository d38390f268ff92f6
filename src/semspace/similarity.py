"""Four word-similarity measures over equal-length real vectors.

Conventions: Euclidean is a distance (0 for identical inputs); cosine,
Pearson and the extended Jaccard (Tanimoto) coefficient are similarities
(1 for identical inputs). Degenerate inputs raise ValueError from the
single-pair functions; measure_all converts those into per-measure
"undefined" markers (value None) so batch runs survive bad rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

COSINE = "cosine"
EUCLIDEAN = "euclidean"
PEARSON = "pearson"
JACCARD = "jaccard"
MEASURE_ORDER = (COSINE, EUCLIDEAN, PEARSON, JACCARD)  # fixed report column order


@dataclass(frozen=True)
class SimilarityResult:
    measure: str
    value: float | None  # None marks an undefined measure


def _checked(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("vectors must be 1-dimensional")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.size == 0:
        raise ValueError("empty vectors")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("non-finite components")
    return a, b


def _shift(*vectors: np.ndarray) -> int:
    """Exponent of the power of two that brings the largest entry into [0.5, 1).

    Such a scale is exact, so in-range inputs keep every bit, while sums of
    squares of the scaled entries neither overflow nor fall below 0.25.
    """
    return -math.frexp(max(float(np.abs(v).max()) for v in vectors))[1]


def euclidean(a, b) -> float:
    """Square root of the summed squared component differences."""
    a, b = _checked(a, b)
    d = a - b
    shift = _shift(d)
    return float(np.ldexp(math.sqrt(float(np.sum(np.ldexp(d, shift) ** 2))), -shift))


def cosine(a, b) -> float:
    """Dot product over the product of norms, clamped to [-1, 1]."""
    a, b = _checked(a, b)
    a, b = np.ldexp(a, _shift(a)), np.ldexp(b, _shift(b))
    norm_a = float(np.dot(a, a))
    norm_b = float(np.dot(b, b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("undefined cosine for zero vector")
    value = float(np.dot(a, b)) / math.sqrt(norm_a * norm_b)
    return max(-1.0, min(1.0, value))


def jaccard(a, b) -> float:
    """Extended Jaccard (Tanimoto): dot / (|a|^2 + |b|^2 - dot)."""
    a, b = _checked(a, b)
    shift = _shift(a, b)
    a, b = np.ldexp(a, shift), np.ldexp(b, shift)
    dot = float(np.dot(a, b))
    norm_a = float(np.dot(a, a))
    norm_b = float(np.dot(b, b))
    if norm_a == 0.0 and norm_b == 0.0:
        raise ValueError("undefined Jaccard for two zero vectors")
    return dot / (norm_a + norm_b - dot)


def pearson(a, b) -> float:
    """Correlation of the two component sequences, clamped to [-1, 1].

    Computed as m*sum(a*b) - sum(a)*sum(b) over the product of the
    per-vector spread terms, which equals the cosine of the mean-centered
    vectors.
    """
    a, b = _checked(a, b)
    a, b = np.ldexp(a, _shift(a)), np.ldexp(b, _shift(b))
    m = a.shape[0]
    if m < 2:
        raise ValueError("undefined correlation for dimension < 2")
    sum_a = float(np.sum(a))
    sum_b = float(np.sum(b))
    spread_a = m * float(np.dot(a, a)) - sum_a * sum_a
    spread_b = m * float(np.dot(b, b)) - sum_b * sum_b
    # a spread at cancellation level means the vector is constant to rounding
    if spread_a <= m * float(np.dot(a, a)) * 1e-13 or spread_b <= m * float(np.dot(b, b)) * 1e-13:
        raise ValueError("undefined correlation for constant vector")
    value = (m * float(np.dot(a, b)) - sum_a * sum_b) / math.sqrt(spread_a * spread_b)
    return max(-1.0, min(1.0, value))


_MEASURE_FUNCS = {
    COSINE: cosine,
    EUCLIDEAN: euclidean,
    PEARSON: pearson,
    JACCARD: jaccard,
}


def measure_all(a, b) -> tuple[SimilarityResult, ...]:
    """All four measures in report order; degenerate inputs become markers.

    Shape problems (mismatched or empty vectors) still raise: they are
    caller bugs, not data conditions.
    """
    a, b = _checked(a, b)
    results = []
    for name in MEASURE_ORDER:
        try:
            value = _MEASURE_FUNCS[name](a, b)
        except ValueError:
            results.append(SimilarityResult(name, None))
        else:
            results.append(SimilarityResult(name, value))
    return tuple(results)


def unit_vector(v: np.ndarray) -> np.ndarray:
    """v scaled to unit Euclidean length; a zero vector comes back as is."""
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 0 else v


def format_value(result: SimilarityResult) -> str:
    """A measure as printed: six significant digits, or "undefined"."""
    if result.value is None:
        return "undefined"
    return format(result.value, ".6g")
