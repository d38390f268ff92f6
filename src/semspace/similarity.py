"""Four word-similarity measures over equal-length real vectors, scored
together by `measure_all`.

Euclidean is a distance (0 for identical inputs): the square root of the
summed squared component differences. Cosine (clamped to [-1, 1]), Pearson
correlation (clamped to [-1, 1]) and the extended Jaccard (Tanimoto)
coefficient dot / (|a|^2 + |b|^2 - dot) are similarities (1 for identical
inputs). A measure that degenerate inputs leave undefined (a zero vector
for cosine, two for Jaccard, a constant vector or dimension 1 for Pearson)
is None. Inputs that are not two finite 1-d vectors of one nonzero length
raise ValueError: they are caller bugs, not data conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MEASURE_ORDER = ("cosine", "euclidean", "pearson", "jaccard")  # fixed report column order


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
    return a, b


def _peak(v: np.ndarray) -> float:
    return float(np.abs(v).max())


def _shift(peak: float) -> int:
    """Exponent of the power of two that brings `peak`, the largest entry
    magnitude, into [0.5, 1) (0 for a zero peak).

    Such a scale is exact, so in-range inputs keep every bit, while sums of
    squares of the scaled entries neither overflow nor fall below 0.25.
    """
    return -math.frexp(peak)[1]


class _Pair:
    """Two checked vectors and what the measures share, each computed once:
    each vector scaled by its own power of two (`_shift`), and the dot
    products of the scaled vectors."""

    def __init__(self, a, b):
        self.a, self.b = _checked(a, b)
        self.peak_a, self.peak_b = _peak(self.a), _peak(self.b)
        if not (math.isfinite(self.peak_a) and math.isfinite(self.peak_b)):  # a NaN entry makes its peak NaN
            raise ValueError("non-finite components")
        sa, sb = np.ldexp(self.a, _shift(self.peak_a)), np.ldexp(self.b, _shift(self.peak_b))
        self.scaled_a, self.scaled_b = sa, sb
        self.aa, self.bb, self.ab = float(np.dot(sa, sa)), float(np.dot(sb, sb)), float(np.dot(sa, sb))


def _euclidean(p: _Pair) -> float:
    d = p.a - p.b
    shift = _shift(_peak(d))
    return float(np.ldexp(math.sqrt(float(np.sum(np.ldexp(d, shift) ** 2))), -shift))


def _cosine(p: _Pair) -> float:
    if p.aa == 0.0 or p.bb == 0.0:
        raise ValueError("undefined cosine for zero vector")
    value = p.ab / math.sqrt(p.aa * p.bb)
    return max(-1.0, min(1.0, value))


def _jaccard(p: _Pair) -> float:
    shift = _shift(max(p.peak_a, p.peak_b))  # one scale for both vectors
    a, b = np.ldexp(p.a, shift), np.ldexp(p.b, shift)
    dot = float(np.dot(a, b))
    norm_a = float(np.dot(a, a))
    norm_b = float(np.dot(b, b))
    if norm_a == 0.0 and norm_b == 0.0:
        raise ValueError("undefined Jaccard for two zero vectors")
    return dot / (norm_a + norm_b - dot)


def _pearson(p: _Pair) -> float:
    """m*sum(a*b) - sum(a)*sum(b) over the product of the per-vector spread
    terms, which equals the cosine of the mean-centered vectors."""
    m = p.a.shape[0]
    if m < 2:
        raise ValueError("undefined correlation for dimension < 2")
    sum_a = float(np.sum(p.scaled_a))
    sum_b = float(np.sum(p.scaled_b))
    spread_a = m * p.aa - sum_a * sum_a
    spread_b = m * p.bb - sum_b * sum_b
    # a spread at cancellation level means the vector is constant to rounding
    if spread_a <= m * p.aa * 1e-13 or spread_b <= m * p.bb * 1e-13:
        raise ValueError("undefined correlation for constant vector")
    value = (m * p.ab - sum_a * sum_b) / math.sqrt(spread_a * spread_b)
    return max(-1.0, min(1.0, value))


def measure_all(a, b) -> tuple[SimilarityResult, ...]:
    """All four measures in report order, None where one is undefined.

    The inputs are checked, scaled and multiplied once for all four.
    """
    pair = _Pair(a, b)
    results = []
    for name, measure in zip(MEASURE_ORDER, (_cosine, _euclidean, _pearson, _jaccard)):
        try:
            value = measure(pair)
        except ValueError:
            value = None
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
