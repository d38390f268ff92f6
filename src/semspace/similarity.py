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

Sums of squares run over vectors scaled by the power of two that brings
their largest entry magnitude into [0.5, 1) (`_shift`): that is exact, so
in-range inputs keep every bit, and the sums neither overflow nor fall below
0.25. Cosine and Pearson scale each vector by its own shift, Euclidean the
difference by its own, Jaccard both vectors by one. Pearson, the cosine of
the mean-centered vectors, is (m*sum(ab) - sum(a)*sum(b)) / sqrt(sa * sb);
a spread sa = m*sum(aa) - sum(a)^2 <= 1e-13 m*sum(aa) is cancellation (a constant).
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


def _shift(peak: float) -> int:
    """Exponent of the power of two that brings `peak` into [0.5, 1) (0 for 0)."""
    return -math.frexp(peak)[1]


def _clamp(value: float) -> float:
    return max(-1.0, min(1.0, value))


def measure_all(a, b) -> tuple[SimilarityResult, ...]:
    """All four measures in report order, None where one is undefined. The
    inputs are checked, scaled and multiplied once for all four."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("vectors must be 1-dimensional")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.size == 0:
        raise ValueError("empty vectors")
    peak_a, peak_b = float(np.abs(a).max()), float(np.abs(b).max())
    if not (math.isfinite(peak_a) and math.isfinite(peak_b)):  # a NaN entry makes its peak NaN
        raise ValueError("non-finite components")
    m = a.shape[0]

    sa, sb = np.ldexp(a, _shift(peak_a)), np.ldexp(b, _shift(peak_b))
    aa, bb, ab = float(np.dot(sa, sa)), float(np.dot(sb, sb)), float(np.dot(sa, sb))
    cosine = _clamp(ab / math.sqrt(aa * bb)) if aa != 0.0 and bb != 0.0 else None

    d = a - b
    shift = _shift(float(np.abs(d).max()))
    euclidean = float(np.ldexp(math.sqrt(float(np.sum(np.ldexp(d, shift) ** 2))), -shift))

    pearson = None
    if m >= 2:
        sum_a, sum_b = float(np.sum(sa)), float(np.sum(sb))
        spread_a, spread_b = m * aa - sum_a * sum_a, m * bb - sum_b * sum_b
        if spread_a > m * aa * 1e-13 and spread_b > m * bb * 1e-13:
            pearson = _clamp((m * ab - sum_a * sum_b) / math.sqrt(spread_a * spread_b))

    shift = _shift(max(peak_a, peak_b))
    ja, jb = np.ldexp(a, shift), np.ldexp(b, shift)
    jab, jaa, jbb = float(np.dot(ja, jb)), float(np.dot(ja, ja)), float(np.dot(jb, jb))
    jaccard = jab / (jaa + jbb - jab) if jaa != 0.0 or jbb != 0.0 else None

    return tuple(map(SimilarityResult, MEASURE_ORDER, (cosine, euclidean, pearson, jaccard)))


def unit_vector(v: np.ndarray) -> np.ndarray:
    """v scaled to unit Euclidean length; a zero vector comes back as is."""
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 0 else v


def format_value(result: SimilarityResult) -> str:
    """A measure as printed: six significant digits, or "undefined"."""
    if result.value is None:
        return "undefined"
    return format(result.value, ".6g")
