import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semspace.similarity import MEASURE_ORDER, measure_all

from conftest import measure
from oracles import euclidean_by_summation, measures_apart


# --- euclidean ---------------------------------------------------------------

def test_euclidean_identity():
    v = np.array([1.5, -2.0, 3.25])
    assert measure("euclidean", v, v) == 0.0


def test_euclidean_pythagorean():
    assert measure("euclidean", [0.0, 0.0], [3.0, 4.0]) == 5.0


def test_euclidean_matches_summation_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        assert abs(measure("euclidean", a, b) - euclidean_by_summation(a, b)) <= 1e-12


def test_euclidean_metric_axioms_sampled():
    rng = np.random.default_rng(13)
    for _ in range(100):
        x, y, z = rng.normal(size=(3, 6))
        dxy = measure("euclidean", x, y)
        assert dxy >= 0
        assert dxy == measure("euclidean", y, x)
        assert measure("euclidean", x, z) <= dxy + measure("euclidean", y, z) + 1e-12


def test_euclidean_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        measure("euclidean", [1.0], [1.0, 2.0])


# --- cosine ------------------------------------------------------------------

def test_cosine_identical():
    v = np.array([0.3, 0.4, 1.2])
    assert measure("cosine", v, v) == 1.0


def test_cosine_orthogonal():
    assert measure("cosine", [1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_antipodal():
    v = np.array([2.0, -1.0, 0.5])
    assert measure("cosine", v, -v) == -1.0


def test_cosine_zero_vector_rejected():
    assert measure("cosine", [0.0, 0.0], [1.0, 2.0]) is None


def test_cosine_scale_invariant():
    rng = np.random.default_rng(19)
    for _ in range(50):
        a, b = rng.normal(size=(2, 4))
        lam = float(rng.uniform(0.1, 50.0))
        assert abs(measure("cosine", lam * a, b) - measure("cosine", a, b)) <= 1e-12


def test_cosine_bounds():
    rng = np.random.default_rng(23)
    for _ in range(200):
        a, b = rng.normal(size=(2, 5))
        assert -1.0 <= measure("cosine", a, b) <= 1.0


# --- jaccard -----------------------------------------------------------------

def test_jaccard_identical_is_one():
    v = np.array([0.5, 2.0, 0.0])
    assert measure("jaccard", v, v) == 1.0


def test_jaccard_disjoint_supports():
    assert measure("jaccard", [1.0, 0.0], [0.0, 2.0]) == 0.0


def test_jaccard_hand_value():
    assert measure("jaccard", [1.0, 1.0], [1.0, 0.0]) == 0.5


def test_jaccard_both_zero_rejected():
    assert measure("jaccard", [0.0, 0.0], [0.0, 0.0]) is None


def test_jaccard_one_zero_defined():
    assert measure("jaccard", [0.0, 0.0], [0.0, 2.0]) == 0.0


def test_jaccard_at_most_one():
    rng = np.random.default_rng(29)
    for _ in range(200):
        a, b = rng.normal(size=(2, 5))
        assert measure("jaccard", a, b) <= 1.0 + 1e-12


def test_jaccard_one_iff_equal():
    rng = np.random.default_rng(31)
    for _ in range(100):
        a = rng.normal(size=4)
        b = a + rng.normal(size=4) * 0.1
        if not np.array_equal(a, b):
            assert measure("jaccard", a, b) < 1.0


# --- pearson -----------------------------------------------------------------

def test_pearson_identical():
    assert measure("pearson", [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0


def test_pearson_perfect_linear():
    # numerator 3*28 - 6*12 = 12; denominator sqrt(6 * 24) = 12
    assert measure("pearson", [1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == 1.0


def test_pearson_perfect_negative():
    assert measure("pearson", [1.0, 2.0], [2.0, 1.0]) == -1.0


def test_pearson_constant_rejected():
    assert measure("pearson", [2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) is None


def test_pearson_dimension_one_rejected():
    assert measure("pearson", [1.0], [2.0]) is None


def test_pearson_equals_centered_cosine():
    rng = np.random.default_rng(37)
    for _ in range(300):
        a, b = rng.normal(size=(2, 8)) + rng.uniform(-3, 3, size=(2, 1))
        centered = measure("cosine", a - a.mean(), b - b.mean())
        assert abs(measure("pearson", a, b) - centered) <= 1e-10


def test_pearson_shift_scale_invariant():
    rng = np.random.default_rng(41)
    for _ in range(100):
        a, b = rng.normal(size=(2, 6))
        lam = float(rng.uniform(0.5, 10.0))
        mu = float(rng.uniform(-5.0, 5.0))
        assert abs(measure("pearson", lam * a + mu, b) - measure("pearson", a, b)) <= 1e-10


# --- symmetry of the similarity measures --------------------------------------

@pytest.mark.parametrize("name", ["cosine", "jaccard", "pearson"])
def test_measures_symmetric(name):
    rng = np.random.default_rng(43)
    for _ in range(50):
        a, b = rng.normal(size=(2, 5))
        assert measure(name, a, b) == pytest.approx(measure(name, b, a), abs=1e-15)


# --- metric axioms, property-based --------------------------------------------

@st.composite
def vector_triples(draw):
    """Three finite vectors of one dimension in 2..12. Entries stay within
    1e300 so that every distance between them is representable."""
    dim = draw(st.integers(2, 12))
    entries = st.lists(st.floats(-1e300, 1e300), min_size=dim, max_size=dim)
    return tuple(np.array(draw(entries)) for _ in range(3))


@settings(max_examples=300, deadline=None)
@given(vector_triples())
def test_metric_axioms(triple):
    x, y, z = triple
    forward = {r.measure: r.value for r in measure_all(x, y)}
    assert forward == {r.measure: r.value for r in measure_all(y, x)}
    same = {r.measure: r.value for r in measure_all(x, x.copy())}
    assert same["euclidean"] == 0.0
    for name in ("cosine", "pearson", "jaccard"):
        assert same[name] is None or same[name] == pytest.approx(1.0, abs=1e-12)
    for name in ("cosine", "pearson"):
        assert forward[name] is None or -1.0 <= forward[name] <= 1.0
    assert forward["jaccard"] is None or -1 / 3 - 1e-12 <= forward["jaccard"] <= 1.0 + 1e-12
    slack = 1e-12 * max(np.abs(x).max(), np.abs(y).max(), np.abs(z).max())
    assert measure("euclidean", x, z) <= forward["euclidean"] + measure("euclidean", y, z) + slack


# --- measure_all -------------------------------------------------------------

def test_measure_all_order():
    assert MEASURE_ORDER == ("cosine", "euclidean", "pearson", "jaccard")


def test_measure_all_identity_rows():
    v = np.array([0.25, 1.5, -0.75])
    results = measure_all(v, v.copy())
    values = [r.value for r in results]
    assert values == [1.0, 0.0, 1.0, 1.0]


def test_measure_all_zero_vectors_marked():
    zero = np.zeros(3)
    results = {r.measure: r for r in measure_all(zero, zero)}
    assert results["euclidean"].value == 0.0
    assert results["cosine"].value is None
    assert results["pearson"].value is None
    assert results["jaccard"].value is None


def _bits(value):
    return None if value is None else value.hex()


@st.composite
def vector_pairs(draw):
    """Two finite vectors of one dimension in 1..12, each with entries of its
    own magnitude, subnormal to 1e300, or the second a multiple of the first."""
    dim = draw(st.integers(1, 12))
    a, b = (np.array(draw(st.lists(st.floats(-1e300, 1e300), min_size=dim, max_size=dim)))
            * 2.0 ** -draw(st.integers(0, 900)) for _ in range(2))
    if draw(st.booleans()):
        b = a * draw(st.sampled_from([1.0, -1.0, 0.5, 3.0]))
    return a, b


@settings(max_examples=500, deadline=None)
@given(vector_pairs())
def test_measure_all_matches_the_measures_computed_apart(pair):
    a, b = pair
    shared = {r.measure: _bits(r.value) for r in measure_all(a, b)}
    assert shared == {name: _bits(value) for name, value in measures_apart(a, b).items()}


@pytest.mark.parametrize("dim", [93, 128, 129, 300])  # the bundled spaces' k; numpy's sum changes path at 128
def test_measure_all_matches_the_measures_computed_apart_at_space_lengths(dim):
    rng = np.random.default_rng(dim)
    a, b = rng.normal(size=(2, dim))
    for x, y in ((a, b), (a * 2.0 ** -600, b * 1e250), (a, -a), (a + 3.0, b)):
        shared = {r.measure: _bits(r.value) for r in measure_all(x, y)}
        assert shared == {name: _bits(value) for name, value in measures_apart(x, y).items()}


def test_measure_all_rejects_shape_problems():
    with pytest.raises(ValueError):
        measure_all([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        measure_all([], [])
    with pytest.raises(ValueError, match="1-dimensional"):
        measure_all([[1.0, 2.0]], [[1.0, 2.0]])


def test_non_finite_rejected():
    with pytest.raises(ValueError, match="finite"):
        measure("cosine", [1.0, math.inf], [1.0, 2.0])
    for bad in (math.nan, math.inf, -math.inf):  # in either vector
        for a, b in (([1.0, bad, 3.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [bad, 2.0, 3.0])):
            with pytest.raises(ValueError, match="non-finite components"):
                measure_all(a, b)
