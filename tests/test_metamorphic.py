"""Metamorphic relations of the whole pipeline: changes to the corpus under
which the method says the reported numbers must not move, or must move in a
known way (Chen, Cheung & Yiu, HKUST-CS98-01, 1998; Segura et al., IEEE TSE
42(9), 2016). Each layer has its own oracle tests; these check the layers
together, without an oracle for the numbers themselves.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semspace.corpus import Paragraph, normalize
from semspace.errors import OutOfVocabularyError
from semspace.lsa import build_matrices, build_matrix, build_spaces, factorize, word_vector
from semspace.similarity import measure_all

KS = (None, 40)  # the default k (the smallest rank, as `report` picks it) and `-k 40`
MEASURE_TOL = 1e-12


@pytest.fixture(scope="module")
def configs(root_config, light_config):
    return [root_config, light_config]


def _sigmas(paragraphs, configs):
    """Each config's singular values, all of them: a space keeps only its first k."""
    return [factorize(build_matrix(paragraphs, config)).sigma for config in configs]


def _measures(paragraphs, stats, configs, pairs) -> dict:
    """By k in KS, every measure of every pair under every config, one row
    per (config, pair); NaN stands for an undefined measure or an OOV word."""
    out = {}
    for k in KS:
        rows = []
        for config, space in zip(configs, build_spaces(paragraphs, stats, configs, k)):
            for pair in pairs:
                try:
                    a, b = word_vector(space, pair.word_a, config), word_vector(space, pair.word_b, config)
                except OutOfVocabularyError:
                    rows.append([math.nan] * 4)
                    continue
                rows.append([math.nan if r.value is None else r.value for r in measure_all(a, b)])
        out[k] = np.array(rows)
    return out


@pytest.fixture(scope="module")
def bundled_measures(mini_paragraphs, mini_stats, configs, all_pairs):
    return _measures(mini_paragraphs, mini_stats, configs, all_pairs)


def _assert_same_measures(got, expected):
    for k in KS:
        assert np.isfinite(expected[k]).any()
        np.testing.assert_allclose(got[k], expected[k], rtol=0, atol=MEASURE_TOL, equal_nan=True, err_msg=f"k={k}")


# --- paragraph order -----------------------------------------------------------

def test_spaces_keep_a_gap_below_the_tested_k(mini_paragraphs, configs):
    # Order moves the factors by roundoff, which can turn U's first k columns
    # by about eps / gap: the measures at k stay put only while sigma_k and
    # sigma_k+1 are apart. The smallest gap here, light's at k = 20, is 1.48e-3
    # (LAPACK agrees), so the bound is 1.4e-3.
    for sigma in _sigmas(mini_paragraphs, configs):  # sigma[k - 1] is sigma_k
        for k in (10, 20, 40):
            assert (sigma[k - 1] - sigma[k]) / sigma[0] >= 1.4e-3, k


@pytest.mark.parametrize("seed", range(5))
def test_paragraph_order_leaves_every_measure(seed, mini_paragraphs, mini_stats, configs, all_pairs, bundled_measures):
    shuffled = list(mini_paragraphs)
    random.Random(seed).shuffle(shuffled)
    _assert_same_measures(_measures(shuffled, mini_stats, configs, all_pairs), bundled_measures)


# --- corpus doubling -----------------------------------------------------------

def test_doubled_corpus_scales_sigma_and_leaves_every_measure(
    mini_paragraphs, mini_stats, configs, all_pairs, bundled_measures
):
    doubled = list(mini_paragraphs) * 2
    _assert_same_measures(_measures(doubled, mini_stats, configs, all_pairs), bundled_measures)
    for sigma, doubled_sigma in zip(_sigmas(mini_paragraphs, configs), _sigmas(doubled, configs)):
        n = sigma.size
        assert np.abs(doubled_sigma[:n] - math.sqrt(2) * sigma).max() <= 1e-13 * sigma[0]
        assert not doubled_sigma[n:].any()


# --- root is coarser than light ------------------------------------------------

def _assert_root_counts_sum_light_counts(paragraphs, root_config, light_config):
    """Root's counts are G times light's, exactly, where G is the 0/1 map
    from each light row to the one root row its words stem to."""
    root, light = build_matrices(paragraphs, [root_config, light_config])
    root_row_of = {}
    for token in {token for paragraph in paragraphs for token in paragraph.tokens}:
        light_row = light.vocabulary.index_of(light_config.stem_token(token))
        root_row = root.vocabulary.index_of(root_config.stem_token(token))
        assert root_row_of.setdefault(light_row, root_row) == root_row, token
    G = np.zeros((root.shape[0], light.shape[0]))
    G[list(root_row_of.values()), list(root_row_of)] = 1.0
    assert np.array_equal(G @ light.counts, root.counts)
    return root.shape, light.shape


def test_root_counts_are_light_counts_summed_over_root_classes(mini_paragraphs, root_config, light_config):
    shapes = _assert_root_counts_sum_light_counts(mini_paragraphs, root_config, light_config)
    assert shapes == ((428, 205), (503, 205))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_root_counts_sum_light_counts_on_affix_wrapped_paragraphs(mini_paragraphs, root_config, light_config, data):
    # surface forms as the benchmark's generator makes them: [antefix] word [suffix] [postfix]
    bases = sorted({token for paragraph in mini_paragraphs for token in paragraph.tokens})
    optional = [st.sampled_from(("",) + entries) for entries in (light_config.antefixes, light_config.suffixes, light_config.postfixes)]
    words = st.tuples(optional[0], st.sampled_from(bases), optional[1], optional[2]).map(
        lambda parts: normalize("".join(parts))
    )
    paragraphs = [
        Paragraph(tuple(tokens))
        for tokens in data.draw(st.lists(st.lists(words, min_size=1, max_size=12), min_size=1, max_size=8))
    ]
    _assert_root_counts_sum_light_counts(paragraphs, root_config, light_config)
