"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them; -v shows the same per-test).

Tolerances are fixed here, not tuned: identity rows at 1e-9, factorization
checks at 1e-8, measure identities at 1e-10.
"""

import time

import numpy as np
import pytest

from semspace.cli import main
from semspace.corpus import normalize
from semspace.errors import OutOfVocabularyError
from semspace.lsa import load_space, save_space, word_vector
from semspace.svd import jacobi_svd

from conftest import comparison, measure
from oracles import singular_values_via_gram

IDENTITY_TOL = 1e-9


def _report_pass(number, name, extra=""):
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number} ({name}): PASS{suffix}")


@pytest.fixture(scope="module")
def pipeline(mini_corpus_dir, all_pairs):
    """One timed end-to-end run over the bundled fixture corpus."""
    start = time.perf_counter()
    report = comparison(mini_corpus_dir, all_pairs, ("root", "light"), k=40)
    elapsed = time.perf_counter() - start
    return report, all_pairs, elapsed


def _stems(config, word):
    return config.stem_token(normalize(word))


def test_criterion_1_identity_rows(pipeline, root_config, light_config):
    report, pairs, elapsed = pipeline
    configs = {"root": root_config, "light": light_config}
    conflated_rows = 0
    for row in report.rows:
        if row.oov:
            continue
        config = configs[row.stemmer_mode]
        if _stems(config, row.pair.word_a) != _stems(config, row.pair.word_b):
            continue
        conflated_rows += 1
        cos, euc, pea, jac = (r.value for r in row.results)
        assert abs(cos - 1.0) <= IDENTITY_TOL, (row.pair, row.stemmer_mode)
        assert euc <= IDENTITY_TOL, (row.pair, row.stemmer_mode)
        assert abs(pea - 1.0) <= IDENTITY_TOL, (row.pair, row.stemmer_mode)
        assert abs(jac - 1.0) <= IDENTITY_TOL, (row.pair, row.stemmer_mode)
    # the identical pair and the root-conflated pairs must be among them
    assert conflated_rows >= 6
    assert elapsed < 5.0, f"fixture pipeline took {elapsed:.2f}s"
    _report_pass(1, "identity rows", f"{conflated_rows} conflated rows, {elapsed:.2f}s")


def test_criterion_2_stemmer_contrast(pipeline, root_config, light_config, root_space, light_space):
    report, _, _ = pipeline
    pair_key = ("السفارة", "السفير")

    (root_row,) = [
        r for r in report.rows
        if r.stemmer_mode == "root" and (r.pair.word_a, r.pair.word_b) == pair_key
    ]
    cos, euc, pea, jac = (r.value for r in root_row.results)
    assert abs(cos - 1.0) <= IDENTITY_TOL
    assert euc <= IDENTITY_TOL
    assert abs(pea - 1.0) <= IDENTITY_TOL
    assert abs(jac - 1.0) <= IDENTITY_TOL

    # distinct vocabulary rows under the light stemmer
    stem_a = _stems(light_config, "السفارة")
    stem_b = _stems(light_config, "السفير")
    assert stem_a != stem_b
    row_a = light_space.vocabulary.get(stem_a)
    row_b = light_space.vocabulary.get(stem_b)
    assert row_a is not None and row_b is not None and row_a != row_b

    (light_row,) = [
        r for r in report.rows
        if r.stemmer_mode == "light" and (r.pair.word_a, r.pair.word_b) == pair_key
    ]
    light_cosine = light_row.results[0].value
    assert light_cosine is not None and light_cosine < 0.9
    _report_pass(2, "stemmer contrast", f"light cosine {light_cosine:.4f}")


def test_criterion_3_light_stem_merges(pipeline, light_config, light_space):
    report, _, _ = pipeline
    for pair_key in (("العراقية", "العراقي"), ("الرياض", "للرياضة")):
        stem_a = _stems(light_config, pair_key[0])
        stem_b = _stems(light_config, pair_key[1])
        assert stem_a == stem_b, pair_key
        assert light_space.vocabulary.get(stem_a) is not None
        (row,) = [
            r for r in report.rows
            if r.stemmer_mode == "light" and (r.pair.word_a, r.pair.word_b) == pair_key
        ]
        cos, euc, pea, jac = (r.value for r in row.results)
        assert abs(cos - 1.0) <= IDENTITY_TOL
        assert euc <= IDENTITY_TOL
        assert abs(pea - 1.0) <= IDENTITY_TOL
        assert abs(jac - 1.0) <= IDENTITY_TOL
    _report_pass(3, "light-stem merges")


def test_criterion_4_svd_oracle_equivalence():
    rng = np.random.default_rng(20260809)
    start = time.perf_counter()
    checked = 0
    for _ in range(110):
        m = int(rng.integers(1, 13))
        c = int(rng.integers(1, 13))
        X = rng.integers(0, 10, size=(m, c)).astype(float)
        U, sigma, _ = jacobi_svd(X)
        oracle = singular_values_via_gram(X)
        scale = max(float(sigma[0]) if sigma.size else 0.0, float(oracle[0]) if oracle.size else 0.0)
        if scale == 0.0:
            assert np.all(sigma == 0.0)
        else:
            assert np.abs(sigma - oracle).max() <= 1e-8 * scale

        norm_x = float(np.linalg.norm(X))
        assert np.abs(U.T @ U - np.eye(U.shape[1])).max() <= 1e-8
        projected = U.T @ X
        reconstruction = float(np.linalg.norm(X - U @ projected))
        assert reconstruction <= 1e-8 * max(norm_x, 1e-30)
        # rows of U^T X mutually orthogonal with norms sigma
        gram_error = np.abs(projected @ projected.T - np.diag(sigma**2)).max()
        assert gram_error <= 1e-8 * max(scale, 1.0) ** 2

        for k in range(1, sigma.shape[0] + 1):
            approx = U[:, :k] @ projected[:k]
            residual = float(np.linalg.norm(X - approx))
            expected = float(np.sqrt(np.sum(sigma[k:] ** 2)))
            assert abs(residual - expected) <= 1e-8 * max(norm_x, 1.0)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 100
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.2f}s"
    _report_pass(4, "factorization oracle equivalence", f"{checked} matrices, {elapsed:.2f}s")


def test_criterion_5_measure_properties():
    rng = np.random.default_rng(424242)
    start = time.perf_counter()
    triples = 0
    for _ in range(1000):
        dim = int(rng.integers(2, 13))
        x, y, z = rng.normal(size=(3, dim)) + rng.uniform(-2.0, 2.0, size=(3, 1))

        dxy, dyx = measure("euclidean", x, y), measure("euclidean", y, x)
        assert dxy >= 0.0
        assert dxy == dyx
        assert measure("euclidean", x, x) == 0.0
        if not np.array_equal(x, y):
            assert dxy > 0.0
        assert measure("euclidean", x, z) <= dxy + measure("euclidean", y, z) + 1e-12

        assert -1.0 <= measure("cosine", x, y) <= 1.0
        p = measure("pearson", x, y)
        assert -1.0 <= p <= 1.0
        centered = measure("cosine", x - x.mean(), y - y.mean())
        assert abs(p - centered) <= 1e-10

        assert measure("jaccard", x, x) == 1.0

        # disjoint non-negative supports
        left = np.zeros(dim)
        right = np.zeros(dim)
        half = dim // 2
        left[:half] = rng.uniform(0.1, 3.0, size=half)
        right[half:] = rng.uniform(0.1, 3.0, size=dim - half)
        if left.any() and right.any():
            assert measure("jaccard", left, right) == 0.0
        triples += 1
    elapsed = time.perf_counter() - start
    assert triples >= 1000
    assert elapsed < 5.0, f"measure sweep took {elapsed:.2f}s"
    _report_pass(5, "measure properties", f"{triples} triples, {elapsed:.2f}s")


def test_criterion_6_stemmer_regressions(mini_paragraphs, root_config, light_config):
    # pinned five-part decomposition
    result = root_config.stem("أتتذكروننا")
    assert (result.antefix, result.prefix, result.output, result.suffix, result.postfix) == (
        "أ", "تت", "ذكر", "ون", "نا",
    )

    # hand-traced stem examples
    assert light_config.stem("العراقية").output == "عراقي"
    assert light_config.stem("قلم").output == "قلم"
    assert light_config.stem("للرياضة").output == "رياض"
    assert light_config.stem("الرياض").output == "رياض"
    assert root_config.stem("السفير").output == "سفر"
    assert root_config.stem("السفارة").output == "سفر"
    assert root_config.stem("سفر").output == "سفر"
    assert root_config.stem("منظمات").output == "نظم"
    # the fused conjunction+article antefix strips as one unit (longest match)
    assert root_config.stem("والدين").antefix == "وال"

    # conflation monotonicity over the whole fixture vocabulary
    vocabulary = []
    seen = set()
    for paragraph in mini_paragraphs:
        for token in paragraph.tokens:
            if token not in seen:
                seen.add(token)
                vocabulary.append(token)
    root_of_class: dict[str, str] = {}
    for token in vocabulary:
        light = light_config.stem(token).output
        root = root_config.stem(token).output
        assert root_of_class.setdefault(light, root) == root, token
    _report_pass(6, "stemmer regressions", f"{len(vocabulary)} vocabulary items")


def test_criterion_7_determinism(tmp_path, light_space, mini_corpus_dir, pair_files):
    pairs_file = tmp_path / "pairs.tsv"
    pairs_file.write_bytes(b"".join(path.read_bytes() for path in pair_files))
    out_a = tmp_path / "run_a.tsv"
    out_b = tmp_path / "run_b.tsv"
    for out_file in (out_a, out_b):
        code = main([
            "report", "--corpus", str(mini_corpus_dir), "--pairs", str(pairs_file),
            "--modes", "root,light", "-k", "40", "-o", str(out_file),
        ])
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    space_a = tmp_path / "space_a.bin"
    space_b = tmp_path / "space_b.bin"
    save_space(light_space, space_a)
    save_space(load_space(space_a), space_b)
    assert space_a.read_bytes() == space_b.read_bytes()

    reloaded = load_space(space_b)
    assert np.array_equal(reloaded.word_vectors, light_space.word_vectors)
    assert reloaded.vocabulary == light_space.vocabulary
    _report_pass(7, "determinism")


def test_out_of_vocabulary_is_reported_not_fatal(light_space, light_config):
    with pytest.raises(OutOfVocabularyError):
        word_vector(light_space, "للأجهزة", light_config)
