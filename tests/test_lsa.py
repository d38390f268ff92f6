import dataclasses
import itertools
import re
import struct
import tempfile
import tracemalloc
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semspace import lsa, svd
from semspace.cli import main
from semspace.corpus import Paragraph
from semspace.errors import DataFormatError, OutOfVocabularyError, SemspaceError
from semspace.lsa import (
    _checksum,
    Provenance,
    SemanticSpace,
    SvdFactors,
    Vocabulary,
    build_matrices,
    build_matrix,
    build_spaces,
    factorize,
    load_space,
    save_space,
    truncate,
    word_vector,
)
from semspace.stemming import StemmerConfig, make_config

from conftest import exactly, measure
from oracles import count_matrix, count_occurrences

NONE_CONFIG = StemmerConfig(mode="none")
PROV = Provenance("none", "", "fp")


def _paragraphs(texts):
    return [Paragraph(tuple(text.split())) for text in texts]


def test_build_matrix_counts():
    matrix = build_matrix(_paragraphs(["اب اب جد", "جد"]), NONE_CONFIG)
    assert matrix.shape == (2, 2)
    assert list(matrix.vocabulary) == ["اب", "جد"]
    assert matrix.to_dense().tolist() == [[2.0, 0.0], [1.0, 1.0]]


def test_build_matrix_single_cell():
    matrix = build_matrix(_paragraphs(["اب"]), NONE_CONFIG)
    assert matrix.to_dense().tolist() == [[1.0]]


def test_build_matrix_entries_positive_and_column_sums(mini_paragraphs):
    matrix = build_matrix(mini_paragraphs, NONE_CONFIG)
    dense = matrix.to_dense()
    assert (dense >= 0).all() and np.array_equal(dense, np.floor(dense))
    for j, paragraph in enumerate(mini_paragraphs):
        assert dense[:, j].sum() == len(paragraph.tokens)


def test_build_matrix_against_counting_oracle(mini_paragraphs, light_config):
    matrix = build_matrix(mini_paragraphs[:40], light_config)
    oracle = count_occurrences(
        [p.tokens for p in mini_paragraphs[:40]], light_config.stem_token
    )
    dense = matrix.to_dense()
    for j, counts in enumerate(oracle):
        for token, expected in counts.items():
            assert dense[matrix.vocabulary.index_of(token), j] == expected
        assert dense[:, j].sum() == sum(counts.values())


_MODE_SETS = [modes for r in (1, 2, 3) for modes in itertools.combinations(("root", "light", "none"), r)]


@pytest.mark.parametrize("modes", _MODE_SETS, ids=",".join)
def test_build_matrices_is_build_matrix_per_mode(mini_paragraphs, modes):
    configs = [make_config(mode) for mode in modes]
    tokens = [p.tokens for p in mini_paragraphs]
    for config, matrix in zip(configs, build_matrices(mini_paragraphs, configs), strict=True):
        alone = build_matrix(mini_paragraphs, config)
        rows, counts = count_matrix(tokens, config.stem_token)
        assert list(matrix.vocabulary) == list(alone.vocabulary) == rows
        assert matrix.shape == alone.shape == counts.shape
        assert matrix.counts.tobytes() == alone.counts.tobytes() == counts.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["ال" + w for w in ("اب", "ابي", "جد")] + ["اب", "جد", "هو"]), max_size=6),
                max_size=6))
@example([])  # no paragraphs at all, like [[], []], has no token
def test_build_matrices_match_the_occurrence_oracle(token_lists):
    # empty paragraphs anywhere, repeats, and light stems that merge tokens
    paragraphs = [Paragraph(tuple(tokens)) for tokens in token_lists]
    configs = [make_config("light"), NONE_CONFIG]
    if not any(token_lists):
        with pytest.raises(SemspaceError, match="^empty corpus$"):
            build_matrices(paragraphs, configs)
        return
    for config, matrix in zip(configs, build_matrices(paragraphs, configs), strict=True):
        rows, counts = count_matrix(token_lists, config.stem_token)
        assert list(matrix.vocabulary) == rows
        assert matrix.counts.tobytes() == counts.tobytes() and not matrix.counts.flags.writeable


def test_row_conflation_structure(mini_paragraphs, root_config, light_config):
    root_matrix = build_matrix(mini_paragraphs, root_config)
    light_matrix = build_matrix(mini_paragraphs, light_config)
    # both surface forms collapse to one row under the root stemmer
    assert root_config.stem_token("السفير") == root_config.stem_token("السفارة") == "سفر"
    assert root_matrix.vocabulary.index_of("سفر") is not None
    # and stay two distinct rows under the light stemmer
    a = light_matrix.vocabulary.index_of("سفير")
    b = light_matrix.vocabulary.index_of("سفار")
    assert a is not None and b is not None and a != b


def test_vocabulary_is_the_dict_it_wraps():
    vocabulary = Vocabulary(["ب", "ا", "ب"])
    assert vocabulary == {"ب": 0, "ا": 1}
    assert list(vocabulary) == ["ب", "ا"]  # iterated in row order
    assert vocabulary.index_of("ج") is None
    assert vocabulary.rows_of(["ا", "ب"]).tolist() == [1, 0]
    assert Vocabulary() == {} and not Vocabulary()


def factorize_dense(X):
    from semspace.svd import jacobi_svd

    U, s, _ = jacobi_svd(X)
    return SvdFactors(U=U, sigma=s)


def test_truncate_full_rank_is_u():
    rng = np.random.default_rng(41)
    X = rng.integers(0, 5, size=(6, 4)).astype(float)
    factors = factorize_dense(X)
    vocab = Vocabulary([f"كلمة{i}" for i in range(6)])
    space = truncate(factors, factors.n, "u", vocab, PROV, n_columns=4)
    assert np.array_equal(space.word_vectors, factors.U)


def test_truncate_rank_one_direction():
    X = np.array([[3.0, 0.0], [4.0, 0.0]])
    factors = factorize_dense(X)
    vocab = Vocabulary(["اب", "جد"])
    space = truncate(factors, 1, "u", vocab, PROV, n_columns=2)
    assert np.allclose(space.word_vectors[:, 0], [0.6, 0.8], atol=1e-12)


def test_truncate_usigma_scaling():
    X = np.array([[3.0, 1.0], [4.0, 0.0], [0.0, 2.0]])
    factors = factorize_dense(X)
    vocab = Vocabulary(["ا", "ب", "ج"])
    plain = truncate(factors, 2, "u", vocab, PROV, n_columns=2)
    scaled = truncate(factors, 2, "usigma", vocab, PROV, n_columns=2)
    assert np.allclose(scaled.word_vectors, plain.word_vectors * factors.sigma[:2])


@pytest.mark.parametrize("scaling", ["u", "usigma"])
def test_built_space_arrays_are_read_only(scaling):
    # as load_space gives them: a caller cannot change a shared space's scores in place
    space = truncate(factorize_dense(np.array([[3.0, 1.0], [4.0, 0.0]])), 2, scaling, Vocabulary(["ا", "ب"]), PROV, 2)
    for array in (space.sigma, space.word_vectors):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_factors_n_is_the_rank(mini_paragraphs, root_config):
    # the bundled corpus has rank 93 of 205 paragraphs
    factors = factorize(build_matrix(mini_paragraphs, root_config))
    assert factors.n == np.count_nonzero(factors.sigma) == factors.U.shape[1] == 93
    assert factors.sigma.shape == (205,)


def test_truncate_k_out_of_range():
    factors = factorize_dense(np.eye(3))
    vocab = Vocabulary(["ا", "ب", "ج"])
    for k in (0, 4, -1):
        with pytest.raises(ValueError):
            truncate(factors, k, "u", vocab, PROV, n_columns=3)


def test_truncate_eckart_young():
    rng = np.random.default_rng(43)
    X = rng.integers(0, 7, size=(6, 8)).astype(float)
    factors = factorize_dense(X)
    for k in range(1, factors.n + 1):
        approx = factors.U[:, :k] @ (factors.U[:, :k].T @ X)
        residual = np.linalg.norm(X - approx)
        expected = float(np.sqrt(np.sum(factors.sigma[k:] ** 2)))
        assert abs(residual - expected) <= 1e-8 * max(np.linalg.norm(X), 1.0)


def test_spaces_built_together_equal_spaces_built_alone(mini_paragraphs, mini_stats, root_config, light_config):
    # `report` builds its modes together and `build` one at a time, through the same path
    configs = [root_config, light_config, make_config("none")]
    together = build_spaces(mini_paragraphs, mini_stats, configs, k=40)
    for config, space in zip(configs, together, strict=True):
        (alone,) = build_spaces(mini_paragraphs, mini_stats, [config], k=40)
        assert (space.k, space.n_columns) == (alone.k, alone.n_columns) == (40, 205)
        assert space.vocabulary == alone.vocabulary
        assert space.provenance == alone.provenance
        assert space.provenance.stemmer_mode == config.mode
        assert space.sigma.tobytes() == alone.sigma.tobytes()
        assert space.word_vectors.tobytes() == alone.word_vectors.tobytes()


def test_build_spaces_holds_one_count_matrix_at_a_time(monkeypatch, mini_paragraphs, mini_stats):
    # each mode's counts are made as the SVD pulls them; the bundled modes all repeat columns, so each
    # first QR gets a merged copy, and by then no count array is alive, that mode's own included
    made, live_at_first_qrs = [], []  # a weakref to each count array as it is made; which live at each first QR
    new_matrix, qr = lsa.CooccurrenceMatrix, svd.householder_qr

    def making(vocabulary, counts):
        made.append(weakref.ref(counts))
        return new_matrix(vocabulary, counts)

    calls = itertools.count()

    def first_qrs_noted(A):
        if next(calls) % 2 == 0:  # each mode runs its first QR, then its second
            live_at_first_qrs.append([ref() is not None for ref in made])
        return qr(A)

    monkeypatch.setattr(lsa, "CooccurrenceMatrix", making)
    monkeypatch.setattr(svd, "householder_qr", first_qrs_noted)
    build_spaces(mini_paragraphs, mini_stats, [make_config(mode) for mode in ("root", "light", "none")], k=40)
    assert live_at_first_qrs == [[False], [False, False], [False, False, False]]


@pytest.mark.parametrize("modes, live", [(("light",), [False]), (("root", "light", "none"), [True, True, False])])
def test_build_spaces_lets_the_corpus_ids_go_before_the_last_factorization(monkeypatch, mini_paragraphs, mini_stats,
                                                                           modes, live):
    # the corpus's token ids (the first array `rows_of` gives) go once the last matrix's indices are made, so no
    # mode's first QR sees them after that; every earlier mode still needs them
    rows, live_at_first_qrs = [], []  # a weakref to each array rows_of returns; is the first alive at each first QR
    rows_of, qr = lsa.Vocabulary.rows_of, svd.householder_qr

    def noting(vocabulary, tokens):
        result = rows_of(vocabulary, tokens)
        rows.append(weakref.ref(result))
        return result

    calls = itertools.count()

    def first_qrs_noted(A):
        if next(calls) % 2 == 0:  # each mode runs its first QR, then its second
            live_at_first_qrs.append(rows[0]() is not None)
        return qr(A)

    monkeypatch.setattr(lsa.Vocabulary, "rows_of", noting)
    monkeypatch.setattr(svd, "householder_qr", first_qrs_noted)
    build_spaces(mini_paragraphs, mini_stats, [make_config(mode) for mode in modes], k=40)
    assert live_at_first_qrs == live


@pytest.fixture(scope="module")
def usigma_rank_spaces(mini_paragraphs, mini_stats):
    """Each mode's count matrix beside its usigma space at the default k, the rank."""
    configs = [make_config(mode) for mode in ("root", "light", "none")]
    spaces = build_spaces(mini_paragraphs, mini_stats, configs, scaling="usigma")
    return [(build_matrix(mini_paragraphs, config).to_dense(), space) for config, space in zip(configs, spaces)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_usigma_at_the_rank_measures_as_the_count_rows(usigma_rank_spaces, data):
    # rows of U·Σ at k = rank have the inner products of the count rows (X Xᵀ = U Σ² Uᵀ),
    # so every measure made of inner products agrees; Pearson, which sums coordinates, does not
    counts, space = data.draw(st.sampled_from(usigma_rank_spaces))
    assert space.k == 93
    a, b = (data.draw(st.integers(0, len(counts) - 1)) for _ in "ab")
    for name in ("cosine", "euclidean", "jaccard"):
        expected = measure(name, counts[a], counts[b])
        assert abs(measure(name, space.word_vectors[a], space.word_vectors[b]) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_word_vector_verbatim_row(mini_paragraphs, mini_stats):
    (space,) = build_spaces(mini_paragraphs, mini_stats, [NONE_CONFIG], k=10)
    token = list(space.vocabulary)[5]
    vec = word_vector(space, token, NONE_CONFIG)
    assert np.array_equal(vec, space.word_vectors[5])


def test_word_vector_stems_query(light_space, light_config):
    row = light_space.vocabulary.index_of("عراقي")
    vec = word_vector(light_space, "العراقية", light_config)
    assert np.array_equal(vec, light_space.word_vectors[row])


def test_word_vector_out_of_vocabulary(light_space, light_config):
    with pytest.raises(OutOfVocabularyError) as exc_info:
        word_vector(light_space, "كلمةغيرموجودةاطلاقا", light_config)
    assert "كلمةغيرموجودةاطلاقا" in str(exc_info.value)


@pytest.mark.parametrize("mode", ["root", "light", "none"])
def test_word_vector_of_a_word_with_no_arabic_letters_is_out_of_vocabulary(mini_paragraphs, mini_stats, mode):
    # it normalizes to "", which stems to "" in every mode, and no space holds ""
    config = make_config(mode)
    (space,) = build_spaces(mini_paragraphs, mini_stats, [config], k=10)
    with pytest.raises(OutOfVocabularyError, match=re.escape("'abc123' (stemmed: '')")):
        word_vector(space, "abc123", config)


def test_word_vector_rejects_wrong_stemmer(light_space, root_config):
    with pytest.raises(ValueError, match="stemmer"):
        word_vector(light_space, "العراقية", root_config)


def test_identical_rows_for_conflated_words(root_space, root_config):
    a = word_vector(root_space, "السفير", root_config)
    b = word_vector(root_space, "السفارة", root_config)
    assert np.array_equal(a, b)


# --- persistence -------------------------------------------------------------

def test_save_load_round_trip(tmp_path, light_space):
    path = tmp_path / "space.bin"
    save_space(light_space, path)
    loaded = load_space(path)
    assert loaded.k == light_space.k
    assert loaded.scaling == light_space.scaling
    assert loaded.vocabulary == light_space.vocabulary
    assert loaded.provenance == light_space.provenance
    assert loaded.n_columns == light_space.n_columns
    for got, saved in ((loaded.sigma, light_space.sigma), (loaded.word_vectors, light_space.word_vectors)):
        assert got.shape == saved.shape and got.dtype == np.float64
        assert got.tobytes() == saved.tobytes()  # bit for bit, -0.0 and NaN included
        assert not got.flags.writeable  # a view of the file's bytes


def test_save_is_deterministic(tmp_path, mini_paragraphs, mini_stats, light_config):
    (space_a,) = build_spaces(mini_paragraphs, mini_stats, [light_config], k=8)
    (space_b,) = build_spaces(mini_paragraphs, mini_stats, [light_config], k=8)
    path_a, path_b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_space(space_a, path_a)
    save_space(space_b, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_corrupted_payload_fails_checksum(tmp_path, light_space):
    path = tmp_path / "space.bin"
    save_space(light_space, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="^space file checksum mismatch$"):
        load_space(path)


def _version_message(version):
    return (f"unsupported space format version {version} (this semspace reads version 3); "
            "rebuild the space with `semspace build`")


def _signed(payload):
    return payload + _checksum(payload)


def _rewrite_with_checksum(path, payload):
    path.write_bytes(_signed(payload))


def test_truncated_payload_detected(tmp_path, light_space):
    path = tmp_path / "space.bin"
    save_space(light_space, path)
    payload = path.read_bytes()[:-8]
    _rewrite_with_checksum(path, payload[: len(payload) - 64])
    _, _, floats = _space_layout(payload)
    with pytest.raises(DataFormatError, match=exactly(
            f"truncated space file: needed {len(payload) - floats} bytes at offset {floats}")):
        load_space(path)


def test_version_mismatch_detected(tmp_path, light_space):
    path = tmp_path / "space.bin"
    save_space(light_space, path)
    payload = bytearray(path.read_bytes()[:-8])
    payload[8:12] = struct.pack("<I", 99)
    _rewrite_with_checksum(path, bytes(payload))
    with pytest.raises(DataFormatError, match=exactly(_version_message(99))):
        load_space(path)


def _pack_str(text):
    data = text.encode()
    return struct.pack("<I", len(data)) + data


def test_version_one_file_asks_for_a_rebuild(tmp_path):
    # format 1: the words one length-prefixed string each, no padding before the floats
    payload = b"".join([b"SEMSPACE", struct.pack("<IB", 1, 0), _pack_str("rf"), _pack_str("fp"),
                        struct.pack("<QQQB", 2, 2, 1, 0), _pack_str("اب"), _pack_str("جد"),
                        np.array([1.0, 1.0, 0.0], dtype="<f8").tobytes()])
    path = tmp_path / "space.bin"
    _rewrite_with_checksum(path, payload)
    with pytest.raises(DataFormatError, match=exactly(_version_message(1))):
        load_space(path)


def test_format_two_file_asks_for_a_rebuild(tmp_path, light_space):
    # format 2: this layout, ended by the first 8 bytes of the payload's sha256
    import hashlib

    path = tmp_path / "space.bin"
    save_space(light_space, path)
    payload = bytearray(path.read_bytes()[:-8])
    payload[8:12] = struct.pack("<I", 2)
    path.write_bytes(bytes(payload) + hashlib.sha256(payload).digest()[:8])
    with pytest.raises(DataFormatError, match=exactly(_version_message(2))):
        load_space(path)


def test_space_file_ends_in_the_crc32_of_its_payload(tmp_path, light_space):
    path = tmp_path / "space.bin"
    save_space(light_space, path)
    blob = path.read_bytes()
    assert blob[8:12] == struct.pack("<I", 3)
    assert blob[-8:] == struct.pack("<Q", zlib.crc32(blob[:-8]))


@pytest.mark.parametrize("k", [0, 3])
def test_space_dimension_outside_one_to_vocabulary_size_rejected(tmp_path, k):
    space = SemanticSpace(k, "u", Vocabulary(["اب", "جد"]), np.ones(k), np.ones((2, k)), PROV, 2)
    path = tmp_path / "space.bin"
    save_space(space, path)
    with pytest.raises(DataFormatError, match=exactly(f"space keeps k={k} dimensions, outside 1..2")):
        load_space(path)


THREE_WORDS = SemanticSpace(2, "u", Vocabulary(["اب", "جد", "هو"]), np.ones(2),
                            np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]), Provenance("none", "rf", "fp"), 3)


def _payload(space):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "space.bin"
        save_space(space, path)
        return path.read_bytes()[:-8]


THREE_WORDS_PAYLOAD = _payload(THREE_WORDS)


def test_repeated_word_rejected(tmp_path):
    path = tmp_path / "space.bin"
    save_space(THREE_WORDS, path)
    # the second word overwritten by the first: the same length, so the layout holds
    payload = path.read_bytes()[:-8].replace("جد".encode(), "اب".encode(), 1)
    _rewrite_with_checksum(path, payload)
    with pytest.raises(DataFormatError, match="^space vocabulary repeats 1 of its 3 words$"):
        load_space(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["sigma", "word_vectors"])
def test_non_finite_number_rejected(tmp_path, field, value):
    numbers = getattr(THREE_WORDS, field).copy()
    numbers.reshape(-1)[-1] = value
    path = tmp_path / "space.bin"
    save_space(dataclasses.replace(THREE_WORDS, **{field: numbers}), path)
    with pytest.raises(DataFormatError, match="^space file holds a non-finite singular value or vector entry$"):
        load_space(path)


def _space_layout(payload):
    """A space payload's words in row order, the offset where its padding
    starts, and the offset of its floats (counted back from the end), read
    with struct alone."""
    pos = len(b"SEMSPACE") + 4 + 1  # magic, version, stemmer tag
    for _ in range(2):  # the fingerprints
        pos += 4 + struct.unpack_from("<I", payload, pos)[0]
    m, _, k = struct.unpack_from("<QQQ", payload, pos)
    pos += 3 * 8 + 1  # m, paragraphs, k, scaling tag
    (size,) = struct.unpack_from("<I", payload, pos)
    pos += 4
    tokens = payload[pos: pos + size].decode("utf-8").split("\n")
    assert len(tokens) == m
    return tokens, pos + size, len(payload) - 8 * (k + m * k)


@pytest.mark.parametrize("mode", ["root", "light"])
def test_loaded_vocabulary_equals_one_built_from_its_tokens(tmp_path, mini_corpus_dir, mode):
    path = tmp_path / f"{mode}.bin"
    assert main(["build", "--mode", mode, str(mini_corpus_dir), "-o", str(path)]) == 0
    tokens, _, _ = _space_layout(path.read_bytes()[:-8])
    loaded, built = load_space(path).vocabulary, Vocabulary(tokens)
    assert loaded == built and built == loaded
    assert loaded != Vocabulary(tokens[::-1])
    assert list(loaded) == list(built) == tokens
    assert len(loaded) == len(built) == len(tokens)
    assert [loaded.index_of(t) for t in tokens] == [built.index_of(t) for t in tokens] == list(range(len(tokens)))
    assert loaded.index_of("غائبتماما") is None and built.index_of("غائبتماما") is None


@pytest.mark.parametrize("k", [None, 40])
@pytest.mark.parametrize("mode", ["root", "light", "none"])
def test_floats_of_a_built_space_are_aligned(tmp_path, mini_corpus_dir, mode, k):
    path = tmp_path / f"{mode}.bin"
    assert main(["build", "--mode", mode, str(mini_corpus_dir), "-o", str(path)] + (["-k", str(k)] if k else [])) == 0
    payload = path.read_bytes()[:-8]
    _, padding, floats = _space_layout(payload)
    assert floats % 8 == 0 and 0 <= floats - padding < 8
    assert not any(payload[padding:floats])
    space = load_space(path)
    assert space.sigma.flags.aligned and space.word_vectors.flags.aligned


def test_nonzero_padding_byte_rejected(tmp_path):
    _, padding, floats = _space_layout(THREE_WORDS_PAYLOAD)
    assert floats - padding == 4  # a 68-byte header
    path = tmp_path / "space.bin"
    for pos in range(padding, floats):
        payload = bytearray(THREE_WORDS_PAYLOAD)
        payload[pos] = 1
        _rewrite_with_checksum(path, bytes(payload))
        with pytest.raises(DataFormatError, match="^nonzero padding byte before the space's numbers$"):
            load_space(path)


@pytest.mark.parametrize("m", [2, 4])
def test_word_block_that_is_not_m_words_rejected(tmp_path, m):
    # the header's m, paragraphs and k rewritten so that the block of 3 words is m ± 1
    counts = struct.pack("<QQQ", 3, 3, 2)
    payload = THREE_WORDS_PAYLOAD.replace(counts, struct.pack("<QQQ", m, 3, 2), 1)
    path = tmp_path / "space.bin"
    _rewrite_with_checksum(path, payload)
    with pytest.raises(DataFormatError, match=f"^space word block holds 3 words, not the {m} of its header$"):
        load_space(path)


def test_save_rejects_a_word_holding_a_newline(tmp_path):
    space = dataclasses.replace(THREE_WORDS, vocabulary=Vocabulary(["اب", "ج\nد", "هو"]))
    with pytest.raises(ValueError, match="newline"):
        save_space(space, tmp_path / "space.bin")
    assert not (tmp_path / "space.bin").exists()


def test_save_rejects_an_empty_word(tmp_path):
    space = dataclasses.replace(THREE_WORDS, vocabulary=Vocabulary(["اب", "", "هو"]))
    with pytest.raises(ValueError, match="empty"):
        save_space(space, tmp_path / "space.bin")
    assert not (tmp_path / "space.bin").exists()


def test_empty_word_rejected(tmp_path):
    # "اب\nجد" as "\nجدجد": the same length, so the layout holds, and the first of the 3 words is empty
    payload = THREE_WORDS_PAYLOAD.replace("اب\nجد".encode(), "\nجدجد".encode(), 1)
    assert _space_layout(payload)[0] == ["", "جدجد", "هو"]
    path = tmp_path / "space.bin"
    _rewrite_with_checksum(path, payload)
    with pytest.raises(DataFormatError, match="^space vocabulary holds an empty word$"):
        load_space(path)


def test_save_never_holds_the_whole_file(tmp_path):
    """The parts are written one at a time, so saving holds no copy of the
    file: its traced peak stays under 1.5x the word vectors' size, where
    joining the parts first held three copies."""
    m, k = 4000, 50
    space = SemanticSpace(k, "u", Vocabulary([f"w{i}" for i in range(m)]), np.ones(k),
                          np.random.default_rng(3).normal(size=(m, k)), PROV, 7)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        save_space(space, tmp_path / "space.bin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 1.5 * space.word_vectors.nbytes
    assert load_space(tmp_path / "space.bin").word_vectors.tobytes() == space.word_vectors.tobytes()


ARABIC_LETTERS = [chr(c) for c in range(0x0621, 0x064B)]
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _spaces(draw):
    words = draw(st.lists(st.text(ARABIC_LETTERS, min_size=1, max_size=8), min_size=1, max_size=50, unique=True))
    m = len(words)
    k = draw(st.integers(1, m))
    return SemanticSpace(
        k=k,
        scaling=draw(st.sampled_from(["u", "usigma"])),
        vocabulary=Vocabulary(words),
        sigma=draw(arrays(np.float64, k, elements=FINITE)),
        word_vectors=draw(arrays(np.float64, (m, k), elements=FINITE)),
        provenance=Provenance(draw(st.sampled_from(["none", "root", "light"])), draw(st.text()), draw(st.text())),
        n_columns=draw(st.integers(0, 2**64 - 1)),
    )


@settings(max_examples=200, deadline=None)
@given(_spaces())
def test_any_space_round_trips_bit_for_bit(space):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "space.bin"
        save_space(space, path)
        loaded = load_space(path)
    assert (loaded.k, loaded.scaling, loaded.n_columns) == (space.k, space.scaling, space.n_columns)
    assert loaded.vocabulary == space.vocabulary
    assert isinstance(loaded.vocabulary, Vocabulary) and list(loaded.vocabulary) == list(space.vocabulary)
    assert loaded.provenance == space.provenance
    for got, saved in ((loaded.sigma, space.sigma), (loaded.word_vectors, space.word_vectors)):
        assert got.shape == saved.shape and got.tobytes() == saved.tobytes()
        assert got.flags.aligned


@pytest.mark.parametrize("cut", range(len(THREE_WORDS_PAYLOAD)))
def test_every_cut_of_the_payload_is_a_truncation(tmp_path, cut):
    """A payload cut short, under a valid checksum, leaves a field short
    wherever the cut falls, and the parser says so instead of failing on
    the bytes it is missing."""
    path = tmp_path / "space.bin"
    _rewrite_with_checksum(path, THREE_WORDS_PAYLOAD[:cut])
    message = "file too short to be a space file" if cut < 8 else r"truncated space file: needed \d+ bytes at offset \d+"
    with pytest.raises(DataFormatError, match=f"^{message}$"):
        load_space(path)


def test_every_changed_byte_is_caught(tmp_path):
    """Each bit of each byte flipped in turn: the magic and the version fail
    as such, and every later byte, the checksum's own included, fails the
    checksum."""
    blob = THREE_WORDS_PAYLOAD + _checksum(THREE_WORDS_PAYLOAD)
    path = tmp_path / "space.bin"
    for pos, bit in itertools.product(range(len(blob)), range(8)):
        changed = bytearray(blob)
        changed[pos] ^= 1 << bit
        path.write_bytes(bytes(changed))
        if pos < 8:
            message = "not a space file (bad magic)"
        elif pos < 12:
            message = _version_message(struct.unpack_from("<I", changed, 8)[0])
        else:
            message = "space file checksum mismatch"
        with pytest.raises(DataFormatError, match=exactly(message)):
            load_space(path)


@pytest.mark.parametrize("text", ["rf", "fp", "اب"])
def test_text_that_is_not_utf8_is_a_format_error(tmp_path, text):
    payload = bytearray(THREE_WORDS_PAYLOAD)
    payload[payload.index(text.encode())] = 0xFF
    path = tmp_path / "space.bin"
    _rewrite_with_checksum(path, bytes(payload))
    with pytest.raises(DataFormatError, match="^text in space file is not UTF-8: invalid start byte$"):
        load_space(path)


def test_tiny_file_rejected(tmp_path):
    path = tmp_path / "space.bin"
    path.write_bytes(b"short")
    with pytest.raises(DataFormatError, match="^file too short to be a space file$"):
        load_space(path)


def test_differing_rules_fingerprint_still_loads(tmp_path, light_space):
    path = tmp_path / "space.bin"
    save_space(light_space, path)
    loaded = load_space(path)
    assert loaded.provenance.rules_fingerprint == light_space.provenance.rules_fingerprint
    assert loaded.provenance.rules_fingerprint != "someotherfingerprint"


def _tag_offsets(payload):
    """Where a space payload's stemmer tag and scaling tag sit: the stemmer
    tag after the magic and version, the scaling tag after the two
    fingerprints and the three u64s (m, paragraphs, k)."""
    stemmer = len(b"SEMSPACE") + 4
    pos = stemmer + 1
    for _ in range(2):
        pos += 4 + struct.unpack_from("<I", payload, pos)[0]
    return stemmer, pos + 3 * 8


@pytest.mark.parametrize("scaling, scaling_tag", [("u", 0), ("usigma", 1)])
def test_space_file_tags_are_pinned(tmp_path, mini_paragraphs, mini_stats, scaling, scaling_tag):
    # the bytes are the format: reordering the tag tables would misread every saved space
    mode_tags = {"none": 0, "root": 1, "light": 2}
    spaces = build_spaces(mini_paragraphs[:20], mini_stats, [make_config(mode) for mode in mode_tags], 1, scaling)
    for (mode, mode_tag), space in zip(mode_tags.items(), spaces, strict=True):
        path = tmp_path / f"{mode}.bin"
        save_space(space, path)
        blob = path.read_bytes()
        stemmer_at, scaling_at = _tag_offsets(blob)
        assert (blob[stemmer_at], blob[scaling_at]) == (mode_tag, scaling_tag), mode
        loaded = load_space(path)
        assert (loaded.provenance.stemmer_mode, loaded.scaling) == (mode, scaling)


def _set_byte(payload, pos, value):
    return payload[:pos] + bytes([value]) + payload[pos + 1:]


# THREE_WORDS_PAYLOAD's layout: version at 8, the rules fingerprint's length at 13, its floats at 72 (64 bytes)
@pytest.mark.parametrize("forge, message", [
    (lambda payload: _signed(_set_byte(payload, _tag_offsets(payload)[0], 3)), "unknown stemmer tag 3"),
    (lambda payload: _signed(_set_byte(payload, _tag_offsets(payload)[1], 2)), "unknown scaling tag 2"),
    (lambda payload: _signed(payload + bytes(8)), "8 trailing bytes in space file"),
    (lambda payload: payload[:15], "file too short to be a space file"),
    (lambda payload: _signed(b"SEMSPACF" + payload[8:]), "not a space file (bad magic)"),
    (lambda payload: payload + bytes(8), "space file checksum mismatch"),
    (lambda payload: _signed(payload[:10]), "truncated space file: needed 4 bytes at offset 8"),
    (lambda payload: _signed(payload[:15]), "truncated space file: needed 4 bytes at offset 13"),
    (lambda payload: _signed(payload[:100]), "truncated space file: needed 64 bytes at offset 72"),
], ids=["stemmer-tag", "scaling-tag", "trailing-bytes", "too-short", "bad-magic", "checksum", "cut-in-version",
        "cut-in-string-length", "cut-in-floats"])
def test_forged_space_is_a_format_error_and_sim_exits_4(tmp_path, capsys, forge, message):
    path = tmp_path / "space.bin"
    path.write_bytes(forge(THREE_WORDS_PAYLOAD))
    with pytest.raises(DataFormatError, match=exactly(message)) as caught:
        load_space(path)
    assert type(caught.value) is DataFormatError
    assert main(["sim", "--space", str(path), "اب", "جد"]) == 4
    assert capsys.readouterr() == ("", f"semspace: error: {message}\n")


def test_build_spaces_rejects_an_unknown_scaling(mini_stats):
    with pytest.raises(ValueError, match="unknown scaling: 'bogus'"):
        build_spaces(_paragraphs(["اب جد", "جد هو"]), mini_stats, [NONE_CONFIG], scaling="bogus")
