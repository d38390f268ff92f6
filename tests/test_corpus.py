import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semspace.corpus import (
    Corpus,
    RawDocument,
    corpus_stats,
    load_corpus,
    normalize,
    segment_paragraphs,
    segment_corpus,
    tokenize,
)
from semspace.errors import SemspaceError
from semspace.lsa import space_fingerprint

from conftest import exactly
import oracles

ARABIC_FIRST, ARABIC_LAST = 0x0621, 0x064A


def test_normalize_strips_diacritics():
    assert normalize("مُحَمَّد") == "محمد"


def test_normalize_drops_non_arabic():
    assert normalize("abc123") == ""
    assert normalize("نص123") == "نص"


def test_normalize_folds_hamza_seats():
    assert normalize("إسلام") == "اسلام"
    assert normalize("أحمد") == "احمد"
    assert normalize("آخر") == "اخر"


def test_normalize_folds_alif_maqsura():
    assert normalize("مصطفى") == "مصطفي"


def test_normalize_keeps_ta_marbuta():
    assert normalize("سفارة") == "سفارة"


def test_normalize_removes_tatweel():
    assert normalize("الرياـــض") == "الرياض"


def test_tokenize_splits_on_whitespace():
    assert tokenize("العربية الفصحى") == ["العربية", "الفصحي"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_strips_punctuation_and_diacritics():
    assert tokenize("العربيةُ، الفصحى!") == ["العربية", "الفصحي"]


def test_tokenize_drops_fully_foreign_tokens():
    assert tokenize("كلمة 42 word كلمتان") == ["كلمة", "كلمتان"]


@pytest.mark.parametrize("plane", range(17))
def test_normalize_and_tokenize_match_the_reference_on_every_code_point(plane):
    # Each code point sits between the one-letter words ك and ب: inside a
    # word for normalize, as a separator for tokenize. The cases are joined by
    # newlines, which both sides drop or split on, and every case starts and
    # ends with letters both keep, so the joined results are equal exactly
    # when the results of every case are.
    points = range(plane << 16, (plane + 1) << 16)
    text = "\n".join("ك" + chr(c) + "ب" for c in points if not 0xD800 <= c <= 0xDFFF)
    assert normalize(text) == oracles.normalize(text)
    assert tokenize(text) == oracles.tokenize(text)


# Letters, the alif forms and seats, the diacritics and tatweel, code points
# just outside the kept block, Arabic-Indic and ASCII digits, Latin, and
# whitespace of every kind str.split knows (U+200B is not whitespace).
_TEXT = (
    "ابتسلمنهويةءؤئ" "أإآاىي" "\u064b\u064e\u0650\u0651\u0652\u0640" "\u0620\u063b\u063f\u0641\u064a"
    "\u0653\u0654\u0660\u0669\u060c\u061f" "0189abzXY.-"
    " \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u1680\u2000\u200a\u2028\u2029\u202f\u3000\u200b"
)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=_TEXT, max_size=60))
def test_normalize_and_tokenize_match_the_translate_oracle(text):
    assert normalize(text) == oracles.normalize_translated(text)
    assert tokenize(text) == oracles.tokenize_translated(text)


def _doc(text):
    return RawDocument(id="d", text=text)


def test_segment_single_blank_separator():
    paragraphs = segment_paragraphs(_doc("سطر\n\nسطر"))
    assert len(paragraphs) == 2
    assert all(len(p.tokens) == 1 for p in paragraphs)


def test_segment_no_blank_lines():
    paragraphs = segment_paragraphs(_doc("سطر اول\nسطر ثان\nسطر ثالث"))
    assert len(paragraphs) == 1
    assert len(paragraphs[0].tokens) == 6


def test_segment_multiple_blank_lines():
    text = "كتلة اولى\n\n\nكتلة ثانية\n\n\nكتلة ثالثة"
    paragraphs = segment_paragraphs(_doc(text))
    assert len(paragraphs) == 3


def test_segment_empty_document():
    assert segment_paragraphs(_doc("")) == []


def test_segment_drops_tokenless_paragraphs():
    paragraphs = segment_paragraphs(_doc("نص عربي\n\n123 abc\n\nنص اخر"))
    assert len(paragraphs) == 2


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="اب a.\u064e \t\n\r\x0b\x0c\x1c\x85\u2028", max_size=40))
def test_segment_matches_the_line_by_line_oracle(text):
    paragraphs = segment_paragraphs(_doc(text))
    assert [p.tokens for p in paragraphs] == oracles.paragraph_tokens(text)


def test_tokenize_idempotent_on_own_output(mini_paragraphs):
    for paragraph in mini_paragraphs[:50]:
        joined = " ".join(paragraph.tokens)
        assert tokenize(joined) == list(paragraph.tokens)


def test_tokens_are_arabic_letters_only(mini_paragraphs):
    for paragraph in mini_paragraphs:
        for token in paragraph.tokens:
            assert token
            assert all(ARABIC_FIRST <= ord(ch) <= ARABIC_LAST for ch in token), token


def test_no_empty_paragraphs(mini_paragraphs):
    assert all(paragraph.tokens for paragraph in mini_paragraphs)


def test_load_corpus_empty_dir(tmp_path):
    corpus = load_corpus(tmp_path)
    assert corpus.documents == []
    assert corpus.skipped == []


def test_load_corpus_missing_dir(tmp_path):
    with pytest.raises(SemspaceError, match=exactly(f"not a readable directory: {tmp_path / 'nope'}")):
        load_corpus(tmp_path / "nope")


def test_load_corpus_nested_categories(tmp_path):
    for category in ("econ", "pol", "sport"):
        sub = tmp_path / category
        sub.mkdir()
        (sub / "a.txt").write_text("نص تجريبي\n", encoding="utf-8")
    corpus = load_corpus(tmp_path)
    assert len(corpus.documents) == 3
    assert sorted(d.category for d in corpus.documents) == ["econ", "pol", "sport"]
    # lexicographic by relative path
    assert [d.id for d in corpus.documents] == ["econ/a", "pol/a", "sport/a"]


def test_load_corpus_flat_has_no_categories(tmp_path):
    (tmp_path / "a.txt").write_text("نص\n", encoding="utf-8")
    corpus = load_corpus(tmp_path)
    assert corpus.documents[0].category is None
    assert corpus_stats(corpus).n_categories == 0


def test_load_corpus_skips_non_utf8(tmp_path):
    (tmp_path / "good.txt").write_text("نص سليم\n", encoding="utf-8")
    (tmp_path / "bad.txt").write_bytes(b"\xff\xfe\x00broken")
    corpus = load_corpus(tmp_path)
    assert [d.id for d in corpus.documents] == ["good"]
    assert len(corpus.skipped) == 1
    assert "bad.txt" in corpus.skipped[0][0]


def test_load_corpus_skips_deeply_nested(tmp_path):
    (tmp_path / "cat" / "sub").mkdir(parents=True)
    (tmp_path / "cat" / "ok.txt").write_text("نص جيد\n", encoding="utf-8")
    (tmp_path / "cat" / "sub" / "deep.txt").write_text("نص عميق\n", encoding="utf-8")
    corpus = load_corpus(tmp_path)
    assert [d.id for d in corpus.documents] == ["cat/ok"]
    assert len(corpus.skipped) == 1
    path, reason = corpus.skipped[0]
    assert path.endswith("deep.txt")
    assert "nested" in reason


def test_mini_corpus_shape(mini_corpus):
    assert len(mini_corpus.documents) == 12
    assert {d.category for d in mini_corpus.documents} == {"sim", "diff"}
    assert mini_corpus.skipped == []


def test_mini_corpus_stats(mini_corpus, mini_stats):
    assert mini_stats.n_documents == 12
    assert mini_stats.n_categories == 2
    assert mini_stats.n_words == 2569
    assert mini_stats.n_paragraphs == 205
    assert mini_stats.size_bytes == 30024


def test_stats_empty_corpus(tmp_path):
    stats = corpus_stats(load_corpus(tmp_path))
    assert (stats.n_documents, stats.n_categories, stats.n_words,
            stats.n_paragraphs, stats.size_bytes) == (0, 0, 0, 0, 0)


def test_stats_row_names():
    stats = corpus_stats(Corpus())
    names = [name for name, _ in stats.rows()]
    assert names == [
        "Number of Documents",
        "Size",
        "Number of categories",
        "Number of Words",
        "Number of Paragraphs",
    ]


def test_stats_consistency(mini_corpus, mini_paragraphs, mini_stats):
    assert mini_stats.n_words == sum(len(p.tokens) for p in mini_paragraphs)
    per_doc = sum(len(segment_paragraphs(d)) for d in mini_corpus.documents)
    assert mini_stats.n_paragraphs == per_doc
    assert mini_paragraphs == segment_corpus(mini_corpus)
    assert corpus_stats(mini_corpus, mini_paragraphs) == mini_stats


@pytest.mark.parametrize("other", [RawDocument("d", "الولد كتب\n"), RawDocument("e", "كتب الولد\n")])
def test_corpus_fingerprint_tells_apart_corpora_of_equal_counts(other):
    stats = corpus_stats(Corpus([RawDocument("d", "كتب الولد\n")]))
    other_stats = corpus_stats(Corpus([other]))
    assert other_stats.rows() == stats.rows()
    assert space_fingerprint("rf", other_stats) != space_fingerprint("rf", stats)


def test_corpus_fingerprint_does_not_depend_on_document_order(mini_corpus, mini_stats):
    reordered = corpus_stats(Corpus(mini_corpus.documents[::-1]))
    assert reordered == mini_stats
    assert space_fingerprint("rf", reordered) == space_fingerprint("rf", mini_stats)


def test_corpus_fingerprint_leaves_out_skipped_files(tmp_path):
    (tmp_path / "good.txt").write_text("نص سليم\n", encoding="utf-8")
    before = corpus_stats(load_corpus(tmp_path))
    (tmp_path / "bad.txt").write_bytes(b"\xff\xfe\x00broken")
    (tmp_path / "empty.txt").write_text("\n", encoding="utf-8")
    after = load_corpus(tmp_path)
    assert len(after.skipped) == 2
    assert corpus_stats(after) == before
