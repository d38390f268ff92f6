import re
from pathlib import Path

import pytest

from semspace.errors import EmptyCorpusError, PairFormatError
from semspace.experiment import (
    ComparisonReport,
    ReportMetadata,
    ReportRow,
    WordPair,
    load_pairs,
    render_report,
    run_comparison,
)
from semspace.lsa import build_spaces, word_vector
from semspace.similarity import MEASURE_ORDER, measure_all, unit_vector
from semspace.stemming import make_config

from conftest import comparison
from oracles import auc

GOLDEN = Path(__file__).parent / "data" / "golden_report.md"
GOLDEN_TSV = GOLDEN.with_suffix(".tsv")


# --- pair files ----------------------------------------------------------------

def test_bundled_similar_pairs(pair_files):
    pairs = load_pairs(pair_files[0])
    assert all(p.label == "Similar" for p in pairs)
    rejection = [p for p in pairs if (p.word_a, p.word_b) == ("رفضه", "واستنكاره")]
    assert len(rejection) == 1
    assert rejection[0].gloss == "Rejection"


def test_bundled_different_pairs(pair_files):
    pairs = load_pairs(pair_files[1])
    assert all(p.label == "Different" for p in pairs)
    assert ("السفارة", "السفير") in [(p.word_a, p.word_b) for p in pairs]


def test_load_pairs_empty_file(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("", encoding="utf-8")
    assert load_pairs(path) == []


def test_load_pairs_duplicates_preserved(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("اب\tجد\tSimilar\nاب\tجد\tSimilar\n", encoding="utf-8")
    assert len(load_pairs(path)) == 2


def test_load_pairs_minimal_columns(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("اب\tجد\tDifferent\n", encoding="utf-8")
    (pair,) = load_pairs(path)
    assert pair.gloss is None and pair.transliteration is None


def test_load_pairs_malformed_line_reports_number(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("اب\tجد\tSimilar\nاب جد\n", encoding="utf-8")
    with pytest.raises(PairFormatError, match=":2:"):
        load_pairs(path)


def test_load_pairs_bad_label(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("اب\tجد\tsomething\n", encoding="utf-8")
    with pytest.raises(PairFormatError, match="label"):
        load_pairs(path)


# --- run_comparison ------------------------------------------------------------

@pytest.fixture(scope="module")
def fixture_report(root_config, light_config, root_space, light_space, all_pairs):
    return run_comparison([root_config, light_config], [root_space, light_space], all_pairs)


def test_report_completeness(fixture_report, all_pairs):
    assert len(fixture_report.rows) == len(all_pairs) * 2
    assert fixture_report.metadata.k == 40
    assert fixture_report.metadata.scaling == "u"
    assert fixture_report.metadata.rules_fingerprint
    assert fixture_report.metadata.corpus_fingerprint


def test_identical_pair_is_identity_row(fixture_report):
    for row in fixture_report.rows:
        if row.pair.word_a == row.pair.word_b and not row.oov:
            values = [r.value for r in row.results]
            assert values == [1.0, 0.0, 1.0, 1.0]


def test_root_conflates_ambassador_embassy(fixture_report):
    (row,) = [
        r for r in fixture_report.rows
        if r.stemmer_mode == "root" and (r.pair.word_a, r.pair.word_b) == ("السفارة", "السفير")
    ]
    assert [r.value for r in row.results] == [1.0, 0.0, 1.0, 1.0]


def test_light_keeps_ambassador_embassy_apart(fixture_report):
    (row,) = [
        r for r in fixture_report.rows
        if r.stemmer_mode == "light" and (r.pair.word_a, r.pair.word_b) == ("السفارة", "السفير")
    ]
    cosine = row.results[0]
    assert cosine.value is not None and cosine.value < 0.9


def test_oov_pair_is_marked_not_fatal(fixture_report):
    oov_rows = [r for r in fixture_report.rows if r.oov]
    assert oov_rows, "expected the bundled pair list to exercise the oov path"
    for row in oov_rows:
        assert all(r.value is None for r in row.results)
        assert "للأجهزة" in row.oov


def test_normalized_report_scores_unit_vectors(fixture_report, root_config, light_config, root_space, light_space,
                                               all_pairs):
    normalized = run_comparison([root_config, light_config], [root_space, light_space], all_pairs, unit_length=True)
    built = {"root": (root_space, root_config), "light": (light_space, light_config)}
    scored = 0
    for row, plain in zip(normalized.rows, fixture_report.rows, strict=True):
        assert (row.pair, row.stemmer_mode, row.oov) == (plain.pair, plain.stemmer_mode, plain.oov)
        if row.oov:
            continue
        space, config = built[row.stemmer_mode]
        a, b = (word_vector(space, word, config) for word in (row.pair.word_a, row.pair.word_b))
        assert row.results == measure_all(unit_vector(a), unit_vector(b))
        for i in (MEASURE_ORDER.index("cosine"), MEASURE_ORDER.index("pearson")):  # both ignore a vector's length
            assert row.results[i].value == pytest.approx(plain.results[i].value, rel=0, abs=1e-12)
        scored += 1
    assert scored == 38


def test_conflation_witness(fixture_report, root_config, light_config):
    from semspace.corpus import normalize

    configs = {"root": root_config, "light": light_config}
    witnessed = 0
    for row in fixture_report.rows:
        if row.oov:
            continue
        config = configs[row.stemmer_mode]
        stems = {config.stem_token(normalize(w)) for w in (row.pair.word_a, row.pair.word_b)}
        if len(stems) == 1:
            witnessed += 1
            cos, euc, pea, jac = (r.value for r in row.results)
            assert abs(cos - 1.0) <= 1e-9
            assert euc <= 1e-9
            assert abs(pea - 1.0) <= 1e-9
            assert abs(jac - 1.0) <= 1e-9
    assert witnessed >= 6


def test_light_conflation_implies_root_conflation(all_pairs, root_config, light_config):
    from semspace.corpus import normalize

    for pair in all_pairs:
        light_stems = {light_config.stem_token(normalize(w)) for w in (pair.word_a, pair.word_b)}
        if len(light_stems) == 1:
            root_stems = {root_config.stem_token(normalize(w)) for w in (pair.word_a, pair.word_b)}
            assert len(root_stems) == 1, pair


def test_run_comparison_default_k_is_minimum_over_modes(tmp_path):
    (tmp_path / "doc.txt").write_text("السفير\n\nالسفارة\n\nالسفير\n", encoding="utf-8")
    pair = WordPair("السفير", "السفارة", "Similar")
    report = comparison(tmp_path, [pair], ("root", "light"))
    # root: one row (سفر), light: two (سفير, سفار); three paragraphs each
    assert report.metadata.k == 1
    assert [row.oov for row in report.rows] == [(), ()]


def test_run_comparison_default_k_is_the_smallest_rank(tmp_path):
    (tmp_path / "doc.txt").write_text(
        "السفير المدينة\n\nالسفارة المدينة\n\nالوزير\n\nالوزير\n", encoding="utf-8"
    )
    pair = WordPair("السفير", "السفارة", "Similar")
    report = comparison(tmp_path, [pair], ("root", "light"))
    # root: 3 rows, rank 2 (سفر and مد share paragraphs); light: 4 rows, rank 3
    assert report.metadata.k == 2
    assert [row.oov for row in report.rows] == [(), ()]


@pytest.mark.parametrize("modes, source", [(("none", "root"), "root"), (("none",), "none")])
def test_report_metadata_is_a_spaces_provenance(mini_corpus_dir, mini_paragraphs, mini_stats, all_pairs, modes, source):
    # the first space built with rule files names the report, else the first space
    report = comparison(mini_corpus_dir, all_pairs[:1], modes, k=40)
    (space,) = build_spaces(mini_paragraphs, mini_stats, [make_config(source)], k=40)
    provenance = space.provenance
    assert bool(provenance.rules_fingerprint) == (source == "root")
    assert report.metadata == ReportMetadata(40, "u", provenance.rules_fingerprint, provenance.corpus_fingerprint)


def test_auc_counts_ties_half_and_reads_lower_as_better_when_asked():
    # (similar, different) pairs in order: (1, 2) (1, 3) (3, 2) (3, 3)
    assert auc([1.0, 3.0], [2.0, 3.0]) == (0 + 0 + 1 + 0.5) / 4
    assert auc([1.0, 3.0], [2.0, 3.0], lower_is_better=True) == (1 + 1 + 0 + 0.5) / 4


@pytest.mark.parametrize("k", [None, 40])
def test_light_beats_root_under_every_measure(mini_corpus_dir, all_pairs, k):
    # the paper's headline, as AUC over the pairs that root, light and none all score
    report = comparison(mini_corpus_dir, all_pairs, ("root", "light", "none"), k)
    by_mode = {mode: [row for row in report.rows if row.stemmer_mode == mode] for mode in report.modes}
    scored = [
        i for i in range(len(all_pairs))
        if all(not rows[i].oov and None not in (r.value for r in rows[i].results) for rows in by_mode.values())
    ]
    labels = [all_pairs[i].label for i in scored]
    assert (labels.count("Similar"), labels.count("Different")) == (10, 7)
    for m, measure in enumerate(MEASURE_ORDER):
        areas = {}
        for mode in ("root", "light"):
            values = {label: [by_mode[mode][i].results[m].value for i in scored if all_pairs[i].label == label]
                      for label in ("Similar", "Different")}
            areas[mode] = auc(values["Similar"], values["Different"], lower_is_better=measure == "euclidean")
        assert areas["light"] > areas["root"], (measure, areas)


def test_run_comparison_empty_corpus(tmp_path, all_pairs):
    with pytest.raises(EmptyCorpusError):
        comparison(tmp_path, all_pairs, ("light",), k=2)


# --- rendering -------------------------------------------------------------------

def _empty_report():
    return ComparisonReport(rows=[], metadata=ReportMetadata(5, "u", "r" * 8, "c" * 8), modes=("root",))


def test_render_empty_report_header_only():
    tsv = render_report(_empty_report(), "tsv")
    lines = tsv.splitlines()
    assert lines[-1].startswith("Words\t")
    assert len(lines) == 3  # two metadata lines plus the column header


def test_render_single_row_columns(fixture_report):
    report = ComparisonReport(
        rows=[fixture_report.rows[0]], metadata=fixture_report.metadata, modes=("root",)
    )
    tsv = render_report(report, "tsv")
    lines = tsv.splitlines()
    assert lines[2].split("\t") == [
        "Words", "Transliteration", "English Translation",
        "Cosine", "Euclidean", "Pearson", "Jaccard", "Notes",
    ]
    assert lines[3].startswith("## ")
    assert len(lines[4].split("\t")) == 8


def test_render_markdown_matches_golden(fixture_report):
    rendered = render_report(fixture_report, "markdown")
    assert rendered.encode("utf-8") == GOLDEN.read_bytes()


def test_render_tsv_matches_golden(fixture_report):
    rendered = render_report(fixture_report, "tsv")
    assert rendered.encode("utf-8") == GOLDEN_TSV.read_bytes()


def test_render_markdown_escapes_pipes_in_cells():
    pair = WordPair("السفارة", "السفير", "Different", gloss="ambassador|embassy")
    row = ReportRow(pair, "root", (), oov=("السفارة",))
    report = ComparisonReport(rows=[row], metadata=ReportMetadata(5, "u", "r" * 8, "c" * 8), modes=("root",))
    table_row = render_report(report, "markdown").splitlines()[-1]
    assert "| ambassador\\|embassy |" in table_row
    assert len(re.split(r"(?<!\\)\|", table_row)) == 10  # 8 cells between 9 unescaped bars


def test_render_deterministic(fixture_report):
    assert render_report(fixture_report, "tsv") == render_report(fixture_report, "tsv")


def test_render_rejects_unknown_format(fixture_report):
    with pytest.raises(ValueError):
        render_report(fixture_report, "html")


def test_section_order_mirrors_modes_and_labels(fixture_report):
    tsv = render_report(fixture_report, "tsv")
    sections = [l for l in tsv.splitlines() if l.startswith("## ")]
    assert sections == [
        "## stemmer=root\tlabel=Similar",
        "## stemmer=root\tlabel=Different",
        "## stemmer=light\tlabel=Similar",
        "## stemmer=light\tlabel=Different",
    ]


def test_word_pair_validation():
    with pytest.raises(PairFormatError):
        WordPair("", "جد", "Similar")
    with pytest.raises(PairFormatError):
        WordPair("اب", "جد", "Other")
